#include "petri/net.hpp"

namespace gpo::petri {

PlaceId PetriNet::find_place(std::string_view name) const {
  for (PlaceId p = 0; p < places_.size(); ++p)
    if (places_[p].name == name) return p;
  return kInvalidPlace;
}

TransitionId PetriNet::find_transition(std::string_view name) const {
  for (TransitionId t = 0; t < transitions_.size(); ++t)
    if (transitions_[t].name == name) return t;
  return kInvalidTransition;
}

Marking PetriNet::fire(TransitionId t, const Marking& m, bool* unsafe) const {
  const Transition& tr = transitions_[t];
  Marking next = m;
  next -= tr.pre_bits;
  if (unsafe != nullptr && next.intersects(tr.post_bits)) {
    // A token is already present in an output place that is not also being
    // consumed: the classical firing rule would create a second token.
    *unsafe = true;
  }
  next |= tr.post_bits;
  return next;
}

std::vector<TransitionId> PetriNet::enabled_transitions(
    const Marking& m) const {
  std::vector<TransitionId> out;
  for (TransitionId t = 0; t < transitions_.size(); ++t)
    if (enabled(t, m)) out.push_back(t);
  return out;
}

bool PetriNet::is_deadlocked(const Marking& m) const {
  for (TransitionId t = 0; t < transitions_.size(); ++t)
    if (enabled(t, m)) return false;
  return true;
}

}  // namespace gpo::petri
