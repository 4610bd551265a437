// Immutable safe-Petri-net structure (Definition 2.1 of the paper): places,
// transitions, flow relation and initial marking. Nets are constructed through
// NetBuilder (builder.hpp) which validates the structure once; afterwards the
// net is read-only and safe to share across analysis engines.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "util/bitset.hpp"

namespace gpo::petri {

using PlaceId = std::uint32_t;
using TransitionId = std::uint32_t;

inline constexpr PlaceId kInvalidPlace = UINT32_MAX;
inline constexpr TransitionId kInvalidTransition = UINT32_MAX;

/// A marking of a safe net: one bit per place ("does the place hold a token").
using Marking = util::Bitset;

struct Place {
  std::string name;
  /// Input transitions •p (transitions that deposit a token here), sorted.
  std::vector<TransitionId> pre;
  /// Output transitions p• (transitions that consume a token from here), sorted.
  std::vector<TransitionId> post;
};

struct Transition {
  std::string name;
  /// Input places •t, sorted.
  std::vector<PlaceId> pre;
  /// Output places t•, sorted.
  std::vector<PlaceId> post;
  /// Same sets as bitsets over places, for O(words) enabling tests.
  Marking pre_bits;
  Marking post_bits;
};

class NetBuilder;

/// Immutable Petri net. |P| = place_count(), |T| = transition_count().
class PetriNet {
 public:
  [[nodiscard]] std::string_view name() const { return name_; }
  [[nodiscard]] std::size_t place_count() const { return places_.size(); }
  [[nodiscard]] std::size_t transition_count() const {
    return transitions_.size();
  }

  [[nodiscard]] const Place& place(PlaceId p) const { return places_[p]; }
  [[nodiscard]] const Transition& transition(TransitionId t) const {
    return transitions_[t];
  }
  [[nodiscard]] const std::vector<Place>& places() const { return places_; }
  [[nodiscard]] const std::vector<Transition>& transitions() const {
    return transitions_;
  }

  [[nodiscard]] const Marking& initial_marking() const { return initial_; }

  /// Looks a place up by name; returns kInvalidPlace if absent.
  [[nodiscard]] PlaceId find_place(std::string_view name) const;
  /// Looks a transition up by name; returns kInvalidTransition if absent.
  [[nodiscard]] TransitionId find_transition(std::string_view name) const;

  /// Enabling rule (Definition 2.3): every input place of t is marked.
  [[nodiscard]] bool enabled(TransitionId t, const Marking& m) const {
    return transitions_[t].pre_bits.is_subset_of(m);
  }

  /// Firing rule (Definition 2.4) for safe nets. Precondition: enabled(t, m).
  /// Returns the successor marking. If firing would place a second token in
  /// some place (a 1-safeness violation), sets *unsafe to true when provided.
  [[nodiscard]] Marking fire(TransitionId t, const Marking& m,
                             bool* unsafe = nullptr) const;

  /// All transitions enabled in m, ascending.
  [[nodiscard]] std::vector<TransitionId> enabled_transitions(
      const Marking& m) const;

  /// True if no transition is enabled in m (a classical deadlock).
  [[nodiscard]] bool is_deadlocked(const Marking& m) const;

 private:
  friend class NetBuilder;
  PetriNet() = default;

  std::string name_;
  std::vector<Place> places_;
  std::vector<Transition> transitions_;
  Marking initial_;
};

}  // namespace gpo::petri
