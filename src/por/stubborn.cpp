#include "por/stubborn.hpp"

#include <algorithm>
#include <cstdint>
#include <span>
#include <stdexcept>

#include "reach/bfs_core.hpp"

namespace gpo::por {

using petri::Marking;
using petri::PlaceId;
using petri::TransitionId;
using Word = reach::MarkingStore::Word;

namespace {

constexpr std::size_t kWordBits = util::Bitset::kWordBits;

/// Adjacency lists in two flat arrays: row i is items[start[i], start[i+1]).
struct FlatLists {
  std::vector<std::uint32_t> start{0};
  std::vector<std::uint32_t> items;

  template <typename Range>
  void add_row(const Range& row) {
    items.insert(items.end(), row.begin(), row.end());
    start.push_back(static_cast<std::uint32_t>(items.size()));
  }
  [[nodiscard]] std::span<const std::uint32_t> row(std::size_t i) const {
    return {items.data() + start[i], items.data() + start[i + 1]};
  }
};

/// The stubborn closure over tables flattened once per run and scratch
/// arrays stamped with epochs, so a closure allocates nothing once its
/// vectors reached their high-water marks. Set membership is
/// `in_set_[t] == set_epoch_`; the per-state enabled flags are
/// `enabled_at_[t] == state_epoch_`.
class StubbornClosure {
 public:
  StubbornClosure(const petri::PetriNet& net,
                  const petri::ConflictInfo& conflicts)
      : conflicts_(conflicts),
        in_set_(net.transition_count(), 0),
        enabled_at_(net.transition_count(), 0) {
    const std::size_t nt = net.transition_count();
    for (TransitionId t = 0; t < nt; ++t) {
      neighbors_.add_row(conflicts.neighbors(t).to_indices());
      pre_places_.add_row(net.transition(t).pre);
    }
    for (const petri::Place& p : net.places()) producers_.add_row(p.pre);
    work_.reserve(nt);
    best_.reserve(nt);
    candidate_.reserve(nt);
  }

  /// Enabled transitions of the stubborn set `strategy` selects at m
  /// (words), ascending; empty when nothing is enabled. Valid until the next
  /// call.
  std::span<const TransitionId> ample(SeedStrategy strategy, const Word* m,
                                      std::span<const TransitionId> enabled) {
    best_.clear();
    if (enabled.empty()) return best_;
    begin_state(m, enabled);
    switch (strategy) {
      case SeedStrategy::kFirstEnabled:
        close(enabled.first(1), best_);
        break;
      case SeedStrategy::kWholeConflictSet:
        close(conflicts_.components()[conflicts_.component_of(
                  enabled.front())],
              best_);
        break;
      case SeedStrategy::kBestOverSeeds:
        for (const TransitionId& seed : enabled) {
          // A candidate only wins when strictly smaller, so its closure is
          // abandoned as soon as it holds best_.size() enabled transitions.
          const std::size_t bound = best_.empty() ? SIZE_MAX : best_.size();
          if (close({&seed, 1}, candidate_, bound)) best_.swap(candidate_);
          if (best_.size() == 1) break;  // cannot do better
        }
        break;
    }
    return best_;
  }

  /// Enabled transitions of the closure of `seeds` at m, ascending.
  std::span<const TransitionId> enabled_closure(
      const Word* m, std::span<const TransitionId> enabled,
      std::span<const TransitionId> seeds) {
    begin_state(m, enabled);
    close(seeds, best_);
    return best_;
  }

 private:
  /// Stamps the enabled flags of a new marking.
  void begin_state(const Word* m, std::span<const TransitionId> enabled) {
    m_ = m;
    enabled_ = enabled;
    if (++state_epoch_ == 0) restart(enabled_at_, state_epoch_);
    for (TransitionId t : enabled) enabled_at_[t] = state_epoch_;
  }

  static void restart(std::vector<std::uint32_t>& stamps,
                      std::uint32_t& epoch) {
    std::fill(stamps.begin(), stamps.end(), 0);
    epoch = 1;
  }

  [[nodiscard]] bool marked(PlaceId p) const {
    return (m_[p / kWordBits] >> (p % kWordBits)) & 1u;
  }

  /// Writes the enabled members of the closure of `seeds` to `out`,
  /// ascending, and returns true; returns false (out unspecified) as soon
  /// as the closure holds `bound` enabled transitions.
  bool close(std::span<const TransitionId> seeds,
             std::vector<TransitionId>& out, std::size_t bound = SIZE_MAX) {
    if (++set_epoch_ == 0) restart(in_set_, set_epoch_);
    work_.clear();
    std::size_t enabled_members = 0;
    auto add = [&](TransitionId t) {
      if (in_set_[t] != set_epoch_) {
        in_set_[t] = set_epoch_;
        work_.push_back(t);
        if (enabled_at_[t] == state_epoch_) ++enabled_members;
      }
    };
    for (TransitionId t : seeds) add(t);
    while (!work_.empty()) {
      if (enabled_members >= bound) return false;
      const TransitionId t = work_.back();
      work_.pop_back();
      if (enabled_at_[t] == state_epoch_) {
        // (D2) everything that could steal a token from •t must be inside.
        for (TransitionId u : neighbors_.row(t)) add(u);
      } else {
        // (D1) pick the unmarked input place with the fewest producers as
        // the scapegoat; all its producers join the set.
        PlaceId scapegoat = petri::kInvalidPlace;
        std::size_t best = SIZE_MAX;
        for (PlaceId p : pre_places_.row(t)) {
          if (marked(p)) continue;
          if (producers_.row(p).size() < best) {
            best = producers_.row(p).size();
            scapegoat = p;
          }
        }
        // `t` is disabled, so an unmarked input place exists.
        for (TransitionId producer : producers_.row(scapegoat)) add(producer);
      }
    }
    if (enabled_members >= bound) return false;
    out.clear();
    for (TransitionId t : enabled_)
      if (in_set_[t] == set_epoch_) out.push_back(t);
    return true;
  }

  const petri::ConflictInfo& conflicts_;
  FlatLists neighbors_;   // conflict neighbours per transition
  FlatLists pre_places_;  // •t per transition
  FlatLists producers_;   // •p per place
  std::vector<std::uint32_t> in_set_;
  std::vector<std::uint32_t> enabled_at_;
  std::uint32_t set_epoch_ = 0;
  std::uint32_t state_epoch_ = 0;
  const Word* m_ = nullptr;
  std::span<const TransitionId> enabled_;
  std::vector<TransitionId> work_;
  std::vector<TransitionId> best_;
  std::vector<TransitionId> candidate_;
};

}  // namespace

std::vector<TransitionId> stubborn_enabled_set(
    const petri::PetriNet& net, const petri::ConflictInfo& conflicts,
    const Marking& m, const std::vector<TransitionId>& seeds) {
  for (TransitionId t : seeds)
    if (t >= net.transition_count())
      throw std::out_of_range("stubborn seed is not a transition of the net");
  const std::vector<TransitionId> enabled = net.enabled_transitions(m);
  StubbornClosure closure(net, conflicts);
  auto set = closure.enabled_closure(m.words().data(), enabled, seeds);
  return {set.begin(), set.end()};
}

StubbornExplorer::StubbornExplorer(const petri::PetriNet& net,
                                   StubbornOptions options)
    : net_(net), conflicts_(net), options_(std::move(options)) {}

std::vector<TransitionId> StubbornExplorer::ample_set(const Marking& m) const {
  const std::vector<TransitionId> enabled = net_.enabled_transitions(m);
  StubbornClosure closure(net_, conflicts_);
  auto set = closure.ample(options_.strategy, m.words().data(), enabled);
  return {set.begin(), set.end()};
}

reach::ExplorerResult StubbornExplorer::explore() const {
  return explore_from({net_.initial_marking()});
}

reach::ExplorerResult StubbornExplorer::explore_from(
    const std::vector<Marking>& roots) const {
  StubbornClosure closure(net_, conflicts_);
  return reach::breadth_first_search(
      net_, roots, options_, "reduced-search",
      {.deadlock_filter = &options_.deadlock_filter},
      [&](const Word* m, std::span<const TransitionId> enabled) {
        return closure.ample(options_.strategy, m, enabled);
      });
}

}  // namespace gpo::por
