// The one sequential breadth-first search behind the exhaustive explorer
// (`full`, Section 2.2 of the paper) and the stubborn-set explorer (`por`,
// Section 2.3). The two differ only in the successor set they fire at a
// marking: every enabled transition, or the enabled part of one stubborn
// set. Markings live in a MarkingStore (word arena + open-addressed id
// table); enabling and firing work word by word on per-transition masks
// flattened once per run. See DESIGN.md, "Sequential marking store".
#pragma once

#include <algorithm>
#include <functional>
#include <span>
#include <string_view>

#include "obs/metrics.hpp"
#include "petri/net.hpp"
#include "reach/explorer.hpp"
#include "reach/marking_store.hpp"
#include "util/cancel_token.hpp"

namespace gpo::reach {

using MarkingPredicate = std::function<bool(const petri::Marking&)>;

/// Per-state checks of one search, borrowed for the call; a null or empty
/// predicate checks nothing.
struct StateChecks {
  /// A dead marking counts as a deadlock only if this holds.
  const MarkingPredicate* deadlock_filter = nullptr;
  /// Markings where this holds are reported as bad states.
  const MarkingPredicate* bad_state = nullptr;
};

/// The state limit the search applies: `max_states`, lowered so that one
/// more expansion (at most `transition_count` new states) still fits the
/// store's uint32 ids. Running out of ids is thus an ordinary limit_hit.
[[nodiscard]] constexpr std::size_t state_limit(std::size_t max_states,
                                                std::size_t transition_count) {
  return std::min(max_states,
                  MarkingStore::kMaxStates -
                      std::min(transition_count, MarkingStore::kMaxStates));
}

/// The transitions to fire at the marking with words `m`, given its enabled
/// transitions (ascending). The span must stay valid until the next call.
using SuccessorFn = std::function<std::span<const petri::TransitionId>(
    const MarkingStore::Word* m,
    std::span<const petri::TransitionId> enabled)>;

/// Breadth-first search from `roots`, deduplicated and numbered in the given
/// order; counterexamples start at whichever root reached the deadlock.
/// An empty `successors` fires every enabled transition. Every marking is
/// checked for deadlock (and `checks.bad_state`) when discovered; the cancel
/// token is polled before every expansion, the clock every 64 expansions.
/// A limit ends the search with limit_hit and `phase` as the interrupted
/// phase. Throws std::invalid_argument when a root is not a marking of
/// `net`.
[[nodiscard]] ExplorerResult breadth_first_search(
    const petri::PetriNet& net, std::span<const petri::Marking> roots,
    const SearchOptions& options, std::string_view phase,
    const StateChecks& checks = {}, const SuccessorFn& successors = {});

}  // namespace gpo::reach
