#include "reach/bfs_core.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <vector>

#include "util/stopwatch.hpp"

namespace gpo::reach {

namespace {

using petri::Marking;
using petri::TransitionId;
using Word = MarkingStore::Word;
using StateId = MarkingStore::StateId;
constexpr std::size_t kWordBits = util::Bitset::kWordBits;

/// Per-transition pre/post place masks, `W` words each, in two flat arrays
/// (transition t owns words [t*W, (t+1)*W)).
class FlatNet {
 public:
  explicit FlatNet(const petri::PetriNet& net)
      : w_((net.place_count() + kWordBits - 1) / kWordBits),
        nt_(net.transition_count()),
        pre_(nt_ * w_),
        post_(nt_ * w_) {
    for (TransitionId t = 0; t < nt_; ++t) {
      std::ranges::copy(net.transition(t).pre_bits.words(),
                        pre_.data() + t * w_);
      std::ranges::copy(net.transition(t).post_bits.words(),
                        post_.data() + t * w_);
    }
  }

  [[nodiscard]] std::size_t word_count() const { return w_; }

  [[nodiscard]] bool enabled(TransitionId t, const Word* m) const {
    const Word* pre = pre_.data() + t * w_;
    for (std::size_t w = 0; w < w_; ++w)
      if ((pre[w] & ~m[w]) != 0) return false;
    return true;
  }

  void enabled_transitions(const Word* m,
                           std::vector<TransitionId>& out) const {
    out.clear();
    for (TransitionId t = 0; t < nt_; ++t)
      if (enabled(t, m)) out.push_back(t);
  }

  [[nodiscard]] bool dead(const Word* m) const {
    for (TransitionId t = 0; t < nt_; ++t)
      if (enabled(t, m)) return false;
    return true;
  }

  /// Writes the successor of m under t (enabled) to `out`; returns true when
  /// a token lands in a place that stays marked (a 1-safeness violation),
  /// exactly as PetriNet::fire reports it.
  bool fire(TransitionId t, const Word* m, Word* out) const {
    const Word* pre = pre_.data() + t * w_;
    const Word* post = post_.data() + t * w_;
    Word clash = 0;
    for (std::size_t w = 0; w < w_; ++w) {
      const Word kept = m[w] & ~pre[w];
      clash |= kept & post[w];
      out[w] = kept | post[w];
    }
    return clash != 0;
  }

 private:
  std::size_t w_;
  std::size_t nt_;
  std::vector<Word> pre_;
  std::vector<Word> post_;
};

}  // namespace

ExplorerResult breadth_first_search(const petri::PetriNet& net,
                                    std::span<const Marking> roots,
                                    const SearchOptions& o,
                                    std::string_view phase,
                                    const StateChecks& checks,
                                    const SuccessorFn& successors) {
  ExplorerResult result;
  util::Stopwatch timer;
  const FlatNet flat(net);
  const std::size_t w = flat.word_count();
  const std::size_t np = net.place_count();
  const std::size_t nt = net.transition_count();

  // Live-progress slots for the heartbeat; resolved once so the hot path is
  // a null check plus a relaxed fetch_add.
  obs::Counter* live_states = nullptr;
  obs::Gauge* live_frontier = nullptr;
  if (obs::kHotCountersEnabled && o.metrics != nullptr) {
    live_states = &o.metrics->counter("progress.states");
    live_frontier = &o.metrics->gauge("progress.frontier");
  }

  MarkingStore store(w);
  const std::size_t max_states = state_limit(o.max_states, nt);
  // An empty predicate checks nothing; drop it so `inspect` skips the call.
  auto active = [](const MarkingPredicate* p) {
    return p != nullptr && *p ? p : nullptr;
  };
  const MarkingPredicate* deadlock_filter = active(checks.deadlock_filter);
  const MarkingPredicate* bad_state = active(checks.bad_state);
  std::vector<Word> fireable((nt + kWordBits - 1) / kWordBits, 0);
  std::vector<Word> cur(w);
  std::vector<Word> next(w);
  std::vector<TransitionId> enabled;
  enabled.reserve(nt);

  auto to_marking = [&](const Word* m) {
    return Marking(np, std::span<const Word>(m, w));
  };
  // Predicates take a Marking; one scratch bitset is refilled per call.
  Marking view(np);
  auto as_view = [&](const Word* m) -> const Marking& {
    view.assign_words(std::span<const Word>(m, w));
    return view;
  };

  // Checks a newly discovered state; returns true when the search stops.
  auto inspect = [&](StateId id) -> bool {
    const Word* m = store.marking(id);
    if (flat.dead(m) &&
        (deadlock_filter == nullptr || (*deadlock_filter)(as_view(m)))) {
      ++result.deadlock_count;
      if (!result.deadlock_found) {
        result.deadlock_found = true;
        result.first_deadlock = to_marking(m);
        result.counterexample = store.trace_to(id);
      }
      if (o.stop_at_first_deadlock) return true;
    }
    if (bad_state != nullptr && (*bad_state)(as_view(m))) {
      if (!result.bad_state_found) {
        result.bad_state_found = true;
        result.first_bad_state = to_marking(m);
      }
      if (o.stop_at_first_deadlock) return true;
    }
    return false;
  };

  bool stopped = false;
  for (const Marking& root : roots) {
    if (root.size() != np)
      throw std::invalid_argument("search root has " +
                                  std::to_string(root.size()) +
                                  " places, the net " + std::to_string(np));
    auto [id, fresh] = store.intern(root.words().data(), MarkingStore::kNoId,
                                    petri::kInvalidTransition);
    if (fresh) {
      if (live_states != nullptr) live_states->add();
      if (inspect(id)) {
        stopped = true;
        break;
      }
    }
  }

  // Ids are handed out in discovery order, so the FIFO frontier is exactly
  // the id range [head, store.size()).
  std::size_t head = 0;
  std::size_t peak_frontier = store.size();
  const bool timed = o.max_seconds < std::numeric_limits<double>::infinity();
  while (head < store.size() && !stopped) {
    const std::size_t frontier = store.size() - head;
    peak_frontier = std::max(peak_frontier, frontier);
    if (live_frontier != nullptr)
      live_frontier->set(static_cast<double>(frontier));
    if (store.size() > max_states ||
        (timed && head % 64 == 0 &&
         timer.elapsed_seconds() > o.max_seconds) ||
        util::cancel_requested(o.cancel)) {
      result.limit_hit = true;
      result.interrupted_phase = phase;
      break;
    }
    const auto s = static_cast<StateId>(head++);
    // Copy: interning below may move the arena.
    std::copy_n(store.marking(s), w, cur.data());

    flat.enabled_transitions(cur.data(), enabled);
    for (TransitionId t : enabled)
      fireable[t / kWordBits] |= Word{1} << (t % kWordBits);
    const std::span<const TransitionId> fire_set =
        successors ? successors(cur.data(), enabled)
                   : std::span<const TransitionId>(enabled);
    for (TransitionId t : fire_set) {
      if (flat.fire(t, cur.data(), next.data()) &&
          !result.safeness_violation) {
        result.safeness_violation = true;
        result.unsafe_source = to_marking(cur.data());
      }
      ++result.edge_count;
      auto [id, fresh] = store.intern(next.data(), s, t);
      if (o.build_graph)
        result.graph.edges.push_back({s, id, net.transition(t).name});
      if (fresh) {
        if (live_states != nullptr) live_states->add();
        if (inspect(id)) {
          stopped = true;
          break;
        }
      }
    }
  }

  result.fireable_transitions = util::Bitset(nt, fireable);
  result.state_count = store.size();
  result.seconds = timer.elapsed_seconds();
  result.stats.threads = 1;
  result.stats.peak_frontier = peak_frontier;
  if (result.seconds > 0)
    result.stats.states_per_second = result.state_count / result.seconds;
  if (o.metrics != nullptr)
    publish_explorer_stats(*o.metrics, o.metrics_prefix, result,
                           store.memory_bytes());
  if (o.build_graph) {
    result.graph.initial = 0;
    result.graph.node_labels.reserve(store.size());
    for (StateId id = 0; id < store.size(); ++id)
      result.graph.node_labels.push_back(
          marking_to_string(net, as_view(store.marking(id))));
  }
  return result;
}

}  // namespace gpo::reach
