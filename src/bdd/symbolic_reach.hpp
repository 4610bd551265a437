// Symbolic (OBDD-based) reachability analysis of safe Petri nets
// (Section 2.4 of the paper) — the stand-in for the SMV baseline of Table 1.
//
// Encoding: one Boolean variable per place, at the place's position in the
// chosen ordering. A transition of a 1-safe net only tests and sets the
// places it touches, so its image is a local update (BddManager::fire):
// one memoized pass that continues on the high cofactor at a pre-place and
// ORs the images of both cofactors at a post-only place, rebuilds the node
// with the place's new value and passes every other level through. No
// next-state variables, relation BDDs, quantification cubes or renaming are
// built.
//
// The fixpoint is chaining [Roig, Cortadella, Pastor 1995]: each sweep runs
// reached |= fire(reached, t) for every transition in turn, so a state
// found by one transition is fired by the next within the same sweep;
// sweeps repeat until one adds nothing.
#pragma once

#include <cstddef>
#include <functional>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "bdd/bdd.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "petri/net.hpp"
#include "util/cancel_token.hpp"

namespace gpo::bdd {

enum class VariableOrder {
  /// Places in declaration order — what a naive encoding would do.
  kDeclaration,
  /// Breadth-first traversal of the place/transition graph from the
  /// initially marked places; keeps structurally related places adjacent,
  /// which is what makes or breaks BDD sizes on these nets.
  kBfs,
};

struct SymbolicOptions {
  VariableOrder order = VariableOrder::kBfs;
  /// Arena cap; exceeding it aborts the analysis with blowup=true (the
  /// "> 24 hours" rows of Table 1).
  std::size_t node_limit = std::size_t{1} << 23;
  double max_seconds = std::numeric_limits<double>::infinity();
  /// Cooperative cancellation; a fired token aborts the fixpoint with
  /// blowup=true, blowup_reason="cancelled". It is polled, with
  /// max_seconds, before every transition's image, not once per sweep.
  const util::CancelToken* cancel = nullptr;
  /// Called with (sweep, transition) just before that poll, i.e. before
  /// each transition's image; a hook that fires `cancel` stops the run
  /// before that image.
  std::function<void(std::size_t, petri::TransitionId)> before_image;
  /// When set, only deadlocks marking this place count (safety-to-deadlock
  /// reduction); implemented as one extra conjunction on the dead-state set.
  std::optional<petri::PlaceId> required_deadlock_place;
  /// Optional telemetry sink; publishes "<metrics_prefix>iterations",
  /// "<metrics_prefix>peak_nodes", "<metrics_prefix>unique_table_load"
  /// (stored nodes / unique-table slots), the per-op computed-table
  /// counters "<metrics_prefix>cache.<op>.{hits,misses}" of every op the
  /// run looked up, the fixpoint time
  /// and "mem.<metrics_prefix>node_bytes" (arena + unique table + computed
  /// table) when set.
  obs::MetricsRegistry* metrics = nullptr;
  std::string metrics_prefix = "bdd.";
  /// Optional phase tracer: analyze() opens the spans "symbolic-fixpoint"
  /// and "deadlock-check".
  obs::Tracer* tracer = nullptr;
};

struct SymbolicResult {
  /// Number of reachable markings (exact while it fits 53 bits).
  double state_count = 0;
  /// Chaining sweeps over the transitions, the last one adding nothing.
  std::size_t iterations = 0;
  /// Peak BDD arena size — the "Peak BDD-size" column of Table 1.
  std::size_t peak_nodes = 0;
  bool deadlock_found = false;
  std::optional<petri::Marking> deadlock_witness;
  /// Node limit or time limit hit before the fixpoint.
  bool blowup = false;
  std::string blowup_reason;
  double seconds = 0.0;
};

class SymbolicReachability {
 public:
  explicit SymbolicReachability(const petri::PetriNet& net,
                                SymbolicOptions options = {});

  /// Runs the reachability fixpoint and the deadlock check.
  [[nodiscard]] SymbolicResult analyze();

  /// The place ordering actually used (position -> place id); for tests.
  [[nodiscard]] const std::vector<petri::PlaceId>& place_order() const {
    return order_;
  }

 private:
  [[nodiscard]] Var var_of(petri::PlaceId p) const { return position_[p]; }

  const petri::PetriNet& net_;
  SymbolicOptions options_;
  std::vector<petri::PlaceId> order_;      // position -> place
  std::vector<std::uint32_t> position_;    // place -> position
  std::optional<BddManager> manager_;
};

/// Computes the place ordering for the given heuristic (exposed for tests
/// and the ordering-ablation bench).
[[nodiscard]] std::vector<petri::PlaceId> compute_place_order(
    const petri::PetriNet& net, VariableOrder order);

}  // namespace gpo::bdd
