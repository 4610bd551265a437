// Engine portfolio: the pluggable racer set behind the verification service.
//
// Each engine is wrapped as an EngineRunner — a uniform "net in, deadlock
// verdict out" closure that honours a shared budget, polls a CancelToken and
// publishes its counters into the job's MetricsRegistry under
// "engine.<name>.". The scheduler races several runners per job and cancels
// the rest the moment the first conclusive outcome lands (SMPT-style
// portfolio with early cancellation; the registry keeps the engine set
// pluggable the way LTSmin's frontend/backend split does).
//
// Runners are sequential engines: the service's parallelism comes from
// racing engines and multiplexing jobs over one global pool.
#pragma once

#include <cstddef>
#include <functional>
#include <limits>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "petri/net.hpp"
#include "util/cancel_token.hpp"

namespace gpo::service {

/// Shared per-job budget every racer receives.
struct RunLimits {
  std::size_t max_states = std::numeric_limits<std::size_t>::max();
  double max_seconds = std::numeric_limits<double>::infinity();
};

/// Outcome of one racer. `conclusive` is the race-deciding bit: true iff the
/// engine finished with a trustworthy deadlock/no-deadlock verdict (no limit
/// hit, no cancellation, no blowup, no error).
struct EngineOutcome {
  std::string engine;
  /// "deadlock" | "no-deadlock" | "aborted" | "cancelled" | "failed"
  std::string verdict = "aborted";
  bool conclusive = false;
  bool deadlock = false;
  double states = -1;  // -1: not applicable
  double seconds = 0;
  bool aborted = false;
  /// The job's CancelToken stopped this run (subset of aborted).
  bool cancelled = false;
  /// Phase a limit or the cancel interrupted (engine-specific names).
  std::string aborted_phase;
  std::string error;  // "failed" verdicts: the exception text
  /// Winner's firing sequence into the deadlock, when the engine produces
  /// one (the GPO engines' replayed scenario, the explicit engines' trace).
  std::vector<petri::TransitionId> counterexample;
};

/// One engine wrapped for racing. The registry pointer may be null (no
/// telemetry); the token pointer may be null (standalone run).
using EngineRunner = std::function<EngineOutcome(
    const petri::PetriNet& net, const RunLimits& limits,
    const util::CancelToken* cancel, obs::MetricsRegistry* metrics)>;

/// Name -> runner map. Copyable so tests can extend the default set with
/// synthetic racers (e.g. a deliberately slow engine for cancellation
/// tests).
class EngineRegistry {
 public:
  /// Registers (or replaces) a runner.
  void add(const std::string& name, EngineRunner runner);
  /// nullptr when `name` is not registered.
  [[nodiscard]] const EngineRunner* find(const std::string& name) const;
  [[nodiscard]] std::vector<std::string> names() const;

 private:
  std::vector<std::pair<std::string, EngineRunner>> entries_;
};

/// The real engines: full, por, bdd, gpo (the GPN search over ZDD
/// families), gpo-intern and gpo-bdd (the same search over interned
/// explicit / BDD families), and unfold (prefix construction + deadlock
/// check through the complete prefix, so it races as a genuine verdict
/// producer).
[[nodiscard]] const EngineRegistry& default_engine_registry();

}  // namespace gpo::service
