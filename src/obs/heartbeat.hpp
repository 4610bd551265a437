// Background progress heartbeat (`julie --progress [SECS]`).
//
// A detached-looking (but joinable) thread wakes every `interval` seconds,
// reads the live-progress metric slots and prints one line to stderr:
//
//   [progress 12.0s] states=1034212 (86k/s) frontier=4821 rss=182.4MB
//                    zdd_nodes=5121 phase=engine/gpo/reduced-search
//
// stdout is untouched, so `--quiet` pipelines stay one-line-per-engine.
// The heartbeat reads only lock-free slots (Counter/Gauge loads) plus
// Tracer::current_path() (a short mutex hold), so it cannot perturb engine
// timing beyond noise. stop() always prints a final line, which makes the
// CLI smoke test deterministic even when the run finishes inside the first
// interval.
//
// Well-known slot names (registered by Heartbeat itself so engines can rely
// on them existing):
//   progress.states    Counter  states interned / events added so far
//   progress.frontier  Gauge    current frontier / in-flight size
//   progress.zdd_nodes Gauge    live nodes of the GPO engine's ZDD store
//   interner.families  Gauge    hash-consed set-family occupancy (gpo-intern)
#pragma once

#include <ostream>
#include <string>
#include <thread>

#include <condition_variable>
#include <mutex>

#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "util/stopwatch.hpp"

namespace gpo::obs {

class Heartbeat {
 public:
  /// `tracer` may be null (no phase= field). Does not start the thread.
  Heartbeat(MetricsRegistry& reg, const Tracer* tracer, double interval_s,
            std::ostream& out);
  ~Heartbeat();

  Heartbeat(const Heartbeat&) = delete;
  Heartbeat& operator=(const Heartbeat&) = delete;

  void start();
  /// Joins the thread and prints the final progress line (idempotent).
  void stop();

  /// Formats and prints one progress line now (also used by the ticker
  /// thread). Exposed for unit tests.
  void emit_line();

 private:
  void run();

  MetricsRegistry& reg_;
  const Tracer* tracer_;
  double interval_s_;
  std::ostream& out_;

  Counter& states_;
  Gauge& frontier_;
  Gauge& zdd_nodes_;
  Gauge& families_;

  util::Stopwatch uptime_;
  util::Stopwatch rate_clock_;
  std::uint64_t last_states_ = 0;

  std::mutex mu_;
  std::condition_variable cv_;
  bool stopping_ = false;
  bool stopped_ = false;
  std::thread thread_;
};

}  // namespace gpo::obs
