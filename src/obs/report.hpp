// Machine-readable run reports (`julie --report FILE`) and Chrome-trace
// export (`--trace FILE`).
//
// The report is the schema-stable JSON every front-end emits — `julie`,
// `bench_table1 --report` and `bench_gpo_intern --report` all go through
// RunReport, so cross-engine comparisons (the paper's Table 1, the ROADMAP's
// BENCH_* trajectory) are one `jq` away instead of a stdout-scraping
// exercise. The schema is checked in at bench/report_schema.json and
// validated both by the C++ golden test (obs::json::validate) and by CI
// (bench/validate_report.py).
//
// Document layout (schema_version 1):
//   {
//     "schema_version": 1,
//     "tool": "julie",
//     "command": "...",                      // optional
//     "net": {"name":..,"places":..,"transitions":..},
//     "reduction": {"level":"safe","places_before":..,"places_after":..,
//                   "transitions_before":..,"transitions_after":..,
//                   "seconds":..,
//                   "passes":[{"pass":"dead-places","applications":..}]},
//                                              // optional (--reduce runs);
//                                              // jobs[] entries carry their
//                                              // own "reduction" object
//     "engines": [ {"engine":"full", "model":"nsdp:8", "verdict":"deadlock",
//                   "states":.., "seconds":.., "aborted":false,
//                   "aborted_phase":"", "counters":{...}} ],
//     "jobs":    [ {"id":0, "model":"nsdp:6", "verdict":"deadlock",
//                   "winner":"gpo", "expect":"deadlock",
//                   "expect_matched":true, "seconds":..,
//                   "cancel_latency_seconds":..,
//                   "engines":[...engine runs, with "cancelled"...]} ],
//     "phases": [ {"name":"parse","ms":..,"children":[...]} ],
//     "histograms": [ {"name":"service.job_seconds", "count":..,  // optional
//                      "p50":.., "p90":.., "p99":.., "max":..} ], // seconds
//     "events_path": "events.jsonl",                              // optional
//     "memory": {"peak_rss_bytes":.., "gauges":{...}}   // registry "mem.*"
//   }
//
// "jobs" is emitted by the batch/server front-ends (`julie batch`, `julie
// serve --report`) — one entry per portfolio job, each racer's outcome
// nested under it.
#pragma once

#include <cstddef>
#include <iosfwd>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"

namespace gpo::obs {

/// High-water resident set size of this process (Linux: VmHWM of
/// /proc/self/status); 0 when unavailable.
[[nodiscard]] std::size_t peak_rss_bytes();
/// Current resident set size (Linux: VmRSS); 0 when unavailable.
[[nodiscard]] std::size_t current_rss_bytes();

/// Registry entries under `prefix` as an ordered JSON object; the prefix is
/// stripped from the keys and the remaining dots become underscores, so
/// "engine.full.peak_frontier" serializes as "peak_frontier". Counters
/// serialize as integers, gauges and timers as numbers.
[[nodiscard]] json::Value registry_to_json(const MetricsRegistry& reg,
                                           std::string_view prefix);

/// The span records as a nested phase tree: [{name, ms, children}]. Spans
/// still open at snapshot time get "ms": -1.
[[nodiscard]] json::Value phase_tree(
    const std::vector<Tracer::Record>& records);

/// Writes the records as chrome://tracing JSON ("traceEvents" of complete
/// "X" events, microsecond timestamps). Load via chrome://tracing or
/// https://ui.perfetto.dev.
void write_chrome_trace(std::ostream& out,
                        const std::vector<Tracer::Record>& records);

class RunReport {
 public:
  explicit RunReport(std::string tool) : tool_(std::move(tool)) {}

  void set_command(std::string command) { command_ = std::move(command); }
  void set_net(const std::string& name, std::size_t places,
               std::size_t transitions);

  /// One engine run. `states` < 0 means "not applicable" (serialized as -1,
  /// e.g. the unfolder reports events through counters instead).
  struct EngineRun {
    std::string engine;
    std::string model;  // optional: bench drivers tag the instance
    std::string verdict;
    double states = -1;
    double seconds = 0;
    bool aborted = false;
    /// The portfolio scheduler's first-to-answer cancellation stopped this
    /// run (a subset of aborted; serialized only inside jobs[] entries).
    bool cancelled = false;
    std::string aborted_phase;
    json::Value counters = json::Value::object();
  };
  void add_engine(EngineRun run) { engines_.push_back(std::move(run)); }

  /// Outcome of the structural net reduction applied in front of the
  /// engines (`--reduce` / the manifest's `reduce=` key). Kept as plain
  /// strings/numbers so this header does not depend on the reduce library;
  /// `passes` holds one (pass name, application count) pair per pass that
  /// applied. Serialized as a "reduction" object — top-level for single
  /// runs (set_reduction), per job inside jobs[] (JobRun::reduction).
  struct ReductionRun {
    std::string level;  // "safe" | "aggressive"
    long long places_before = 0;
    long long places_after = 0;
    long long transitions_before = 0;
    long long transitions_after = 0;
    double seconds = 0;
    std::vector<std::pair<std::string, long long>> passes;
  };
  void set_reduction(ReductionRun reduction) {
    reduction_ = std::move(reduction);
  }

  /// One portfolio job of a batch/server run (`julie batch` / `julie
  /// serve`). `engines` holds every racer's outcome; `winner` names the
  /// engine whose conclusive answer became the job verdict (empty when all
  /// racers aborted). Serialized as the report's "jobs" array.
  struct JobRun {
    long long id = 0;
    std::string model;
    std::string verdict;  // deadlock | no-deadlock | undecided | error
    std::string winner;
    std::string expect;  // expected verdict from the manifest; "" = none
    bool expect_matched = true;
    double seconds = 0;
    /// Longest drain of a cancelled loser: time from the cancel token firing
    /// to that engine actually returning. 0 when nothing was cancelled.
    double cancel_latency_seconds = 0;
    /// Net reduction applied once before the job's racers fanned out;
    /// absent when the manifest requested reduce=off (or nothing).
    std::optional<ReductionRun> reduction;
    std::vector<EngineRun> engines;
  };
  void add_job(JobRun job) { jobs_.push_back(std::move(job)); }
  [[nodiscard]] std::size_t job_count() const { return jobs_.size(); }

  /// Where the structured JSONL event log of this run was written (the
  /// `--events` flag / `events=` manifest directive). Emitted as the
  /// optional top-level "events_path" string so tooling can join the report
  /// with the event stream.
  void set_events_path(std::string path) { events_path_ = std::move(path); }

  /// Assembles the full document. `tracer` supplies the phase tree and `reg`
  /// the "mem." gauges; either may be null.
  [[nodiscard]] json::Value build(const Tracer* tracer,
                                  const MetricsRegistry* reg) const;

  void write(std::ostream& out, const Tracer* tracer,
             const MetricsRegistry* reg) const;

 private:
  std::string tool_;
  std::string command_;
  std::string events_path_;
  json::Value net_ = json::Value::object();
  std::optional<ReductionRun> reduction_;
  std::vector<EngineRun> engines_;
  std::vector<JobRun> jobs_;
};

}  // namespace gpo::obs
