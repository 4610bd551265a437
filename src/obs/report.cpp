#include "obs/report.hpp"

#include <cstdio>
#include <fstream>
#include <ostream>
#include <string>

namespace gpo::obs {

namespace {

/// Reads one "kB" field from /proc/self/status (Linux). Returns bytes, 0 on
/// any failure — telemetry must degrade, never abort a verification run.
std::size_t proc_status_kb(std::string_view key) {
  std::ifstream in("/proc/self/status");
  if (!in) return 0;
  std::string line;
  while (std::getline(in, line)) {
    if (line.compare(0, key.size(), key.data(), key.size()) != 0) continue;
    // "VmHWM:     12345 kB"
    std::size_t pos = key.size();
    while (pos < line.size() && (line[pos] == ':' || line[pos] == ' ' ||
                                 line[pos] == '\t'))
      ++pos;
    std::size_t kb = 0;
    while (pos < line.size() && line[pos] >= '0' && line[pos] <= '9')
      kb = kb * 10 + static_cast<std::size_t>(line[pos++] - '0');
    return kb * 1024;
  }
  return 0;
}

}  // namespace

std::size_t peak_rss_bytes() { return proc_status_kb("VmHWM"); }
std::size_t current_rss_bytes() { return proc_status_kb("VmRSS"); }

json::Value registry_to_json(const MetricsRegistry& reg,
                             std::string_view prefix) {
  json::Value out = json::Value::object();
  for (const MetricsRegistry::Snapshot& s : reg.snapshot(prefix)) {
    std::string key = s.name.substr(prefix.size());
    for (char& c : key)
      if (c == '.') c = '_';
    switch (s.kind) {
      case MetricKind::kCounter:
        out[key] = static_cast<long long>(s.count);
        break;
      case MetricKind::kGauge:
      case MetricKind::kTimer:
        out[key] = s.value;
        break;
      case MetricKind::kHistogram: {
        // Nested object so per-engine counters keep their flat numeric
        // shape; all durations in seconds (registry histograms record ns).
        json::Value h = json::Value::object();
        h["count"] = static_cast<long long>(s.count);
        h["p50"] = s.p50;
        h["p90"] = s.p90;
        h["p99"] = s.p99;
        h["max"] = s.max;
        out[key] = std::move(h);
        break;
      }
    }
  }
  return out;
}

json::Value phase_tree(const std::vector<Tracer::Record>& records) {
  // Records are in span-open order (parents precede children); group child
  // indices per parent, then emit the tree recursively so sibling order is
  // preserved.
  std::vector<std::vector<std::size_t>> children(records.size());
  std::vector<std::size_t> roots;
  for (std::size_t i = 0; i < records.size(); ++i) {
    if (records[i].parent == 0)
      roots.push_back(i);
    else
      children[records[i].parent - 1].push_back(i);
  }
  auto build = [&](auto&& self, std::size_t i) -> json::Value {
    json::Value n = json::Value::object();
    n["name"] = records[i].name;
    n["ms"] = records[i].dur_us < 0
                  ? -1.0
                  : static_cast<double>(records[i].dur_us) / 1000.0;
    json::Value kids = json::Value::array();
    for (std::size_t c : children[i]) kids.push_back(self(self, c));
    n["children"] = std::move(kids);
    return n;
  };
  json::Value out = json::Value::array();
  for (std::size_t r : roots) out.push_back(build(build, r));
  return out;
}

void write_chrome_trace(std::ostream& out,
                        const std::vector<Tracer::Record>& records) {
  json::Value doc = json::Value::object();
  json::Value events = json::Value::array();
  for (const Tracer::Record& r : records) {
    json::Value e = json::Value::object();
    e["name"] = r.name;
    e["ph"] = "X";
    e["ts"] = r.start_us;
    // Chrome refuses negative durations; clamp open spans to 0.
    e["dur"] = r.dur_us < 0 ? static_cast<std::int64_t>(0) : r.dur_us;
    e["pid"] = 1;
    e["tid"] = 1;
    e["cat"] = "phase";
    events.push_back(std::move(e));
  }
  doc["traceEvents"] = std::move(events);
  doc["displayTimeUnit"] = "ms";
  doc.dump(out);
  out << '\n';
}

void RunReport::set_net(const std::string& name, std::size_t places,
                        std::size_t transitions) {
  net_ = json::Value::object();
  net_["name"] = name;
  net_["places"] = static_cast<long long>(places);
  net_["transitions"] = static_cast<long long>(transitions);
}

namespace {

json::Value reduction_to_json(const RunReport::ReductionRun& red) {
  json::Value r = json::Value::object();
  r["level"] = red.level;
  r["places_before"] = red.places_before;
  r["places_after"] = red.places_after;
  r["transitions_before"] = red.transitions_before;
  r["transitions_after"] = red.transitions_after;
  r["seconds"] = red.seconds;
  json::Value passes = json::Value::array();
  for (const auto& [pass, applications] : red.passes) {
    json::Value p = json::Value::object();
    p["pass"] = pass;
    p["applications"] = applications;
    passes.push_back(std::move(p));
  }
  r["passes"] = std::move(passes);
  return r;
}

json::Value engine_run_to_json(const RunReport::EngineRun& run,
                               bool in_job) {
  json::Value e = json::Value::object();
  e["engine"] = run.engine;
  if (!run.model.empty()) e["model"] = run.model;
  e["verdict"] = run.verdict;
  e["states"] = static_cast<long long>(run.states);
  e["seconds"] = run.seconds;
  e["aborted"] = run.aborted;
  if (in_job) e["cancelled"] = run.cancelled;
  if (!run.aborted_phase.empty()) e["aborted_phase"] = run.aborted_phase;
  e["counters"] = run.counters;
  return e;
}

}  // namespace

json::Value RunReport::build(const Tracer* tracer,
                             const MetricsRegistry* reg) const {
  json::Value doc = json::Value::object();
  doc["schema_version"] = 1;
  doc["tool"] = tool_;
  if (!command_.empty()) doc["command"] = command_;
  if (net_.is_object() && net_.size() > 0) doc["net"] = net_;
  if (reduction_.has_value()) doc["reduction"] = reduction_to_json(*reduction_);

  json::Value engines = json::Value::array();
  for (const EngineRun& run : engines_)
    engines.push_back(engine_run_to_json(run, /*in_job=*/false));
  doc["engines"] = std::move(engines);

  if (!jobs_.empty()) {
    json::Value jobs = json::Value::array();
    for (const JobRun& job : jobs_) {
      json::Value j = json::Value::object();
      j["id"] = job.id;
      j["model"] = job.model;
      j["verdict"] = job.verdict;
      j["winner"] = job.winner;
      if (!job.expect.empty()) {
        j["expect"] = job.expect;
        j["expect_matched"] = job.expect_matched;
      }
      j["seconds"] = job.seconds;
      j["cancel_latency_seconds"] = job.cancel_latency_seconds;
      if (job.reduction.has_value())
        j["reduction"] = reduction_to_json(*job.reduction);
      json::Value racers = json::Value::array();
      for (const EngineRun& run : job.engines)
        racers.push_back(engine_run_to_json(run, /*in_job=*/true));
      j["engines"] = std::move(racers);
      jobs.push_back(std::move(j));
    }
    doc["jobs"] = std::move(jobs);
  }

  if (tracer != nullptr) doc["phases"] = phase_tree(tracer->records());
  else doc["phases"] = json::Value::array();

  // Latency distributions: every registered histogram (even count == 0, so
  // the section's shape is independent of traffic), percentiles in seconds.
  if (reg != nullptr) {
    json::Value hists = json::Value::array();
    for (const MetricsRegistry::Snapshot& s : reg->snapshot()) {
      if (s.kind != MetricKind::kHistogram) continue;
      json::Value h = json::Value::object();
      h["name"] = s.name;
      h["count"] = static_cast<long long>(s.count);
      h["p50"] = s.p50;
      h["p90"] = s.p90;
      h["p99"] = s.p99;
      h["max"] = s.max;
      hists.push_back(std::move(h));
    }
    if (hists.size() > 0) doc["histograms"] = std::move(hists);
  }
  if (!events_path_.empty()) doc["events_path"] = events_path_;

  json::Value mem = json::Value::object();
  mem["peak_rss_bytes"] = static_cast<long long>(peak_rss_bytes());
  mem["gauges"] =
      reg != nullptr ? registry_to_json(*reg, "mem.") : json::Value::object();
  doc["memory"] = std::move(mem);
  return doc;
}

void RunReport::write(std::ostream& out, const Tracer* tracer,
                      const MetricsRegistry* reg) const {
  build(tracer, reg).dump(out);
  out << '\n';
}

}  // namespace gpo::obs
