// End-to-end benchmark: net in -> verdict out, over three workloads.
//
//   gpo-conflict         one client, one job at a time: parse_net -> the
//                        registry's `gpo` engine (no reduction) -> verdict.
//   portfolio-stream     one PortfolioScheduler (default portfolio), a closed
//                        loop keeping kOutstanding jobs in flight; jobs are
//                        built-in specs, .net files or .pnml files.
//   baseline-statespace  one client: parse_net -> reduce_net(safe) -> one of
//                        full/por/bdd/unfold -> verdict, with the
//                        counterexample mapped back through the certificate.
//
// Every job's verdict is checked against an oracle that does not use the
// engine under test: the expected-verdict table for built-in models, and a
// plain breadth-first search over markings (this file) for random nets.
// Every deadlock counterexample is replayed on the original net by this
// file's own firing rule. A wrong verdict or a failed replay is a failed
// operation, and the run exits non-zero.
//
// The benchmark only calls public entry points (parser, reduce, the engine
// registry by the names full/por/bdd/gpo/unfold, and the portfolio
// scheduler with its default portfolio). With --trace 1 the measured phase
// is split in two halves: an untraced one, and a traced one in which spans
// around each call are kept in memory, summarized into per-layer metrics and
// written to --trace-out at exit.
//
// Times are reported on a reference host (see HostProbe): every run also
// times a fixed search of this file's own between its rounds, and divides
// its times by how much slower than kProbeNominalMs that search ran.
//
// Output: a header line, note lines, and as the last line one JSON object
// {"correct", "attempted", "failed", "metrics"}. run.py builds and runs this
// program; see README.md in this directory.
#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <deque>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_set>
#include <utility>
#include <vector>

#include "models/models.hpp"
#include "obs/metrics.hpp"
#include "parser/net_format.hpp"
#include "parser/pnml.hpp"
#include "petri/builder.hpp"
#include "petri/net.hpp"
#include "reduce/reduce.hpp"
#include "service/manifest.hpp"
#include "service/portfolio.hpp"
#include "service/scheduler.hpp"

#ifndef E2E_BUILD_TYPE
#define E2E_BUILD_TYPE "unknown"
#endif

namespace {

using namespace gpo;
using Clock = std::chrono::steady_clock;

constexpr double kJobMaxSeconds = 20.0;  // per-job budget for every engine
// setup_s is the median over kSetupBatches batches of the mean time of one
// set-up; a batch repeats the set-up for kSetupBatchSeconds.
constexpr std::size_t kSetupBatches = 11;
constexpr double kSetupBatchSeconds = 0.2;
constexpr std::size_t kOutstanding = 6;   // portfolio-stream closed loop
constexpr std::size_t kEpochPasses = 10;  // portfolio passes per scheduler
// A measured phase runs whole rounds until --seconds have passed and at
// least kMinJobs jobs are done, so p99 always leaves ten jobs beyond it.
constexpr std::size_t kMinJobs = 1000;
constexpr std::size_t kOracleStateCap = 5'000'000;
// Host probe: a breadth-first search over the 2 187 markings of nsdp:7,
// about 1 ms on the 4-CPU virtual machine the bounds were set on.
constexpr const char* kProbeSpec = "nsdp:7";
constexpr int kProbeReps = 3;
constexpr double kProbeNominalMs = 1.0;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// User+sys CPU of the process (RUSAGE_SELF) or the calling thread
/// (RUSAGE_THREAD).
double cpu_seconds(int who = RUSAGE_SELF) {
  rusage ru{};
  getrusage(who, &ru);
  auto tv = [](const timeval& v) { return v.tv_sec + v.tv_usec * 1e-6; };
  return tv(ru.ru_utime) + tv(ru.ru_stime);
}

/// Resets the kernel's peak-RSS mark (VmHWM) to the current RSS, so the next
/// read gives this workload's (or job's) own peak. False if unsupported.
bool reset_peak_rss() {
  std::ofstream f("/proc/self/clear_refs");
  f << "5";
  f.flush();
  return static_cast<bool>(f);
}

/// Bytes the allocator has handed out and not yet had back, over all arenas.
double heap_bytes() {
  const struct mallinfo2 mi = mallinfo2();
  return static_cast<double>(mi.uordblks + mi.hblkhd);
}

double peak_rss_mb() {
  std::ifstream f("/proc/self/status");
  std::string line;
  while (std::getline(f, line))
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024;
  return 0;
}

/// Nearest rank (1-based) of percentile p (0..100) in a sample of n.
/// p * n is formed first so that integral p * n / 100 stays exact.
std::size_t nearest_rank(double p, std::size_t n) {
  auto rank = static_cast<std::size_t>(
      std::ceil(p * static_cast<double>(n) / 100.0));
  return std::clamp<std::size_t>(rank, 1, n);
}

/// Nearest-rank percentile (p in 0..100) of an unsorted sample.
double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  return v[nearest_rank(p, v.size()) - 1];
}

double median(std::vector<double> v) { return percentile(std::move(v), 50); }

double mean(const std::vector<double>& v) {
  double sum = 0;
  for (double x : v) sum += x;
  return v.empty() ? 0 : sum / static_cast<double>(v.size());
}

std::string num(double v) {
  char buf[64];
  auto [end, ec] = std::to_chars(buf, buf + sizeof buf, v);
  return ec == std::errc() ? std::string(buf, end) : "0";
}

std::string quote(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

/// splitmix64: the seed stream behind every seeded choice.
struct Rng {
  std::uint64_t state;
  std::uint64_t next() {
    std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  std::size_t below(std::size_t n) { return next() % n; }
};

// ---------------------------------------------------------------------------
// Oracle: breadth-first search and counterexample replay, independent of the
// engines (own marking representation and firing rule, 1-safe nets).

struct OracleNet {
  std::vector<std::vector<std::uint32_t>> pre, post;
  std::string initial;  // one byte per place, 0 or 1

  explicit OracleNet(const petri::PetriNet& net)
      : initial(net.place_count(), '\0') {
    for (const auto& t : net.transitions()) {
      pre.emplace_back(t.pre.begin(), t.pre.end());
      post.emplace_back(t.post.begin(), t.post.end());
    }
    for (std::size_t p = 0; p < net.place_count(); ++p)
      if (net.initial_marking().test(p)) initial[p] = 1;
  }

  bool enabled(std::size_t t, const std::string& m) const {
    for (auto p : pre[t])
      if (m[p] == 0) return false;
    return true;
  }
  bool dead(const std::string& m) const {
    for (std::size_t t = 0; t < pre.size(); ++t)
      if (enabled(t, m)) return false;
    return true;
  }
  /// Fires t; nullopt if it is disabled or would put a second token on a
  /// place.
  std::optional<std::string> fire(std::size_t t, std::string m) const {
    if (t >= pre.size() || !enabled(t, m)) return std::nullopt;
    for (auto p : pre[t]) m[p] = 0;
    for (auto p : post[t]) {
      if (m[p] != 0) return std::nullopt;
      m[p] = 1;
    }
    return m;
  }
};

/// Breadth-first search over the reachable markings. It stops at the first
/// dead marking when `stop_at_deadlock`; otherwise it visits every marking.
/// Returns whether a dead marking was met. Throws past kOracleStateCap.
bool oracle_search(const OracleNet& o, bool stop_at_deadlock) {
  std::unordered_set<std::string> seen{o.initial};
  std::deque<std::string> frontier{o.initial};
  bool dead_seen = false;
  while (!frontier.empty()) {
    std::string m = std::move(frontier.front());
    frontier.pop_front();
    bool any = false;
    for (std::size_t t = 0; t < o.pre.size(); ++t) {
      if (!o.enabled(t, m)) continue;
      any = true;
      auto next = o.fire(t, m);
      if (!next) throw std::runtime_error("oracle: net is not 1-safe");
      if (seen.insert(*next).second) frontier.push_back(std::move(*next));
    }
    dead_seen = dead_seen || !any;
    if (dead_seen && stop_at_deadlock) return true;
    if (seen.size() > kOracleStateCap)
      throw std::runtime_error("oracle: state cap exceeded");
  }
  return dead_seen;
}

/// True iff a dead marking is reachable.
bool oracle_deadlock(const petri::PetriNet& net) {
  return oracle_search(OracleNet(net), true);
}

/// True iff `trace` fires from the initial marking into a dead marking.
bool replays_to_deadlock(const petri::PetriNet& net,
                         const std::vector<petri::TransitionId>& trace) {
  OracleNet o(net);
  std::string m = o.initial;
  for (auto t : trace) {
    auto next = o.fire(t, m);
    if (!next) return false;
    m = std::move(*next);
  }
  return o.dead(m);
}

// ---------------------------------------------------------------------------
// Inputs.

/// One corpus entry: a built-in spec or a random-net generator setting.
struct Instance {
  std::string spec;  // "nsdp:6"; empty for random nets
  models::RandomNetParams random;

  std::string label() const {
    if (!spec.empty()) return spec;
    return "random:m" + std::to_string(random.machines) + "s" +
           std::to_string(random.states_per_machine) + "t" +
           std::to_string(random.transitions) + "y" +
           std::to_string(random.sync_percent) + "g" +
           std::to_string(random.seed);
  }
  petri::PetriNet build() const {
    if (spec.empty()) return models::make_random_net(random);
    auto net = models::make_by_spec(spec);
    if (!net) throw std::runtime_error("unknown model " + spec);
    return std::move(*net);
  }
};

Instance builtin(std::string spec) { return Instance{std::move(spec), {}}; }

Instance random_net(std::size_t machines, std::size_t states,
                    std::size_t transitions, std::uint32_t sync,
                    std::uint64_t gen_seed) {
  Instance i;
  i.random.machines = machines;
  i.random.states_per_machine = states;
  i.random.transitions = transitions;
  i.random.sync_percent = sync;
  i.random.seed = gen_seed;
  return i;
}

enum class Format { kSpec, kNet, kPnml };

/// One corpus entry of a workload: what to verify and how.
struct Entry {
  Instance instance;
  std::string engine;  // gpo-conflict / baseline: the registry engine
  std::string reduce;  // "", "safe", "aggressive"
  Format format = Format::kNet;
};

/// A job as the measured phase sees it.
struct Job {
  std::string label;
  std::string engine;
  std::string reduce;
  Format format = Format::kNet;
  std::string text;   // serialized net (.net or .pnml), empty for kSpec
  std::string model;  // portfolio: the spec or file path handed over
  std::string expect;  // "deadlock" | "no-deadlock"
  std::shared_ptr<const petri::PetriNet> original;
};

/// The same net with every place and transition renamed from `tag`; the
/// declaration order, and so every id, is kept, so engine work is unchanged
/// while the serialized text differs from seed to seed.
petri::PetriNet relabel(const petri::PetriNet& net, const std::string& tag) {
  petri::NetBuilder b(std::string(net.name()) + "_" + tag);
  for (std::size_t p = 0; p < net.place_count(); ++p)
    b.add_place("p" + tag + "_" + std::to_string(p),
                net.initial_marking().test(p));
  for (std::size_t t = 0; t < net.transition_count(); ++t)
    b.add_transition("t" + tag + "_" + std::to_string(t));
  for (std::size_t t = 0; t < net.transition_count(); ++t) {
    const auto& tr = net.transition(t);
    b.connect(static_cast<petri::TransitionId>(t), tr.pre, tr.post);
  }
  return b.build();
}

std::string hex_tag(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%06llx",
                static_cast<unsigned long long>(v & 0xffffff));
  return buf;
}

using ExpectTable = std::map<std::string, std::string>;

ExpectTable load_expected(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read " + path);
  ExpectTable t;
  std::string line;
  while (std::getline(in, line)) {
    std::istringstream ss(line);
    std::string spec, verdict;
    if (!(ss >> spec) || spec[0] == '#') continue;
    if (!(ss >> verdict) ||
        (verdict != "deadlock" && verdict != "no-deadlock"))
      throw std::runtime_error(path + ": bad line: " + line);
    t[spec] = verdict;
  }
  return t;
}

// ---------------------------------------------------------------------------
// Workloads.

enum class Mode { kSerial, kPortfolio };

struct Workload {
  std::string name;
  Mode mode;
  /// Percentile for verdict_tail_ms over every job of the run: the highest
  /// that leaves >= 10 jobs beyond it at kMinJobs jobs.
  double tail_percentile;
  std::vector<Entry> corpus;
};

/// Random nets of gpo-conflict and baseline-statespace: conflict-dense
/// state-machine products, 8-12 machines, 30-70 % synchronizing transitions,
/// with fixed generator seeds (see README.md: "Why the corpus is fixed").
std::vector<Instance> dense_random_nets() {
  std::vector<Instance> out;
  for (std::size_t m : {8, 10, 12})
    for (std::uint32_t sync : {30, 50, 70})
      out.push_back(random_net(m, 5, 3 * m, sync, 1000 * m + sync));
  return out;
}

Workload gpo_conflict() {
  Workload w{"gpo-conflict", Mode::kSerial, 99, {}};
  for (const char* s :
       {"nsdp:4", "nsdp:5", "nsdp:6", "asat:4", "over:3", "over:4", "rw:9",
        "rw:12", "chain:6", "chain:8", "chain:10", "diamond:10", "cyclic:8",
        "cyclic:10", "ring:4", "ring:5"})
    w.corpus.push_back({builtin(s), "gpo", "", Format::kNet});
  for (const Instance& i : dense_random_nets())
    w.corpus.push_back({i, "gpo", "", Format::kNet});
  return w;
}

Workload baseline_statespace() {
  Workload w{"baseline-statespace", Mode::kSerial, 99, {}};
  // Mid-size instances: each engine does real work, while the working set
  // stays small enough that memory traffic from other processes on the host
  // moves the times little (nsdp:8 under bdd swung 2.3x within a minute).
  // The heaviest job, which sets the tail, is ring:6 under unfold (1.25x).
  const std::pair<const char*, const char*> pairs[] = {
      {"ring:6", "bdd"},     {"asat:4", "bdd"},    {"cyclic:8", "bdd"},
      {"rw:9", "bdd"},       {"nsdp:6", "bdd"},    {"chain:10", "bdd"},
      {"cyclic:12", "unfold"}, {"nsdp:7", "unfold"}, {"ring:6", "unfold"},
      {"rw:9", "unfold"},    {"asat:4", "unfold"}, {"chain:10", "unfold"},
      {"cyclic:12", "full"}, {"rw:12", "full"},    {"nsdp:8", "full"},
      {"asat:4", "full"},    {"chain:10", "full"}, {"nsdp:8", "por"},
      {"ring:6", "por"},     {"asat:8", "por"},    {"over:4", "por"},
      {"over:4", "unfold"}};
  for (auto [spec, engine] : pairs)
    w.corpus.push_back({builtin(spec), engine, "safe", Format::kNet});
  const char* engines[] = {"full", "por", "bdd", "unfold"};
  std::size_t k = 0;
  for (const Instance& i : dense_random_nets())
    w.corpus.push_back({i, engines[k++ % 4], "safe", Format::kNet});
  return w;
}

Workload portfolio_stream() {
  Workload w{"portfolio-stream", Mode::kPortfolio, 99, {}};
  std::vector<Instance> instances;
  for (const char* s :
       {"nsdp:3", "nsdp:4", "nsdp:5", "nsdp:6", "asat:2", "asat:4", "over:2",
        "over:3", "over:4", "rw:6", "rw:9", "rw:12", "chain:4", "chain:6",
        "chain:8", "chain:10", "diamond:4", "diamond:6", "diamond:8",
        "diamond:10", "cyclic:4", "cyclic:6", "cyclic:8", "cyclic:10",
        "ring:3", "ring:4", "ring:5", "ring:6", "fig3", "fig5", "fig7"})
    instances.push_back(builtin(s));
  for (std::size_t m = 4; m <= 10; ++m)
    for (std::uint32_t sync : {30, 50, 70})
      for (std::uint64_t k : {1, 2})
        instances.push_back(random_net(m, 4, 2 * m, sync, 100 * m + sync + k));
  // Every built-in runs as a spec, a .net file and a .pnml file; random nets
  // as the two file kinds. One job in three carries a reduction level.
  const char* reduce[] = {"", "safe", "", "aggressive", "", ""};
  std::size_t k = 0;
  for (const Instance& i : instances)
    for (Format f : {Format::kSpec, Format::kNet, Format::kPnml}) {
      if (f == Format::kSpec && i.spec.empty()) continue;
      w.corpus.push_back({i, "", reduce[k++ % 6], f});
    }
  return w;
}

std::optional<Workload> find_workload(const std::string& name) {
  for (auto make : {gpo_conflict, portfolio_stream, baseline_statespace}) {
    Workload w = make();
    if (w.name == name) return w;
  }
  return std::nullopt;
}

/// Builds the run's job list from the seed: every corpus entry once, its
/// net relabelled from the seed and serialized. Portfolio file jobs name a
/// path under `dir`; write_files() puts them there.
std::vector<Job> make_jobs(const Workload& w, std::uint64_t seed,
                           const std::filesystem::path& dir) {
  Rng rng{seed};
  std::vector<Job> jobs;
  jobs.reserve(w.corpus.size());
  for (std::size_t i = 0; i < w.corpus.size(); ++i) {
    const Entry& e = w.corpus[i];
    Job j;
    j.label = e.instance.label();
    j.engine = e.engine;
    j.reduce = e.reduce;
    j.format = e.format;
    if (e.format == Format::kSpec) {
      j.model = e.instance.spec;
      j.original = std::make_shared<petri::PetriNet>(e.instance.build());
    } else {
      auto net = std::make_shared<petri::PetriNet>(
          relabel(e.instance.build(), hex_tag(rng.next())));
      j.text = e.format == Format::kPnml ? parser::pnml_to_string(*net)
                                         : parser::net_to_string(*net);
      j.original = std::move(net);
      if (w.mode == Mode::kPortfolio)
        j.model = (dir / (std::to_string(i) +
                          (e.format == Format::kPnml ? ".pnml" : ".net")))
                      .string();
    }
    jobs.push_back(std::move(j));
  }
  return jobs;
}

/// Writes the portfolio's file jobs. Not part of setup_s: staging the
/// inputs on disk is the benchmark's work, and its time follows the host's
/// disk rather than the program.
void write_files(const std::vector<Job>& jobs, const std::filesystem::path& dir) {
  std::filesystem::create_directories(dir);
  for (const Job& j : jobs)
    if (j.format != Format::kSpec) std::ofstream(j.model) << j.text;
}

/// The job list in a fresh seeded order. Every pass gets its own, so which
/// jobs meet in the portfolio's queue does not depend on one fixed order.
std::vector<const Job*> shuffled(const std::vector<Job>& jobs, Rng& rng) {
  std::vector<const Job*> order;
  for (const Job& j : jobs) order.push_back(&j);
  for (std::size_t i = order.size(); i > 1; --i)
    std::swap(order[i - 1], order[rng.below(i)]);
  return order;
}

/// FNV-1a over the job list, so two seeds can be shown to differ.
std::uint64_t digest(const std::vector<Job>& jobs) {
  std::uint64_t h = 1469598103934665603ULL;
  auto mix = [&](const std::string& s) {
    for (unsigned char c : s) h = (h ^ c) * 1099511628211ULL;
    h = (h ^ 0xff) * 1099511628211ULL;
  };
  for (const Job& j : jobs) {
    mix(j.label);
    mix(j.engine);
    mix(j.reduce);
    mix(j.text);
  }
  return h;
}

// ---------------------------------------------------------------------------
// Tracing: spans around each public call, kept in memory, summarized into
// layer totals and written as JSON lines at exit.

struct Span {
  std::string name;
  std::size_t job;
  double start_ms;
  double ms;
};

struct LayerTotals {
  std::size_t calls = 0;
  double ms = 0;
  std::map<std::string, double> sums;  // counts attached to the spans
  double max_peak_nodes = 0;
};

class Trace {
 public:
  explicit Trace(Clock::time_point origin) : origin_(origin) {}

  /// Records one call of `layer` that started at `t0` and just ended.
  LayerTotals& record(const std::string& layer, std::size_t job,
                      Clock::time_point t0, Clock::time_point t1) {
    const double ms = std::chrono::duration<double, std::milli>(t1 - t0).count();
    spans_.push_back(
        {layer, job,
         std::chrono::duration<double, std::milli>(t0 - origin_).count(), ms});
    LayerTotals& l = layers_[layer];
    ++l.calls;
    l.ms += ms;
    return l;
  }
  /// A call timed by the program itself (portfolio racers); its start is
  /// not known and is written as -1.
  LayerTotals& record_ms(const std::string& layer, std::size_t job,
                         double ms) {
    spans_.push_back({layer, job, -1, ms});
    LayerTotals& l = layers_[layer];
    ++l.calls;
    l.ms += ms;
    return l;
  }
  /// Durations of every span named `name`, in ms.
  std::vector<double> samples(const std::string& name) const {
    std::vector<double> out;
    for (const Span& s : spans_)
      if (s.name == name) out.push_back(s.ms);
    return out;
  }
  const LayerTotals* layer(const std::string& name) const {
    auto it = layers_.find(name);
    return it == layers_.end() ? nullptr : &it->second;
  }
  void write(const std::string& path) const {
    std::ofstream out(path);
    for (const Span& s : spans_)
      out << "{\"span\":" << quote(s.name) << ",\"job\":" << s.job
          << ",\"start_ms\":" << num(s.start_ms) << ",\"ms\":" << num(s.ms)
          << "}\n";
  }

 private:
  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::map<std::string, LayerTotals> layers_;
};

/// The layer an engine name belongs to; the GPO racers of the portfolio,
/// whatever their store, count as the core layer.
std::string engine_layer(const std::string& engine) {
  if (engine == "full") return "reach.full";
  if (engine.rfind("gpo", 0) == 0) return "core.gpo";
  return engine;  // por, bdd, unfold
}

/// Adds an engine run's own counts to its layer.
void add_engine_counts(LayerTotals& l, const std::string& engine,
                       const service::EngineOutcome& out,
                       const obs::MetricsRegistry* metrics) {
  if (out.conclusive && out.states >= 0) {
    l.sums["states"] += out.states;
    l.sums["state_runs"] += 1;
    l.sums["states_ms"] += out.seconds * 1e3;
  }
  if (metrics == nullptr) return;
  const std::string p = "engine." + engine + ".";
  if (auto v = metrics->value(p + "peak_nodes"))
    l.max_peak_nodes = std::max(l.max_peak_nodes, *v);
  if (auto v = metrics->value(p + "events")) l.sums["events"] += *v;
  if (auto v = metrics->value(p + "cutoffs")) l.sums["cutoffs"] += *v;
}

// ---------------------------------------------------------------------------
// Host probe. The benchmark runs on shared virtual machines whose speed
// changes by up to 1.7x, in phases from a fraction of a second to minutes,
// while the program stays the same; other tenants' load on the same cores
// slows every instruction, CPU time included. So each run also times work of
// its own that the program cannot change: a full breadth-first search of
// this file over the markings of kProbeSpec, between rounds. A probe point
// is the fastest of kProbeReps back-to-back searches (which drops one-off
// stalls); the mean over a phase's points is its probe time. Larger or
// allocation-free searches tracked the workloads no better (README.md).
// Every time the run reports is divided, and every rate multiplied, by
// probe time / kProbeNominalMs: the figures are those of a host on which
// the search takes kProbeNominalMs. A reported time times the `host_factor`
// in the notes (a rate divided by it) is the raw figure.

class HostProbe {
 public:
  HostProbe() : net_(builtin(kProbeSpec).build()) {}

  /// One probe point, in ms.
  double sample() const {
    double best = 0;
    for (int k = 0; k < kProbeReps; ++k) {
      const Clock::time_point t0 = Clock::now();
      (void)oracle_search(net_, false);
      const double ms =
          std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
      best = k == 0 ? ms : std::min(best, ms);
    }
    return best;
  }

 private:
  OracleNet net_;
};

/// How much slower than the reference host a phase ran, from its points.
double host_factor(const std::vector<double>& probe_ms) {
  return mean(probe_ms) / kProbeNominalMs;
}

// ---------------------------------------------------------------------------
// Measured phases.

struct JobRecord {
  std::string label;
  double ms = 0;
  bool decided = false;
  double peak_mb = 0;  // serial workloads only
};

/// One timed round of a measured phase: a pass over the job list (serial
/// workloads) or one scheduler epoch (portfolio-stream).
struct Round {
  std::size_t jobs = 0;
  double wall_s = 0;
  double cpu_s = 0;
};

struct Phase {
  std::vector<JobRecord> jobs;
  std::vector<Round> rounds;
  std::vector<double> probe_ms;  // one host probe point after every round
  double peak_mb = 0;
  std::size_t failed = 0;
  std::size_t replayed = 0;
  std::size_t without_trace = 0;  // deadlock verdicts with no firing sequence
  /// portfolio-stream: heap the scheduler still held per finished job at the
  /// end of each epoch, in KB.
  std::vector<double> retained_kb_per_job;
  std::vector<std::string> failures;
};

/// Times one round; close() appends it to the phase. CPU the client spent
/// polling for completions (`*idle_cpu_s`, when given) is left out.
class RoundTimer {
 public:
  RoundTimer(Phase& ph, const double* idle_cpu_s)
      : ph_(ph), idle_cpu_s_(idle_cpu_s), jobs0_(ph.jobs.size()),
        cpu0_(cpu()) {}
  void close() {
    ph_.rounds.push_back(
        {ph_.jobs.size() - jobs0_, seconds_since(t0_), cpu() - cpu0_});
  }

 private:
  double cpu() const {
    return cpu_seconds() - (idle_cpu_s_ != nullptr ? *idle_cpu_s_ : 0);
  }

  Phase& ph_;
  const double* idle_cpu_s_;
  std::size_t jobs0_;
  double cpu0_;
  Clock::time_point t0_ = Clock::now();
};

/// Checks one verdict against the oracle and replays its counterexample;
/// returns an error or "". bdd and unfold answer without a firing sequence,
/// and so does gpo when a delegated classical search found the deadlock.
std::string check(const Job& job, const std::string& verdict,
                  const std::string& engine,
                  const std::vector<petri::TransitionId>& cex, Phase& ph) {
  if (verdict != "deadlock" && verdict != "no-deadlock") return "";
  if (verdict != job.expect)
    return job.label + ": " + engine + " says " + verdict + ", expected " +
           job.expect;
  if (verdict != "deadlock") return "";
  if (cex.empty()) {
    ++ph.without_trace;
    return "";
  }
  ++ph.replayed;
  if (!replays_to_deadlock(*job.original, cex))
    return job.label + ": " + engine +
           " counterexample does not reach a dead marking of the original net";
  return "";
}

void note_failure(Phase& ph, std::string msg) {
  ++ph.failed;
  if (ph.failures.size() < 5) ph.failures.push_back(std::move(msg));
}

/// One job of a serial workload: parse -> [reduce] -> engine -> verdict.
/// The peak-RSS mark is reset first, so each job's own peak is recorded.
void run_serial_job(const Job& job, std::size_t id, Trace* trace, Phase& ph) {
  const bool have_peak = reset_peak_rss();
  const service::EngineRunner& runner =
      *service::default_engine_registry().find(job.engine);
  obs::MetricsRegistry metrics;
  service::RunLimits limits;
  limits.max_seconds = kJobMaxSeconds;

  const Clock::time_point t0 = Clock::now();
  petri::PetriNet net = parser::parse_net(job.text);
  const Clock::time_point t1 = Clock::now();
  std::optional<reduce::ReductionResult> red;
  if (!job.reduce.empty()) {
    reduce::ReduceOptions ro;
    ro.level = *reduce::parse_reduce_level(job.reduce);
    red.emplace(reduce::reduce_net(net, ro));
  }
  const Clock::time_point t2 = Clock::now();
  service::EngineOutcome out = runner(red ? red->net : net, limits, nullptr,
                                      trace != nullptr ? &metrics : nullptr);
  const Clock::time_point t3 = Clock::now();
  std::vector<petri::TransitionId> cex =
      red && !out.counterexample.empty()
          ? red->certificate.map_to_original(out.counterexample)
          : std::move(out.counterexample);
  const Clock::time_point t4 = Clock::now();

  JobRecord rec;
  rec.label = job.label;
  rec.ms = std::chrono::duration<double, std::milli>(t4 - t0).count();
  rec.decided = out.conclusive;
  if (have_peak) {
    rec.peak_mb = peak_rss_mb();
    ph.peak_mb = std::max(ph.peak_mb, rec.peak_mb);
  }
  if (!out.error.empty()) note_failure(ph, job.label + ": " + out.error);
  std::string err = check(job, out.verdict, job.engine, cex, ph);
  if (!err.empty()) note_failure(ph, err);
  ph.jobs.push_back(std::move(rec));

  if (trace == nullptr) return;
  trace->record("job", id, t0, t4);
  LayerTotals& parse = trace->record("parser", id, t0, t1);
  parse.sums["bytes"] += static_cast<double>(job.text.size());
  if (red) {
    LayerTotals& r = trace->record("reduce", id, t1, t2);
    const auto& s = red->stats;
    r.sums["before"] += static_cast<double>(s.places_before +
                                            s.transitions_before);
    r.sums["after"] += static_cast<double>(s.places_after +
                                           s.transitions_after);
  }
  const std::string layer = engine_layer(job.engine);
  add_engine_counts(trace->record(layer, id, t2, t3), job.engine, out,
                    &metrics);
}

/// Runs whole passes over `jobs` until `seconds` have elapsed and at least
/// `min_jobs` jobs are done, with a host probe point after every pass.
Phase run_serial(const std::vector<Job>& jobs, Rng& rng, double seconds,
                 std::size_t min_jobs, const HostProbe& probe, Trace* trace) {
  Phase ph;
  const Clock::time_point start = Clock::now();
  std::size_t id = 0;
  do {
    const std::vector<const Job*> order = shuffled(jobs, rng);
    RoundTimer round(ph, nullptr);
    for (const Job* job : order) run_serial_job(*job, id++, trace, ph);
    round.close();
    ph.probe_ms.push_back(probe.sample());
  } while (seconds_since(start) < seconds || ph.jobs.size() < min_jobs);
  return ph;
}

/// Completion hand-off from the scheduler's workers to the client thread.
/// The client polls instead of sleeping on a condition variable: on a
/// virtual machine, waking a halted CPU takes a variable, host-dependent
/// time that would otherwise show up in jobs_per_s. The CPU spent polling is
/// counted in `idle_cpu_s` and kept out of cpu_ms_per_job.
struct Completions {
  std::mutex mu;
  std::deque<std::pair<service::JobResult, Clock::time_point>> done;
  double idle_cpu_s = 0;  // read and written by the polling thread only

  void push(const service::JobResult& r) {
    const Clock::time_point t = Clock::now();
    std::lock_guard<std::mutex> lock(mu);
    done.emplace_back(r, t);
  }
  std::pair<service::JobResult, Clock::time_point> pop() {
    std::unique_lock<std::mutex> lock(mu);
    if (done.empty()) {
      const double cpu0 = cpu_seconds(RUSAGE_THREAD);
      while (done.empty()) {
        lock.unlock();
        std::this_thread::yield();
        lock.lock();
      }
      idle_cpu_s += cpu_seconds(RUSAGE_THREAD) - cpu0;
    }
    auto front = std::move(done.front());
    done.pop_front();
    return front;
  }
};

std::size_t nproc() { return std::max(1u, std::thread::hardware_concurrency()); }

/// Pool workers of portfolio-stream: up to 2, and together with the client
/// thread never more than nproc. On a 4-CPU virtual machine a third worker
/// doubled the CPU time per job and widened the run-to-run spread (see
/// README.md), so the pool leaves a CPU free.
std::size_t pool_threads() {
  if (nproc() < 2)
    throw std::runtime_error(
        "portfolio-stream needs 2 CPUs: a client thread and a pool worker");
  return std::min<std::size_t>(nproc() - 1, 2);
}

/// The portfolio set-up: a scheduler whose completions land in `done`.
/// The scheduler keeps every job's state until it is destroyed, so the
/// closed loop replaces it once per epoch (see run_portfolio); otherwise
/// memory would grow with the run length.
class Portfolio {
 public:
  Portfolio() { start(); }

  /// Submits one job; returns the scheduler's id for it.
  std::size_t submit(const Job& job) {
    service::JobSpec s;
    s.model = job.model;
    s.max_seconds = kJobMaxSeconds;
    s.reduce = job.reduce;
    return scheduler_->submit(s);
  }
  /// Runs one job through the whole default portfolio and waits for it.
  void warm_up() {
    service::JobSpec s;
    s.model = "fig7";
    (void)scheduler_->submit(s);
    (void)done.pop();
  }
  /// Replaces the scheduler; call with no job in flight. Its service
  /// histograms are added to the running totals first.
  void renew() {
    absorb();
    scheduler_.reset();
    start();
  }
  /// Clears the running service histogram totals.
  void reset_totals() {
    renew();
    queue_wait = {};
    cancel_latency = {};
  }
  /// The running totals including the live scheduler's share.
  std::pair<obs::Histogram::Snapshot, obs::Histogram::Snapshot> totals()
      const {
    auto q = queue_wait;
    auto c = cancel_latency;
    auto& sm = scheduler_->service_metrics();
    q += sm.histogram("service.queue_wait_seconds").snapshot();
    c += sm.histogram("service.cancel_latency_seconds").snapshot();
    return {q, c};
  }

  Completions done;

 private:
  void start() {
    service::SchedulerOptions opt;
    opt.pool_threads = pool_threads();
    opt.on_complete = [this](const service::JobResult& r) { done.push(r); };
    scheduler_ = std::make_unique<service::PortfolioScheduler>(opt);
  }
  void absorb() {
    std::tie(queue_wait, cancel_latency) = totals();
  }

  obs::Histogram::Snapshot queue_wait, cancel_latency;
  std::unique_ptr<service::PortfolioScheduler> scheduler_;
};

/// Per-layer records of one finished portfolio job, from the scheduler's
/// own per-racer timings and counters.
void record_portfolio_job(Trace& tr, std::size_t seq, const Job& job,
                          const service::JobResult& r, double submit_ms) {
  double winner_s = 0, racer_s = 0, lost_s = 0, skipped = 0;
  for (const service::EngineOutcome& e : r.engines) {
    if (e.cancelled && e.seconds == 0) {  // skipped: the race was decided
      ++skipped;
      continue;
    }
    add_engine_counts(tr.record_ms(engine_layer(e.engine), seq, e.seconds * 1e3),
                      e.engine, e, r.metrics.get());
    racer_s += e.seconds;
    (e.engine == r.winner ? winner_s : lost_s) += e.seconds;
  }
  const double reduce_ms = r.reduction ? r.reduction->seconds * 1e3 : 0;
  if (r.reduction) {
    LayerTotals& l = tr.record_ms("reduce", seq, reduce_ms);
    l.sums["before"] += static_cast<double>(r.reduction->places_before +
                                            r.reduction->transitions_before);
    l.sums["after"] += static_cast<double>(r.reduction->places_after +
                                           r.reduction->transitions_after);
  }
  if (job.format != Format::kSpec) {
    // submit() loads the file inline: its time, less the reduction the
    // scheduler reports separately, is the parser's share of the job.
    tr.record_ms("parser", seq, submit_ms - reduce_ms).sums["bytes"] +=
        static_cast<double>(job.text.size());
  }
  LayerTotals& s = tr.record_ms("service.job", seq, r.seconds * 1e3);
  s.sums["racers"] += static_cast<double>(r.engines.size());
  s.sums["skipped"] += skipped;
  s.sums["racer_s"] += racer_s;
  s.sums["lost_s"] += lost_s;
  s.sums["win." + engine_layer(r.winner)] += 1;
  tr.record_ms("service.overhead", seq, (r.seconds - winner_s) * 1e3);
}

/// Closed loop over the scheduler: kOutstanding jobs in flight, epochs of
/// kEpochPasses whole passes over `jobs` until `seconds` have elapsed and at
/// least `min_jobs` jobs are done. Each epoch ends by draining the loop and
/// replacing the scheduler; a host probe point follows.
Phase run_portfolio(Portfolio& pf, const std::vector<Job>& jobs, Rng& rng,
                    double seconds, std::size_t min_jobs,
                    const HostProbe& probe, Trace* trace) {
  Phase ph;
  struct InFlight {
    const Job* job;
    std::size_t seq;  // run-wide job number, for the trace
    Clock::time_point t0;
    double submit_ms;
  };
  std::map<std::size_t, InFlight> in_flight;  // by scheduler job id
  std::size_t seq = 0;
  reset_peak_rss();
  const Clock::time_point start = Clock::now();

  auto complete_one = [&] {
    auto [r, t_done] = pf.done.pop();
    auto it = in_flight.find(r.id);
    const InFlight& f = it->second;
    const Job& job = *f.job;
    JobRecord rec;
    rec.label = job.label;
    rec.ms = std::chrono::duration<double, std::milli>(t_done - f.t0).count();
    rec.decided = r.verdict == "deadlock" || r.verdict == "no-deadlock";
    if (!r.error.empty()) note_failure(ph, job.label + ": " + r.error);
    std::string err = check(job, r.verdict, r.winner, r.counterexample, ph);
    if (!err.empty()) note_failure(ph, err);
    ph.jobs.push_back(std::move(rec));
    if (trace != nullptr) record_portfolio_job(*trace, f.seq, job, r, f.submit_ms);
    in_flight.erase(it);
  };

  do {
    RoundTimer round(ph, &pf.done.idle_cpu_s);
    const std::size_t epoch_first_job = ph.jobs.size();
    for (std::size_t pass = 0; pass < kEpochPasses; ++pass) {
      for (const Job* job : shuffled(jobs, rng)) {
        while (in_flight.size() >= kOutstanding) complete_one();
        const Clock::time_point t0 = Clock::now();
        const std::size_t id = pf.submit(*job);
        const Clock::time_point t1 = Clock::now();
        // Completions are only consumed on this thread, so registering the
        // job after submit() returned is race-free.
        in_flight[id] = {job, seq, t0,
                         std::chrono::duration<double, std::milli>(t1 - t0)
                             .count()};
        if (trace != nullptr) trace->record("service.submit", seq, t0, t1);
        ++seq;
      }
    }
    while (!in_flight.empty()) complete_one();
    // Every job of the epoch has finished, so what the scheduler gives back
    // when it is replaced is the state it kept for them.
    const double held = heap_bytes();
    const std::size_t epoch_jobs = ph.jobs.size() - epoch_first_job;
    pf.renew();
    ph.retained_kb_per_job.push_back((held - heap_bytes()) / 1024 /
                                     static_cast<double>(epoch_jobs));
    round.close();
    ph.probe_ms.push_back(probe.sample());
  } while (seconds_since(start) < seconds || ph.jobs.size() < min_jobs);
  ph.peak_mb = peak_rss_mb();
  return ph;
}

// ---------------------------------------------------------------------------
// Metrics.

using Metrics = std::vector<std::pair<std::string, std::pair<double, std::string>>>;

/// Verdicts per second over the whole phase, as measured (raw).
double jobs_per_s(const Phase& ph) {
  double jobs = 0, wall_s = 0;
  for (const Round& r : ph.rounds) {
    jobs += static_cast<double>(r.jobs);
    wall_s += r.wall_s;
  }
  return jobs / wall_s;
}

double cpu_ms_per_job(const Phase& ph) {
  double jobs = 0, cpu_s = 0;
  for (const Round& r : ph.rounds) {
    jobs += static_cast<double>(r.jobs);
    cpu_s += r.cpu_s;
  }
  return cpu_s * 1e3 / jobs;
}

/// Percentile p of every job latency of the phase.
double latency_percentile(const Phase& ph, double p) {
  std::vector<double> ms;
  for (const JobRecord& j : ph.jobs) ms.push_back(j.ms);
  return percentile(std::move(ms), p);
}

/// Puts measured figures on the reference host (see HostProbe): times are
/// divided by the phase's host factor, rates multiplied; other units stay.
void on_reference_host(Metrics& m, double factor) {
  for (auto& [name, vu] : m) {
    const std::string& unit = vu.second;
    if (unit == "s" || unit == "ms") vu.first /= factor;
    if (unit == "1/s" || unit == "MB/s") vu.first *= factor;
  }
}

/// `setup_s` comes already on the reference host.
Metrics end_to_end(const Phase& ph, double setup_s, double tail_p) {
  std::size_t decided = 0;
  for (const JobRecord& j : ph.jobs) decided += j.decided ? 1 : 0;
  const double n = static_cast<double>(ph.jobs.size());
  Metrics m = {{"jobs_per_s", {jobs_per_s(ph), "1/s"}},
               {"verdict_p50_ms", {latency_percentile(ph, 50), "ms"}},
               {"verdict_tail_ms", {latency_percentile(ph, tail_p), "ms"}},
               {"cpu_ms_per_job", {cpu_ms_per_job(ph), "ms"}},
               {"peak_rss_mb", {ph.peak_mb, "MB"}},
               {"decided_frac", {static_cast<double>(decided) / n, "frac"}}};
  on_reference_host(m, host_factor(ph.probe_ms));
  m.insert(m.begin(), {"setup_s", {setup_s, "s"}});
  return m;
}

/// Per-layer metrics from the traced half; `untraced` gives the overhead
/// base. Layers the workload does not call read 0 and are listed in
/// `not_called`.
Metrics per_layer(const Trace& tr, const Phase& traced, const Phase& untraced,
                  const Portfolio* pf, std::vector<std::string>& not_called) {
  Metrics m;
  auto get = [&](const std::string& layer, const std::string& label) {
    const LayerTotals* l = tr.layer(layer);
    if (l == nullptr || l->calls == 0) not_called.push_back(label);
    return l;
  };
  auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };
  auto sum = [](const LayerTotals* l, const std::string& key) {
    if (l == nullptr) return 0.0;
    auto it = l->sums.find(key);
    return it == l->sums.end() ? 0.0 : it->second;
  };
  auto mean_ms = [&](const LayerTotals* l) {
    return l == nullptr ? 0.0 : l->ms / static_cast<double>(l->calls);
  };

  const LayerTotals* parse = get("parser", "parser");
  m.push_back({"parser.parse_ms", {mean_ms(parse), "ms"}});
  m.push_back({"parser.mb_per_s",
               {parse == nullptr ? 0.0
                                 : ratio(sum(parse, "bytes") / 1e6,
                                         parse->ms / 1e3),
                "MB/s"}});

  const LayerTotals* red = get("reduce", "reduce");
  m.push_back({"reduce.ms", {mean_ms(red), "ms"}});
  m.push_back({"reduce.shrink_frac",
               {ratio(sum(red, "before") - sum(red, "after"),
                      sum(red, "before")),
                "frac"}});

  const LayerTotals* core = get("core.gpo", "core");
  m.push_back({"core.gpo.ms", {mean_ms(core), "ms"}});
  m.push_back({"core.gpo.states",
               {ratio(sum(core, "states"), sum(core, "state_runs")), "count"}});
  m.push_back({"core.gpo.ms_per_state",
               {ratio(sum(core, "states_ms"), sum(core, "states")), "ms"}});

  const LayerTotals* full = get("reach.full", "reach");
  m.push_back({"reach.full.ms", {mean_ms(full), "ms"}});
  m.push_back({"reach.full.states_per_s",
               {ratio(sum(full, "states"), sum(full, "states_ms") / 1e3),
                "1/s"}});

  const LayerTotals* por = get("por", "por");
  m.push_back({"por.ms", {mean_ms(por), "ms"}});
  m.push_back({"por.states",
               {ratio(sum(por, "states"), sum(por, "state_runs")), "count"}});

  const LayerTotals* bdd = get("bdd", "bdd");
  m.push_back({"bdd.ms", {mean_ms(bdd), "ms"}});
  m.push_back({"bdd.peak_nodes",
               {bdd == nullptr ? 0.0 : bdd->max_peak_nodes, "count"}});

  const LayerTotals* unf = get("unfold", "unfold");
  m.push_back({"unfold.ms", {mean_ms(unf), "ms"}});
  m.push_back({"unfold.cutoff_frac",
               {ratio(sum(unf, "cutoffs"), sum(unf, "events")), "frac"}});

  const LayerTotals* job = get("service.job", "service");
  double queue_p50 = 0, cancel_p99 = 0;
  if (pf != nullptr && job != nullptr) {
    auto [queue_wait, cancel_latency] = pf->totals();
    queue_p50 = queue_wait.percentile(50) / 1e6;  // ns -> ms
    cancel_p99 = cancel_latency.percentile(99) / 1e6;
  }
  m.push_back({"service.queue_wait_p50_ms", {queue_p50, "ms"}});
  m.push_back({"service.job_overhead_p50_ms",
               {median(tr.samples("service.overhead")), "ms"}});
  m.push_back({"service.cancel_latency_p99_ms", {cancel_p99, "ms"}});
  m.push_back({"service.wasted_racer_frac",
               {ratio(sum(job, "lost_s"), sum(job, "racer_s")), "frac"}});
  m.push_back({"service.skipped_racer_frac",
               {ratio(sum(job, "skipped"), sum(job, "racers")), "frac"}});
  for (const char* e : {"full", "por", "bdd", "gpo", "unfold"}) {
    const std::string key = "win." + engine_layer(e);
    m.push_back({std::string("service.win_frac.") + e,
                 {job == nullptr ? 0.0
                                 : ratio(sum(job, key),
                                         static_cast<double>(job->calls)),
                  "frac"}});
  }
  // Raw rates: the spans the traced half keeps in memory slow the host
  // probe too, so scaling each half would hide part of their cost.
  m.push_back({"trace_overhead_frac",
               {ratio(jobs_per_s(untraced), jobs_per_s(traced)) - 1, "frac"}});
  on_reference_host(m, host_factor(traced.probe_ms));
  return m;
}

// ---------------------------------------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string expected;
  std::string work_dir = ".";
  std::string trace_out;
  std::string commit = "unknown";
  std::string flip;  // spec whose expected verdict is flipped (self-check)
  bool verify_table = false;
};

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    std::string k = argv[i];
    if (k == "--verify-table") {
      a.verify_table = true;
      continue;
    }
    if (i + 1 >= argc) throw std::runtime_error("missing value for " + k);
    std::string v = argv[++i];
    if (k == "--workload") a.workload = v;
    else if (k == "--seed") a.seed = std::stoull(v);
    else if (k == "--seconds") a.seconds = std::stod(v);
    else if (k == "--trace") a.trace = v == "1";
    else if (k == "--expected") a.expected = v;
    else if (k == "--work-dir") a.work_dir = v;
    else if (k == "--trace-out") a.trace_out = v;
    else if (k == "--commit") a.commit = v;
    else if (k == "--flip-expected") a.flip = v;
    else throw std::runtime_error("unknown option " + k);
  }
  return a;
}

/// Checks every table entry against the oracle search (self-check).
int verify_table(const ExpectTable& table) {
  int bad = 0;
  for (const auto& [spec, verdict] : table) {
    const bool dead = oracle_deadlock(builtin(spec).build());
    if ((dead ? "deadlock" : "no-deadlock") != verdict) {
      std::printf("table mismatch: %s expected %s\n", spec.c_str(),
                  verdict.c_str());
      ++bad;
    }
  }
  std::printf("verified %zu table entries, %d mismatches\n", table.size(),
              bad);
  return bad == 0 ? 0 : 1;
}

void print_metrics(bool correct, std::size_t attempted, std::size_t failed,
                   const Metrics& metrics) {
  std::string out = "{\"correct\": " + std::string(correct ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(attempted) +
                    ", \"failed\": " + std::to_string(failed) +
                    ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const auto& [name, vu] = metrics[i];
    out += (i ? ", " : "") + quote(name) + ": {\"value\": " + num(vu.first) +
           ", \"unit\": " + quote(vu.second) + "}";
  }
  std::printf("%s}}\n", out.c_str());
}

int run(const Args& a) {
  ExpectTable table = load_expected(a.expected);
  if (a.verify_table) return verify_table(table);
  if (!a.flip.empty()) {
    auto it = table.find(a.flip);
    if (it == table.end()) throw std::runtime_error("no entry " + a.flip);
    it->second = it->second == "deadlock" ? "no-deadlock" : "deadlock";
  }
  std::optional<Workload> w = find_workload(a.workload);
  if (!w) throw std::runtime_error("unknown workload '" + a.workload + "'");

  // Set-up, repeated in batches; the last repetition's inputs and scheduler
  // are the ones measured. On a shared virtual machine the set-up ran at one
  // of two speeds about 1.6x apart, each held for tens to hundreds of
  // milliseconds; a batch's mean spans several such stretches where a
  // single set-up of a few milliseconds would see one. A host probe point
  // follows every batch.
  const HostProbe probe;
  std::vector<Job> jobs;
  std::unique_ptr<Portfolio> pf;
  const std::filesystem::path dir(a.work_dir);
  auto set_up = [&] {
    pf.reset();  // the previous repetition's scheduler is not timed
    const Clock::time_point t0 = Clock::now();
    jobs = make_jobs(*w, a.seed, dir);
    if (w->mode == Mode::kPortfolio) {
      pf = std::make_unique<Portfolio>();
      pf->warm_up();
    } else {
      std::set<std::string> engines;
      for (const Job& j : jobs) engines.insert(j.engine);
      const petri::PetriNet warm = *models::make_by_spec("fig7");
      for (const std::string& e : engines)
        (void)(*service::default_engine_registry().find(e))(warm, {}, nullptr,
                                                            nullptr);
    }
    return seconds_since(t0);
  };
  std::vector<double> setup_times;  // mean seconds of one set-up, per batch
  std::vector<double> setup_probe_ms;
  for (std::size_t batch = 0; batch < kSetupBatches; ++batch) {
    const Clock::time_point start = Clock::now();
    double timed_s = 0;
    std::size_t reps = 0;
    do {
      timed_s += set_up();
      ++reps;
    } while (seconds_since(start) < kSetupBatchSeconds);
    setup_times.push_back(timed_s / static_cast<double>(reps));
    setup_probe_ms.push_back(probe.sample());
  }
  const double setup_s = median(setup_times) / host_factor(setup_probe_ms);
  if (w->mode == Mode::kPortfolio) write_files(jobs, dir);

  // Oracle, untimed: expected verdicts for every job.
  for (Job& j : jobs) {
    if (j.label.rfind("random:", 0) == 0) {
      j.expect = oracle_deadlock(*j.original) ? "deadlock" : "no-deadlock";
    } else {
      auto it = table.find(j.label);
      if (it == table.end())
        throw std::runtime_error("no expected verdict for " + j.label);
      j.expect = it->second;
    }
  }

  std::printf(
      "{\"header\": {\"workload\": %s, \"seed\": %llu, \"nproc\": %zu, "
      "\"pool_threads\": %zu, \"build_type\": %s, \"compiler\": %s, "
      "\"commit\": %s, \"job_max_seconds\": %s, \"jobs_per_pass\": %zu, "
      "\"tail_percentile\": %s, \"min_jobs\": %zu, \"probe\": %s, "
      "\"job_list_digest\": \"%016llx\", "
      "\"seconds\": %s, \"trace\": %d}}\n",
      quote(w->name).c_str(), static_cast<unsigned long long>(a.seed), nproc(),
      w->mode == Mode::kPortfolio ? pool_threads() : 0,
      quote(E2E_BUILD_TYPE).c_str(), quote(__VERSION__).c_str(),
      quote(a.commit).c_str(), num(kJobMaxSeconds).c_str(), jobs.size(),
      num(w->tail_percentile).c_str(), kMinJobs, quote(kProbeSpec).c_str(),
      static_cast<unsigned long long>(digest(jobs)), num(a.seconds).c_str(),
      a.trace ? 1 : 0);
  std::fflush(stdout);

  const bool serial = w->mode == Mode::kSerial;
  Rng order_rng{~a.seed};  // a stream apart from the relabelling one
  auto measure = [&](double seconds, std::size_t min_jobs, Trace* trace) {
    return serial ? run_serial(jobs, order_rng, seconds, min_jobs, probe, trace)
                  : run_portfolio(*pf, jobs, order_rng, seconds, min_jobs,
                                  probe, trace);
  };

  Phase main_phase;
  Metrics metrics;
  std::size_t attempted = 0, failed = 0, replayed = 0, without_trace = 0;
  std::vector<std::string> failures;
  auto tally = [&](const Phase& ph) {
    attempted += ph.jobs.size();
    failed += ph.failed;
    replayed += ph.replayed;
    without_trace += ph.without_trace;
    failures.insert(failures.end(), ph.failures.begin(), ph.failures.end());
  };
  if (!a.trace) {
    main_phase = measure(a.seconds, kMinJobs, nullptr);
    tally(main_phase);
    metrics = end_to_end(main_phase, setup_s, w->tail_percentile);
  } else {
    Trace tr(Clock::now());
    const Phase untraced = measure(a.seconds / 2, 0, nullptr);
    if (pf) pf->reset_totals();
    main_phase = measure(a.seconds / 2, 0, &tr);
    tally(untraced);
    tally(main_phase);
    std::vector<std::string> not_called;
    metrics = per_layer(tr, main_phase, untraced, pf.get(), not_called);
    std::string list;
    for (const std::string& l : not_called)
      list += (list.empty() ? "" : ", ") + quote(l);
    std::printf("{\"layers_not_called\": [%s]}\n", list.c_str());
    if (!a.trace_out.empty()) tr.write(a.trace_out);
  }

  if (serial) {
    const JobRecord* heavy = nullptr;
    for (const JobRecord& j : main_phase.jobs)
      if (heavy == nullptr || j.peak_mb > heavy->peak_mb) heavy = &j;
    if (heavy != nullptr)
      std::printf("{\"heaviest_job\": {\"label\": %s, \"peak_rss_mb\": %s}}\n",
                  quote(heavy->label).c_str(), num(heavy->peak_mb).c_str());
  }
  std::vector<double> round_s;
  for (const Round& r : main_phase.rounds) round_s.push_back(r.wall_s);
  std::printf(
      "{\"rounds\": {\"count\": %zu, \"min_s\": %s, \"median_s\": %s, "
      "\"max_s\": %s}}\n",
      round_s.size(), num(percentile(round_s, 0)).c_str(),
      num(median(round_s)).c_str(), num(percentile(round_s, 100)).c_str());
  std::printf(
      "{\"host\": {\"host_factor\": %s, \"probe_points\": %zu, "
      "\"setup_host_factor\": %s}}\n",
      num(host_factor(main_phase.probe_ms)).c_str(),
      main_phase.probe_ms.size(), num(host_factor(setup_probe_ms)).c_str());
  if (!a.trace) {
    const std::size_t n = main_phase.jobs.size();
    std::printf(
        "{\"tail\": {\"percentile\": %s, \"jobs\": %zu, "
        "\"jobs_beyond\": %zu}}\n",
        num(w->tail_percentile).c_str(), n,
        n - nearest_rank(w->tail_percentile, n));
  }
  if (!main_phase.retained_kb_per_job.empty())
    std::printf("{\"scheduler_retained_kb_per_job\": %s}\n",
                num(median(main_phase.retained_kb_per_job)).c_str());
  std::printf(
      "{\"replayed_counterexamples\": %zu, \"deadlocks_without_trace\": %zu}\n",
      replayed, without_trace);
  for (const std::string& f : failures)
    std::printf("{\"failure\": %s}\n", quote(f).c_str());
  print_metrics(failed == 0, attempted, failed, metrics);
  pf.reset();
  return failed == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "e2e_bench: %s\n", e.what());
    return 2;
  }
}
