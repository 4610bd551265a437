// Run-report round trip: JSON parse/dump, registry serialization, the
// schema golden test against bench/report_schema.json (the same file CI
// validates with bench/validate_report.py), heartbeat line formatting, and
// the telemetry parity property — engines report identical verdicts and
// state counts with and without a registry attached.
#include "obs/report.hpp"

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/gpo.hpp"
#include "models/models.hpp"
#include "obs/heartbeat.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "reach/explorer.hpp"
#include "unfold/unfolding.hpp"

namespace gpo::obs {
namespace {

TEST(Json, ParseDumpRoundTrip) {
  const char* text =
      R"({"a": 1, "b": [true, null, "x\n"], "c": {"d": -2.5}, "e": 1e3})";
  json::Value v = json::Value::parse(text);
  json::Value again = json::Value::parse(v.dump_string());
  EXPECT_EQ(v, again);
  EXPECT_EQ(v.find("a")->as_int(), 1);
  EXPECT_EQ(v.find("b")->items()[2].as_string(), "x\n");
  EXPECT_DOUBLE_EQ(v.find("c")->find("d")->as_number(), -2.5);
  EXPECT_DOUBLE_EQ(v.find("e")->as_number(), 1000.0);
  EXPECT_THROW(json::Value::parse("{broken"), std::runtime_error);
}

TEST(RegistryToJson, StripsPrefixAndKeepsOrder) {
  MetricsRegistry reg;
  reg.counter("engine.full.states").add(729);
  reg.gauge("engine.full.peak_frontier").set(262);
  reg.timer("engine.full.seconds").record_ns(1'500'000'000);
  reg.counter("engine.por.states").add(1);  // filtered out

  json::Value obj = registry_to_json(reg, "engine.full.");
  ASSERT_TRUE(obj.is_object());
  ASSERT_EQ(obj.size(), 3u);
  EXPECT_EQ(obj.members()[0].first, "states");
  EXPECT_TRUE(obj.members()[0].second.is_int());
  EXPECT_EQ(obj.members()[0].second.as_int(), 729);
  EXPECT_EQ(obj.members()[1].first, "peak_frontier");
  EXPECT_DOUBLE_EQ(obj.members()[2].second.as_number(), 1.5);
}

TEST(PeakRss, IsPositiveOnLinux) {
  // /proc/self/status should be available in every environment we test on;
  // the function contract allows 0 only when the file is missing.
  EXPECT_GT(peak_rss_bytes(), 0u);
  EXPECT_GT(current_rss_bytes(), 0u);
}

json::Value load_schema() {
  std::ifstream in(std::string(GPO_REPO_ROOT) + "/bench/report_schema.json");
  EXPECT_TRUE(in.is_open()) << "bench/report_schema.json not found";
  std::ostringstream ss;
  ss << in.rdbuf();
  return json::Value::parse(ss.str());
}

/// Builds a report the way julie does, with a real engine run feeding the
/// counters, and validates it against the checked-in schema.
TEST(RunReport, GoldenDocumentValidatesAgainstCheckedInSchema) {
  MetricsRegistry reg;
  Tracer tracer;
  auto net = models::make_nsdp(4);

  reach::ExplorerOptions opt;
  opt.metrics = &reg;
  opt.metrics_prefix = "engine.full.";
  reach::ExplorerResult r;
  {
    Span span(&tracer, "engine/full");
    r = reach::ExplicitExplorer(net, opt).explore();
  }

  RunReport report("julie");
  report.set_command("julie --model nsdp:4 --engine full --report r.json");
  report.set_net("nsdp4", net.place_count(), net.transition_count());
  RunReport::EngineRun er;
  er.engine = "full";
  er.model = "nsdp:4";
  er.verdict = r.deadlock_found ? "deadlock" : "no-deadlock";
  er.states = static_cast<double>(r.state_count);
  er.seconds = r.seconds;
  er.counters = registry_to_json(reg, "engine.full.");
  report.add_engine(std::move(er));

  json::Value doc = report.build(&tracer, &reg);
  json::Value schema = load_schema();
  std::string error;
  EXPECT_TRUE(json::validate(schema, doc, &error)) << error;

  // Round trip through text: the reparsed document is structurally equal
  // (dump uses shortest-round-trip doubles).
  json::Value reparsed = json::Value::parse(doc.dump_string());
  EXPECT_EQ(doc, reparsed);

  // write() rebuilds at a later instant (peak RSS may have moved), so only
  // validate, don't compare for equality.
  std::ostringstream out;
  report.write(out, &tracer, &reg);
  json::Value written = json::Value::parse(out.str());
  EXPECT_TRUE(json::validate(schema, written, &error)) << error;

  // The memory section must carry the visited-set gauge the explorer
  // published under "mem.".
  const json::Value* gauges = doc.find("memory")->find("gauges");
  ASSERT_NE(gauges, nullptr);
  EXPECT_NE(gauges->find("engine_full_visited_bytes"), nullptr);
}

/// The observability additions: a report carrying histogram percentile
/// summaries and an events_path pointer must round-trip through text and
/// validate against the checked-in schema (the same subset the Python
/// validator implements).
TEST(RunReport, HistogramsAndEventsPathValidateAgainstSchema) {
  MetricsRegistry reg;
  Histogram& h = reg.histogram("service.job_seconds");
  h.record_seconds(0.001);
  h.record_seconds(0.002);
  h.record_seconds(0.050);
  reg.counter("service.jobs.submitted").add(3);  // non-histogram: filtered

  RunReport report("julie batch");
  report.set_events_path("events.jsonl");
  json::Value doc = report.build(nullptr, &reg);

  const json::Value* hists = doc.find("histograms");
  ASSERT_NE(hists, nullptr);
  ASSERT_TRUE(hists->is_array());
  ASSERT_EQ(hists->size(), 1u);
  const json::Value& entry = hists->items()[0];
  EXPECT_EQ(entry.find("name")->as_string(), "service.job_seconds");
  EXPECT_EQ(entry.find("count")->as_int(), 3);
  EXPECT_GE(entry.find("p99")->as_number(), entry.find("p50")->as_number());
  EXPECT_NEAR(entry.find("max")->as_number(), 0.050, 0.050 / 8);
  EXPECT_EQ(doc.find("events_path")->as_string(), "events.jsonl");

  json::Value schema = load_schema();
  std::string error;
  EXPECT_TRUE(json::validate(schema, doc, &error)) << error;
  EXPECT_EQ(doc, json::Value::parse(doc.dump_string()));

  // A report with no histogram slots must omit the section entirely (the
  // schema keeps it optional so pre-existing consumers are unaffected).
  RunReport bare("julie");
  json::Value bare_doc = bare.build(nullptr, nullptr);
  EXPECT_EQ(bare_doc.find("histograms"), nullptr);
  EXPECT_EQ(bare_doc.find("events_path"), nullptr);
  EXPECT_TRUE(json::validate(schema, bare_doc, &error)) << error;
}

TEST(RunReport, SchemaRejectsBadVerdictAndMissingFields) {
  json::Value schema = load_schema();
  RunReport report("julie");
  RunReport::EngineRun er;
  er.engine = "full";
  er.verdict = "maybe";  // not in the enum
  report.add_engine(std::move(er));
  json::Value doc = report.build(nullptr, nullptr);
  std::string error;
  EXPECT_FALSE(json::validate(schema, doc, &error));
  EXPECT_NE(error.find("verdict"), std::string::npos) << error;

  json::Value no_engines = json::Value::parse(
      R"({"schema_version": 1, "tool": "julie"})");
  EXPECT_FALSE(json::validate(schema, no_engines, &error));
}

TEST(Heartbeat, EmitLineFormatsLiveSlots) {
  MetricsRegistry reg;
  Tracer tracer;
  std::ostringstream out;
  {
    Heartbeat hb(reg, &tracer, 10.0, out);
    reg.counter("progress.states").add(1234);
    reg.gauge("progress.frontier").set(55);
    reg.gauge("progress.zdd_nodes").set(9);
    reg.gauge("interner.families").set(7);
    Span span(&tracer, "engine/gpo");
    hb.emit_line();
  }  // dtor stop() emits the final line
  std::string text = out.str();
  EXPECT_NE(text.find("[progress "), std::string::npos) << text;
  EXPECT_NE(text.find("states=1234"), std::string::npos) << text;
  EXPECT_NE(text.find("frontier=55"), std::string::npos) << text;
  EXPECT_NE(text.find("rss="), std::string::npos) << text;
  EXPECT_NE(text.find("zdd_nodes=9"), std::string::npos) << text;
  EXPECT_NE(text.find("families=7"), std::string::npos) << text;
  EXPECT_NE(text.find("phase=engine/gpo"), std::string::npos) << text;
  // stop() printed exactly one more line after the explicit emit_line().
  EXPECT_EQ(std::count(text.begin(), text.end(), '\n'), 2);
}

TEST(Heartbeat, QueueDepthAppearsWhenASchedulerRegisteredIt) {
  MetricsRegistry reg;
  std::ostringstream out;
  Heartbeat hb(reg, nullptr, 30.0, out);
  hb.emit_line();
  EXPECT_EQ(out.str().find("queue="), std::string::npos)
      << "no scheduler, no queue field";
  reg.gauge("service.queue.depth").set(3);
  hb.emit_line();
  EXPECT_NE(out.str().find("queue=3"), std::string::npos) << out.str();
}

TEST(Heartbeat, StartStopIsIdempotentAndPrintsFinalLine) {
  MetricsRegistry reg;
  std::ostringstream out;
  Heartbeat hb(reg, nullptr, 30.0, out);
  hb.start();
  reg.counter("progress.states").add(7);
  hb.stop();
  hb.stop();  // idempotent
  std::string text = out.str();
  EXPECT_EQ(std::count(text.begin(), text.end(), '\n'), 1);
  EXPECT_NE(text.find("states=7"), std::string::npos) << text;
}

/// Telemetry must be observation only: attaching a registry cannot change
/// verdicts or state counts (acceptance criterion of ISSUE 3).
TEST(TelemetryParity, ExplorerAndGpoResultsUnchangedByRegistry) {
  auto net = models::make_nsdp(4);
  MetricsRegistry reg;
  Tracer tracer;

  reach::ExplorerOptions base;
  auto plain = reach::ExplicitExplorer(net, base).explore();
  reach::ExplorerOptions instrumented = base;
  instrumented.metrics = &reg;
  auto traced = reach::ExplicitExplorer(net, instrumented).explore();
  EXPECT_EQ(plain.state_count, traced.state_count);
  EXPECT_EQ(plain.deadlock_found, traced.deadlock_found);
  EXPECT_EQ(plain.edge_count, traced.edge_count);
  EXPECT_EQ(reg.counter("full.states").value(), plain.state_count);

  core::GpoOptions gbase;
  auto gplain = core::run_gpo(net, gbase);
  core::GpoOptions ginst = gbase;
  ginst.metrics = &reg;
  ginst.tracer = &tracer;
  auto gtraced = core::run_gpo(net, ginst);
  EXPECT_EQ(gplain.state_count, gtraced.state_count);
  EXPECT_EQ(gplain.deadlock_found, gtraced.deadlock_found);
  EXPECT_EQ(gplain.multiple_steps, gtraced.multiple_steps);
  EXPECT_EQ(gplain.single_steps, gtraced.single_steps);
  EXPECT_EQ(reg.counter("gpo.states").value(), gplain.state_count);
  EXPECT_FALSE(tracer.records().empty());

  // The unfolder publishes its two phases as timers and spans, and its
  // cuts as a counter, without changing the search.
  Tracer unfold_tracer;
  unfold::UnfoldOptions ubase;
  auto uplain = unfold::deadlock_via_unfolding(net, ubase);
  unfold::UnfoldOptions uinst = ubase;
  uinst.metrics = &reg;
  uinst.tracer = &unfold_tracer;
  auto utraced = unfold::deadlock_via_unfolding(net, uinst);
  EXPECT_EQ(uplain.cuts_explored, utraced.cuts_explored);
  EXPECT_EQ(uplain.deadlock_found, utraced.deadlock_found);
  EXPECT_EQ(reg.counter("unfold.cuts").value(), uplain.cuts_explored);
  EXPECT_EQ(reg.timer("unfold.prefix_seconds").count(), 1u);
  EXPECT_EQ(reg.timer("unfold.check_seconds").count(), 1u);
  std::vector<std::string> spans;
  for (const auto& rec : unfold_tracer.records()) spans.push_back(rec.name);
  EXPECT_EQ(spans, (std::vector<std::string>{"prefix-construction",
                                             "prefix-deadlock-check"}));
}

}  // namespace
}  // namespace gpo::obs
