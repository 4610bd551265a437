// Pins the exact outcome of the exhaustive (`full`) and stubborn-set (`por`)
// breadth-first searches: counts, BFS-order statistics and the first
// counterexample. The values were captured from the original
// unordered_map-based searches; any store or loop rewrite must reproduce
// them bit for bit, because BFS discovery order decides which deadlock is
// found first and which trace reaches it.
#include <gtest/gtest.h>

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "models/models.hpp"
#include "por/stubborn.hpp"
#include "reach/explorer.hpp"

namespace gpo::reach {
namespace {

using petri::Marking;
using petri::PetriNet;
using petri::TransitionId;

enum class Engine { kFull, kPor };
constexpr Engine kFull = Engine::kFull;
constexpr Engine kPor = Engine::kPor;

struct Pin {
  const char* model;
  Engine engine;
  bool stop_at_first_deadlock;
  std::size_t states;
  std::size_t edges;
  std::size_t deadlocks;
  std::size_t peak_frontier;
  std::size_t fireable;
  std::vector<TransitionId> counterexample;
};

void PrintTo(const Pin& p, std::ostream* os) {
  *os << p.model << (p.engine == kFull ? "/full" : "/por")
      << (p.stop_at_first_deadlock ? "/stop" : "/all");
}

ExplorerResult run(const PetriNet& net, Engine engine, bool stop) {
  if (engine == kFull) {
    ExplorerOptions o;
    o.stop_at_first_deadlock = stop;
    return ExplicitExplorer(net, o).explore();
  }
  por::StubbornOptions so;
  so.stop_at_first_deadlock = stop;
  return por::StubbornExplorer(net, so).explore();
}

void expect_pinned(const ExplorerResult& r, const Pin& p) {
  EXPECT_EQ(r.state_count, p.states);
  EXPECT_EQ(r.edge_count, p.edges);
  EXPECT_EQ(r.deadlock_count, p.deadlocks);
  EXPECT_EQ(r.stats.peak_frontier, p.peak_frontier);
  EXPECT_EQ(r.fireable_transitions.count(), p.fireable);
  EXPECT_EQ(r.counterexample, p.counterexample);
  EXPECT_EQ(r.deadlock_found, p.deadlocks > 0);
  EXPECT_FALSE(r.limit_hit);
}

class PinnedSearch : public ::testing::TestWithParam<Pin> {};

TEST_P(PinnedSearch, CountsAndCounterexampleUnchanged) {
  const Pin& p = GetParam();
  PetriNet net = *models::make_by_spec(p.model);
  ExplorerResult r = run(net, p.engine, p.stop_at_first_deadlock);
  expect_pinned(r, p);
  if (r.deadlock_found) {
    ASSERT_TRUE(r.first_deadlock.has_value());
    Marking m = net.initial_marking();
    for (TransitionId t : r.counterexample) {
      ASSERT_TRUE(net.enabled(t, m));
      m = net.fire(t, m);
    }
    EXPECT_EQ(m, *r.first_deadlock);
    EXPECT_TRUE(net.is_deadlocked(m));
  }
}

// clang-format off
INSTANTIATE_TEST_SUITE_P(Models, PinnedSearch, ::testing::Values(
    Pin{"cyclic:12", kFull, false, 49152, 319488, 0, 2441, 24, {}},
    Pin{"cyclic:12", kPor, false, 46, 46, 0, 1, 24, {}},
    Pin{"cyclic:12", kFull, true, 49152, 319488, 0, 2441, 24, {}},
    Pin{"cyclic:12", kPor, true, 46, 46, 0, 1, 24, {}},
    Pin{"nsdp:8", kFull, false, 6561, 40824, 2, 2033, 40, {0, 5, 10, 15, 20, 25, 30, 35}},
    Pin{"nsdp:8", kPor, false, 4095, 11264, 2, 1318, 40, {0, 5, 10, 15, 20, 25, 30, 35}},
    Pin{"nsdp:8", kFull, true, 6433, 37915, 1, 2033, 40, {0, 5, 10, 15, 20, 25, 30, 35}},
    Pin{"nsdp:8", kPor, true, 4039, 10795, 1, 1318, 40, {0, 5, 10, 15, 20, 25, 30, 35}},
    Pin{"rw:12", kFull, false, 4108, 49176, 0, 988, 48, {}},
    Pin{"rw:12", kPor, false, 25, 48, 0, 24, 48, {}},
    Pin{"rw:12", kFull, true, 4108, 49176, 0, 988, 48, {}},
    Pin{"rw:12", kPor, true, 25, 48, 0, 24, 48, {}},
    Pin{"ring:6", kFull, false, 1680, 5040, 0, 241, 24, {}},
    Pin{"ring:6", kPor, false, 1476, 3954, 0, 227, 24, {}},
    Pin{"ring:6", kFull, true, 1680, 5040, 0, 241, 24, {}},
    Pin{"ring:6", kPor, true, 1476, 3954, 0, 227, 24, {}},
    Pin{"asat:8", kFull, false, 245760, 1435648, 0, 18760, 68, {}},
    Pin{"asat:8", kPor, false, 1431, 1638, 0, 128, 68, {}},
    Pin{"asat:8", kFull, true, 245760, 1435648, 0, 18760, 68, {}},
    Pin{"asat:8", kPor, true, 1431, 1638, 0, 128, 68, {}},
    Pin{"over:4", kFull, false, 150, 333, 5, 23, 17, {0, 1, 7, 8, 10, 11, 13}},
    Pin{"over:4", kPor, false, 55, 64, 5, 11, 17, {1, 7, 8, 10, 11, 13, 0}},
    Pin{"over:4", kFull, true, 98, 204, 1, 23, 17, {0, 1, 7, 8, 10, 11, 13}},
    Pin{"over:4", kPor, true, 30, 30, 1, 9, 17, {1, 7, 8, 10, 11, 13, 0}},
    Pin{"chain:10", kFull, false, 59049, 393660, 1024, 16422, 20, {0, 2, 4, 6, 8, 10, 12, 14, 16, 18}},
    Pin{"chain:10", kPor, false, 2047, 2046, 1024, 1024, 20, {0, 2, 4, 6, 8, 10, 12, 14, 16, 18}},
    Pin{"chain:10", kFull, true, 58026, 383421, 1, 16422, 20, {0, 2, 4, 6, 8, 10, 12, 14, 16, 18}},
    Pin{"chain:10", kPor, true, 1024, 1023, 1, 512, 20, {0, 2, 4, 6, 8, 10, 12, 14, 16, 18}}));
// clang-format on

// GPO's anti-ignoring delegation runs the stubborn search from several
// markings at once; roots are deduplicated and traces are relative to the
// root that reached the deadlock.
TEST(PinnedSearchRoots, MultiRootExploreFromUnchanged) {
  PetriNet net = *models::make_by_spec("nsdp:8");
  std::vector<Marking> roots{net.initial_marking()};
  Marking m = net.initial_marking();
  for (int i = 0; i < 3; ++i) {
    m = net.fire(net.enabled_transitions(m).back(), m);
    roots.push_back(m);
  }
  roots.push_back(net.initial_marking());  // duplicate root
  for (bool stop : {false, true}) {
    SCOPED_TRACE(stop ? "stop" : "all");
    por::StubbornOptions so;
    so.stop_at_first_deadlock = stop;
    ExplorerResult r = por::StubbornExplorer(net, so).explore_from(roots);
    expect_pinned(r, Pin{"roots", kPor, stop, stop ? 4038u : 4095u,
                         stop ? 10793u : 11264u, stop ? 1u : 2u, 1324, 40,
                         {1, 6, 11, 16, 21, 26, 31}});
    ASSERT_TRUE(r.first_deadlock.has_value());
    Marking end = roots[1];  // the trace starts at the second root
    for (TransitionId t : r.counterexample) end = net.fire(t, end);
    EXPECT_EQ(end, *r.first_deadlock);
  }
}

// The other two seed strategies select different stubborn sets, so their
// graphs pin the closure itself.
TEST(PinnedSearchStrategies, SeedStrategiesUnchanged) {
  struct Row {
    const char* model;
    por::SeedStrategy strategy;
    std::size_t states, edges, deadlocks, peak_frontier;
  };
  using S = por::SeedStrategy;
  const Row rows[] = {
      {"cyclic:12", S::kFirstEnabled, 46, 46, 0, 1},
      {"cyclic:12", S::kWholeConflictSet, 46, 46, 0, 1},
      {"nsdp:8", S::kFirstEnabled, 6561, 27270, 2, 2033},
      {"nsdp:8", S::kWholeConflictSet, 6561, 34442, 2, 2033},
      {"rw:12", S::kFirstEnabled, 36, 70, 0, 24},
      {"rw:12", S::kWholeConflictSet, 4108, 26648, 0, 987},
      {"ring:6", S::kFirstEnabled, 1575, 4441, 0, 230},
      {"ring:6", S::kWholeConflictSet, 1575, 4470, 0, 230},
      {"asat:8", S::kFirstEnabled, 2219, 3598, 0, 258},
      {"asat:8", S::kWholeConflictSet, 2219, 3598, 0, 258},
      {"over:4", S::kFirstEnabled, 99, 154, 5, 17},
      {"over:4", S::kWholeConflictSet, 99, 154, 5, 17},
      {"chain:10", S::kFirstEnabled, 2047, 2046, 1024, 1024},
      {"chain:10", S::kWholeConflictSet, 2047, 2046, 1024, 1024},
  };
  for (const Row& row : rows) {
    SCOPED_TRACE(std::string(row.model) + " strategy " +
                 std::to_string(static_cast<int>(row.strategy)));
    PetriNet net = *models::make_by_spec(row.model);
    por::StubbornOptions so;
    so.strategy = row.strategy;
    ExplorerResult r = por::StubbornExplorer(net, so).explore();
    EXPECT_EQ(r.state_count, row.states);
    EXPECT_EQ(r.edge_count, row.edges);
    EXPECT_EQ(r.deadlock_count, row.deadlocks);
    EXPECT_EQ(r.stats.peak_frontier, row.peak_frontier);
  }
}

// build_graph output: node labels in id order and labeled edges in firing
// order, digested so a reordering anywhere shows.
std::uint64_t digest(const petri::LabeledGraph& g) {
  std::uint64_t h = 1469598103934665603ull;
  auto mix = [&](const std::string& s) {
    for (unsigned char c : s) {
      h ^= c;
      h *= 1099511628211ull;
    }
  };
  for (const std::string& l : g.node_labels) mix(l + ";");
  for (const auto& e : g.edges)
    mix(std::to_string(e.from) + ">" + std::to_string(e.to) + ":" + e.label +
        ";");
  return h;
}

TEST(PinnedSearchGraph, BuildGraphUnchanged) {
  struct Row {
    const char* model;
    Engine engine;
    std::size_t nodes, edges;
    std::uint64_t digest;
  };
  const Row rows[] = {
      {"over:4", kFull, 150, 333, 9806112537293975621ull},
      {"over:4", kPor, 55, 64, 9460939051577154842ull},
      {"fig7", kFull, 5, 4, 11301914217231199780ull},
      {"fig7", kPor, 5, 4, 11301914217231199780ull},
      {"nsdp:3", kFull, 27, 63, 16669411092575558880ull},
      {"nsdp:3", kPor, 27, 57, 7643301208198488966ull},
  };
  for (const Row& row : rows) {
    SCOPED_TRACE(std::string(row.model) +
                 (row.engine == kFull ? " full" : " por"));
    PetriNet net = *models::make_by_spec(row.model);
    ExplorerResult r;
    if (row.engine == kFull) {
      ExplorerOptions o;
      o.build_graph = true;
      r = ExplicitExplorer(net, o).explore();
    } else {
      por::StubbornOptions so;
      so.build_graph = true;
      r = por::StubbornExplorer(net, so).explore();
    }
    EXPECT_EQ(r.graph.initial, 0u);
    EXPECT_EQ(r.graph.node_labels.size(), row.nodes);
    EXPECT_EQ(r.graph.edges.size(), row.edges);
    EXPECT_EQ(digest(r.graph), row.digest);
  }
}

// max_states is checked before each expansion against every stored state,
// so the overshoot is that of the last expanded state's fresh successors.
TEST(PinnedSearchLimits, MaxStatesStopsAtTheSameState) {
  struct Row {
    std::size_t limit;
    std::size_t full_states, full_edges, por_states, por_edges;
  };
  const Row rows[] = {
      {1, 17, 16, 17, 16},
      {10, 17, 16, 17, 16},
      {100, 104, 128, 104, 128},
      {1000, 1003, 2782, 1003, 2033},
  };
  PetriNet net = *models::make_by_spec("nsdp:8");
  for (const Row& row : rows) {
    SCOPED_TRACE("limit " + std::to_string(row.limit));
    ExplorerOptions o;
    o.max_states = row.limit;
    ExplorerResult r = ExplicitExplorer(net, o).explore();
    EXPECT_TRUE(r.limit_hit);
    EXPECT_EQ(r.interrupted_phase, "exploration");
    EXPECT_EQ(r.state_count, row.full_states);
    EXPECT_EQ(r.edge_count, row.full_edges);
    por::StubbornOptions so;
    so.max_states = row.limit;
    ExplorerResult p = por::StubbornExplorer(net, so).explore();
    EXPECT_TRUE(p.limit_hit);
    EXPECT_EQ(p.interrupted_phase, "reduced-search");
    EXPECT_EQ(p.state_count, row.por_states);
    EXPECT_EQ(p.edge_count, row.por_edges);
  }
}

}  // namespace
}  // namespace gpo::reach
