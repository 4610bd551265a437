#include "por/stubborn.hpp"

#include <gtest/gtest.h>

#include "models/models.hpp"
#include "petri/builder.hpp"
#include "reach/explorer.hpp"

namespace gpo::por {
namespace {

using petri::ConflictInfo;
using petri::Marking;
using petri::PetriNet;
using petri::TransitionId;

TEST(StubbornSet, SingletonForIndependentTransition) {
  PetriNet net = models::make_diamond(3);
  ConflictInfo ci(net);
  auto s = stubborn_enabled_set(net, ci, net.initial_marking(), {0});
  EXPECT_EQ(s, std::vector<TransitionId>{0});
}

TEST(StubbornSet, PullsInConflictingTransitions) {
  PetriNet net = models::make_fig7();
  ConflictInfo ci(net);
  TransitionId a = net.find_transition("A");
  TransitionId b = net.find_transition("B");
  auto s = stubborn_enabled_set(net, ci, net.initial_marking(), {a});
  EXPECT_EQ(s, (std::vector<TransitionId>{a, b}));
}

TEST(StubbornSet, DisabledSeedPullsInScapegoatProducers) {
  // c disabled for lack of p1; the producer a of p1 must join, and since a
  // is enabled the returned enabled subset is {a}.
  petri::NetBuilder bld;
  auto p0 = bld.add_place("p0", true);
  auto p1 = bld.add_place("p1");
  auto p2 = bld.add_place("p2");
  auto ta = bld.add_transition("a");
  bld.connect(ta, {p0}, {p1});
  auto tc = bld.add_transition("c");
  bld.connect(tc, {p1}, {p2});
  PetriNet net = bld.build();
  ConflictInfo ci(net);
  auto s = stubborn_enabled_set(net, ci, net.initial_marking(), {tc});
  EXPECT_EQ(s, std::vector<TransitionId>{ta});
}

TEST(StubbornSet, RejectsASeedOutsideTheNet) {
  PetriNet net = models::make_nsdp(3);
  ConflictInfo ci(net);
  const auto nt = static_cast<TransitionId>(net.transition_count());
  EXPECT_THROW((void)stubborn_enabled_set(net, ci, net.initial_marking(), {nt}),
               std::out_of_range);
}

TEST(StubbornSet, AlwaysContainsAnEnabledKeyTransition) {
  PetriNet net = models::make_nsdp(3);
  ConflictInfo ci(net);
  Marking m = net.initial_marking();
  for (TransitionId t : net.enabled_transitions(m)) {
    auto s = stubborn_enabled_set(net, ci, m, {t});
    EXPECT_FALSE(s.empty());
    for (TransitionId u : s) EXPECT_TRUE(net.enabled(u, m));
  }
}

TEST(StubbornExplorer, DiamondIsLinear) {
  // The motivating Fig. 1 reduction: n+1 states instead of 2^n.
  for (std::size_t n : {2u, 4u, 8u}) {
    auto result = StubbornExplorer(models::make_diamond(n)).explore();
    EXPECT_EQ(result.state_count, n + 1) << "n=" << n;
    EXPECT_TRUE(result.deadlock_found);
  }
}

TEST(StubbornExplorer, ConflictChainIsAnticipationTree) {
  // The paper's Fig. 2: partial order methods still need 2^{n+1}-1 states.
  for (std::size_t n : {2u, 4u, 6u}) {
    auto result =
        StubbornExplorer(models::make_conflict_chain(n)).explore();
    EXPECT_EQ(result.state_count, (std::size_t{2} << n) - 1) << "n=" << n;
  }
}

TEST(StubbornExplorer, NeverMoreStatesThanFull) {
  for (const char* which : {"nsdp", "asat", "over", "rw"}) {
    PetriNet net = std::string(which) == "nsdp" ? models::make_nsdp(4)
                   : std::string(which) == "asat"
                       ? models::make_arbiter_tree(4)
                   : std::string(which) == "over" ? models::make_overtake(4)
                                                  : models::make_readers_writers(5);
    auto full = reach::ExplicitExplorer(net).explore();
    auto red = StubbornExplorer(net).explore();
    EXPECT_LE(red.state_count, full.state_count) << which;
    EXPECT_EQ(red.deadlock_found, full.deadlock_found) << which;
  }
}

class StrategyTest : public ::testing::TestWithParam<SeedStrategy> {};

TEST_P(StrategyTest, DeadlockPreservedOnRandomNets) {
  for (std::uint64_t seed = 1; seed <= 60; ++seed) {
    models::RandomNetParams p;
    p.machines = 2 + seed % 3;
    p.states_per_machine = 3 + seed % 3;
    p.transitions = 5 + seed % 10;
    p.sync_percent = 40;
    p.seed = seed;
    PetriNet net = models::make_random_net(p);
    reach::ExplorerOptions eo;
    eo.max_states = 100000;
    auto ground = reach::ExplicitExplorer(net, eo).explore();
    if (ground.limit_hit) continue;
    StubbornOptions so;
    so.strategy = GetParam();
    auto red = StubbornExplorer(net, so).explore();
    EXPECT_EQ(red.deadlock_found, ground.deadlock_found) << "seed=" << seed;
    EXPECT_LE(red.state_count, ground.state_count) << "seed=" << seed;
  }
}

INSTANTIATE_TEST_SUITE_P(AllStrategies, StrategyTest,
                         ::testing::Values(SeedStrategy::kBestOverSeeds,
                                           SeedStrategy::kFirstEnabled,
                                           SeedStrategy::kWholeConflictSet));

TEST(StubbornExplorer, CounterexampleReplays) {
  PetriNet net = models::make_nsdp(3);
  auto result = StubbornExplorer(net).explore();
  ASSERT_TRUE(result.deadlock_found);
  Marking m = net.initial_marking();
  for (TransitionId t : result.counterexample) {
    ASSERT_TRUE(net.enabled(t, m));
    m = net.fire(t, m);
  }
  EXPECT_TRUE(net.is_deadlocked(m));
}

TEST(StubbornExplorer, ExploreFromCustomRoots) {
  PetriNet net = models::make_nsdp(2);
  // Root: the all-left deadlock marking itself -> found immediately.
  Marking dead(net.place_count());
  dead.set(net.find_place("hasL_0"));
  dead.set(net.find_place("hasL_1"));
  StubbornOptions so;
  auto result = StubbornExplorer(net, so).explore_from({dead});
  EXPECT_TRUE(result.deadlock_found);
  EXPECT_EQ(result.counterexample.size(), 0u);
  EXPECT_EQ(*result.first_deadlock, dead);
}

TEST(StubbornExplorer, ExploreFromMultipleRootsDeduplicates) {
  PetriNet net = models::make_diamond(2);
  Marking m0 = net.initial_marking();
  auto one = StubbornExplorer(net).explore_from({m0});
  auto twice = StubbornExplorer(net).explore_from({m0, m0});
  EXPECT_EQ(one.state_count, twice.state_count);
}

TEST(StubbornExplorer, StateLimit) {
  StubbornOptions so;
  so.max_states = 5;
  auto result = StubbornExplorer(models::make_nsdp(6), so).explore();
  EXPECT_TRUE(result.limit_hit);
}

// The textbook closure, written with bitsets and a fresh work list per call:
// the specification the allocation-free closure in stubborn.cpp must match.
std::vector<TransitionId> reference_enabled_set(
    const PetriNet& net, const ConflictInfo& conflicts, const Marking& m,
    const std::vector<TransitionId>& seeds) {
  const std::size_t nt = net.transition_count();
  util::Bitset in_set(nt);
  std::vector<TransitionId> work;
  auto add = [&](TransitionId t) {
    if (!in_set.test(t)) {
      in_set.set(t);
      work.push_back(t);
    }
  };
  for (TransitionId t : seeds) add(t);
  while (!work.empty()) {
    TransitionId t = work.back();
    work.pop_back();
    if (net.enabled(t, m)) {
      const util::Bitset& nb = conflicts.neighbors(t);
      for (std::size_t u = nb.find_first(); u < nt; u = nb.find_next(u + 1))
        add(static_cast<TransitionId>(u));
    } else {
      petri::PlaceId scapegoat = petri::kInvalidPlace;
      std::size_t best = SIZE_MAX;
      for (petri::PlaceId p : net.transition(t).pre) {
        if (m.test(p)) continue;
        if (net.place(p).pre.size() < best) {
          best = net.place(p).pre.size();
          scapegoat = p;
        }
      }
      for (TransitionId producer : net.place(scapegoat).pre) add(producer);
    }
  }
  std::vector<TransitionId> enabled;
  for (std::size_t t = in_set.find_first(); t < nt;
       t = in_set.find_next(t + 1))
    if (net.enabled(static_cast<TransitionId>(t), m))
      enabled.push_back(static_cast<TransitionId>(t));
  return enabled;
}

std::vector<TransitionId> reference_ample(const PetriNet& net,
                                          const ConflictInfo& conflicts,
                                          SeedStrategy strategy,
                                          const Marking& m) {
  std::vector<TransitionId> enabled = net.enabled_transitions(m);
  if (enabled.empty()) return enabled;
  switch (strategy) {
    case SeedStrategy::kFirstEnabled:
      return reference_enabled_set(net, conflicts, m, {enabled.front()});
    case SeedStrategy::kWholeConflictSet:
      return reference_enabled_set(
          net, conflicts, m,
          conflicts.components()[conflicts.component_of(enabled.front())]);
    case SeedStrategy::kBestOverSeeds: {
      std::vector<TransitionId> best;
      for (TransitionId seed : enabled) {
        auto candidate = reference_enabled_set(net, conflicts, m, {seed});
        if (best.empty() || candidate.size() < best.size())
          best = std::move(candidate);
        if (best.size() == 1) break;
      }
      return best;
    }
  }
  return enabled;
}

// Every reachable marking of models and random nets, every single seed
// (enabled or not), whole components, and all three strategies: the
// closure the search runs returns exactly the reference sets.
TEST(StubbornSet, ClosureMatchesReferenceOnReachableMarkings) {
  std::vector<PetriNet> nets;
  for (const char* spec : {"nsdp:4", "over:3", "asat:4", "rw:4", "ring:3",
                           "chain:3", "cyclic:3", "fig7"})
    nets.push_back(*models::make_by_spec(spec));
  for (std::uint64_t seed = 1; seed <= 25; ++seed) {
    models::RandomNetParams p;
    p.machines = 2 + seed % 3;
    p.states_per_machine = 3 + seed % 3;
    p.transitions = 5 + seed % 10;
    p.sync_percent = 40;
    p.seed = seed;
    nets.push_back(models::make_random_net(p));
  }
  for (const PetriNet& net : nets) {
    SCOPED_TRACE(std::string(net.name()));
    ConflictInfo ci(net);
    reach::ExplorerOptions eo;
    eo.build_graph = true;
    eo.max_states = 2000;
    auto graph = reach::ExplicitExplorer(net, eo).explore();
    // Replay the BFS tree to recover each reachable marking.
    std::vector<Marking> markings{net.initial_marking()};
    std::vector<bool> known{true};
    markings.resize(graph.state_count);
    known.resize(graph.state_count, false);
    for (const auto& e : graph.graph.edges) {
      if (known[e.to] || !known[e.from]) continue;
      markings[e.to] =
          net.fire(net.find_transition(e.label), markings[e.from]);
      known[e.to] = true;
    }
    std::vector<StubbornExplorer> explorers;
    for (SeedStrategy st :
         {SeedStrategy::kBestOverSeeds, SeedStrategy::kFirstEnabled,
          SeedStrategy::kWholeConflictSet}) {
      StubbornOptions so;
      so.strategy = st;
      explorers.emplace_back(net, so);
    }
    for (std::size_t i = 0; i < markings.size(); ++i) {
      if (!known[i]) continue;
      const Marking& m = markings[i];
      for (TransitionId t = 0; t < net.transition_count(); ++t)
        ASSERT_EQ(stubborn_enabled_set(net, ci, m, {t}),
                  reference_enabled_set(net, ci, m, {t}))
            << "state " << i << " seed " << t;
      for (const auto& comp : ci.components())
        ASSERT_EQ(stubborn_enabled_set(net, ci, m, comp),
                  reference_enabled_set(net, ci, m, comp));
      for (std::size_t k = 0; k < explorers.size(); ++k)
        ASSERT_EQ(explorers[k].ample_set(m),
                  reference_ample(net, ci, static_cast<SeedStrategy>(k), m))
            << "state " << i << " strategy " << k;
    }
  }
}

}  // namespace
}  // namespace gpo::por
