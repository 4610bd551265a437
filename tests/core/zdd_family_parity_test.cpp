// Parity suite for the `gpo` engine: run_gpo (ZDD store) must be
// observationally identical to the paper-literal explicit oracle
// (run_gpo_explicit) — same state counts, step mix, verdicts and
// fireability sets — and both must agree with the exhaustive explorer's
// deadlock verdict, on the paper's models and on random nets. The one
// sanctioned divergence is *which* witness/counterexample is reported: the
// ZDD enumerates members in diagram DFS order, not ExplicitFamily's sorted
// order, so those are validated by replay instead of compared bitwise.
#include <gtest/gtest.h>

#include "core/gpo.hpp"
#include "models/models.hpp"
#include "reach/explorer.hpp"

namespace gpo::core {
namespace {

using petri::PetriNet;

void expect_zdd_parity(const PetriNet& net, const GpoOptions& base = {}) {
  auto seed = run_gpo_explicit(net, base);
  auto zdd = run_gpo(net, base);

  // Ground truth: the exhaustive explorer (unfiltered runs only — the
  // witness filter asks a different question).
  if (!base.required_witness_place && !zdd.limit_hit) {
    reach::ExplorerOptions eopt;
    eopt.max_seconds = 20;
    auto full = reach::ExplicitExplorer(net, eopt).explore();
    if (!full.limit_hit) {
      EXPECT_EQ(full.deadlock_found, zdd.deadlock_found) << net.name();
    }
  }

  EXPECT_EQ(seed.state_count, zdd.state_count) << net.name();
  EXPECT_EQ(seed.edge_count, zdd.edge_count) << net.name();
  EXPECT_EQ(seed.multiple_steps, zdd.multiple_steps) << net.name();
  EXPECT_EQ(seed.single_steps, zdd.single_steps) << net.name();
  EXPECT_EQ(seed.deadlock_found, zdd.deadlock_found) << net.name();
  EXPECT_EQ(seed.bailed_to_classical, zdd.bailed_to_classical) << net.name();
  EXPECT_EQ(seed.ignoring_expansions, zdd.ignoring_expansions) << net.name();
  EXPECT_EQ(seed.fireable_transitions, zdd.fireable_transitions)
      << net.name();

  // Witness parity by replay: the ZDD's counterexample must drive the net
  // into a real deadlock whenever the seed found one.
  EXPECT_EQ(seed.deadlock_witness.has_value(),
            zdd.deadlock_witness.has_value())
      << net.name();
  if (zdd.deadlock_found && !zdd.counterexample.empty()) {
    petri::Marking m = net.initial_marking();
    for (petri::TransitionId t : zdd.counterexample) {
      ASSERT_TRUE(net.enabled(t, m)) << net.name();
      m = net.fire(t, m);
    }
    EXPECT_TRUE(net.is_deadlocked(m)) << net.name();
    if (zdd.deadlock_witness) {
      EXPECT_EQ(m, *zdd.deadlock_witness) << net.name();
    }
  }

  // Only the ZDD path reports store stats.
  EXPECT_FALSE(seed.family_stats.available) << net.name();
  ASSERT_TRUE(zdd.family_stats.available) << net.name();
  EXPECT_EQ(zdd.family_stats.backend, "zdd") << net.name();
  EXPECT_GT(zdd.family_stats.zdd_nodes, 0u) << net.name();
  EXPECT_GT(zdd.family_stats.families_bytes, 0u) << net.name();
  EXPECT_EQ(zdd.family_stats.distinct_families, 0u) << net.name();
  EXPECT_LE(zdd.family_stats.op_cache_occupied,
            zdd.family_stats.op_cache_capacity)
      << net.name();
}

TEST(GpoZddParity, PaperModels) {
  expect_zdd_parity(models::make_diamond(5));
  expect_zdd_parity(models::make_conflict_chain(6));
  expect_zdd_parity(models::make_nsdp(4));
  expect_zdd_parity(models::make_arbiter_tree(4));
  expect_zdd_parity(models::make_overtake(3));
  expect_zdd_parity(models::make_readers_writers(6));
  expect_zdd_parity(models::make_fig3());
  expect_zdd_parity(models::make_fig5());
  expect_zdd_parity(models::make_fig7());
}

TEST(GpoZddParity, GuardAndDelegationPathsAgree) {
  expect_zdd_parity(models::make_overtake(4));
  GpoOptions opt;
  opt.delegate_after_states = 500;
  expect_zdd_parity(models::make_slotted_ring(3), opt);
}

TEST(GpoZddParity, StopAtFirstDeadlockAndWitnessFilter) {
  GpoOptions opt;
  opt.stop_at_first_deadlock = true;
  expect_zdd_parity(models::make_nsdp(4), opt);

  PetriNet net = models::make_nsdp(3);
  GpoOptions filt;
  filt.required_witness_place = net.find_place("hasL_0");
  expect_zdd_parity(net, filt);
}

TEST(GpoZddParity, RandomNets) {
  for (std::uint64_t seed = 4400; seed < 4460; ++seed) {
    models::RandomNetParams p;
    p.machines = 2 + seed % 3;
    p.states_per_machine = 3;
    p.transitions = 5 + seed % 10;
    p.seed = seed;
    PetriNet net = models::make_random_net(p);
    GpoOptions opt;
    opt.max_seconds = 20;
    SCOPED_TRACE("seed=" + std::to_string(seed));
    expect_zdd_parity(net, opt);
  }
}

}  // namespace
}  // namespace gpo::core
