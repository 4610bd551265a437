// The reproduction's own verification: all four engine families must agree
// with exhaustive ground truth on deadlock verdicts (and the symbolic engine
// on exact state counts) across the benchmark models and a corpus of random
// 1-safe nets. This is the property suite DESIGN.md commits to.
#include <gtest/gtest.h>

#include "bdd/symbolic_reach.hpp"
#include "core/gpo.hpp"
#include "models/models.hpp"
#include "por/stubborn.hpp"
#include "reach/explorer.hpp"

namespace gpo {
namespace {

using petri::PetriNet;

struct Verdicts {
  std::size_t ground_states;
  bool ground;
  bool por;
  bool gpo_explicit;
  bool gpo_interned;
  bool gpo_bdd;
  bool gpo;
  bool symbolic;
  double symbolic_states;
};

Verdicts run_all(const PetriNet& net) {
  Verdicts v{};
  auto ground = reach::ExplicitExplorer(net).explore();
  EXPECT_FALSE(ground.safeness_violation) << net.name();
  v.ground_states = ground.state_count;
  v.ground = ground.deadlock_found;
  v.por = por::StubbornExplorer(net).explore().deadlock_found;
  v.gpo_explicit = core::run_gpo_explicit(net).deadlock_found;
  v.gpo_interned =
      core::run_gpo(net, core::FamilyKind::kInterned).deadlock_found;
  v.gpo_bdd = core::run_gpo(net, core::FamilyKind::kBdd).deadlock_found;
  v.gpo = core::run_gpo(net).deadlock_found;
  auto sym = bdd::SymbolicReachability(net).analyze();
  EXPECT_FALSE(sym.blowup) << net.name();
  v.symbolic = sym.deadlock_found;
  v.symbolic_states = sym.state_count;
  return v;
}

void expect_agreement(const PetriNet& net) {
  Verdicts v = run_all(net);
  EXPECT_EQ(v.por, v.ground) << net.name();
  EXPECT_EQ(v.gpo_explicit, v.ground) << net.name();
  EXPECT_EQ(v.gpo_interned, v.ground) << net.name();
  EXPECT_EQ(v.gpo_bdd, v.ground) << net.name();
  EXPECT_EQ(v.gpo, v.ground) << net.name();
  EXPECT_EQ(v.symbolic, v.ground) << net.name();
  EXPECT_EQ(v.symbolic_states, static_cast<double>(v.ground_states))
      << net.name();
}

class ModelAgreement : public ::testing::TestWithParam<int> {};

TEST(CrossEngine, BenchmarkModelsAgree) {
  expect_agreement(models::make_diamond(5));
  expect_agreement(models::make_conflict_chain(5));
  expect_agreement(models::make_nsdp(2));
  expect_agreement(models::make_nsdp(4));
  expect_agreement(models::make_arbiter_tree(2));
  expect_agreement(models::make_arbiter_tree(4));
  expect_agreement(models::make_overtake(2));
  expect_agreement(models::make_overtake(4));
  expect_agreement(models::make_readers_writers(4));
  expect_agreement(models::make_readers_writers(7));
  expect_agreement(models::make_fig3());
  expect_agreement(models::make_fig7());
}

class RandomAgreement : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RandomAgreement, AllEnginesMatchGroundTruth) {
  std::uint64_t base = GetParam();
  for (std::uint64_t seed = base; seed < base + 25; ++seed) {
    models::RandomNetParams p;
    p.machines = 2 + seed % 3;
    p.states_per_machine = 2 + seed % 4;
    p.transitions = 4 + seed % 14;
    p.sync_percent = 25 + (seed * 11) % 70;
    p.seed = seed;
    PetriNet net = models::make_random_net(p);

    reach::ExplorerOptions eo;
    eo.max_states = 300000;
    auto ground = reach::ExplicitExplorer(net, eo).explore();
    if (ground.limit_hit || ground.safeness_violation) continue;

    auto por_r = por::StubbornExplorer(net).explore();
    EXPECT_EQ(por_r.deadlock_found, ground.deadlock_found)
        << "POR seed=" << seed;

    core::GpoOptions go;
    go.max_states = 500000;
    go.max_seconds = 30;
    auto ge = core::run_gpo_explicit(net, go);
    if (!ge.limit_hit) {
      EXPECT_EQ(ge.deadlock_found, ground.deadlock_found)
          << "GPO-explicit seed=" << seed;
      if (ge.deadlock_found) {
        EXPECT_TRUE(ge.witness_is_dead) << seed;
      }
    }
    auto gz = core::run_gpo(net, go);
    if (!gz.limit_hit) {
      EXPECT_EQ(gz.deadlock_found, ground.deadlock_found)
          << "GPO seed=" << seed;
      if (!ge.limit_hit) {
        EXPECT_EQ(gz.state_count, ge.state_count) << "GPO seed=" << seed;
      }
    }
    auto gi = core::run_gpo(net, core::FamilyKind::kInterned, go);
    if (!gi.limit_hit) {
      EXPECT_EQ(gi.deadlock_found, ground.deadlock_found)
          << "GPO-interned seed=" << seed;
      if (!ge.limit_hit) {
        EXPECT_EQ(gi.state_count, ge.state_count)
            << "GPO-interned seed=" << seed;
      }
    }

    auto gb = core::run_gpo(net, core::FamilyKind::kBdd, go);
    if (!gb.limit_hit) {
      EXPECT_EQ(gb.deadlock_found, ground.deadlock_found)
          << "GPO-bdd seed=" << seed;
    }

    auto sym = bdd::SymbolicReachability(net).analyze();
    if (!sym.blowup) {
      EXPECT_EQ(sym.deadlock_found, ground.deadlock_found)
          << "symbolic seed=" << seed;
      EXPECT_EQ(sym.state_count, static_cast<double>(ground.state_count))
          << "symbolic seed=" << seed;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomAgreement,
                         ::testing::Values(1u, 101u, 201u, 301u));

TEST(CrossEngine, GpoWitnessAlwaysVerifies) {
  // Whenever GPO reports a deadlock on any model, the extracted classical
  // marking must genuinely be dead.
  for (auto make : {+[] { return models::make_nsdp(5); },
                    +[] { return models::make_overtake(5); },
                    +[] { return models::make_conflict_chain(7); },
                    +[] { return models::make_diamond(6); }}) {
    PetriNet net = make();
    auto r = core::run_gpo(net);
    ASSERT_TRUE(r.deadlock_found) << net.name();
    ASSERT_TRUE(r.deadlock_witness.has_value()) << net.name();
    EXPECT_TRUE(net.is_deadlocked(*r.deadlock_witness)) << net.name();
  }
}

TEST(CrossEngine, ReductionOrderingOnConflictChain) {
  // The paper's central quantitative claim, end to end: on the Fig. 2
  // family, full = 3^N, POR = 2^{N+1}-1, GPO = 2.
  const std::size_t n = 6;
  PetriNet net = models::make_conflict_chain(n);
  auto full = reach::ExplicitExplorer(net).explore();
  auto por_r = por::StubbornExplorer(net).explore();
  auto gpo_r = core::run_gpo(net);
  std::size_t pow3 = 1;
  for (std::size_t i = 0; i < n; ++i) pow3 *= 3;
  EXPECT_EQ(full.state_count, pow3);
  EXPECT_EQ(por_r.state_count, (std::size_t{2} << n) - 1);
  EXPECT_EQ(gpo_r.state_count, 2u);
}

}  // namespace
}  // namespace gpo
