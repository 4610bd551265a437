#include "bdd/symbolic_reach.hpp"

#include <gtest/gtest.h>

#include "models/models.hpp"
#include "reach/explorer.hpp"

namespace gpo::bdd {
namespace {

using petri::PetriNet;

struct ModelCase {
  const char* name;
  PetriNet (*make)(std::size_t);
  std::size_t param;
};

// gtest names each instance "... # GetParam() = <printed value>"; without
// this printer the value is a byte dump of the struct, whose pointers change
// with every address-space layout, so the test names would differ per run.
void PrintTo(const ModelCase& c, std::ostream* os) {
  *os << c.name << ":" << c.param;
}

PetriNet wrap_fig7(std::size_t) { return models::make_fig7(); }
PetriNet wrap_fig3(std::size_t) { return models::make_fig3(); }

class SymbolicVsExplicit : public ::testing::TestWithParam<ModelCase> {};

TEST_P(SymbolicVsExplicit, CountsAndDeadlockAgree) {
  const ModelCase& c = GetParam();
  PetriNet net = c.make(c.param);
  auto ground = reach::ExplicitExplorer(net).explore();
  ASSERT_FALSE(ground.safeness_violation);
  auto sym = SymbolicReachability(net).analyze();
  ASSERT_FALSE(sym.blowup);
  EXPECT_EQ(sym.state_count, static_cast<double>(ground.state_count));
  EXPECT_EQ(sym.deadlock_found, ground.deadlock_found);
  EXPECT_GT(sym.peak_nodes, 0u);
  EXPECT_GE(sym.iterations, 1u);
}

INSTANTIATE_TEST_SUITE_P(
    Models, SymbolicVsExplicit,
    ::testing::Values(ModelCase{"diamond", models::make_diamond, 5},
                      ModelCase{"chain", models::make_conflict_chain, 4},
                      ModelCase{"nsdp2", models::make_nsdp, 2},
                      ModelCase{"nsdp4", models::make_nsdp, 4},
                      ModelCase{"asat", models::make_arbiter_tree, 4},
                      ModelCase{"over", models::make_overtake, 4},
                      ModelCase{"rw", models::make_readers_writers, 5},
                      ModelCase{"fig7", wrap_fig7, 0},
                      ModelCase{"fig3", wrap_fig3, 0}),
    [](const auto& info) { return info.param.name; });

TEST(Symbolic, DeadlockWitnessIsDead) {
  PetriNet net = models::make_nsdp(4);
  auto sym = SymbolicReachability(net).analyze();
  ASSERT_TRUE(sym.deadlock_found);
  ASSERT_TRUE(sym.deadlock_witness.has_value());
  EXPECT_TRUE(net.is_deadlocked(*sym.deadlock_witness));
}

TEST(Symbolic, NodeLimitReportsBlowup) {
  SymbolicOptions opt;
  opt.node_limit = 300;
  auto sym = SymbolicReachability(models::make_nsdp(6), opt).analyze();
  EXPECT_TRUE(sym.blowup);
  EXPECT_FALSE(sym.blowup_reason.empty());
  EXPECT_LE(sym.peak_nodes, 300u);
}

TEST(Symbolic, PlaceOrderCoversAllPlacesOnce) {
  PetriNet net = models::make_arbiter_tree(4);
  for (VariableOrder ord : {VariableOrder::kDeclaration, VariableOrder::kBfs}) {
    auto order = compute_place_order(net, ord);
    ASSERT_EQ(order.size(), net.place_count());
    std::vector<bool> seen(net.place_count(), false);
    for (petri::PlaceId p : order) {
      EXPECT_FALSE(seen[p]);
      seen[p] = true;
    }
  }
}

TEST(Symbolic, OrderingsAgreeOnSemantics) {
  PetriNet net = models::make_nsdp(4);
  SymbolicOptions decl;
  decl.order = VariableOrder::kDeclaration;
  SymbolicOptions bfs;
  bfs.order = VariableOrder::kBfs;
  auto a = SymbolicReachability(net, decl).analyze();
  auto b = SymbolicReachability(net, bfs).analyze();
  ASSERT_FALSE(a.blowup);
  ASSERT_FALSE(b.blowup);
  EXPECT_EQ(a.state_count, b.state_count);
  EXPECT_EQ(a.deadlock_found, b.deadlock_found);
}

TEST(Symbolic, RandomNetsMatchExplicit) {
  for (std::uint64_t seed = 300; seed < 340; ++seed) {
    models::RandomNetParams p;
    p.machines = 2 + seed % 3;
    p.states_per_machine = 3;
    p.transitions = 6 + seed % 8;
    p.seed = seed;
    PetriNet net = models::make_random_net(p);
    auto ground = reach::ExplicitExplorer(net).explore();
    auto sym = SymbolicReachability(net).analyze();
    ASSERT_FALSE(sym.blowup) << seed;
    EXPECT_EQ(sym.state_count, static_cast<double>(ground.state_count))
        << "seed=" << seed;
    EXPECT_EQ(sym.deadlock_found, ground.deadlock_found) << "seed=" << seed;
  }
}

}  // namespace
}  // namespace gpo::bdd
