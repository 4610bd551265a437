#include "bdd/symbolic_reach.hpp"

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <utility>
#include <vector>

#include "models/models.hpp"
#include "obs/span.hpp"
#include "reach/explorer.hpp"
#include "util/cancel_token.hpp"

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

// The random-net corpus the POR and reduction suites also use: seed n gives
// 2-4 machines of 3-5 states and 5-14 transitions, 40% synchronizing.
PetriNet random_net(std::size_t seed) {
  models::RandomNetParams p;
  p.machines = 2 + seed % 3;
  p.states_per_machine = 3 + seed % 3;
  p.transitions = 5 + seed % 10;
  p.sync_percent = 40;
  p.seed = seed;
  return models::make_random_net(p);
}

class SymbolicVsExplicit : public ::testing::TestWithParam<ModelCase> {};

// Both variable orders must give the explicit explorer's state count and
// verdict, and a reported deadlock must be a reachable dead marking.
TEST_P(SymbolicVsExplicit, CountsAndDeadlockAgree) {
  const ModelCase& c = GetParam();
  PetriNet net = c.make(c.param);
  reach::ExplorerOptions eo;
  eo.max_states = 100000;
  auto ground = reach::ExplicitExplorer(net, eo).explore();
  ASSERT_FALSE(ground.limit_hit);
  ASSERT_FALSE(ground.safeness_violation);
  std::set<petri::Marking> reachable;
  std::vector<petri::Marking> stack{net.initial_marking()};
  reachable.insert(stack.back());
  while (!stack.empty()) {
    petri::Marking m = stack.back();
    stack.pop_back();
    for (petri::TransitionId t = 0; t < net.transition_count(); ++t)
      if (net.enabled(t, m)) {
        petri::Marking next = net.fire(t, m);
        if (reachable.insert(next).second) stack.push_back(next);
      }
  }
  for (VariableOrder order :
       {VariableOrder::kBfs, VariableOrder::kDeclaration}) {
    SymbolicOptions opt;
    opt.order = order;
    auto sym = SymbolicReachability(net, opt).analyze();
    const int o = static_cast<int>(order);
    ASSERT_FALSE(sym.blowup) << "order " << o;
    EXPECT_EQ(sym.state_count, static_cast<double>(ground.state_count))
        << "order " << o;
    EXPECT_EQ(sym.deadlock_found, ground.deadlock_found) << "order " << o;
    if (sym.deadlock_found) {
      ASSERT_TRUE(sym.deadlock_witness.has_value());
      EXPECT_TRUE(reachable.count(*sym.deadlock_witness)) << "order " << o;
      EXPECT_TRUE(net.is_deadlocked(*sym.deadlock_witness)) << "order " << o;
    }
    EXPECT_GT(sym.peak_nodes, 0u);
    EXPECT_GE(sym.iterations, 1u);
  }
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

std::vector<ModelCase> random_cases() {
  std::vector<ModelCase> out;
  for (std::size_t seed = 1; seed <= 60; ++seed)
    out.push_back({"seed", random_net, seed});
  return out;
}

INSTANTIATE_TEST_SUITE_P(RandomNets, SymbolicVsExplicit,
                         ::testing::ValuesIn(random_cases()),
                         [](const auto& info) {
                           return std::string(info.param.name) +
                                  std::to_string(info.param.param);
                         });

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

// A token fired just before the k-th transition's image stops the run
// there, inside the sweep, before that image is computed.
TEST(Symbolic, CancelStopsBeforeTheNextTransitionImage) {
  PetriNet net = models::make_nsdp(4);
  ASSERT_GT(net.transition_count(), 5u);
  for (std::size_t k : {1u, 2u, 5u}) {
    util::CancelToken token;
    std::vector<std::pair<std::size_t, petri::TransitionId>> seen;
    SymbolicOptions opt;
    opt.cancel = &token;
    opt.before_image = [&](std::size_t sweep, petri::TransitionId t) {
      seen.emplace_back(sweep, t);
      if (seen.size() == k) token.cancel();
    };
    auto sym = SymbolicReachability(net, opt).analyze();
    EXPECT_TRUE(sym.blowup) << "k=" << k;
    EXPECT_EQ(sym.blowup_reason, "cancelled") << "k=" << k;
    ASSERT_EQ(seen.size(), k) << "images ran after the cancel";
    EXPECT_EQ(sym.iterations, 1u);
    for (std::size_t i = 0; i < k; ++i) {
      EXPECT_EQ(seen[i].first, 1u);
      EXPECT_EQ(seen[i].second, i);
    }
  }
}

TEST(Symbolic, TracerRecordsFixpointAndDeadlockCheck) {
  obs::Tracer tracer;
  SymbolicOptions opt;
  opt.tracer = &tracer;
  auto sym = SymbolicReachability(models::make_nsdp(3), opt).analyze();
  ASSERT_FALSE(sym.blowup);
  std::vector<std::string> names;
  for (const auto& r : tracer.records()) names.push_back(r.name);
  EXPECT_EQ(names,
            (std::vector<std::string>{"symbolic-fixpoint", "deadlock-check"}));
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
