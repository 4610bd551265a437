// Quasi-liveness (Section 2.1: "liveness concerns the question whether a
// transition can ever be fired"): every engine reports the set of
// transitions enabled somewhere in its exploration; after a complete run the
// complement is the dead-transition set. The reduced engines must agree with
// exhaustive ground truth.
#include <gtest/gtest.h>

#include "core/gpo.hpp"
#include "models/models.hpp"
#include "petri/builder.hpp"
#include "por/stubborn.hpp"
#include "reach/explorer.hpp"

namespace gpo {
namespace {

using petri::PetriNet;

PetriNet net_with_dead_transition() {
  // d needs p2 and p3 together, but only one of them can ever be marked.
  petri::NetBuilder b("deadt");
  auto p1 = b.add_place("p1", true);
  auto p2 = b.add_place("p2");
  auto p3 = b.add_place("p3");
  auto p4 = b.add_place("p4");
  auto ta = b.add_transition("a");
  b.connect(ta, {p1}, {p2});
  auto tb = b.add_transition("b");
  b.connect(tb, {p1}, {p3});
  auto td = b.add_transition("d");
  b.connect(td, {p2, p3}, {p4});
  return b.build();
}

TEST(Liveness, ExplicitFindsDeadTransition) {
  PetriNet net = net_with_dead_transition();
  auto r = reach::ExplicitExplorer(net).explore();
  EXPECT_TRUE(r.fireable_transitions.test(net.find_transition("a")));
  EXPECT_TRUE(r.fireable_transitions.test(net.find_transition("b")));
  EXPECT_FALSE(r.fireable_transitions.test(net.find_transition("d")));
}

TEST(Liveness, StubbornAgrees) {
  PetriNet net = net_with_dead_transition();
  auto r = por::StubbornExplorer(net).explore();
  EXPECT_FALSE(r.fireable_transitions.test(net.find_transition("d")));
  EXPECT_TRUE(r.fireable_transitions.test(net.find_transition("a")));
}

TEST(Liveness, GpoAgrees) {
  PetriNet net = net_with_dead_transition();
  for (auto kind : {core::FamilyKind::kExplicit, core::FamilyKind::kBdd,
                    core::FamilyKind::kInterned, core::FamilyKind::kZdd}) {
    auto r = core::run_gpo(net, kind);
    EXPECT_FALSE(r.fireable_transitions.test(net.find_transition("d")));
    EXPECT_TRUE(r.fireable_transitions.test(net.find_transition("a")));
    EXPECT_TRUE(r.fireable_transitions.test(net.find_transition("b")));
  }
}

TEST(Liveness, AllTransitionsFireableOnMostBenchmarks) {
  // NSDP, ASAT and RW have no dead transitions.
  for (auto make : {+[] { return models::make_nsdp(3); },
                    +[] { return models::make_arbiter_tree(4); },
                    +[] { return models::make_readers_writers(4); }}) {
    PetriNet net = make();
    auto ground = reach::ExplicitExplorer(net).explore();
    EXPECT_EQ(ground.fireable_transitions.count(), net.transition_count())
        << net.name();
  }
}

TEST(Liveness, OvertakeHasExactlyTheExpectedDeadTransitions) {
  // The last car never asks, so nobody can nack it and nobody retries
  // against it: nackAsk_{n-2} and retry_{n-2} are structurally dead.
  PetriNet net = models::make_overtake(3);
  auto ground = reach::ExplicitExplorer(net).explore();
  EXPECT_EQ(ground.fireable_transitions.count(), net.transition_count() - 2);
  EXPECT_FALSE(
      ground.fireable_transitions.test(net.find_transition("nackAsk_1")));
  EXPECT_FALSE(
      ground.fireable_transitions.test(net.find_transition("retry_1")));
}

TEST(Liveness, RandomNetCertificatesAreSound) {
  for (std::uint64_t seed = 700; seed < 760; ++seed) {
    models::RandomNetParams p;
    p.machines = 2 + seed % 3;
    p.states_per_machine = 3;
    p.transitions = 5 + seed % 12;
    p.seed = seed;
    PetriNet net = models::make_random_net(p);
    reach::ExplorerOptions eo;
    eo.max_states = 100000;
    auto ground = reach::ExplicitExplorer(net, eo).explore();
    if (ground.limit_hit) continue;

    // Reduced engines under-approximate: their fireable sets are sound
    // lower bounds (no false quasi-liveness certificates).
    auto por_r = por::StubbornExplorer(net).explore();
    EXPECT_TRUE(por_r.fireable_transitions.is_subset_of(
        ground.fireable_transitions))
        << "POR seed=" << seed;

    core::GpoOptions go;
    go.max_seconds = 20;
    auto gpo_r = core::run_gpo_explicit(net, go);
    if (!gpo_r.limit_hit) {
      EXPECT_TRUE(gpo_r.fireable_transitions.is_subset_of(
          ground.fireable_transitions))
          << "GPO seed=" << seed;
    }
  }
}

}  // namespace
}  // namespace gpo
