// Walks the GPN semantics through the paper's own Section-3 examples
// (Figures 3 through 7) and checks the structural invariants the formalism
// promises: consistency of single/multiple firing with classical dynamics via
// mapping(), the extended-conflict conditioning of r, and the deadlock
// characterization.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "core/gpn_analyzer.hpp"
#include "core/zdd_family.hpp"
#include "models/models.hpp"
#include "petri/builder.hpp"
#include "reach/explorer.hpp"

namespace gpo::core {
namespace {

using petri::Marking;
using petri::PetriNet;
using petri::TransitionId;

template <typename F>
class GpnSemantics : public ::testing::Test {};

using FamilyTypes = ::testing::Types<ExplicitFamily, BddFamily, ZddFamily>;
TYPED_TEST_SUITE(GpnSemantics, FamilyTypes);

template <typename F>
TransitionSet make_v(const PetriNet& net,
                     std::initializer_list<const char*> names) {
  TransitionSet v(net.transition_count());
  for (const char* n : names) v.set(net.find_transition(n));
  return v;
}

TYPED_TEST(GpnSemantics, InitialStateMapsToInitialMarking) {
  // Section 3.3: mapping(<m0G, r0>) = {m0}.
  for (auto make : {+[] { return models::make_fig7(); },
                    +[] { return models::make_nsdp(3); },
                    +[] { return models::make_readers_writers(3); }}) {
    PetriNet net = make();
    typename TypeParam::Context ctx(net.transition_count());
    GpnAnalyzer<TypeParam> an(net, ctx);
    auto maps = an.mapping(an.initial_state());
    ASSERT_EQ(maps.size(), 1u) << net.name();
    EXPECT_EQ(maps[0], net.initial_marking()) << net.name();
  }
}

TYPED_TEST(GpnSemantics, Fig7MultipleEnabling) {
  // The worked example of Definition 3.5:
  //   m_enabled(A) = {{A,C},{A,D}},  m_enabled(B) = {{B,C},{B,D}}.
  PetriNet net = models::make_fig7();
  typename TypeParam::Context ctx(net.transition_count());
  GpnAnalyzer<TypeParam> an(net, ctx);
  auto s0 = an.initial_state();

  TransitionId A = net.find_transition("A");
  TransitionId B = net.find_transition("B");
  TransitionId C = net.find_transition("C");
  TransitionId D = net.find_transition("D");

  auto meA = an.m_enabled(A, s0);
  EXPECT_EQ(meA.count(), 2.0);
  EXPECT_TRUE(meA.contains(make_v<TypeParam>(net, {"A", "C"})));
  EXPECT_TRUE(meA.contains(make_v<TypeParam>(net, {"A", "D"})));
  auto meB = an.m_enabled(B, s0);
  EXPECT_TRUE(meB.contains(make_v<TypeParam>(net, {"B", "C"})));
  EXPECT_TRUE(meB.contains(make_v<TypeParam>(net, {"B", "D"})));
  // C and D are not yet enabled at all.
  EXPECT_TRUE(an.s_enabled(C, s0).is_empty());
  EXPECT_TRUE(an.m_enabled(D, s0).is_empty());
}

TYPED_TEST(GpnSemantics, Fig7ExtendedConflict) {
  // Firing {A,B} then {C,D} must condition the valid sets down to
  // r2 = {{A,C},{B,D}} — the paper's "extended conflict" between A/D and B/C.
  PetriNet net = models::make_fig7();
  typename TypeParam::Context ctx(net.transition_count());
  GpnAnalyzer<TypeParam> an(net, ctx);
  auto s0 = an.initial_state();

  TransitionId A = net.find_transition("A");
  TransitionId B = net.find_transition("B");
  TransitionId C = net.find_transition("C");
  TransitionId D = net.find_transition("D");

  auto s1 = an.m_update(s0, {A, B});
  // r1 = r0: nothing ruled out yet.
  EXPECT_EQ(s1.r, s0.r);
  // p1 holds the A-histories, p2 the B-histories.
  auto p1 = net.find_place("p1");
  auto p2 = net.find_place("p2");
  EXPECT_EQ(s1.marking[p1], an.m_enabled(A, s0));
  EXPECT_EQ(s1.marking[p2], an.m_enabled(B, s0));

  ASSERT_FALSE(an.m_enabled(C, s1).is_empty());
  ASSERT_FALSE(an.m_enabled(D, s1).is_empty());
  auto s2 = an.m_update(s1, {C, D});
  EXPECT_EQ(s2.r.count(), 2.0);
  EXPECT_TRUE(s2.r.contains(make_v<TypeParam>(net, {"A", "C"})));
  EXPECT_TRUE(s2.r.contains(make_v<TypeParam>(net, {"B", "D"})));
  EXPECT_FALSE(s2.r.contains(make_v<TypeParam>(net, {"A", "D"})));
  EXPECT_FALSE(s2.r.contains(make_v<TypeParam>(net, {"B", "C"})));

  // mapping(s2) = {{p4, p5}}: under {A,C}, token in p4; under {B,D}, in p5 —
  // two valid sets, one classical marking each.
  auto maps = an.mapping(s2);
  Marking m45(net.place_count());
  m45.set(net.find_place("p4"));
  Marking m55(net.place_count());
  m55.set(net.find_place("p5"));
  ASSERT_EQ(maps.size(), 2u);
  EXPECT_NE(std::find(maps.begin(), maps.end(), m45), maps.end());
  EXPECT_NE(std::find(maps.begin(), maps.end(), m55), maps.end());
}

TYPED_TEST(GpnSemantics, Fig7MappingCoversClassicalReachability) {
  // Union of mapping() over the three GPN states = the classical reachable
  // set of the net.
  PetriNet net = models::make_fig7();
  typename TypeParam::Context ctx(net.transition_count());
  GpnAnalyzer<TypeParam> an(net, ctx);
  auto s0 = an.initial_state();
  auto s1 = an.m_update(s0, {net.find_transition("A"), net.find_transition("B")});
  auto s2 = an.m_update(s1, {net.find_transition("C"), net.find_transition("D")});

  std::vector<Marking> covered;
  for (const auto* s : {&s0, &s1, &s2})
    for (Marking& m : an.mapping(*s))
      if (std::find(covered.begin(), covered.end(), m) == covered.end())
        covered.push_back(std::move(m));

  reach::ExplorerOptions eo;
  eo.build_graph = true;
  auto ground = reach::ExplicitExplorer(net, eo).explore();
  EXPECT_EQ(covered.size(), ground.state_count);
}

TYPED_TEST(GpnSemantics, Fig3ColorBlockingOfD) {
  // Figure 3's point: after firing A and B simultaneously, D's input places
  // hold mutually conflicting colors, so D must not become multiple-enabled,
  // while C (both inputs colored by A) fires.
  PetriNet net = models::make_fig3();
  typename TypeParam::Context ctx(net.transition_count());
  GpnAnalyzer<TypeParam> an(net, ctx);
  auto s0 = an.initial_state();
  TransitionId A = net.find_transition("A");
  TransitionId B = net.find_transition("B");
  TransitionId C = net.find_transition("C");
  TransitionId D = net.find_transition("D");

  auto s1 = an.m_update(s0, {A, B});
  EXPECT_FALSE(an.m_enabled(C, s1).is_empty());
  EXPECT_TRUE(an.m_enabled(D, s1).is_empty());
  EXPECT_TRUE(an.s_enabled(D, s1).is_empty());

  // The deadlock characterization flags the B-branch (token stuck in p4).
  auto witness = an.deadlock_witness(s1);
  ASSERT_TRUE(witness.has_value());
  EXPECT_TRUE(net.is_deadlocked(*witness));
  EXPECT_TRUE(witness->test(net.find_place("p4")));
}

TYPED_TEST(GpnSemantics, Fig5SingleFiring) {
  // Figure 5: m(p0) = {{A},{B}}, m(p1) = {{A}}, r = {{A},{B}}. A is
  // single-enabled with {{A}}, B is not; firing A moves {{A}} to p3.
  PetriNet net = models::make_fig5();
  typename TypeParam::Context ctx(net.transition_count());
  GpnAnalyzer<TypeParam> an(net, ctx);

  TransitionId A = net.find_transition("A");
  TransitionId B = net.find_transition("B");
  TransitionSet vA = make_v<TypeParam>(net, {"A"});
  TransitionSet vB = make_v<TypeParam>(net, {"B"});

  GpnState<TypeParam> s{
      std::vector<TypeParam>(net.place_count(), ctx.empty()),
      ctx.from_sets({vA, vB})};
  s.marking[net.find_place("p0")] = ctx.from_sets({vA, vB});
  s.marking[net.find_place("p1")] = ctx.single(vA);
  s.marking[net.find_place("p2")] = ctx.single(vB);

  auto eA = an.s_enabled(A, s);
  EXPECT_EQ(eA, ctx.single(vA));
  auto eB = an.s_enabled(B, s);
  EXPECT_EQ(eB, ctx.single(vB));

  auto s2 = an.s_update(s, A);
  EXPECT_EQ(s2.r, s.r);  // single firing leaves r untouched
  EXPECT_EQ(s2.marking[net.find_place("p0")], ctx.single(vB));
  EXPECT_TRUE(s2.marking[net.find_place("p1")].is_empty());
  EXPECT_EQ(s2.marking[net.find_place("p3")], ctx.single(vA));
  // Figure 6: mapping before = {{p0,p1},{p0,p2}}, after = {{p3},{p0,p2}}.
  auto before = an.mapping(s);
  auto after = an.mapping(s2);
  EXPECT_EQ(before.size(), 2u);
  EXPECT_EQ(after.size(), 2u);
  Marking m_p3(net.place_count());
  m_p3.set(net.find_place("p3"));
  EXPECT_NE(std::find(after.begin(), after.end(), m_p3), after.end());
  (void)B;
}

TYPED_TEST(GpnSemantics, SingleFiringConsistentWithClassical) {
  // For every v in r and every transition enabled under v, the classical
  // firing of t from m_v equals m_v evaluated in the s_update successor —
  // the "consistency" the paper argues below Definition 3.3.
  PetriNet net = models::make_nsdp(2);
  typename TypeParam::Context ctx(net.transition_count());
  GpnAnalyzer<TypeParam> an(net, ctx);
  auto s0 = an.initial_state();

  for (TransitionId t = 0; t < net.transition_count(); ++t) {
    auto en = an.s_enabled(t, s0);
    if (en.is_empty()) continue;
    auto s1 = an.s_update(s0, t);
    for (const TransitionSet& v : en.members(50)) {
      Marking before(net.place_count());
      Marking after(net.place_count());
      for (petri::PlaceId p = 0; p < net.place_count(); ++p) {
        if (s0.marking[p].contains(v)) before.set(p);
        if (s1.marking[p].contains(v)) after.set(p);
      }
      ASSERT_TRUE(net.enabled(t, before));
      EXPECT_EQ(after, net.fire(t, before));
    }
  }
}

TYPED_TEST(GpnSemantics, MultipleEnabledImpliesSingleEnabled) {
  // Noted in the paper below Definition 3.5; the converse fails.
  PetriNet net = models::make_nsdp(2);
  typename TypeParam::Context ctx(net.transition_count());
  GpnAnalyzer<TypeParam> an(net, ctx);
  auto s = an.initial_state();
  for (TransitionId t = 0; t < net.transition_count(); ++t) {
    if (!an.m_enabled(t, s).is_empty()) {
      EXPECT_FALSE(an.s_enabled(t, s).is_empty());
    }
  }
}

TYPED_TEST(GpnSemantics, MarkingsStaySubsetsOfR) {
  // State invariant used throughout: m(p) ⊆ r.
  PetriNet net = models::make_fig7();
  typename TypeParam::Context ctx(net.transition_count());
  GpnAnalyzer<TypeParam> an(net, ctx);
  auto s0 = an.initial_state();
  auto s1 = an.m_update(s0, {net.find_transition("A"), net.find_transition("B")});
  auto s2 = an.m_update(s1, {net.find_transition("C"), net.find_transition("D")});
  for (const auto* s : {&s0, &s1, &s2})
    for (petri::PlaceId p = 0; p < net.place_count(); ++p)
      EXPECT_TRUE(s->marking[p].subtract(s->r).is_empty());
}

TYPED_TEST(GpnSemantics, MappingSoundnessOnRandomNets) {
  // The mapping theorem: every classical marking represented by any
  // reachable GPN state is classically reachable. Checked by exploring the
  // GPN graph manually and testing each mapped marking for membership in
  // the ground-truth reachable set.
  for (std::uint64_t seed = 1500; seed < 1512; ++seed) {
    models::RandomNetParams params;
    params.machines = 2;
    params.states_per_machine = 3;
    params.transitions = 4 + seed % 6;
    params.seed = seed;
    PetriNet net = models::make_random_net(params);

    std::set<Marking> reachable;
    reach::ExplorerOptions eo;
    eo.max_states = 100000;
    eo.bad_state = [&](const Marking& m) {
      reachable.insert(m);
      return false;
    };
    if (reach::ExplicitExplorer(net, eo).explore().limit_hit) continue;

    typename TypeParam::Context ctx(net.transition_count());
    GpnAnalyzer<TypeParam> an(net, ctx);
    // Breadth-first over GPN states via the public semantics, following the
    // same expansion policy as the engine.
    std::vector<GpnState<TypeParam>> states{an.initial_state()};
    std::set<std::size_t> seen{states[0].hash()};
    for (std::size_t i = 0; i < states.size() && states.size() < 3000; ++i) {
      for (const Marking& m : an.mapping(states[i]))
        EXPECT_TRUE(reachable.contains(m))
            << "seed=" << seed << " unmapped marking "
            << reach::marking_to_string(net, m);
      auto sen = an.single_enabled_transitions(states[i]);
      if (sen.empty()) continue;
      auto plan = an.plan_expansion(states[i], sen);
      std::vector<GpnState<TypeParam>> next;
      if (plan.multiple) {
        next.push_back(an.m_update(states[i], plan.transitions));
      } else {
        for (petri::TransitionId t : plan.transitions)
          next.push_back(an.s_update(states[i], t));
      }
      for (auto& s : next)
        if (seen.insert(s.hash()).second) states.push_back(std::move(s));
    }
  }
}

TYPED_TEST(GpnSemantics, DeadlockCharacterizationOnDeadNet) {
  // A net whose only transition already fired: every valid set is dead.
  petri::NetBuilder b;
  auto p0 = b.add_place("p0", true);
  auto p1 = b.add_place("p1");
  auto t = b.add_transition("t");
  b.connect(t, {p0}, {p1});
  PetriNet net = b.build();
  typename TypeParam::Context ctx(net.transition_count());
  GpnAnalyzer<TypeParam> an(net, ctx);
  auto s0 = an.initial_state();
  EXPECT_FALSE(an.deadlock_witness(s0).has_value());
  auto s1 = an.s_update(s0, 0);
  auto witness = an.deadlock_witness(s1);
  ASSERT_TRUE(witness.has_value());
  EXPECT_TRUE(witness->test(p1));
  EXPECT_FALSE(witness->test(p0));
}

}  // namespace
}  // namespace gpo::core
