#include "unfold/unfolding.hpp"

#include <gtest/gtest.h>

#include <optional>
#include <set>
#include <string>
#include <vector>

#include "models/models.hpp"
#include "petri/builder.hpp"
#include "reach/explorer.hpp"
#include "util/stopwatch.hpp"

namespace gpo::unfold {
namespace {

using petri::Marking;
using petri::PetriNet;

/// The reachable markings of `net` as a set.
std::set<Marking> reachable_set(const PetriNet& net,
                                std::size_t cap = 200000) {
  std::set<Marking> out;
  reach::ExplorerOptions opt;
  opt.max_states = cap;
  opt.bad_state = [&](const Marking& m) {
    out.insert(m);
    return false;
  };
  auto r = reach::ExplicitExplorer(net, opt).explore();
  EXPECT_FALSE(r.limit_hit);
  return out;
}

/// The prefix without its cut-off events (their output conditions stay,
/// unmarked and unconsumed): replayed as a net, its reachable markings are
/// the cuts of the cut-off-free configurations.
Prefix without_cutoffs(const Prefix& prefix) {
  Prefix out = prefix;
  std::erase_if(out.events, [](const Event& e) { return e.cutoff; });
  out.cutoff_count = 0;
  return out;
}

/// The reachable cuts of `prefix` replayed as a net: how many there are,
/// and the original-net markings they map to.
struct Cuts {
  std::size_t count = 0;
  std::set<Marking> markings;
};

/// nullopt when the replay hits `cap`.
std::optional<Cuts> replay_cuts(const PetriNet& net, const Prefix& prefix,
                                std::size_t cap) {
  PetriNet occurrence = prefix_as_net(net, prefix);
  Cuts out;
  reach::ExplorerOptions opt;
  opt.max_states = cap;
  opt.bad_state = [&](const Marking& cut) {
    out.markings.insert(cut_to_marking(net, prefix, cut));
    return false;
  };
  auto r = reach::ExplicitExplorer(occurrence, opt).explore();
  EXPECT_FALSE(r.safeness_violation) << net.name();  // occurrence nets are safe
  if (r.limit_hit) return std::nullopt;
  out.count = r.state_count;
  return out;
}

/// Completeness + soundness, checked literally on `prefix`: replaying it as
/// a net, its cuts map exactly onto the original net's reachable markings,
/// and so do the cuts reached without firing a cut-off event (the fact
/// deadlock_via_prefix relies on), which that search visits once each.
/// Returns false, checking nothing, when the replay hits `cap`.
bool expect_cuts_exact(const PetriNet& net, const Prefix& prefix,
                       std::size_t cap, const std::string& label) {
  auto all = replay_cuts(net, prefix, cap);
  if (!all) return false;
  const std::set<Marking> reachable = reachable_set(net);
  EXPECT_EQ(all->markings, reachable) << label;
  auto cutoff_free = replay_cuts(net, without_cutoffs(prefix), cap);
  EXPECT_TRUE(cutoff_free.has_value()) << label;  // fewer cuts than `all`
  if (!cutoff_free) return true;
  EXPECT_EQ(cutoff_free->markings, reachable) << label;
  auto search = deadlock_via_prefix(net, prefix);
  if (!search.deadlock_found) {
    EXPECT_EQ(search.cuts_explored, cutoff_free->count) << label;
  }
  return true;
}

void expect_prefix_exact(const PetriNet& net) {
  Prefix prefix = unfold(net);
  ASSERT_FALSE(prefix.limit_hit) << net.name();
  EXPECT_TRUE(expect_cuts_exact(net, prefix, 500000, std::string(net.name())));
}

TEST(Unfolding, SequenceNet) {
  // p0 -> a -> p1 -> b -> p2: the prefix is the net itself (acyclic,
  // conflict-free): 2 events, no cutoffs.
  petri::NetBuilder bld;
  auto p0 = bld.add_place("p0", true);
  auto p1 = bld.add_place("p1");
  auto p2 = bld.add_place("p2");
  auto a = bld.add_transition("a");
  bld.connect(a, {p0}, {p1});
  auto b = bld.add_transition("b");
  bld.connect(b, {p1}, {p2});
  PetriNet net = bld.build();
  Prefix prefix = unfold(net);
  EXPECT_EQ(prefix.events.size(), 2u);
  EXPECT_EQ(prefix.conditions.size(), 3u);
  EXPECT_EQ(prefix.cutoff_count, 0u);
  expect_prefix_exact(net);
}

TEST(Unfolding, DiamondIsLinearInN) {
  // The unfolding's claim to fame: n concurrent transitions need n events
  // (no interleavings at all), versus 2^n reachable markings.
  for (std::size_t n : {2u, 4u, 8u, 16u}) {
    PetriNet net = models::make_diamond(n);
    Prefix prefix = unfold(net);
    EXPECT_EQ(prefix.events.size(), n) << n;
    EXPECT_EQ(prefix.cutoff_count, 0u) << n;
  }
  expect_prefix_exact(models::make_diamond(4));
}

TEST(Unfolding, ConflictChainPrefixIsLinearToo) {
  // n conflict pairs: the unfolding keeps both branches of each pair but
  // never multiplies across pairs: 2n events.
  for (std::size_t n : {2u, 4u, 8u}) {
    PetriNet net = models::make_conflict_chain(n);
    Prefix prefix = unfold(net);
    EXPECT_EQ(prefix.events.size(), 2 * n) << n;
  }
  expect_prefix_exact(models::make_conflict_chain(3));
}

TEST(Unfolding, CycleNeedsCutoff) {
  // p0 -> a -> p1 -> b -> p0: the loop closes on a repeated marking, so the
  // prefix ends in a cut-off event.
  petri::NetBuilder bld;
  auto p0 = bld.add_place("p0", true);
  auto p1 = bld.add_place("p1");
  auto a = bld.add_transition("a");
  bld.connect(a, {p0}, {p1});
  auto b = bld.add_transition("b");
  bld.connect(b, {p1}, {p0});
  PetriNet net = bld.build();
  Prefix prefix = unfold(net);
  EXPECT_EQ(prefix.events.size(), 2u);
  EXPECT_EQ(prefix.cutoff_count, 1u);  // b returns to m0
  expect_prefix_exact(net);
}

TEST(Unfolding, ExactCoverageOnBenchmarks) {
  expect_prefix_exact(models::make_fig3());
  expect_prefix_exact(models::make_fig7());
  expect_prefix_exact(models::make_nsdp(2));
  expect_prefix_exact(models::make_nsdp(3));
  expect_prefix_exact(models::make_overtake(3));
  expect_prefix_exact(models::make_readers_writers(3));
  expect_prefix_exact(models::make_cyclic_scheduler(3));
  expect_prefix_exact(models::make_arbiter_tree(2));
  expect_prefix_exact(models::make_slotted_ring(4));
  expect_prefix_exact(models::make_cyclic_scheduler(6));
}

TEST(Unfolding, ExactCoverageOnRandomNets) {
  for (std::uint64_t seed = 1300; seed < 1330; ++seed) {
    models::RandomNetParams p;
    p.machines = 2 + seed % 2;
    p.states_per_machine = 3;
    p.transitions = 4 + seed % 8;
    p.seed = seed;
    PetriNet net = models::make_random_net(p);
    UnfoldOptions opt;
    opt.max_events = 20000;
    Prefix prefix = unfold(net, opt);
    if (prefix.limit_hit) continue;
    expect_cuts_exact(net, prefix, 300000, "seed=" + std::to_string(seed));
  }
}

TEST(Unfolding, EventMarksAreReachable) {
  PetriNet net = models::make_nsdp(3);
  auto reachable = reachable_set(net);
  Prefix prefix = unfold(net);
  for (const Event& e : prefix.events)
    EXPECT_TRUE(reachable.contains(e.mark));
}

TEST(Unfolding, LocalConfigSizesAreMonotoneInMcMillanOrder) {
  // Events are inserted in ascending |[e]| order; cut-offs must compare
  // against a strictly smaller configuration with the same mark.
  PetriNet net = models::make_overtake(3);
  Prefix prefix = unfold(net);
  for (std::size_t i = 1; i < prefix.events.size(); ++i)
    EXPECT_LE(prefix.events[i - 1].local_size, prefix.events[i].local_size);
  EXPECT_GT(prefix.cutoff_count, 0u);
}

TEST(Unfolding, DeadlockViaPrefixMatchesGroundTruth) {
  for (auto make : {+[] { return models::make_nsdp(3); },
                    +[] { return models::make_overtake(3); },
                    +[] { return models::make_readers_writers(3); },
                    +[] { return models::make_arbiter_tree(2); },
                    +[] { return models::make_conflict_chain(3); },
                    +[] { return models::make_slotted_ring(5); },
                    +[] { return models::make_cyclic_scheduler(8); },
                    +[] { return models::make_nsdp(5); }}) {
    PetriNet net = make();
    Prefix prefix = unfold(net);
    ASSERT_FALSE(prefix.limit_hit) << net.name();
    auto via_prefix = deadlock_via_prefix(net, prefix);
    auto ground = reach::ExplicitExplorer(net).explore();
    EXPECT_EQ(via_prefix.deadlock_found, ground.deadlock_found) << net.name();
    if (via_prefix.deadlock_found) {
      ASSERT_TRUE(via_prefix.witness.has_value());
      EXPECT_TRUE(net.is_deadlocked(*via_prefix.witness)) << net.name();
    }
  }
}

TEST(Unfolding, DeadlockViaPrefixStopsAtTheFirstDeadlock) {
  PetriNet net = models::make_conflict_chain(10);
  Prefix prefix = unfold(net);
  ASSERT_FALSE(prefix.limit_hit);
  auto via_prefix = deadlock_via_prefix(net, prefix);
  auto full = reach::ExplicitExplorer(net).explore();
  ASSERT_TRUE(via_prefix.deadlock_found);
  EXPECT_FALSE(via_prefix.limit_hit);
  EXPECT_LT(via_prefix.cuts_explored, full.state_count);
  ASSERT_TRUE(via_prefix.witness.has_value());
  EXPECT_TRUE(net.is_deadlocked(*via_prefix.witness));
}

TEST(Unfolding, DeadlockViaPrefixHonoursItsLimits) {
  // Milner's scheduler for 20 tasks: a small prefix whose cut-off-free
  // cuts run into the millions, none of them dead.
  PetriNet net = models::make_cyclic_scheduler(20);
  Prefix prefix = unfold(net);
  ASSERT_FALSE(prefix.limit_hit);

  auto capped = deadlock_via_prefix(net, prefix, 100);
  EXPECT_TRUE(capped.limit_hit);
  EXPECT_FALSE(capped.deadlock_found);
  EXPECT_EQ(capped.interrupted_phase, "prefix-deadlock-check");
  EXPECT_EQ(capped.cuts_explored, 100u);

  util::CancelToken token;
  token.cancel();
  auto cancelled = deadlock_via_prefix(net, prefix, 10'000'000, &token);
  EXPECT_TRUE(cancelled.limit_hit);
  EXPECT_EQ(cancelled.interrupted_phase, "prefix-deadlock-check");

  util::Stopwatch watch;
  auto timed = deadlock_via_prefix(net, prefix, 10'000'000, nullptr, 0.001);
  EXPECT_TRUE(timed.limit_hit);
  EXPECT_EQ(timed.interrupted_phase, "prefix-deadlock-check");
  EXPECT_LT(timed.cuts_explored, 1'000'000u);
  EXPECT_LT(watch.elapsed_seconds(), 1.0);
}

TEST(Unfolding, PrefixShapeIsPinned) {
  // Event, condition and cut-off counts of prefixes built before Mark([e])
  // was computed from token counts; a change to the construction that
  // alters the prefix shows here first.
  struct Pin {
    PetriNet net;
    std::size_t events, conditions, cutoffs;
  };
  for (const Pin& pin : {Pin{models::make_nsdp(5), 30, 60, 10},
                         Pin{models::make_slotted_ring(5), 693, 1565, 335},
                         Pin{models::make_overtake(4), 56, 92, 4}}) {
    Prefix prefix = unfold(pin.net);
    ASSERT_FALSE(prefix.limit_hit) << pin.net.name();
    EXPECT_EQ(prefix.events.size(), pin.events) << pin.net.name();
    EXPECT_EQ(prefix.conditions.size(), pin.conditions) << pin.net.name();
    EXPECT_EQ(prefix.cutoff_count, pin.cutoffs) << pin.net.name();
  }
}

TEST(Unfolding, DeadlockViaPrefixOnRandomNets) {
  for (std::uint64_t seed = 1400; seed < 1430; ++seed) {
    models::RandomNetParams p;
    p.machines = 2;
    p.states_per_machine = 3;
    p.transitions = 4 + seed % 8;
    p.seed = seed;
    PetriNet net = models::make_random_net(p);
    UnfoldOptions opt;
    opt.max_events = 20000;
    Prefix prefix = unfold(net, opt);
    if (prefix.limit_hit) continue;
    auto via_prefix = deadlock_via_prefix(net, prefix, 300000);
    if (via_prefix.limit_hit) continue;
    auto ground = reach::ExplicitExplorer(net).explore();
    EXPECT_EQ(via_prefix.deadlock_found, ground.deadlock_found)
        << "seed=" << seed;
  }
}

TEST(Unfolding, EventLimitReported) {
  UnfoldOptions opt;
  opt.max_events = 3;
  Prefix prefix = unfold(models::make_nsdp(4), opt);
  EXPECT_TRUE(prefix.limit_hit);
  EXPECT_LE(prefix.events.size(), 4u);
}

TEST(Unfolding, PrefixSizeVersusStateCount) {
  // On concurrency-heavy nets the prefix is far smaller than the graph.
  PetriNet net = models::make_cyclic_scheduler(8);
  Prefix prefix = unfold(net);
  auto full = reach::ExplicitExplorer(net).explore();
  EXPECT_LT(prefix.events.size(), full.state_count / 10);
}

}  // namespace
}  // namespace gpo::unfold
