#include "reach/marking_store.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <random>
#include <stdexcept>
#include <vector>

#include "models/models.hpp"
#include "obs/metrics.hpp"
#include "por/stubborn.hpp"
#include "reach/bfs_core.hpp"
#include "reach/explorer.hpp"

namespace gpo::reach {
namespace {

using Word = MarkingStore::Word;
using StateId = MarkingStore::StateId;

TEST(MarkingStore, IdsFollowInsertionOrderAndDeduplicate) {
  MarkingStore store(2);
  std::mt19937_64 rng(5);
  std::vector<std::vector<Word>> seen;
  // Enough distinct markings to make the table grow several times.
  for (int i = 0; i < 5000; ++i) {
    std::vector<Word> m{rng() % 700, rng() % 3};
    auto [id, fresh] = store.intern(m.data(), MarkingStore::kNoId, 0);
    auto it = std::find(seen.begin(), seen.end(), m);
    if (it == seen.end()) {
      ASSERT_TRUE(fresh);
      ASSERT_EQ(id, seen.size());
      seen.push_back(m);
    } else {
      ASSERT_FALSE(fresh);
      ASSERT_EQ(id, static_cast<StateId>(it - seen.begin()));
    }
  }
  ASSERT_EQ(store.size(), seen.size());
  for (StateId id = 0; id < store.size(); ++id)
    EXPECT_TRUE(std::equal(seen[id].begin(), seen[id].end(),
                           store.marking(id)));
}

TEST(MarkingStore, TraceFollowsBreadcrumbsToTheRoot) {
  MarkingStore store(1);
  const Word a = 1, b = 2, c = 4, d = 8;
  store.intern(&a, MarkingStore::kNoId, petri::kInvalidTransition);
  store.intern(&b, 0, 7);
  store.intern(&c, 1, 3);
  store.intern(&d, MarkingStore::kNoId, petri::kInvalidTransition);
  EXPECT_EQ(store.trace_to(2), (std::vector<petri::TransitionId>{7, 3}));
  EXPECT_TRUE(store.trace_to(0).empty());
  EXPECT_TRUE(store.trace_to(3).empty());
}

TEST(MarkingStore, ZeroWordMarkingsAreOneState) {
  MarkingStore store(0);
  EXPECT_TRUE(store.intern(nullptr, MarkingStore::kNoId, 0).second);
  EXPECT_FALSE(store.intern(nullptr, MarkingStore::kNoId, 0).second);
  EXPECT_EQ(store.size(), 1u);
}

// One expansion adds at most transition_count() states, so after the limit
// check passes the store still has room for all of them: running out of
// uint32 ids ends the search through the ordinary max_states limit.
TEST(BfsCore, StateLimitLeavesRoomForOneExpansion) {
  constexpr std::size_t kMax = MarkingStore::kMaxStates;
  EXPECT_EQ(state_limit(100, 7), 100u);
  EXPECT_EQ(state_limit(SIZE_MAX, 7), kMax - 7);
  EXPECT_EQ(state_limit(SIZE_MAX, 0), kMax);
  EXPECT_EQ(state_limit(SIZE_MAX, kMax + 1), 0u);
  for (std::size_t nt : {std::size_t{1}, std::size_t{1000}, kMax})
    EXPECT_LE(state_limit(SIZE_MAX, nt) + nt, kMax) << nt;
}

TEST(BfsCore, RejectsARootOfAnotherNet) {
  petri::PetriNet net = models::make_nsdp(4);
  petri::Marking wrong(net.place_count() + 1);
  EXPECT_THROW((void)breadth_first_search(net, {&wrong, 1}, SearchOptions{},
                                          "exploration"),
               std::invalid_argument);
}

// Both engines publish arena + id table + breadcrumbs of the shared store,
// so the gauge is at least the packed markings themselves, and two runs that
// store the same number of states report the same bytes (nsdp:3: `por`
// stores all 27 states, like `full`).
TEST(BfsCore, VisitedBytesCountsTheWholeStoreForBothEngines) {
  for (const char* spec : {"nsdp:3", "nsdp:6", "ring:4", "asat:4"}) {
    SCOPED_TRACE(spec);
    petri::PetriNet net = *models::make_by_spec(spec);
    const std::size_t w =
        (net.place_count() + util::Bitset::kWordBits - 1) /
        util::Bitset::kWordBits;
    obs::MetricsRegistry reg;
    ExplorerOptions fo;
    fo.metrics = &reg;
    fo.metrics_prefix = "engine.full.";
    ExplorerResult full = ExplicitExplorer(net, fo).explore();
    por::StubbornOptions po;
    po.metrics = &reg;
    po.metrics_prefix = "engine.por.";
    ExplorerResult por = por::StubbornExplorer(net, po).explore();
    for (auto [prefix, states] :
         {std::pair{"engine.full.", full.state_count},
          std::pair{"engine.por.", por.state_count}}) {
      auto bytes = reg.value(std::string("mem.") + prefix + "visited_bytes");
      ASSERT_TRUE(bytes.has_value()) << prefix;
      // Markings, plus at least one 8-byte table slot and one 8-byte
      // breadcrumb per state.
      EXPECT_GE(*bytes, static_cast<double>(states * (w * 8 + 16))) << prefix;
    }
    if (full.state_count == por.state_count) {
      EXPECT_EQ(reg.value("mem.engine.full.visited_bytes"),
                reg.value("mem.engine.por.visited_bytes"));
    }
  }
}

}  // namespace
}  // namespace gpo::reach
