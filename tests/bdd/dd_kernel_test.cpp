// The shared decision-diagram kernel on its own: the open-addressed unique
// table (canonical Refs across rehashes, the node limit) and the lazily
// grown computed table (growth never returns a wrong result).
#include "bdd/dd_kernel.hpp"

#include <gtest/gtest.h>

#include <random>
#include <tuple>
#include <vector>

namespace gpo::dd {
namespace {

TEST(NodeTable, RefsStayCanonicalAcrossRehashes) {
  NodeTable table(64, std::size_t{1} << 22, "test");
  const std::size_t initial_slots = table.slot_count();
  std::mt19937_64 rng(17);
  // 100k structurally distinct triples: low/high point at earlier nodes (or
  // the terminals), so every triple is a plausible diagram node.
  std::vector<std::tuple<Var, Ref, Ref>> triples;
  std::vector<Ref> refs;
  for (std::size_t i = 0; i < 100'000; ++i) {
    const Ref bound = static_cast<Ref>(refs.size() + 2);
    Var v = static_cast<Var>(rng() % 64);
    Ref lo = static_cast<Ref>(rng() % bound);
    Ref hi = static_cast<Ref>(rng() % bound);
    Ref r = table.insert(v, lo, hi);
    if (r + 1 == table.size() && r >= refs.size() + 2) {
      triples.emplace_back(v, lo, hi);
      refs.push_back(r);
    }
  }
  ASSERT_GE(refs.size(), 90'000u);
  // At least three doublings of the unique table happened on the way.
  EXPECT_GE(table.slot_count(), initial_slots << 3);
  EXPECT_GE(table.slot_count(), 2 * (table.size() - 2));
  const std::size_t size = table.size();
  for (std::size_t i = 0; i < triples.size(); ++i) {
    auto [v, lo, hi] = triples[i];
    ASSERT_EQ(table.insert(v, lo, hi), refs[i]) << "triple " << i;
    const Node& n = table.node(refs[i]);
    EXPECT_EQ(n.var, v);
    EXPECT_EQ(n.low, lo);
    EXPECT_EQ(n.high, hi);
  }
  EXPECT_EQ(table.size(), size) << "re-inserting allocated new nodes";
}

TEST(NodeTable, NodeLimitThrowsExactlyAtTheLimit) {
  // The limit counts the two terminals: 10 nodes = terminals + 8 inserts.
  NodeTable table(4, 10, "test");
  for (Ref i = 0; i < 8; ++i) (void)table.insert(0, kTerminal0, i + 1);
  EXPECT_EQ(table.size(), 10u);
  EXPECT_THROW((void)table.insert(1, kTerminal0, kTerminal1),
               DdLimitExceeded);
  EXPECT_EQ(table.size(), 10u);
  // Existing nodes are still found at the limit.
  EXPECT_EQ(table.insert(0, kTerminal0, 1), 2u);
}

TEST(ComputedCache, StartsSmallAndGrowsToItsBound) {
  ComputedCache cache(std::size_t{1} << 16);
  EXPECT_EQ(cache.entries(), ComputedCache::kInitialEntries);
  EXPECT_EQ(cache.max_entries(), std::size_t{1} << 16);
  std::mt19937_64 rng(5);
  for (int i = 0; i < 400'000; ++i) {
    cache.store(static_cast<std::uint8_t>(rng() % 5),
                static_cast<Ref>(rng() % 100'000),
                static_cast<Ref>(rng() % 100'000), static_cast<Ref>(i));
    ASSERT_LE(cache.entries(), cache.max_entries());
    ASSERT_LE(cache.occupied(), cache.entries());
  }
  EXPECT_EQ(cache.entries(), cache.max_entries());
  // A bound below the initial size is the size.
  EXPECT_EQ(ComputedCache(64).entries(), 64u);
}

TEST(ComputedCache, LookupsAfterGrowthHitOrMissButNeverLie) {
  ComputedCache cache(std::size_t{1} << 14);
  std::mt19937_64 rng(9);
  // The result of (op, a, b) is a fixed function of the key, so any hit can
  // be checked; keys repeat so some hits land after a resize.
  auto result_of = [](std::uint8_t op, Ref a, Ref b) {
    return static_cast<Ref>((a * 31u + b * 7u + op) % 1'000'003u);
  };
  std::size_t hits = 0;
  std::size_t last_entries = cache.entries();
  std::size_t resizes = 0;
  for (int i = 0; i < 200'000; ++i) {
    const std::uint8_t op = static_cast<std::uint8_t>(rng() % 5);
    const Ref a = static_cast<Ref>(rng() % 20'000);
    const Ref b = static_cast<Ref>(rng() % 20'000);
    Ref out = kInvalidRef;
    if (cache.lookup(op, a, b, out)) {
      ++hits;
      ASSERT_EQ(out, result_of(op, a, b)) << "wrong result after growth";
    } else {
      cache.store(op, a, b, result_of(op, a, b));
    }
    if (cache.entries() != last_entries) {
      ++resizes;
      last_entries = cache.entries();
    }
    ASSERT_LE(cache.occupied(), cache.entries());
  }
  EXPECT_GE(resizes, 4u);
  EXPECT_GT(hits, 0u);
  EXPECT_EQ(cache.hits() + cache.misses(), 200'000u);
}

TEST(ComputedCache, GrowthKeepsEveryLiveEntry) {
  ComputedCache cache(std::size_t{1} << 12);
  std::vector<std::tuple<Ref, Ref, Ref>> stored;
  // Fill to just below the growth threshold of the initial table...
  Ref a = 0;
  while (2 * (cache.occupied() + 1) < cache.entries()) {
    cache.store(1, a, a + 1, a + 2);
    stored.emplace_back(a, a + 1, a + 2);
    ++a;
  }
  const std::size_t before = cache.entries();
  const std::size_t occupied = cache.occupied();
  // ...then cross it: every entry that was live survives the doubling. A
  // crossing store that lands on an occupied slot evicts that entry (and
  // does not grow the table); only the last one finds a free slot.
  std::size_t crossing_stores = 0;
  while (cache.entries() == before) {
    cache.store(1, a, a + 1, a + 2);
    ++a;
    ++crossing_stores;
  }
  EXPECT_EQ(cache.entries(), 2 * before);
  std::size_t found = 0;
  for (auto [x, y, r] : stored) {
    Ref out = kInvalidRef;
    if (cache.lookup(1, x, y, out)) {
      EXPECT_EQ(out, r);
      ++found;
    }
  }
  // Each stored entry either was overwritten by a later colliding store or
  // still holds its slot, and growth lost none of the latter.
  EXPECT_EQ(found, occupied - (crossing_stores - 1));
}

}  // namespace
}  // namespace gpo::dd
