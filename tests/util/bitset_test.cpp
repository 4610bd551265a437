#include "util/bitset.hpp"

#include <gtest/gtest.h>

#include <random>
#include <set>

namespace gpo::util {
namespace {

TEST(Bitset, DefaultIsEmpty) {
  Bitset b;
  EXPECT_EQ(b.size(), 0u);
  EXPECT_TRUE(b.none());
  EXPECT_EQ(b.count(), 0u);
}

TEST(Bitset, SetResetTest) {
  Bitset b(130);
  EXPECT_FALSE(b.test(0));
  b.set(0);
  b.set(64);
  b.set(129);
  EXPECT_TRUE(b.test(0));
  EXPECT_TRUE(b.test(64));
  EXPECT_TRUE(b.test(129));
  EXPECT_FALSE(b.test(1));
  EXPECT_EQ(b.count(), 3u);
  b.reset(64);
  EXPECT_FALSE(b.test(64));
  EXPECT_EQ(b.count(), 2u);
}

TEST(Bitset, InitializerList) {
  Bitset b(10, {1, 3, 7});
  EXPECT_EQ(b.count(), 3u);
  EXPECT_TRUE(b.test(1));
  EXPECT_TRUE(b.test(3));
  EXPECT_TRUE(b.test(7));
}

TEST(Bitset, OutOfRangeThrows) {
  Bitset b(10);
  EXPECT_THROW(b.set(10), std::out_of_range);
  EXPECT_THROW((void)b.test(10), std::out_of_range);
  EXPECT_THROW(b.reset(100), std::out_of_range);
}

TEST(Bitset, SizeMismatchThrows) {
  Bitset a(10), b(11);
  EXPECT_THROW(a |= b, std::invalid_argument);
  EXPECT_THROW((void)a.is_subset_of(b), std::invalid_argument);
  EXPECT_THROW((void)a.intersects(b), std::invalid_argument);
}

TEST(Bitset, BooleanOps) {
  Bitset a(70, {0, 5, 69});
  Bitset b(70, {5, 6});
  EXPECT_EQ((a | b), Bitset(70, {0, 5, 6, 69}));
  EXPECT_EQ((a & b), Bitset(70, {5}));
  EXPECT_EQ((a - b), Bitset(70, {0, 69}));
  EXPECT_EQ((a ^ b), Bitset(70, {0, 6, 69}));
}

TEST(Bitset, SubsetAndIntersect) {
  Bitset a(70, {0, 5});
  Bitset b(70, {0, 5, 6});
  EXPECT_TRUE(a.is_subset_of(b));
  EXPECT_FALSE(b.is_subset_of(a));
  EXPECT_TRUE(a.is_subset_of(a));
  EXPECT_TRUE(a.intersects(b));
  EXPECT_FALSE(a.intersects(Bitset(70, {6})));
  EXPECT_TRUE(Bitset(70).is_subset_of(a));
}

TEST(Bitset, FindFirstNext) {
  Bitset b(130, {3, 64, 127});
  EXPECT_EQ(b.find_first(), 3u);
  EXPECT_EQ(b.find_next(4), 64u);
  EXPECT_EQ(b.find_next(64), 64u);
  EXPECT_EQ(b.find_next(65), 127u);
  EXPECT_EQ(b.find_next(128), 130u);
  EXPECT_EQ(Bitset(130).find_first(), 130u);
}

TEST(Bitset, IterationMatchesToIndices) {
  Bitset b(100, {0, 17, 63, 64, 99});
  std::vector<std::size_t> via_iter;
  for (std::size_t i = b.find_first(); i < b.size(); i = b.find_next(i + 1))
    via_iter.push_back(i);
  EXPECT_EQ(via_iter, b.to_indices());
}

TEST(Bitset, OrderingIsTotal) {
  Bitset a(10, {1});
  Bitset b(10, {2});
  EXPECT_TRUE(a < b || b < a);
  EXPECT_FALSE(a < a);
}

TEST(Bitset, HashDistinguishesSizes) {
  // The trailing-zero invariant means same-words-different-size must still
  // hash apart.
  Bitset a(64, {0});
  Bitset b(65, {0});
  EXPECT_NE(a, b);
  EXPECT_NE(a.hash(), b.hash());
}

TEST(Bitset, ToString) {
  EXPECT_EQ(Bitset(10, {1, 4, 7}).to_string(), "{1,4,7}");
  EXPECT_EQ(Bitset(10).to_string(), "{}");
}

TEST(Bitset, RandomizedAgainstStdSet) {
  std::mt19937 rng(42);
  for (int trial = 0; trial < 50; ++trial) {
    std::size_t n = 1 + rng() % 200;
    Bitset bs(n);
    std::set<std::size_t> ref;
    for (int op = 0; op < 100; ++op) {
      std::size_t i = rng() % n;
      if (rng() % 2) {
        bs.set(i);
        ref.insert(i);
      } else {
        bs.reset(i);
        ref.erase(i);
      }
    }
    EXPECT_EQ(bs.count(), ref.size());
    auto idx = bs.to_indices();
    EXPECT_TRUE(std::equal(idx.begin(), idx.end(), ref.begin(), ref.end()));
  }
}

TEST(Bitset, RandomizedBooleanAlgebra) {
  std::mt19937 rng(7);
  for (int trial = 0; trial < 50; ++trial) {
    std::size_t n = 1 + rng() % 150;
    Bitset a(n), b(n);
    for (std::size_t i = 0; i < n; ++i) {
      if (rng() % 2) a.set(i);
      if (rng() % 2) b.set(i);
    }
    // De Morgan-ish identities expressible without complement.
    EXPECT_EQ((a - b) | (a & b), a);
    EXPECT_EQ((a | b) - b, a - b);
    EXPECT_EQ((a ^ b), (a | b) - (a & b));
    EXPECT_TRUE((a & b).is_subset_of(a));
    EXPECT_TRUE(a.is_subset_of(a | b));
    EXPECT_EQ(a.intersects(b), (a & b).any());
  }
}

TEST(Bitset, FromWordsRoundTrips) {
  std::mt19937 rng(11);
  for (std::size_t n : {0u, 1u, 63u, 64u, 65u, 130u}) {
    Bitset a(n);
    for (std::size_t i = 0; i < n; ++i)
      if (rng() % 3 == 0) a.set(i);
    Bitset b(n, a.words());
    EXPECT_EQ(a, b) << "n=" << n;
    EXPECT_EQ(a.hash(), b.hash());
    Bitset c(n);
    c.assign_words(a.words());
    EXPECT_EQ(a, c);
  }
}

TEST(Bitset, FromWordsRejectsBitsPastSize) {
  const Bitset::Word w[2] = {0, Bitset::Word{1} << 6};  // bit 70
  EXPECT_NO_THROW(Bitset(71, std::span<const Bitset::Word>(w, 2)));
  EXPECT_THROW(Bitset(70, std::span<const Bitset::Word>(w, 2)),
               std::invalid_argument);
  EXPECT_THROW(Bitset(65, std::span<const Bitset::Word>(w, 2)),
               std::invalid_argument);
  const Bitset::Word full = ~Bitset::Word{0};
  EXPECT_NO_THROW(Bitset(64, std::span<const Bitset::Word>(&full, 1)));
  EXPECT_THROW(Bitset(63, std::span<const Bitset::Word>(&full, 1)),
               std::invalid_argument);
}

TEST(Bitset, FromWordsRejectsWrongWordCount) {
  const Bitset::Word w[2] = {1, 0};
  EXPECT_THROW(Bitset(64, std::span<const Bitset::Word>(w, 2)),
               std::invalid_argument);
  EXPECT_THROW(Bitset(129, std::span<const Bitset::Word>(w, 2)),
               std::invalid_argument);
  Bitset a(10, {3});
  EXPECT_THROW(a.assign_words(std::span<const Bitset::Word>(w, 2)),
               std::invalid_argument);
  EXPECT_EQ(a, Bitset(10, {3}));  // unchanged after a rejected assign
}

}  // namespace
}  // namespace gpo::util
