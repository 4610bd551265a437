// The strict numeric parser behind CLI flags, manifest keys, model specs and
// PNML labels: exactly one number, within bounds, or a typed error.
#include "util/parse_num.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>

namespace gpo::util {
namespace {

TEST(ParseInt, AcceptsPlainAndSignedDecimals) {
  EXPECT_EQ(parse_int<int>("42"), 42);
  EXPECT_EQ(parse_int<int>("+42"), 42);
  EXPECT_EQ(parse_int<int>("-42"), -42);
  EXPECT_EQ(parse_int<int>("007"), 7);
  EXPECT_EQ(parse_int<std::size_t>("-0"), 0u);
  EXPECT_EQ(parse_int<std::uint64_t>("18446744073709551615"),
            std::numeric_limits<std::uint64_t>::max());
}

TEST(ParseInt, RejectsAnythingButOneInteger) {
  for (const char* bad : {"", "+", "-", "abc", "12ab", " 12", "12 ", "1.5",
                          "1e3", "0x10", "--1", "+-1"}) {
    EXPECT_THROW((void)parse_int<int>(bad), std::invalid_argument) << bad;
    EXPECT_THROW((void)parse_int<std::size_t>(bad), std::invalid_argument)
        << bad;
  }
}

TEST(ParseInt, OutOfRangeIsNotWrapped) {
  // The std::stoul behavior this replaces: "-3" became 2^64-3.
  EXPECT_THROW((void)parse_int<std::size_t>("-3"), std::out_of_range);
  EXPECT_THROW((void)parse_int<int>("2147483648"), std::out_of_range);
  EXPECT_THROW((void)parse_int<int>("-2147483649"), std::out_of_range);
  EXPECT_THROW((void)parse_int<std::uint64_t>("18446744073709551616"),
               std::out_of_range);
}

TEST(ParseInt, BoundsAreInclusiveAndNamedInTheMessage) {
  EXPECT_EQ(parse_int<std::size_t>("2", 2, 10), 2u);
  EXPECT_EQ(parse_int<std::size_t>("10", 2, 10), 10u);
  EXPECT_THROW((void)parse_int<std::size_t>("1", 2, 10), std::out_of_range);
  try {
    (void)parse_int<std::size_t>("11", 2, 10);
    FAIL() << "11 accepted";
  } catch (const std::out_of_range& e) {
    EXPECT_STREQ(e.what(), "'11' is out of range [2, 10]");
  }
}

TEST(ParseDouble, AcceptsNumbersAndInfinityWithinBounds) {
  EXPECT_DOUBLE_EQ(parse_double("2.5"), 2.5);
  EXPECT_DOUBLE_EQ(parse_double("1e-3"), 1e-3);
  EXPECT_DOUBLE_EQ(parse_double("-4"), -4.0);
  EXPECT_EQ(parse_double("inf"), std::numeric_limits<double>::infinity());
  EXPECT_THROW((void)parse_double("-1", 0.0), std::out_of_range);
  EXPECT_THROW((void)parse_double("0", 1e-9), std::out_of_range);
}

TEST(ParseDouble, RejectsJunkAndNaN) {
  for (const char* bad : {"", "abc", "1s", " 1", "1 ", "nan", "1..2"})
    EXPECT_THROW((void)parse_double(bad), std::invalid_argument) << bad;
}

}  // namespace
}  // namespace gpo::util
