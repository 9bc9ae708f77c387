#include "util/math_util.h"

#include <gtest/gtest.h>

#include <limits>

namespace sasynth {
namespace {

TEST(CeilDiv, ExactAndInexact) {
  EXPECT_EQ(ceil_div(0, 4), 0);
  EXPECT_EQ(ceil_div(1, 4), 1);
  EXPECT_EQ(ceil_div(4, 4), 1);
  EXPECT_EQ(ceil_div(5, 4), 2);
  EXPECT_EQ(ceil_div(128, 11), 12);
  EXPECT_EQ(ceil_div(13, 14), 1);
}

TEST(RoundUp, Multiples) {
  EXPECT_EQ(round_up(0, 8), 0);
  EXPECT_EQ(round_up(1, 8), 8);
  EXPECT_EQ(round_up(8, 8), 8);
  EXPECT_EQ(round_up(9, 8), 16);
  EXPECT_EQ(round_up(128, 11), 132);  // the Table 1 quantization example
}

TEST(RoundUpPow2, Values) {
  EXPECT_EQ(round_up_pow2(1), 1);
  EXPECT_EQ(round_up_pow2(2), 2);
  EXPECT_EQ(round_up_pow2(3), 4);
  EXPECT_EQ(round_up_pow2(4), 4);
  EXPECT_EQ(round_up_pow2(5), 8);
  EXPECT_EQ(round_up_pow2(1000), 1024);
  EXPECT_EQ(round_up_pow2(1024), 1024);
  EXPECT_EQ(round_up_pow2(1025), 2048);
  EXPECT_EQ(round_up_pow2((std::int64_t{1} << 32) + 1), std::int64_t{1} << 33);
  EXPECT_EQ(round_up_pow2((std::int64_t{1} << 61) + 1), std::int64_t{1} << 62);
  EXPECT_EQ(round_up_pow2((std::int64_t{1} << 62) - 1), std::int64_t{1} << 62);
  // The saturation boundary: 2^62 is the largest int64 power of two.
  EXPECT_EQ(round_up_pow2(std::int64_t{1} << 62), std::int64_t{1} << 62);
  EXPECT_EQ(round_up_pow2((std::int64_t{1} << 62) + 1),
            std::numeric_limits<std::int64_t>::max());
  EXPECT_EQ(round_up_pow2(std::numeric_limits<std::int64_t>::max()),
            std::numeric_limits<std::int64_t>::max());
}

TEST(IsPow2, Values) {
  EXPECT_TRUE(is_pow2(1));
  EXPECT_TRUE(is_pow2(2));
  EXPECT_TRUE(is_pow2(64));
  EXPECT_FALSE(is_pow2(0));
  EXPECT_FALSE(is_pow2(3));
  EXPECT_FALSE(is_pow2(96));
  EXPECT_FALSE(is_pow2(-4));
}

TEST(Log2, FloorAndCeil) {
  EXPECT_EQ(floor_log2(1), 0);
  EXPECT_EQ(floor_log2(2), 1);
  EXPECT_EQ(floor_log2(3), 1);
  EXPECT_EQ(floor_log2(1023), 9);
  EXPECT_EQ(floor_log2(1024), 10);
  EXPECT_EQ(ceil_log2(1), 0);
  EXPECT_EQ(ceil_log2(2), 1);
  EXPECT_EQ(ceil_log2(3), 2);
  EXPECT_EQ(ceil_log2(1024), 10);
  EXPECT_EQ(ceil_log2(1025), 11);
}

TEST(GcdLcm, Values) {
  EXPECT_EQ(gcd(12, 18), 6);
  EXPECT_EQ(gcd(7, 13), 1);
  EXPECT_EQ(gcd(0, 5), 5);
  EXPECT_EQ(gcd(5, 0), 5);
  EXPECT_EQ(lcm(4, 6), 12);
  EXPECT_EQ(lcm(0, 6), 0);
  EXPECT_EQ(lcm(13, 13), 13);
}

TEST(Product, EmptyIsOne) {
  EXPECT_EQ(product({}), 1);
  EXPECT_EQ(product({3}), 3);
  EXPECT_EQ(product({2, 3, 4}), 24);
}

// Satellite: overflow is detected, never wrapped. A DSE footprint that does
// not fit in int64 must read as "infinitely large" (fails every budget),
// not as a small or negative number.
TEST(CheckedMul, DetectsOverflow) {
  const std::int64_t max = std::numeric_limits<std::int64_t>::max();
  std::int64_t out = 0;
  EXPECT_TRUE(checked_mul(6, 7, &out));
  EXPECT_EQ(out, 42);
  EXPECT_TRUE(checked_mul(max, 1, &out));
  EXPECT_EQ(out, max);
  EXPECT_TRUE(checked_mul(0, max, &out));
  EXPECT_EQ(out, 0);
  EXPECT_FALSE(checked_mul(max, 2, &out));
  EXPECT_FALSE(checked_mul(std::int64_t{1} << 32, std::int64_t{1} << 32, &out));
  EXPECT_FALSE(checked_mul(std::int64_t{3037000500}, std::int64_t{3037000500},
                           &out));  // ~sqrt(INT64_MAX), squared just overflows
}

TEST(SatMul, SaturatesAtInt64Max) {
  const std::int64_t max = std::numeric_limits<std::int64_t>::max();
  EXPECT_EQ(sat_mul(6, 7), 42);
  EXPECT_EQ(sat_mul(max, 1), max);
  EXPECT_EQ(sat_mul(max, 2), max);
  EXPECT_EQ(sat_mul(std::int64_t{1} << 40, std::int64_t{1} << 40), max);
}

TEST(CheckedProduct, DetectsOverflow) {
  std::int64_t out = 0;
  EXPECT_TRUE(checked_product({}, &out));
  EXPECT_EQ(out, 1);
  EXPECT_TRUE(checked_product({1 << 20, 1 << 20, 1 << 20}, &out));
  EXPECT_EQ(out, std::int64_t{1} << 60);
  EXPECT_FALSE(checked_product({1 << 20, 1 << 20, 1 << 20, 16}, &out));
}

TEST(Product, SaturatesInsteadOfWrapping) {
  const std::int64_t max = std::numeric_limits<std::int64_t>::max();
  EXPECT_EQ(product({std::int64_t{1} << 32, std::int64_t{1} << 32}), max);
  EXPECT_EQ(product({max, max, max}), max);
}

TEST(GcdLcm, LcmSaturatesInsteadOfOverflowing) {
  const std::int64_t max = std::numeric_limits<std::int64_t>::max();
  // Two coprime values near 2^62: their true LCM is their product, which
  // does not fit — pre-fix this wrapped into garbage (UB).
  const std::int64_t a = (std::int64_t{1} << 62) - 1;
  const std::int64_t b = (std::int64_t{1} << 62) - 3;
  EXPECT_EQ(lcm(a, b), max);
  EXPECT_EQ(lcm(max, max), max);  // equal inputs still exact
}

TEST(RoundUpPow2, SaturatesAbove2To62) {
  const std::int64_t max = std::numeric_limits<std::int64_t>::max();
  EXPECT_EQ(round_up_pow2(std::int64_t{1} << 62), std::int64_t{1} << 62);
  EXPECT_EQ(round_up_pow2((std::int64_t{1} << 62) + 1), max);  // pre-fix: UB
  EXPECT_EQ(round_up_pow2(max), max);
}

TEST(Divisors, SortedComplete) {
  EXPECT_EQ(divisors(1), (std::vector<std::int64_t>{1}));
  EXPECT_EQ(divisors(12), (std::vector<std::int64_t>{1, 2, 3, 4, 6, 12}));
  EXPECT_EQ(divisors(13), (std::vector<std::int64_t>{1, 13}));
  EXPECT_EQ(divisors(36), (std::vector<std::int64_t>{1, 2, 3, 4, 6, 9, 12, 18, 36}));
}

TEST(Pow2Candidates, BelowBound) {
  EXPECT_EQ(pow2_candidates(1), (std::vector<std::int64_t>{1}));
  EXPECT_EQ(pow2_candidates(8), (std::vector<std::int64_t>{1, 2, 4, 8}));
  EXPECT_EQ(pow2_candidates(9), (std::vector<std::int64_t>{1, 2, 4, 8}));
}

TEST(Pow2CandidatesCovering, IncludesCover) {
  // The DSE explores tile bounds covering the trip count: 13 needs 16.
  EXPECT_EQ(pow2_candidates_covering(13),
            (std::vector<std::int64_t>{1, 2, 4, 8, 16}));
  EXPECT_EQ(pow2_candidates_covering(1), (std::vector<std::int64_t>{1}));
  EXPECT_EQ(pow2_candidates_covering(2), (std::vector<std::int64_t>{1, 2}));
  EXPECT_EQ(pow2_candidates_covering(16),
            (std::vector<std::int64_t>{1, 2, 4, 8, 16}));
}

TEST(Clamp64, Bounds) {
  EXPECT_EQ(clamp64(5, 0, 10), 5);
  EXPECT_EQ(clamp64(-5, 0, 10), 0);
  EXPECT_EQ(clamp64(50, 0, 10), 10);
}

// Property sweep: ceil_div/round_up consistency over a grid.
class CeilDivProperty : public ::testing::TestWithParam<std::int64_t> {};

TEST_P(CeilDivProperty, RoundUpIsMultipleAndMinimal) {
  const std::int64_t b = GetParam();
  for (std::int64_t a = 0; a <= 200; ++a) {
    const std::int64_t r = round_up(a, b);
    EXPECT_EQ(r % b, 0);
    EXPECT_GE(r, a);
    EXPECT_LT(r - a, b);
    EXPECT_EQ(r / b, ceil_div(a, b));
  }
}

INSTANTIATE_TEST_SUITE_P(Divisors, CeilDivProperty,
                         ::testing::Values(1, 2, 3, 7, 8, 11, 13, 64));

}  // namespace
}  // namespace sasynth
