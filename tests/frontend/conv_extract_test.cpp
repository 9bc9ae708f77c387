#include "frontend/conv_extract.h"

#include <gtest/gtest.h>

#include "frontend/flow.h"
#include "frontend/parser.h"
#include "loopnest/conv_nest.h"
#include "nn/network.h"

namespace sasynth {
namespace {

TEST(ConvExtract, RecoverDescriptorFromBuiltNest) {
  const ConvLayerDesc layer = alexnet_conv5();
  const ConvExtraction ex = extract_conv_layer(build_conv_nest(layer));
  ASSERT_TRUE(ex.ok) << ex.error;
  EXPECT_EQ(ex.layer.out_maps, 128);
  EXPECT_EQ(ex.layer.in_maps, 192);
  EXPECT_EQ(ex.layer.out_rows, 13);
  EXPECT_EQ(ex.layer.out_cols, 13);
  EXPECT_EQ(ex.layer.kernel, 3);
  EXPECT_EQ(ex.layer.stride, 1);
  EXPECT_EQ(ex.loop_o, ConvLoops::kO);
  EXPECT_EQ(ex.loop_q, ConvLoops::kQ);
}

TEST(ConvExtract, RoundTripThroughSourceText) {
  // render -> parse -> extract recovers the original descriptor, for both
  // unit and non-unit strides.
  for (const std::int64_t stride : {1LL, 2LL, 4LL}) {
    ConvLayerDesc layer = make_conv("rt", 6, 10, 7, 3, stride);
    const ParseResult parsed = parse_loop_nest(render_conv_source(layer));
    ASSERT_TRUE(parsed.ok) << parsed.error;
    const ConvExtraction ex = extract_conv_layer(parsed.nest);
    ASSERT_TRUE(ex.ok) << ex.error;
    EXPECT_EQ(ex.layer.in_maps, 6);
    EXPECT_EQ(ex.layer.out_maps, 10);
    EXPECT_EQ(ex.layer.out_rows, 7);
    EXPECT_EQ(ex.layer.kernel, 3);
    EXPECT_EQ(ex.layer.stride, stride);
  }
}

TEST(ConvExtract, ArbitraryLoopOrderAccepted) {
  // Loop roles come from access structure, not position: permute the nest.
  const char* const src = R"(
for (r = 0; r < 5; r++)
 for (q = 0; q < 3; q++)
  for (o = 0; o < 8; o++)
   for (c = 0; c < 5; c++)
    for (i = 0; i < 4; i++)
     for (p = 0; p < 3; p++)
      OUT[o][r][c] += W[o][i][p][q] * IN[i][r + p][c + q];
)";
  const ParseResult parsed = parse_loop_nest(src);
  ASSERT_TRUE(parsed.ok) << parsed.error;
  const ConvExtraction ex = extract_conv_layer(parsed.nest);
  ASSERT_TRUE(ex.ok) << ex.error;
  EXPECT_EQ(ex.layer.out_maps, 8);
  EXPECT_EQ(ex.layer.in_maps, 4);
  EXPECT_EQ(ex.loop_o, 2U);
  EXPECT_EQ(ex.loop_r, 0U);
}

TEST(ConvExtract, RenamedArraysAccepted) {
  const char* const src = R"(
for (a = 0; a < 4; a++)
 for (b = 0; b < 4; b++)
  for (x = 0; x < 5; x++)
   for (y = 0; y < 5; y++)
    for (u = 0; u < 3; u++)
     for (v = 0; v < 3; v++)
      result[a][y][x] += coeff[a][b][u][v] * img[b][y + u][x + v];
)";
  const ParseResult parsed = parse_loop_nest(src);
  ASSERT_TRUE(parsed.ok) << parsed.error;
  const ConvExtraction ex = extract_conv_layer(parsed.nest);
  ASSERT_TRUE(ex.ok) << ex.error;
  EXPECT_EQ(ex.layer.out_maps, 4);
  EXPECT_EQ(ex.layer.out_rows, 5);
}

struct RejectCase {
  const char* name;
  const char* source;
};

// Print the case by name: gtest's default dumps the struct's bytes, whose
// pointers change from run to run and so would change the listed test ID.
void PrintTo(const RejectCase& c, std::ostream* os) { *os << c.name; }

class ConvExtractRejectTest : public ::testing::TestWithParam<RejectCase> {};

TEST_P(ConvExtractRejectTest, Rejected) {
  const ParseResult parsed = parse_loop_nest(GetParam().source);
  ASSERT_TRUE(parsed.ok) << parsed.error;
  const ConvExtraction ex = extract_conv_layer(parsed.nest);
  EXPECT_FALSE(ex.ok);
  EXPECT_FALSE(ex.error.empty());
}

INSTANTIATE_TEST_SUITE_P(
    Cases, ConvExtractRejectTest,
    ::testing::Values(
        RejectCase{"five_loops",
                   "for (o = 0; o < 4; o++)\n for (i = 0; i < 4; i++)\n  for "
                   "(r = 0; r < 4; r++)\n   for (p = 0; p < 3; p++)\n    for "
                   "(q = 0; q < 3; q++)\n     O[o][r][r] += W[o][i][p][q] * "
                   "IN[i][r + p][r + q];"},
        RejectCase{"rank2_weights",
                   "for (o = 0; o < 4; o++)\n for (i = 0; i < 4; i++)\n  for "
                   "(c = 0; c < 4; c++)\n   for (r = 0; r < 4; r++)\n    for "
                   "(p = 0; p < 3; p++)\n     for (q = 0; q < 3; q++)\n      "
                   "O[o][r][c] += W[o][i] * IN[i][r + p][c + q];"},
        RejectCase{"nonsquare_kernel",
                   "for (o = 0; o < 4; o++)\n for (i = 0; i < 4; i++)\n  for "
                   "(c = 0; c < 4; c++)\n   for (r = 0; r < 4; r++)\n    for "
                   "(p = 0; p < 3; p++)\n     for (q = 0; q < 5; q++)\n      "
                   "O[o][r][c] += W[o][i][p][q] * IN[i][r + p][c + q];"},
        RejectCase{"mismatched_strides",
                   "for (o = 0; o < 4; o++)\n for (i = 0; i < 4; i++)\n  for "
                   "(c = 0; c < 4; c++)\n   for (r = 0; r < 4; r++)\n    for "
                   "(p = 0; p < 3; p++)\n     for (q = 0; q < 3; q++)\n      "
                   "O[o][r][c] += W[o][i][p][q] * IN[i][2*r + p][3*c + q];"},
        RejectCase{"matmul",
                   "for (x = 0; x < 4; x++)\n for (y = 0; y < 4; y++)\n  for "
                   "(k = 0; k < 4; k++)\n   for (d1 = 0; d1 < 2; d1++)\n    "
                   "for (d2 = 0; d2 < 2; d2++)\n     for (d3 = 0; d3 < 2; "
                   "d3++)\n      Cm[x][y][k] += A[x][k][d1][d2] * "
                   "B[k][x + d1][y + d3];"}),
    [](const ::testing::TestParamInfo<RejectCase>& info) {
      return info.param.name;
    });

}  // namespace
}  // namespace sasynth
