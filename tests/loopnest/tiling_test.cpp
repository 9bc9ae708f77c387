#include "loopnest/tiling.h"

#include <gtest/gtest.h>

#include "loopnest/conv_nest.h"
#include "nn/layer.h"
#include "nn/network.h"

namespace sasynth {
namespace {

TEST(TilingSpec, IdentityDefaults) {
  const TilingSpec spec(3);
  EXPECT_EQ(spec.num_loops(), 3U);
  EXPECT_EQ(spec.middle(0), 1);
  EXPECT_EQ(spec.inner(2), 1);
  EXPECT_EQ(spec.block_trip(1), 1);
  EXPECT_EQ(spec.macs_per_block(), 1);
  EXPECT_EQ(spec.cycles_per_block(), 1);
}

TEST(TilingSpec, BlockTrips) {
  TilingSpec spec({4, 2}, {3, 5});
  EXPECT_EQ(spec.block_trip(0), 12);
  EXPECT_EQ(spec.block_trip(1), 10);
  EXPECT_EQ(spec.block_trips(), (std::vector<std::int64_t>{12, 10}));
  EXPECT_EQ(spec.macs_per_block(), 120);
  EXPECT_EQ(spec.cycles_per_block(), 8);  // prod(s)
}

LoopNest two_loop_nest(std::int64_t n0, std::int64_t n1) {
  LoopNest nest;
  nest.add_loop("a", n0);
  nest.add_loop("b", n1);
  AccessFunction out;
  out.array = "O";
  out.indices.push_back(AffineExpr::term(2, 0));
  nest.add_access(ArrayAccess{out, AccessRole::kReduce});
  AccessFunction x;
  x.array = "X";
  x.indices.push_back(AffineExpr::term(2, 1));
  nest.add_access(ArrayAccess{x, AccessRole::kRead});
  return nest;
}

TEST(TilingSpec, OuterTripsAndBlocks) {
  const LoopNest nest = two_loop_nest(13, 8);
  const TilingSpec spec({1, 2}, {5, 2});  // blocks 5 and 4
  EXPECT_EQ(spec.outer_trip(nest, 0), 3);  // ceil(13/5)
  EXPECT_EQ(spec.outer_trip(nest, 1), 2);  // ceil(8/4)
  EXPECT_EQ(spec.num_blocks(nest), 6);
}

TEST(TilingSpec, GranulesAndWavefronts) {
  const LoopNest nest = two_loop_nest(13, 8);
  const TilingSpec spec({1, 2}, {5, 2});
  EXPECT_EQ(spec.granules(nest, 0), 3);   // ceil(13/5)
  EXPECT_EQ(spec.granules(nest, 1), 4);   // ceil(8/2)
  EXPECT_EQ(spec.total_wavefronts(nest), 12);
}

TEST(TilingSpec, EfficiencyOnlyChargesInnerQuantization) {
  const LoopNest nest = two_loop_nest(13, 8);
  // Inner 5 on trip 13 pads to 15; inner 2 on 8 is exact.
  const TilingSpec spec({1, 2}, {5, 2});
  EXPECT_EQ(spec.executed_iterations(nest), 15 * 8);
  EXPECT_DOUBLE_EQ(spec.efficiency(nest), (13.0 * 8.0) / (15.0 * 8.0));
  // Larger middle bounds do not change efficiency (middle loops clip).
  const TilingSpec bigger({4, 8}, {5, 2});
  EXPECT_DOUBLE_EQ(bigger.efficiency(nest), spec.efficiency(nest));
}

TEST(TilingSpec, Table1Efficiencies) {
  // Paper Table 1: AlexNet conv5 with shapes (11,13,8) and (16,10,8) mapped
  // to (o, c, i): eff 96.97% and 65.0% (the published 60.00% is inconsistent
  // with the same row's 466-GFlops peak throughput; see EXPERIMENTS.md).
  const LoopNest nest = build_conv_nest(alexnet_conv5());
  TilingSpec sys1(ConvLoops::kCount);
  sys1.set_inner(ConvLoops::kO, 11);
  sys1.set_inner(ConvLoops::kC, 13);
  sys1.set_inner(ConvLoops::kI, 8);
  EXPECT_NEAR(sys1.efficiency(nest), 128.0 / 132.0, 1e-12);
  EXPECT_NEAR(sys1.efficiency(nest), 0.9697, 1e-4);

  TilingSpec sys2(ConvLoops::kCount);
  sys2.set_inner(ConvLoops::kO, 16);
  sys2.set_inner(ConvLoops::kC, 10);
  sys2.set_inner(ConvLoops::kI, 8);
  EXPECT_NEAR(sys2.efficiency(nest), 13.0 / 20.0, 1e-12);
}

TEST(TilingSpec, FootprintsMatchPaperExample) {
  // Paper §2.3: sys1 with Tile(I,O,R,C,P,Q) = (4,4,13,1,3,3).
  const LoopNest nest = build_conv_nest(alexnet_conv5());
  TilingSpec spec(ConvLoops::kCount);
  spec.set_inner(ConvLoops::kO, 11).set_middle(ConvLoops::kO, 4);
  spec.set_inner(ConvLoops::kC, 13).set_middle(ConvLoops::kC, 1);
  spec.set_inner(ConvLoops::kI, 8).set_middle(ConvLoops::kI, 4);
  spec.set_middle(ConvLoops::kR, 13);
  spec.set_middle(ConvLoops::kP, 3);
  spec.set_middle(ConvLoops::kQ, 3);

  const std::size_t w = nest.find_access(kWeightArray);
  const std::size_t in = nest.find_access(kInArray);
  const std::size_t out = nest.find_access(kOutArray);
  EXPECT_EQ(spec.footprint_elems(nest.accesses()[w].access),
            44 * 32 * 3 * 3);
  EXPECT_EQ(spec.footprint_elems(nest.accesses()[in].access),
            32 * (13 + 2) * (13 + 2));
  EXPECT_EQ(spec.footprint_elems(nest.accesses()[out].access), 44 * 13 * 13);
}

TEST(TilingSpec, FootprintMatchesClosedFormOnSignedAccesses) {
  // The footprint is the closed form's range product over the block domain
  // without building the domain, including dimensions whose negative or
  // strided coefficients and constants stretch the range below the base.
  AffineExpr flipped(3);
  flipped.set_coeff(0, -2).set_coeff(1, 1).set_constant(5);
  AffineExpr strided(3);
  strided.set_coeff(2, 3).set_constant(-1);
  const AccessFunction access{"A", {flipped, strided}};
  const TilingSpec spec({3, 2, 4}, {2, 5, 1});
  EXPECT_EQ(spec.footprint_elems(access),
            closed_form_footprint(access, spec.block_domain()));
  // (2*(6-1) + (10-1) + 1) * (3*(4-1) + 1)
  EXPECT_EQ(spec.footprint_elems(access), 20 * 10);
}

TEST(TilingSpec, ValidateCatchesErrors) {
  const LoopNest nest = two_loop_nest(13, 8);
  EXPECT_FALSE(TilingSpec(3).validate(nest).empty());  // wrong loop count
  EXPECT_TRUE(TilingSpec(2).validate(nest).empty());
  // Block trip way beyond the padded trip count is flagged.
  const TilingSpec huge({64, 1}, {5, 1});
  EXPECT_FALSE(huge.validate(nest).empty());
}

TEST(TilingSpec, ToStringAndEquality) {
  const TilingSpec spec({4, 2}, {3, 5});
  EXPECT_EQ(spec.to_string(), "s=(4,2) t=(3,5)");
  EXPECT_EQ(spec, TilingSpec({4, 2}, {3, 5}));
  EXPECT_FALSE(spec == TilingSpec({4, 2}, {3, 4}));
}

}  // namespace
}  // namespace sasynth
