// The layer evaluator against the model's formulas, bit for bit. The
// reference below is estimate_performance's and bram_usage_blocks's
// arithmetic as written before the evaluator existed, with
// closed_form_footprint over the block domain as the footprint reference.
// Both the evaluator on precomputed LayerConstants (the unified stage-2
// leaf's path) and the public views must reproduce it exactly.
#include "core/layer_eval.h"

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "core/perf_model.h"
#include "core/resource_model.h"
#include "loopnest/conv_nest.h"
#include "loopnest/domain.h"
#include "support/random_design.h"
#include "util/math_util.h"
#include "util/rng.h"

namespace sasynth {
namespace {

struct Reference {
  PerfEstimate perf;
  std::vector<std::int64_t> footprints;
  std::int64_t bram_blocks = 0;
  double block_bytes = 0.0;
};

Reference reference_model(const LoopNest& nest, const DesignPoint& design,
                          const FpgaDevice& device, DataType dtype,
                          double freq_mhz) {
  Reference ref;
  const TilingSpec& tiling = design.tiling();
  const RectDomain block = tiling.block_domain();
  PerfEstimate& perf = ref.perf;
  perf.freq_mhz = freq_mhz;
  perf.eff = static_cast<double>(nest.total_iterations()) /
             static_cast<double>(tiling.executed_iterations(nest));
  const double lanes = static_cast<double>(design.num_lanes());
  const double freq_ghz = freq_mhz * 1e-3;
  perf.pt_gops = perf.eff * lanes * 2.0 * freq_ghz;
  const double eff_ops_per_block =
      perf.eff * 2.0 * static_cast<double>(tiling.macs_per_block());
  double total_bytes = 0.0;
  for (std::size_t a = 0; a < nest.num_accesses(); ++a) {
    const std::int64_t elems =
        closed_form_footprint(nest.accesses()[a].access, block);
    ref.footprints.push_back(elems);
    const double bpe = bytes_per_element(dtype, nest, a);
    const double bytes = static_cast<double>(elems) * bpe;
    total_bytes += bytes;
    const double port_time_ns = bytes / device.bw_port_gbs;
    perf.mt_port_gops.push_back(eff_ops_per_block / port_time_ns);
    const double buffer_bytes =
        2.0 * static_cast<double>(round_up_pow2(elems)) * bpe;
    ref.bram_blocks += static_cast<std::int64_t>(std::ceil(
                           buffer_bytes /
                           static_cast<double>(device.bram_bytes()))) +
                       device.bram_const_per_buffer;
  }
  ref.bram_blocks += static_cast<std::int64_t>(std::ceil(
      device.bram_per_pe * static_cast<double>(design.shape().num_pes())));
  ref.block_bytes = total_bytes;
  const double total_time_ns = total_bytes / device.bw_total_gbs;
  perf.mt_total_gops = eff_ops_per_block / total_time_ns;
  perf.mt_gops = perf.mt_total_gops;
  for (const double port : perf.mt_port_gops) {
    perf.mt_gops = std::min(perf.mt_gops, port);
  }
  perf.throughput_gops = std::min(perf.pt_gops, perf.mt_gops);
  perf.memory_bound = perf.mt_gops < perf.pt_gops;
  perf.num_blocks = tiling.num_blocks(nest);
  perf.cycles_per_block = tiling.cycles_per_block();
  perf.fill_drain_cycles = design.shape().rows + design.shape().cols - 2;
  return ref;
}

/// Checks the evaluator and the public views against the reference for one
/// design, on both data types.
void expect_matches_reference(const LoopNest& nest, const DesignPoint& design,
                              const std::string& label) {
  const FpgaDevice device = arria10_gt1150();
  const double freq_mhz = 263.0;
  for (const DataType dtype : {DataType::kFloat32, DataType::kFixed8_16}) {
    const std::string where = label + " " + data_type_name(dtype);
    const Reference ref = reference_model(nest, design, device, dtype, freq_mhz);

    // The public views.
    const PerfEstimate perf =
        estimate_performance(nest, design, device, dtype, freq_mhz);
    EXPECT_EQ(perf.freq_mhz, ref.perf.freq_mhz) << where;
    EXPECT_EQ(perf.eff, ref.perf.eff) << where;
    EXPECT_EQ(perf.pt_gops, ref.perf.pt_gops) << where;
    EXPECT_EQ(perf.mt_total_gops, ref.perf.mt_total_gops) << where;
    EXPECT_EQ(perf.mt_port_gops, ref.perf.mt_port_gops) << where;
    EXPECT_EQ(perf.mt_gops, ref.perf.mt_gops) << where;
    EXPECT_EQ(perf.throughput_gops, ref.perf.throughput_gops) << where;
    EXPECT_EQ(perf.memory_bound, ref.perf.memory_bound) << where;
    EXPECT_EQ(perf.num_blocks, ref.perf.num_blocks) << where;
    EXPECT_EQ(perf.cycles_per_block, ref.perf.cycles_per_block) << where;
    EXPECT_EQ(perf.fill_drain_cycles, ref.perf.fill_drain_cycles) << where;
    EXPECT_EQ(bram_usage_blocks(nest, design, device, dtype), ref.bram_blocks)
        << where;
    const ResourceUsage usage = model_resources(nest, design, device, dtype);
    EXPECT_EQ(usage.bram_blocks, ref.bram_blocks) << where;
    ASSERT_EQ(usage.buffers.size(), nest.num_accesses()) << where;
    for (std::size_t a = 0; a < nest.num_accesses(); ++a) {
      EXPECT_EQ(usage.buffers[a].footprint_elems, ref.footprints[a]) << where;
    }

    // The evaluator on precomputed constants, as the stage-2 leaf calls it.
    const LayerConstants constants(nest, dtype);
    const TilingSpec& tiling = design.tiling();
    const std::vector<std::int64_t> block = tiling.block_trips();
    std::vector<std::int64_t> fp(constants.num_accesses());
    constants.footprints(block.data(), fp.data());
    EXPECT_EQ(fp, ref.footprints) << where;
    const double eff = efficiency_for_inner(nest, tiling.inner_bounds());
    EXPECT_EQ(eff, ref.perf.eff) << where;
    const double pt = pt_gops(eff, design.num_lanes(), freq_mhz);
    std::vector<double> ports(constants.num_accesses());
    const LayerEval eval = evaluate_layer_rates(
        constants.num_accesses(), constants.terms(fp.data()), eff, pt,
        tiling.macs_per_block(), device, ports.data());
    EXPECT_EQ(eval.pt_gops, ref.perf.pt_gops) << where;
    EXPECT_EQ(eval.mt_total_gops, ref.perf.mt_total_gops) << where;
    EXPECT_EQ(ports, ref.perf.mt_port_gops) << where;
    EXPECT_EQ(eval.mt_gops, ref.perf.mt_gops) << where;
    EXPECT_EQ(eval.throughput_gops, ref.perf.throughput_gops) << where;
    EXPECT_EQ(eval.block_bytes, ref.block_bytes) << where;
    EXPECT_EQ(evaluate_layer_bram(constants.num_accesses(),
                                  constants.terms(fp.data()),
                                  design.shape().num_pes(), device),
              ref.bram_blocks)
        << where;
    EXPECT_EQ(constants.num_blocks(block.data()), ref.perf.num_blocks) << where;
  }
}

class LayerEvalRandomized : public ::testing::TestWithParam<int> {};

TEST_P(LayerEvalRandomized, MatchesReferenceBitForBit) {
  // The randomized tilings of the property sweep (same seeds, same draws).
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 7919 + 13);
  const RandomDesign drawn = random_design(rng);
  expect_matches_reference(drawn.nest, drawn.design,
                           drawn.design.to_string(drawn.nest));
}

INSTANTIATE_TEST_SUITE_P(Seeds, LayerEvalRandomized, ::testing::Range(0, 24));

TEST(LayerEval, MatchesReferenceOnStridedAndGroupedLayers) {
  // AlexNet's conv1 (stride 4) and conv2 (2 groups) under one design.
  for (const ConvLayerDesc& layer :
       {make_conv("conv1", 3, 96, 55, 11, 4), make_conv("conv2", 48, 128, 27, 5, 1, 2)}) {
    const LoopNest nest = build_conv_nest(layer);
    const DesignPoint design(
        nest, SystolicMapping{ConvLoops::kO, ConvLoops::kC, ConvLoops::kI},
        ArrayShape{8, 11, 3}, {2, 4, 3, 1, 5, 2});
    expect_matches_reference(nest, design, layer.name);
  }
}

TEST(LayerEval, MatchesReferenceOnSignedAccesses) {
  // The signed and constant-offset accesses of
  // TilingSpec.FootprintMatchesClosedFormOnSignedAccesses, read as an
  // operand of a three-loop MAC nest.
  AffineExpr flipped(3);
  flipped.set_coeff(0, -2).set_coeff(1, 1).set_constant(5);
  AffineExpr strided(3);
  strided.set_coeff(2, 3).set_constant(-1);
  LoopNest nest;
  nest.add_loop("i", 12);
  nest.add_loop("j", 9);
  nest.add_loop("k", 8);
  nest.add_access(ArrayAccess{AccessFunction{"A", {flipped, strided}},
                              AccessRole::kRead});
  nest.add_access(ArrayAccess{
      AccessFunction{"W", {AffineExpr::term(3, 2, 1, 2), AffineExpr::term(3, 1)}},
      AccessRole::kRead});
  nest.add_access(ArrayAccess{
      AccessFunction{"O", {AffineExpr::term(3, 0), AffineExpr::term(3, 1)}},
      AccessRole::kReduce});
  const DesignPoint design(nest, SystolicMapping{0, 1, 2}, ArrayShape{2, 5, 1},
                           {3, 2, 4});
  EXPECT_EQ(design.tiling().footprint_elems(nest.accesses()[0].access),
            20 * 10);
  expect_matches_reference(nest, design, "signed");
}

}  // namespace
}  // namespace sasynth
