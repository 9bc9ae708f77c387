// The layer evaluator against the model's formulas, bit for bit. The
// reference below is estimate_performance's and bram_usage_blocks's
// arithmetic as written before the evaluator existed, with
// closed_form_footprint over the block domain as the footprint reference.
// Both the evaluator on precomputed LayerConstants (the unified stage-2
// leaf's path) and the public views must reproduce it exactly. The search
// model LeanModel, which reads LayerConstants' Eq. 5 kernel, is pinned the
// same way against its own dense formula further down.
#include "core/layer_eval.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "core/lean_model.h"
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
    ASSERT_TRUE(constants.footprints(block.data(), fp.data())) << where;
    EXPECT_EQ(fp, ref.footprints) << where;
    for (std::size_t a = 0; a < nest.num_accesses(); ++a) {
      EXPECT_EQ(fp[a], tiling.footprint_elems(nest.accesses()[a].access))
          << where;
    }
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

    // LeanModel reads the same kernel, so its Eq. 6 integer is the public
    // model's, signed coefficients included.
    const LeanModel lean(nest, device, dtype, freq_mhz);
    EXPECT_EQ(lean.bram_only(block, design.shape().num_pes()), ref.bram_blocks)
        << where;
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

/// LeanModel as written before it read LayerConstants' Eq. 5 kernel: dense
/// coefficient rows, 1 + sum_l c_l * (b_l - 1) per dimension, a checked
/// product, then Eqs. 6-10 in LeanModel's operation order. On every nest
/// the searches see (all coefficients >= 0) the model must reproduce it
/// bit for bit.
class DenseLeanReference {
 public:
  DenseLeanReference(const LoopNest& nest, const FpgaDevice& device,
                     DataType dtype, double freq_mhz)
      : device_(device),
        freq_ghz_(freq_mhz * 1e-3),
        trips_(nest.trip_counts()),
        total_iters_(nest.total_iterations()) {
    for (std::size_t a = 0; a < nest.num_accesses(); ++a) {
      Access access;
      for (const AffineExpr& dim : nest.accesses()[a].access.indices) {
        std::vector<std::int64_t> coeffs(trips_.size());
        for (std::size_t l = 0; l < trips_.size(); ++l) {
          coeffs[l] = dim.coeff(l);
        }
        access.dims.push_back(std::move(coeffs));
      }
      access.bytes_per_elem = bytes_per_element(dtype, nest, a);
      accesses_.push_back(std::move(access));
    }
  }

  double efficiency(const std::vector<std::int64_t>& inner) const {
    double executed = 1.0;
    for (std::size_t l = 0; l < trips_.size(); ++l) {
      executed *= static_cast<double>(ceil_div(trips_[l], inner[l]) * inner[l]);
    }
    return static_cast<double>(total_iters_) / executed;
  }

  LeanModel::Eval evaluate(const std::vector<std::int64_t>& block, double eff,
                           std::int64_t lanes, std::int64_t num_pes) const {
    LeanModel::Eval out;
    out.eff = eff;
    double macs_per_block = 1.0;
    double num_blocks = 1.0;
    for (std::size_t l = 0; l < trips_.size(); ++l) {
      macs_per_block *= static_cast<double>(block[l]);
      num_blocks *= static_cast<double>(ceil_div(trips_[l], block[l]));
    }
    double total_bytes = 0.0;
    double min_port_gops = 1e300;
    const double eff_ops_per_block = out.eff * 2.0 * macs_per_block;
    std::int64_t bram = 0;
    for (const Access& access : accesses_) {
      std::int64_t footprint = 1;
      for (const std::vector<std::int64_t>& coeffs : access.dims) {
        std::int64_t range = 1;
        for (std::size_t l = 0; l < trips_.size(); ++l) {
          range += coeffs[l] * (block[l] - 1);
        }
        if (!checked_mul(footprint, range, &footprint)) {
          out.bram_blocks = std::numeric_limits<std::int64_t>::max();
          return out;
        }
      }
      const double bytes = 2.0 * static_cast<double>(round_up_pow2(footprint)) *
                           access.bytes_per_elem;
      bram += static_cast<std::int64_t>(std::ceil(
                  bytes / static_cast<double>(device_.bram_bytes()))) +
              device_.bram_const_per_buffer;
      const double stream_bytes =
          static_cast<double>(footprint) * access.bytes_per_elem;
      total_bytes += stream_bytes;
      min_port_gops =
          std::min(min_port_gops,
                   eff_ops_per_block * device_.bw_port_gbs / stream_bytes);
    }
    bram += static_cast<std::int64_t>(
        std::ceil(device_.bram_per_pe * static_cast<double>(num_pes)));
    out.bram_blocks = bram;
    out.pt_gops = out.eff * static_cast<double>(lanes) * 2.0 * freq_ghz_;
    out.mt_gops =
        std::min(eff_ops_per_block * device_.bw_total_gbs / total_bytes,
                 min_port_gops);
    out.throughput_gops = std::min(out.pt_gops, out.mt_gops);
    out.dram_traffic_bytes = num_blocks * total_bytes;
    return out;
  }

 private:
  struct Access {
    std::vector<std::vector<std::int64_t>> dims;  ///< coeff per (dim, loop)
    double bytes_per_elem = 0.0;
  };

  const FpgaDevice& device_;
  double freq_ghz_;
  std::vector<std::int64_t> trips_;
  std::int64_t total_iters_;
  std::vector<Access> accesses_;
};

void expect_evals_equal(const LeanModel::Eval& got,
                        const LeanModel::Eval& want, const std::string& where) {
  EXPECT_EQ(got.eff, want.eff) << where;
  EXPECT_EQ(got.bram_blocks, want.bram_blocks) << where;
  EXPECT_EQ(got.pt_gops, want.pt_gops) << where;
  EXPECT_EQ(got.mt_gops, want.mt_gops) << where;
  EXPECT_EQ(got.throughput_gops, want.throughput_gops) << where;
  EXPECT_EQ(got.dram_traffic_bytes, want.dram_traffic_bytes) << where;
}

TEST(LeanModelPin, MatchesDenseReferenceOnRandomConvNests) {
  const FpgaDevice device = arria10_gt1150();
  constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
  Rng rng(20261020);
  for (int trial = 0; trial < 40; ++trial) {
    const ConvLayerDesc layer = make_conv(
        "rand", rng.next_range(1, 48), rng.next_range(1, 48),
        rng.next_range(1, 28), rng.next_range(1, 4) * 2 - 1,
        rng.next_range(1, 4), rng.next_range(1, 3));
    const LoopNest nest = build_conv_nest(layer);
    const std::size_t n = nest.num_loops();
    for (const DataType dtype : {DataType::kFloat32, DataType::kFixed8_16}) {
      const std::string label = layer.summary() + " " + data_type_name(dtype);
      const double freq_mhz = rng.next_double(150.0, 400.0);
      const LeanModel model(nest, device, dtype, freq_mhz);
      const DenseLeanReference ref(nest, device, dtype, freq_mhz);
      std::vector<std::int64_t> inner(n);
      std::vector<std::int64_t> block(n);
      for (int draw = 0; draw < 16; ++draw) {
        const std::string where = label + " draw " + std::to_string(draw);
        std::int64_t lanes = 1;
        for (std::size_t l = 0; l < n; ++l) {
          const std::int64_t trip = nest.loop(l).trip;
          inner[l] = rng.next_range(1, std::min<std::int64_t>(trip, 8));
          block[l] = inner[l] * rng.next_range(1, ceil_div(trip, inner[l]) + 1);
          lanes *= inner[l];
        }
        const std::int64_t num_pes = rng.next_range(1, 512);
        const double eff = model.efficiency(inner);
        EXPECT_EQ(eff, ref.efficiency(inner)) << where;

        const LeanModel::Eval full = model.evaluate(block, eff, lanes, num_pes);
        expect_evals_equal(full, ref.evaluate(block, eff, lanes, num_pes),
                           where);
        ASSERT_NE(full.bram_blocks, kMax) << where;
        const LeanModel::Eval rate = model.rate(block, eff, lanes);
        EXPECT_EQ(rate.eff, full.eff) << where;
        EXPECT_EQ(rate.pt_gops, full.pt_gops) << where;
        EXPECT_EQ(rate.mt_gops, full.mt_gops) << where;
        EXPECT_EQ(rate.throughput_gops, full.throughput_gops) << where;
        EXPECT_EQ(rate.bram_blocks, 0) << where;
        EXPECT_EQ(model.bram_only(block, num_pes), full.bram_blocks) << where;
      }

      // A block whose footprint overflows int64 returns the sentinel on
      // every path, with every rate 0, as the dense formula did.
      const std::vector<std::int64_t> huge(n, std::int64_t{1} << 40);
      const LeanModel::Eval over = model.evaluate(huge, 0.5, 8, 4);
      EXPECT_EQ(over.bram_blocks, kMax) << label;
      EXPECT_EQ(over.throughput_gops, 0.0) << label;
      expect_evals_equal(over, ref.evaluate(huge, 0.5, 8, 4), label);
      EXPECT_EQ(model.rate(huge, 0.5, 8).bram_blocks, kMax) << label;
      EXPECT_EQ(model.bram_only(huge, 4), kMax) << label;
      std::int64_t fp = 0;
      EXPECT_FALSE(model.layer().footprint(0, huge.data(), &fp)) << label;
    }
  }
}

}  // namespace
}  // namespace sasynth
