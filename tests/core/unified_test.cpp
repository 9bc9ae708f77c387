#include "core/unified.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "loopnest/conv_nest.h"
#include "nn/network.h"
#include "support/metric_deltas.h"

namespace sasynth {
namespace {

UnifiedOptions fast_unified_options() {
  UnifiedOptions options;
  options.dse.assumed_freq_mhz = 280.0;
  options.dse.min_dsp_util = 0.5;
  options.dse.max_rows = 8;
  options.dse.max_cols = 8;
  options.dse.max_vec = 8;
  options.shape_shortlist = 12;
  return options;
}

TEST(EvaluateUnified, PerLayerAccounting) {
  const Network net = make_tiny_testnet();
  const LoopNest nest0 = build_conv_nest(net.layers[0]);
  const DesignPoint design(
      nest0, SystolicMapping{ConvLoops::kO, ConvLoops::kC, ConvLoops::kI},
      ArrayShape{4, 3, 4}, std::vector<std::int64_t>(6, 1));
  const UnifiedDesign result = evaluate_unified_design(
      net, design, tiny_test_device(), DataType::kFloat32, 250.0);
  ASSERT_TRUE(result.valid);
  ASSERT_EQ(result.per_layer.size(), net.layers.size());
  double sum_ms = 0.0;
  for (const LayerPerf& lp : result.per_layer) {
    EXPECT_GT(lp.latency_ms, 0.0);
    EXPECT_GT(lp.throughput_gops(), 0.0);
    EXPECT_GT(lp.eff(), 0.0);
    EXPECT_LE(lp.eff(), 1.0);
    sum_ms += lp.latency_ms;
  }
  EXPECT_NEAR(result.total_latency_ms, sum_ms, 1e-9);
  EXPECT_NEAR(result.aggregate_gops,
              static_cast<double>(net.total_ops()) /
                  (result.total_latency_ms * 1e-3) * 1e-9,
              1e-6);
}

TEST(EvaluateUnified, AggregateBelowBestLayer) {
  // Aggregate throughput is a weighted harmonic mean: it cannot exceed the
  // best per-layer throughput nor fall below the worst.
  const Network net = make_tiny_testnet();
  const LoopNest nest0 = build_conv_nest(net.layers[0]);
  const DesignPoint design(
      nest0, SystolicMapping{ConvLoops::kO, ConvLoops::kC, ConvLoops::kI},
      ArrayShape{4, 3, 4}, std::vector<std::int64_t>(6, 1));
  const UnifiedDesign result = evaluate_unified_design(
      net, design, tiny_test_device(), DataType::kFloat32, 250.0);
  double best = 0.0;
  double worst = 1e18;
  for (const LayerPerf& lp : result.per_layer) {
    best = std::max(best, lp.throughput_gops());
    worst = std::min(worst, lp.throughput_gops());
  }
  EXPECT_LE(result.aggregate_gops, best + 1e-9);
  EXPECT_GE(result.aggregate_gops, worst - 1e-9);
}

TEST(SelectUnified, TinyNetworkFindsValidDesign) {
  const Network net = make_tiny_testnet();
  const UnifiedDesign result = select_unified_design(
      net, tiny_test_device(), DataType::kFloat32, fast_unified_options());
  ASSERT_TRUE(result.valid);
  EXPECT_GT(result.aggregate_gops, 0.0);
  EXPECT_GT(result.realized_freq_mhz, 0.0);
  EXPECT_EQ(result.per_layer.size(), net.layers.size());
  EXPECT_LE(result.resources.bram_blocks, tiny_test_device().bram_blocks);
}

TEST(SelectUnified, JobsSweepSelectsIdenticalDesign) {
  // The shortlist scoring and per-entry reuse searches fan out across a
  // thread pool; the selected design must not depend on the worker count.
  const Network net = make_tiny_testnet();
  UnifiedOptions options = fast_unified_options();
  options.jobs = 1;
  const UnifiedDesign serial = select_unified_design(
      net, tiny_test_device(), DataType::kFloat32, options);
  ASSERT_TRUE(serial.valid);
  for (const int jobs : {2, 8}) {
    options.jobs = jobs;
    const UnifiedDesign parallel = select_unified_design(
        net, tiny_test_device(), DataType::kFloat32, options);
    ASSERT_TRUE(parallel.valid) << "jobs=" << jobs;
    EXPECT_EQ(parallel.design, serial.design) << "jobs=" << jobs;
    EXPECT_EQ(parallel.realized_freq_mhz, serial.realized_freq_mhz);
    EXPECT_EQ(parallel.aggregate_gops, serial.aggregate_gops);
    EXPECT_EQ(parallel.total_latency_ms, serial.total_latency_ms);
  }
}

TEST(SelectUnified, BeatsNaiveTinyDesign) {
  // The selected design must be at least as good as an arbitrary small
  // hand-picked one under the same evaluation.
  const Network net = make_tiny_testnet();
  const FpgaDevice device = tiny_test_device();
  const UnifiedDesign chosen = select_unified_design(
      net, device, DataType::kFloat32, fast_unified_options());
  ASSERT_TRUE(chosen.valid);

  const LoopNest nest0 = build_conv_nest(net.layers[0]);
  const DesignPoint naive(
      nest0, SystolicMapping{ConvLoops::kO, ConvLoops::kC, ConvLoops::kI},
      ArrayShape{2, 2, 2}, std::vector<std::int64_t>(6, 1));
  const UnifiedDesign naive_eval = evaluate_unified_design(
      net, naive, device, DataType::kFloat32, chosen.realized_freq_mhz);
  EXPECT_GE(chosen.aggregate_gops, naive_eval.aggregate_gops * 0.99);
}

TEST(SelectUnified, FixedPointOutperformsFloatOnTinyNet) {
  // Fixed mode doubles the MAC yield per DSP block; the selected fixed
  // design must beat the float one on the same network and device.
  const Network net = make_tiny_testnet();
  const FpgaDevice device = tiny_test_device();
  const UnifiedDesign fp = select_unified_design(
      net, device, DataType::kFloat32, fast_unified_options());
  const UnifiedDesign fx = select_unified_design(
      net, device, DataType::kFixed8_16, fast_unified_options());
  ASSERT_TRUE(fp.valid);
  ASSERT_TRUE(fx.valid);
  EXPECT_GT(fx.aggregate_gops, fp.aggregate_gops);
}

TEST(SelectUnified, EmptyNetworkInvalid) {
  Network empty;
  empty.name = "empty";
  const UnifiedDesign result = select_unified_design(
      empty, tiny_test_device(), DataType::kFloat32, fast_unified_options());
  EXPECT_FALSE(result.valid);
}

TEST(SelectUnified, CountersIncludeSearchesThatFindNothing) {
  // A BRAM budget below every design's buffers: stage 1 scores every pair
  // and stage 2 searches every shortlist entry, yet no candidate survives.
  // That work is counted like any other search's.
  const Network net = make_tiny_testnet();
  UnifiedOptions options = fast_unified_options();
  options.dse.max_bram_util = 1e-6;
  const MetricDeltas search;
  EXPECT_TRUE(enumerate_unified_candidates(net, tiny_test_device(),
                                           DataType::kFloat32, options)
                  .empty());
  const std::int64_t pairs = search("unified_pairs_total");
  EXPECT_GT(pairs, 0);
  EXPECT_GT(search("unified_shortlist_total"), 0);

  const MetricDeltas select;
  EXPECT_FALSE(select_unified_design(net, tiny_test_device(),
                                     DataType::kFloat32, options)
                   .valid);
  EXPECT_EQ(select("unified_runs_total"), 1);
  EXPECT_EQ(select("unified_pairs_total"), pairs);
}

TEST(UnifiedCandidates, EstimatesMatchThePublicModels) {
  // Every candidate is recomputed through the public views: its est_gops is
  // evaluate_unified_design's aggregate at the assumed clock, its max_bram
  // the largest bram_usage_blocks over the layers, and its traffic
  // sum_i sum_r DA_r*bpe_r * blocks_i * groups_i. AlexNet brings a strided
  // layer (conv1) and grouped ones (conv2, conv4, conv5).
  const Network net = make_alexnet();
  std::vector<LoopNest> nests;
  for (const ConvLayerDesc& layer : net.layers) {
    nests.push_back(build_conv_nest(layer));
  }
  const FpgaDevice device = arria10_gt1150();
  struct Budget {
    const char* label;
    double max_bram_util;  ///< <= 0 keeps the default budget
    double freq_mhz;
    DataType dtype;
  };
  for (const Budget& budget :
       {Budget{"bram 0.04 @329", 0.04, 329.0, DataType::kFloat32},
        Budget{"default", 0.0, 280.0, DataType::kFloat32},
        Budget{"fixed8_16", 0.0, 280.0, DataType::kFixed8_16}}) {
    UnifiedOptions options;
    options.dse.assumed_freq_mhz = budget.freq_mhz;
    if (budget.max_bram_util > 0.0) {
      options.dse.max_bram_util = budget.max_bram_util;
    }
    const std::vector<UnifiedCandidate> candidates =
        enumerate_unified_candidates(net, device, budget.dtype, options);
    ASSERT_FALSE(candidates.empty()) << budget.label;
    for (std::size_t c = 0; c < candidates.size(); ++c) {
      const UnifiedCandidate& cand = candidates[c];
      const TilingSpec& tiling = cand.design.tiling();
      const UnifiedDesign eval = evaluate_unified_design(
          net, cand.design, device, budget.dtype, budget.freq_mhz);
      EXPECT_EQ(cand.est_gops, eval.aggregate_gops)
          << budget.label << " entry " << c;
      std::int64_t max_bram = 0;
      double traffic = 0.0;
      for (std::size_t i = 0; i < nests.size(); ++i) {
        max_bram = std::max(max_bram, bram_usage_blocks(nests[i], cand.design,
                                                        device, budget.dtype));
        double block_bytes = 0.0;
        for (std::size_t a = 0; a < nests[i].num_accesses(); ++a) {
          block_bytes +=
              static_cast<double>(
                  tiling.footprint_elems(nests[i].accesses()[a].access)) *
              bytes_per_element(budget.dtype, nests[i], a);
        }
        traffic += block_bytes *
                   static_cast<double>(tiling.num_blocks(nests[i])) *
                   static_cast<double>(net.layers[i].groups);
      }
      EXPECT_EQ(cand.max_bram, max_bram) << budget.label << " entry " << c;
      EXPECT_EQ(cand.dram_traffic_bytes, traffic)
          << budget.label << " entry " << c;
    }
  }
}

TEST(SelectUnified, SummaryListsLayers) {
  const Network net = make_tiny_testnet();
  const UnifiedDesign result = select_unified_design(
      net, tiny_test_device(), DataType::kFloat32, fast_unified_options());
  ASSERT_TRUE(result.valid);
  const std::string s = result.summary(net);
  EXPECT_NE(s.find("t1"), std::string::npos);
  EXPECT_NE(s.find("t3"), std::string::npos);
  EXPECT_NE(s.find("Gops"), std::string::npos);
}

}  // namespace
}  // namespace sasynth
