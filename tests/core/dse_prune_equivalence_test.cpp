// Differential proof-by-test for the branch-and-bound phase-1 sweep: the
// pruned search must return the exhaustive sweep's top-K bit for bit —
// designs, order, and every estimate field — at any worker count. The
// unified stage-2 search gets the same treatment: its incumbent rule must
// leave every candidate of the list bit-identical to the unbounded DFS. The
// default run covers a calibrated layer subset that keeps tier-1 fast; set
// SASYNTH_PRUNE_EQUIV_FULL=1 to sweep every deduplicated layer of every
// bundled network (the CI prune-equivalence job does), and
// SASYNTH_PRUNE_REPORT=<path> to dump the per-rule prune counters as JSON.
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <set>
#include <string>
#include <vector>

#include "core/dse.h"
#include "core/lean_batch.h"
#include "core/perf_model.h"
#include "core/unified.h"
#include "loopnest/conv_nest.h"
#include "nn/network.h"
#include "obs/metrics.h"

namespace sasynth {
namespace {

std::vector<DseCandidate> run_phase1(const LoopNest& nest, bool prune,
                                     int jobs, DseStats* stats) {
  DseOptions options;
  options.jobs = jobs;
  options.bound_prune = prune;
  const DesignSpaceExplorer explorer(arria10_gt1150(), DataType::kFloat32,
                                     options);
  return explorer.enumerate_phase1(nest, stats);
}

/// Top-K comparison at full bit precision. The exhaustive list bounds K:
/// pruning may drop or understate everything below the floor, never the
/// head of the list.
void expect_topk_identical(const std::vector<DseCandidate>& exhaustive,
                           const std::vector<DseCandidate>& pruned,
                           std::size_t top_k, const std::string& label) {
  const std::size_t k =
      std::min(top_k, std::min(exhaustive.size(), pruned.size()));
  ASSERT_GE(pruned.size(), std::min(top_k, exhaustive.size())) << label;
  for (std::size_t i = 0; i < k; ++i) {
    const DseCandidate& want = exhaustive[i];
    const DseCandidate& got = pruned[i];
    EXPECT_EQ(want.design, got.design) << label << " rank " << i;
    EXPECT_EQ(want.estimate.throughput_gops, got.estimate.throughput_gops)
        << label << " rank " << i;
    EXPECT_EQ(want.estimate.pt_gops, got.estimate.pt_gops)
        << label << " rank " << i;
    EXPECT_EQ(want.estimate.mt_gops, got.estimate.mt_gops)
        << label << " rank " << i;
    EXPECT_EQ(want.estimate.eff, got.estimate.eff) << label << " rank " << i;
    EXPECT_EQ(want.resources.bram_blocks, got.resources.bram_blocks)
        << label << " rank " << i;
  }
}

/// Stage 1+2 of the unified selection on arria10_gt1150 at fp32, with the
/// stage-2 incumbent rule armed (`prune`) or not; `max_bram_util <= 0`
/// keeps the default budget.
std::vector<UnifiedCandidate> run_unified(const Network& net, bool prune,
                                          int jobs, double max_bram_util,
                                          double freq_mhz) {
  UnifiedOptions options;
  options.dse.bound_prune = prune;
  if (max_bram_util > 0.0) options.dse.max_bram_util = max_bram_util;
  options.dse.assumed_freq_mhz = freq_mhz;
  options.jobs = jobs;
  return enumerate_unified_candidates(net, arria10_gt1150(),
                                      DataType::kFloat32, options);
}

/// Every entry of the list, not just its head: exact ties straddle the
/// callers' top_k cut, so which of them survive depends on the whole list.
void expect_unified_identical(const std::vector<UnifiedCandidate>& unbounded,
                              const std::vector<UnifiedCandidate>& pruned,
                              const std::string& label) {
  ASSERT_EQ(unbounded.size(), pruned.size()) << label;
  for (std::size_t i = 0; i < unbounded.size(); ++i) {
    EXPECT_EQ(unbounded[i].design, pruned[i].design) << label << " entry " << i;
    EXPECT_EQ(unbounded[i].est_gops, pruned[i].est_gops)
        << label << " entry " << i;
    EXPECT_EQ(unbounded[i].dram_traffic_bytes, pruned[i].dram_traffic_bytes)
        << label << " entry " << i;
    EXPECT_EQ(unbounded[i].max_bram, pruned[i].max_bram)
        << label << " entry " << i;
  }
}

/// Deduplicated layer list (repeated inception branches collapse).
std::vector<ConvLayerDesc> unique_layers(const Network& net) {
  std::vector<ConvLayerDesc> out;
  std::set<std::string> seen;
  for (const ConvLayerDesc& layer : net.layers) {
    const std::string key = std::to_string(layer.in_maps) + "," +
                            std::to_string(layer.out_maps) + "," +
                            std::to_string(layer.out_rows) + "," +
                            std::to_string(layer.out_cols) + "," +
                            std::to_string(layer.kernel) + "," +
                            std::to_string(layer.stride) + "," +
                            std::to_string(layer.groups);
    if (seen.insert(key).second) out.push_back(layer);
  }
  return out;
}

TEST(DsePruneEquivalenceTest, TopKIdenticalOnAlexNetTail) {
  // conv4 and conv5 at the paper's c_s = 0.80, serial and parallel. These
  // are the layers where the floor prunes >97% of the work items, so any
  // admissibility bug (a floor above the true K-th best) shows up here
  // first.
  const Network net = make_alexnet();
  for (const char* name : {"conv4", "conv5"}) {
    const ConvLayerDesc* layer = net.find_layer(name);
    ASSERT_NE(layer, nullptr) << name;
    const LoopNest nest = build_conv_nest(*layer);
    DseStats ex_stats;
    const std::vector<DseCandidate> exhaustive =
        run_phase1(nest, /*prune=*/false, /*jobs=*/1, &ex_stats);
    ASSERT_FALSE(exhaustive.empty()) << name;
    for (const int jobs : {1, 4}) {
      DseStats pr_stats;
      const std::vector<DseCandidate> pruned =
          run_phase1(nest, /*prune=*/true, jobs, &pr_stats);
      expect_topk_identical(exhaustive, pruned, 14,
                            std::string(name) + " jobs=" +
                                std::to_string(jobs));
      EXPECT_GT(pr_stats.items_pruned_bound, 0) << name;
      // The prune must pay for itself in model evaluations, not just time.
      EXPECT_LT(pr_stats.reuse_evaluated + pr_stats.reuse_bound_evals,
                ex_stats.reuse_evaluated)
          << name;
    }
  }
}

TEST(DsePruneEquivalenceTest, SeedWalkFormsFloorPastInfeasibleHead) {
  // AlexNet conv2: the highest-bound work items are all rejected (BRAM or
  // soft logic), so a seed pass that stopped after top_k ranks would gather
  // no contributions and never form a floor. The walk must continue down
  // the bound order until K items produced accepted candidates.
  const Network net = make_alexnet();
  const ConvLayerDesc* conv2 = net.find_layer("conv2");
  ASSERT_NE(conv2, nullptr);
  const LoopNest nest = build_conv_nest(*conv2);
  DseStats stats;
  const std::vector<DseCandidate> pruned =
      run_phase1(nest, /*prune=*/true, /*jobs=*/1, &stats);
  ASSERT_FALSE(pruned.empty());
  EXPECT_GT(stats.bound_seed_evaluated, 14);
  EXPECT_GT(stats.items_pruned_bound, 0);
}

TEST(DsePruneEquivalenceTest, TopKIdenticalOnThreeChannelFirstLayer) {
  // VGG-16 conv1_1: with three input channels most shapes that reach the
  // Eq. 12 floor are wide, PE-heavy arrays that overflow the device's soft
  // logic, so the shape check rejects them before their reuse DFS; the
  // rest run long DFS walks where the incumbent rule skips subtrees. Both
  // rules must leave the top-K bit-identical to the exhaustive sweep
  // (`bound_prune 0`, run at jobs 4 to keep the suite fast).
  const LoopNest nest = build_conv_nest(make_conv("conv1_1", 3, 64, 224, 3));
  DseStats ex_stats;
  const std::vector<DseCandidate> exhaustive =
      run_phase1(nest, /*prune=*/false, /*jobs=*/4, &ex_stats);
  ASSERT_FALSE(exhaustive.empty());
  EXPECT_EQ(ex_stats.reuse_incumbent_pruned, 0);
  for (const int jobs : {1, 2, 4}) {
    const std::string label = "conv1_1 jobs=" + std::to_string(jobs);
    DseStats pr_stats;
    const std::vector<DseCandidate> pruned =
        run_phase1(nest, /*prune=*/true, jobs, &pr_stats);
    expect_topk_identical(exhaustive, pruned, 14, label);
    EXPECT_GT(pr_stats.reuse_incumbent_pruned, 0) << label;
    EXPECT_GT(pr_stats.soft_logic_rejected, 0) << label;
    EXPECT_LT(pr_stats.reuse_evaluated + pr_stats.reuse_bound_evals,
              ex_stats.reuse_evaluated)
        << label;
  }
}

TEST(DsePruneEquivalenceTest, SoftLogicShapeCheckRunsBeforeTheDfs) {
  // A device whose LUTs cannot hold the I/O shell fails every shape on soft
  // logic. Each work item is then rejected by its shape alone: no reuse
  // strategy is evaluated, and every item counts one soft-logic rejection.
  FpgaDevice device = arria10_gt1150();
  device.logic_cells = 50000;
  const LoopNest nest = build_conv_nest(alexnet_conv5());
  for (const bool prune : {true, false}) {
    DseOptions options;
    options.jobs = 1;
    options.bound_prune = prune;
    DseStats stats;
    const std::vector<DseCandidate> candidates =
        DesignSpaceExplorer(device, DataType::kFloat32, options)
            .enumerate_phase1(nest, &stats);
    EXPECT_TRUE(candidates.empty()) << "prune=" << prune;
    EXPECT_GT(stats.work_items, 0) << "prune=" << prune;
    EXPECT_EQ(stats.reuse_evaluated, 0) << "prune=" << prune;
    EXPECT_EQ(stats.soft_logic_rejected, stats.work_items)
        << "prune=" << prune;
  }
}

TEST(DsePruneEquivalenceTest, BatchBoundMatchesScalarModelBitExact) {
  // The three PT expressions — the SoA kernel, the scalar bound helper, and
  // estimate_performance's Eq. 8 — must agree to the last bit; the
  // branch-and-bound comparison against the floor is exact only because
  // they do.
  const LoopNest nest = build_conv_nest(alexnet_conv5());
  DseOptions options;
  options.min_dsp_util = 0.90;
  options.jobs = 1;
  const DesignSpaceExplorer explorer(arria10_gt1150(), DataType::kFloat32,
                                     options);
  const std::vector<DseCandidate> candidates =
      explorer.enumerate_phase1(nest, nullptr);
  ASSERT_FALSE(candidates.empty());

  ShapeBatch batch;
  batch.resize(candidates.size());
  std::vector<std::int64_t> inner(nest.num_loops(), 1);
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    const DesignPoint& design = candidates[i].design;
    std::fill(inner.begin(), inner.end(), 1);
    inner[design.mapping().row_loop] = design.shape().rows;
    inner[design.mapping().col_loop] = design.shape().cols;
    inner[design.mapping().vec_loop] = design.shape().vec;
    batch.lanes[i] = static_cast<double>(design.num_lanes());
    batch.executed[i] =
        static_cast<double>(executed_iterations_for_inner(nest, inner));
  }
  const double freq_mhz = options.assumed_freq_mhz;
  batch_pt_bounds(batch, static_cast<double>(nest.total_iterations()),
                  freq_mhz * 1e-3);
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    const DesignPoint& design = candidates[i].design;
    std::fill(inner.begin(), inner.end(), 1);
    inner[design.mapping().row_loop] = design.shape().rows;
    inner[design.mapping().col_loop] = design.shape().cols;
    inner[design.mapping().vec_loop] = design.shape().vec;
    const double scalar =
        phase1_pt_bound_gops(nest, inner, design.num_lanes(), freq_mhz);
    EXPECT_EQ(batch.pt_gops[i], scalar) << "item " << i;
    EXPECT_EQ(scalar, candidates[i].estimate.pt_gops) << "item " << i;
  }
}

TEST(DsePruneEquivalenceTest, UnifiedCandidatesIdenticalToUnboundedSearch) {
  // AlexNet under the cold-deploy budget (max_bram_util 0.04, 363 MHz: four
  // mapping twins tie exactly at sort positions 13-16, across the top_k
  // cut) and at the default budget, serial and parallel. The incumbent rule
  // must leave every entry's design and floats bit-identical to the
  // unbounded stage-2 DFS (`bound_prune 0`), and it must fire.
  obs::set_metrics_enabled(true);
  obs::MetricsRegistry& registry = obs::MetricsRegistry::global();
  obs::Counter& skips = registry.counter("unified_incumbent_pruned_total");
  obs::Counter& leaves = registry.counter("unified_leaves_total");
  const Network net = make_alexnet();
  struct Budget {
    const char* label;
    double max_bram_util;
    double freq_mhz;
  };
  for (const Budget& budget :
       {Budget{"bram 0.04 @363", 0.04, 363.0}, Budget{"default", 0.0, 280.0}}) {
    const std::int64_t oracle_leaves0 = leaves.value();
    const std::vector<UnifiedCandidate> unbounded = run_unified(
        net, /*prune=*/false, /*jobs=*/3, budget.max_bram_util, budget.freq_mhz);
    const std::int64_t oracle_leaves = leaves.value() - oracle_leaves0;
    ASSERT_FALSE(unbounded.empty()) << budget.label;
    for (const int jobs : {1, 3}) {
      const std::string label =
          std::string(budget.label) + " jobs=" + std::to_string(jobs);
      const std::int64_t skips0 = skips.value();
      const std::int64_t leaves0 = leaves.value();
      const std::vector<UnifiedCandidate> pruned = run_unified(
          net, /*prune=*/true, jobs, budget.max_bram_util, budget.freq_mhz);
      expect_unified_identical(unbounded, pruned, label);
      EXPECT_GT(skips.value() - skips0, 0) << label;
      EXPECT_LT(leaves.value() - leaves0, oracle_leaves) << label;
    }
  }
}

/// Runs the unified search with and without the stage-2 incumbent rule at
/// the default budget, expects identical lists, and returns the leaf and
/// rule counts as JSON fields.
std::string unified_differential(const Network& net, const std::string& label) {
  obs::set_metrics_enabled(true);
  obs::MetricsRegistry& registry = obs::MetricsRegistry::global();
  obs::Counter& leaves = registry.counter("unified_leaves_total");
  obs::Counter& skips = registry.counter("unified_incumbent_pruned_total");
  obs::Counter& bound_evals = registry.counter("unified_bound_evals_total");
  const std::int64_t leaves0 = leaves.value();
  const std::vector<UnifiedCandidate> unbounded =
      run_unified(net, /*prune=*/false, /*jobs=*/0, 0.0, 280.0);
  const std::int64_t leaves_unbounded = leaves.value() - leaves0;
  const std::int64_t skips0 = skips.value();
  const std::int64_t evals0 = bound_evals.value();
  const std::vector<UnifiedCandidate> pruned =
      run_unified(net, /*prune=*/true, /*jobs=*/0, 0.0, 280.0);
  const std::int64_t leaves_pruned =
      leaves.value() - leaves0 - leaves_unbounded;
  expect_unified_identical(unbounded, pruned, label + "/unified");
  EXPECT_LT(leaves_pruned, leaves_unbounded) << label;
  return "\"unified_leaves_unbounded\": " + std::to_string(leaves_unbounded) +
         ", \"unified_leaves_pruned\": " + std::to_string(leaves_pruned) +
         ", \"unified_incumbent_pruned\": " +
         std::to_string(skips.value() - skips0) +
         ", \"unified_bound_evals\": " +
         std::to_string(bound_evals.value() - evals0);
}

TEST(DsePruneEquivalenceTest, FullNetworkSweepWhenRequested) {
  // Exhaustive differential over every deduplicated layer of every bundled
  // network, plus the unified candidate lists of VGG-16, GoogLeNet and the
  // three-network mix. Minutes of work — opt-in via
  // SASYNTH_PRUNE_EQUIV_FULL=1 (the CI prune-equivalence job runs it under
  // ASan/UBSan).
  if (std::getenv("SASYNTH_PRUNE_EQUIV_FULL") == nullptr) {
    GTEST_SKIP() << "set SASYNTH_PRUNE_EQUIV_FULL=1 for the full sweep";
  }
  std::string report;
  for (const char* name : {"alexnet", "vgg16", "googlenet"}) {
    const Network net = std::string(name) == "alexnet" ? make_alexnet()
                        : std::string(name) == "vgg16" ? make_vgg16()
                                                       : make_googlenet();
    DseStats ex_total;
    DseStats pr_total;
    for (const ConvLayerDesc& layer : unique_layers(net)) {
      const LoopNest nest = build_conv_nest(layer);
      const std::vector<DseCandidate> exhaustive =
          run_phase1(nest, /*prune=*/false, /*jobs=*/0, &ex_total);
      const std::vector<DseCandidate> pruned =
          run_phase1(nest, /*prune=*/true, /*jobs=*/0, &pr_total);
      expect_topk_identical(exhaustive, pruned, 14,
                            std::string(name) + "/" + layer.name);
    }
    report += std::string(report.empty() ? "" : ",\n") + "  \"" + name +
              "\": {\"reuse_evaluated_exhaustive\": " +
              std::to_string(ex_total.reuse_evaluated) +
              ", \"reuse_evaluated_pruned\": " +
              std::to_string(pr_total.reuse_evaluated) +
              ", \"items_pruned_bound\": " +
              std::to_string(pr_total.items_pruned_bound) +
              ", \"bound_seed_evaluated\": " +
              std::to_string(pr_total.bound_seed_evaluated) +
              ", \"reuse_subtrees_pruned\": " +
              std::to_string(pr_total.reuse_subtrees_pruned) +
              ", \"reuse_incumbent_pruned\": " +
              std::to_string(pr_total.reuse_incumbent_pruned) +
              ", \"reuse_bound_evals\": " +
              std::to_string(pr_total.reuse_bound_evals);
    // Pruning must never evaluate more reuse strategies than the
    // exhaustive sweep, even counting the corner-bound overhead.
    EXPECT_LT(pr_total.reuse_evaluated + pr_total.reuse_bound_evals,
              ex_total.reuse_evaluated)
        << name;
    // The whole network's unified candidate list against the unbounded
    // stage-2 DFS (AlexNet's list is covered in tier-1 above).
    if (std::string(name) != "alexnet") {
      report += ", " + unified_differential(net, name);
    }
    report += "}";
  }
  // The three-network mix a fleet deploy enumerates first.
  Network mix;
  for (const Network& net : {make_alexnet(), make_vgg16(), make_googlenet()}) {
    mix.layers.insert(mix.layers.end(), net.layers.begin(), net.layers.end());
  }
  report += ",\n  \"mix\": {" + unified_differential(mix, "mix") + "}";
  if (const char* path = std::getenv("SASYNTH_PRUNE_REPORT")) {
    std::ofstream out(path);
    out << "{\n" << report << "\n}\n";
  }
}

}  // namespace
}  // namespace sasynth
