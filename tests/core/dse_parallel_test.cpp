// Regression coverage for the thread-pooled phase-1 sweep: the parallel
// explorer must be bit-identical to the serial one at any worker count
// (designs, order, estimates, and stat counters), and the auto-relax path
// must record what it did.
#include <gtest/gtest.h>

#include "core/dse.h"
#include "loopnest/conv_nest.h"
#include "nn/network.h"

namespace sasynth {
namespace {

void expect_counters_equal(const DseStats& a, const DseStats& b,
                           const char* label) {
  EXPECT_EQ(a.mappings_candidates, b.mappings_candidates) << label;
  EXPECT_EQ(a.mappings_feasible, b.mappings_feasible) << label;
  EXPECT_EQ(a.shapes_considered, b.shapes_considered) << label;
  EXPECT_EQ(a.shapes_after_prune, b.shapes_after_prune) << label;
  EXPECT_EQ(a.reuse_evaluated, b.reuse_evaluated) << label;
  EXPECT_EQ(a.reuse_space_pow2, b.reuse_space_pow2) << label;
  EXPECT_EQ(a.reuse_space_bruteforce, b.reuse_space_bruteforce) << label;
  EXPECT_EQ(a.work_items, b.work_items) << label;
  EXPECT_EQ(a.util_relaxations, b.util_relaxations) << label;
  EXPECT_DOUBLE_EQ(a.effective_min_dsp_util, b.effective_min_dsp_util)
      << label;
}

TEST(DseParallelTest, JobsSweepIsBitIdentical) {
  // AlexNet conv5 on Arria 10 — the paper's own phase-1 workload. jobs=1 is
  // the serial reference; 2 and 8 must reproduce it exactly (including with
  // more workers than this machine has cores).
  const LoopNest nest = build_conv_nest(alexnet_conv5());
  DseOptions options;
  options.min_dsp_util = 0.80;
  options.jobs = 1;
  const DesignSpaceExplorer serial(arria10_gt1150(), DataType::kFloat32,
                                   options);
  const DseResult reference = serial.explore(nest);
  ASSERT_FALSE(reference.empty());
  EXPECT_EQ(reference.stats.jobs_used, 1);
  EXPECT_GT(reference.stats.work_items, 0);
  EXPECT_GT(reference.stats.phase1_cpu_seconds, 0.0);

  for (const int jobs : {2, 8}) {
    options.jobs = jobs;
    const DesignSpaceExplorer parallel(arria10_gt1150(), DataType::kFloat32,
                                       options);
    const DseResult result = parallel.explore(nest);
    EXPECT_EQ(result.stats.jobs_used, jobs);
    ASSERT_EQ(result.top.size(), reference.top.size()) << "jobs=" << jobs;
    for (std::size_t i = 0; i < result.top.size(); ++i) {
      const DseCandidate& got = result.top[i];
      const DseCandidate& want = reference.top[i];
      EXPECT_EQ(got.design, want.design) << "jobs=" << jobs << " rank " << i;
      // Bitwise-equal estimates: same work items evaluated through the same
      // arithmetic, merged in the same order.
      EXPECT_EQ(got.estimate.throughput_gops, want.estimate.throughput_gops);
      EXPECT_EQ(got.estimate.eff, want.estimate.eff);
      EXPECT_EQ(got.resources.bram_blocks, want.resources.bram_blocks);
      EXPECT_EQ(got.realized_freq_mhz, want.realized_freq_mhz);
      EXPECT_EQ(got.realized.throughput_gops, want.realized.throughput_gops);
    }
    expect_counters_equal(result.stats, reference.stats,
                          jobs == 2 ? "jobs=2" : "jobs=8");
  }
}

TEST(DseParallelTest, Phase1FullDumpIdenticalAcrossJobs) {
  // The Fig. 7(a)-style full phase-1 dump (no top-K cut) must match too —
  // the merge covers every candidate, not just the head of the list.
  const LoopNest nest = build_conv_nest(alexnet_conv5());
  DseOptions options;
  options.min_dsp_util = 0.90;  // keep the dump small
  options.jobs = 1;
  DseStats stats1;
  const DesignSpaceExplorer serial(arria10_gt1150(), DataType::kFloat32,
                                   options);
  const std::vector<DseCandidate> ref = serial.enumerate_phase1(nest, &stats1);
  ASSERT_FALSE(ref.empty());

  options.jobs = 4;
  DseStats stats4;
  const DesignSpaceExplorer parallel(arria10_gt1150(), DataType::kFloat32,
                                     options);
  const std::vector<DseCandidate> got =
      parallel.enumerate_phase1(nest, &stats4);
  ASSERT_EQ(got.size(), ref.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].design, ref[i].design) << "rank " << i;
    EXPECT_EQ(got[i].estimate.throughput_gops, ref[i].estimate.throughput_gops);
  }
  expect_counters_equal(stats4, stats1, "full dump");
}

TEST(DseParallelTest, Phase1CpuSecondsCountsTheSeedWalk) {
  // At one job every stage of phase 1 runs on the calling thread, so
  // nearly all of its wall time is busy time. The serial stages are part of
  // it: enumeration, the bound pass, the seed walk and the merge. A busy
  // timer that covered only the parallel sweep's shards would report a
  // small fraction of the wall time here.
  const Network net = make_alexnet();
  const ConvLayerDesc* conv3 = net.find_layer("conv3");
  ASSERT_NE(conv3, nullptr);
  DseOptions options;
  options.jobs = 1;
  DseStats stats;
  const std::vector<DseCandidate> candidates =
      DesignSpaceExplorer(arria10_gt1150(), DataType::kFloat32, options)
          .enumerate_phase1(build_conv_nest(*conv3), &stats);
  ASSERT_FALSE(candidates.empty());
  EXPECT_GT(stats.bound_seed_evaluated, 0);
  EXPECT_GE(stats.phase1_cpu_seconds, 0.7 * stats.phase1_seconds);
}

TEST(DseParallelTest, AutoRelaxRecordsRelaxationInStats) {
  // A 2x2x2 layer can never reach 80% of an Arria 10's DSPs: c_s=0.80 finds
  // nothing, floor-halving must still produce a design, and the stats must
  // say how far the floor moved.
  const ConvLayerDesc layer = make_conv("wee", 2, 2, 2, 1);
  DseOptions options;
  options.min_dsp_util = 0.80;
  options.auto_relax_util = true;
  const DesignSpaceExplorer explorer(arria10_gt1150(), DataType::kFloat32,
                                     options);
  const DseResult result = explorer.explore_layer(layer);
  ASSERT_FALSE(result.empty());
  EXPECT_GT(result.stats.util_relaxations, 0);
  EXPECT_LT(result.stats.effective_min_dsp_util, 0.80);
  EXPECT_GE(result.stats.effective_min_dsp_util, 0.0);
  // The relaxation shows up in the human-readable summary as well.
  EXPECT_NE(result.stats.summary().find("relaxed"), std::string::npos);

  // Without relaxation nothing is found — and the stats say so.
  options.auto_relax_util = false;
  const DesignSpaceExplorer strict(arria10_gt1150(), DataType::kFloat32,
                                   options);
  const DseResult none = strict.explore_layer(layer);
  EXPECT_TRUE(none.empty());
  EXPECT_EQ(none.stats.util_relaxations, 0);
  EXPECT_DOUBLE_EQ(none.stats.effective_min_dsp_util, 0.80);
}

TEST(DseParallelTest, AutoRelaxIdenticalAcrossJobs) {
  // The relaxation loop reruns phase 1 several times; the retry sequence
  // must also be jobs-invariant.
  const ConvLayerDesc layer = make_conv("wee", 2, 2, 2, 1);
  DseOptions options;
  options.min_dsp_util = 0.80;
  options.jobs = 1;
  const DseResult serial =
      DesignSpaceExplorer(arria10_gt1150(), DataType::kFloat32, options)
          .explore_layer(layer);
  options.jobs = 8;
  const DseResult parallel =
      DesignSpaceExplorer(arria10_gt1150(), DataType::kFloat32, options)
          .explore_layer(layer);
  ASSERT_FALSE(serial.empty());
  ASSERT_EQ(parallel.top.size(), serial.top.size());
  for (std::size_t i = 0; i < serial.top.size(); ++i) {
    EXPECT_EQ(parallel.top[i].design, serial.top[i].design);
    EXPECT_EQ(parallel.top[i].realized_freq_mhz,
              serial.top[i].realized_freq_mhz);
  }
  expect_counters_equal(parallel.stats, serial.stats, "auto-relax");
}

}  // namespace
}  // namespace sasynth
