// Cross-request sweep-cache behavior: the incremental-DSE tier below the
// DesignCache. Reuse across requests that are not byte-identical, strict
// keying on everything the reuse DFS reads (trip or device change = miss),
// replay that never changes a sweep's decisions or a response byte, and
// bounded memory with observable LRU eviction.
#include "serve/sweep_cache.h"

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "core/dse.h"
#include "loopnest/conv_nest.h"
#include "nn/network.h"
#include "serve/server.h"
#include "support/metric_deltas.h"
#include "util/strings.h"

namespace sasynth {
namespace {

// Tiny-device layers; a fresh DSE is milliseconds. kLayerTall differs from
// kLayerBase only in the H/W feature-map dimensions, so the two sweeps
// share every item text but no trip count; kLayerBaseKu is the same layer
// on another device, which shares nothing.
const char* kLayerBase =
    "sasynth-request v1\n"
    "layer 16,16,8,8,3\n"
    "device tiny\n"
    "option min_util 0.5\n"
    "end\n";
const char* kLayerTall =
    "sasynth-request v1\n"
    "layer 16,16,6,6,3\n"
    "device tiny\n"
    "option min_util 0.5\n"
    "end\n";
const char* kLayerBaseRelaxed =
    "sasynth-request v1\n"
    "layer 16,16,8,8,3\n"
    "device tiny\n"
    "option min_util 0.4\n"
    "end\n";
const char* kLayerBaseKu =
    "sasynth-request v1\n"
    "layer 16,16,8,8,3\n"
    "device ku060\n"
    "option min_util 0.5\n"
    "end\n";

ServeOptions sweep_options(std::size_t sweep_capacity) {
  ServeOptions options;
  options.jobs = 1;
  options.cache_enabled = false;  // isolate the SweepCache from DesignCache hits
  options.sweep_cache_capacity = sweep_capacity;
  return options;
}

TEST(SweepCacheTest, HwOnlyDifferingLayersShareNoEntry) {
  const MetricDeltas delta;
  SynthServer server(sweep_options(4096));
  ASSERT_TRUE(starts_with(server.handle(kLayerBase), "sasynth-response v1 ok"));
  EXPECT_GT(delta("sweep_cache_insertions_total"), 0);

  ASSERT_TRUE(starts_with(server.handle(kLayerTall), "sasynth-response v1 ok"));
  // Different trips: no entry of the first layer answers the second.
  EXPECT_EQ(delta("sweep_cache_exact_hits_total"), 0);
}

TEST(SweepCacheTest, ExactTierReplaysAcrossUtilSettings) {
  // min_dsp_util is deliberately excluded from the sweep context (the reuse
  // DFS never reads it), so re-exploring a layer under a relaxed floor
  // replays the per-item DFS results verbatim even though the request texts
  // — and so the DesignCache keys — differ.
  const MetricDeltas delta;
  SynthServer server(sweep_options(4096));
  const std::string cold = server.handle(kLayerBase);
  ASSERT_TRUE(starts_with(cold, "sasynth-response v1 ok"));
  const std::string relaxed = server.handle(kLayerBaseRelaxed);
  ASSERT_TRUE(starts_with(relaxed, "sasynth-response v1 ok"));
  EXPECT_GT(delta("sweep_cache_exact_hits_total"), 0);
}

TEST(SweepCacheTest, DeviceChangeSharesNothing) {
  const MetricDeltas delta;
  SynthServer server(sweep_options(4096));
  ASSERT_TRUE(starts_with(server.handle(kLayerBase), "sasynth-response v1 ok"));
  ASSERT_TRUE(starts_with(server.handle(kLayerBaseKu), "sasynth-response v1 ok"));
  // Same layer, different device: every BRAM/bandwidth parameter in the
  // context changed, so no entry may answer.
  EXPECT_EQ(delta("sweep_cache_exact_hits_total"), 0);
}

TEST(SweepCacheTest, WarmResponsesAreByteIdenticalToCold) {
  // A warm sweep cache may only change the time to a response, never its
  // bytes: hits replay the same DFS results the cold server computes fresh.
  SynthServer cold_server(sweep_options(4096));
  SynthServer warm_server(sweep_options(4096));
  ASSERT_TRUE(starts_with(warm_server.handle(kLayerBase),
                          "sasynth-response v1 ok"));
  ASSERT_TRUE(starts_with(warm_server.handle(kLayerBaseRelaxed),
                          "sasynth-response v1 ok"));
  for (const char* request : {kLayerTall, kLayerBaseRelaxed, kLayerBase}) {
    EXPECT_EQ(cold_server.handle(request), warm_server.handle(request));
  }
}

TEST(SweepCacheTest, LruEvictionKeepsTheCacheBounded) {
  const MetricDeltas delta;
  SynthServer server(sweep_options(8));
  ASSERT_TRUE(starts_with(server.handle(kLayerBase), "sasynth-response v1 ok"));
  ASSERT_TRUE(starts_with(server.handle(kLayerTall), "sasynth-response v1 ok"));
  EXPECT_LE(server.sweep_cache().size(), 8u);
  EXPECT_GT(delta("sweep_cache_insertions_total"), 8);
  EXPECT_GT(delta("sweep_cache_evictions_total"), 0);
  // The eviction counters are part of the stats surface.
  const std::string text = server.stats_text();
  EXPECT_NE(text.find("sweep_cache_evictions"), std::string::npos) << text;
  EXPECT_NE(text.find("sweep_cache_entries"), std::string::npos) << text;
}

TEST(SweepCacheTest, CapacityZeroDisablesTheTier) {
  const MetricDeltas delta;
  SynthServer server(sweep_options(0));
  ASSERT_TRUE(starts_with(server.handle(kLayerBase), "sasynth-response v1 ok"));
  ASSERT_TRUE(starts_with(server.handle(kLayerTall), "sasynth-response v1 ok"));
  EXPECT_EQ(server.sweep_cache().size(), 0u);
  EXPECT_EQ(delta("sweep_cache_insertions_total"), 0);
  EXPECT_EQ(delta("sweep_cache_exact_hits_total"), 0);
  EXPECT_EQ(delta("sweep_cache_exact_misses_total"), 0);
}

struct SweepRun {
  const ConvLayerDesc* layer;
  double min_dsp_util;
  int top_k;
};

std::vector<DseCandidate> sweep(const SweepRun& run, int jobs, SweepMemo* memo,
                                DseStats* stats) {
  DseOptions options;
  options.min_dsp_util = run.min_dsp_util;
  options.top_k = run.top_k;
  options.jobs = jobs;
  options.sweep_memo = memo;
  return DesignSpaceExplorer(arria10_gt1150(), DataType::kFloat32, options)
      .enumerate_phase1(build_conv_nest(*run.layer), stats);
}

TEST(SweepCacheTest, MemoOnlyReplaysOnAlexNetTail) {
  // The memo may skip a DFS but never change a decision. One shared cache
  // is warmed, per layer, by a wide-top_k sweep (its longer seed walk stores
  // items the default sweep evaluates under a floor), then serves the
  // layer, its H/W sibling and a relaxed-c_s rerun: every sweep keeps the
  // memo-free candidate list and prune counts.
  const Network net = make_alexnet();
  for (const int jobs : {1, 4}) {
    SweepCache cache(1 << 16);
    for (const auto& [name, hw_delta] :
         {std::pair<const char*, int>{"conv4", 2}, {"conv5", -2}}) {
      const ConvLayerDesc* layer = net.find_layer(name);
      ASSERT_NE(layer, nullptr) << name;
      ConvLayerDesc sibling = *layer;
      sibling.out_rows += hw_delta;
      sibling.out_cols += hw_delta;
      for (const SweepRun run :
           {SweepRun{layer, 0.8, 64}, SweepRun{layer, 0.8, 14},
            SweepRun{&sibling, 0.8, 14}, SweepRun{layer, 0.7, 14}}) {
        const std::string label =
            std::string(name) + " R=" + std::to_string(run.layer->out_rows) +
            " c_s=" + std::to_string(run.min_dsp_util) +
            " top_k=" + std::to_string(run.top_k) +
            " jobs=" + std::to_string(jobs);
        DseStats cold;
        DseStats warm;
        const std::vector<DseCandidate> want = sweep(run, jobs, nullptr, &cold);
        const std::vector<DseCandidate> got = sweep(run, jobs, &cache, &warm);
        ASSERT_EQ(want.size(), got.size()) << label;
        for (std::size_t i = 0; i < want.size(); ++i) {
          EXPECT_EQ(want[i].design, got[i].design) << label << " rank " << i;
          EXPECT_EQ(want[i].estimate.throughput_gops,
                    got[i].estimate.throughput_gops)
              << label << " rank " << i;
          EXPECT_EQ(want[i].resources.bram_blocks,
                    got[i].resources.bram_blocks)
              << label << " rank " << i;
        }
        EXPECT_GT(cold.items_pruned_bound, 0) << label;
        EXPECT_EQ(cold.items_pruned_bound, warm.items_pruned_bound) << label;
        EXPECT_EQ(cold.bound_seed_evaluated, warm.bound_seed_evaluated)
            << label;
        EXPECT_EQ(cold.reuse_subtrees_pruned, warm.reuse_subtrees_pruned)
            << label;
        if (run.layer == layer && run.top_k == 14) {
          EXPECT_GT(warm.memo_exact_hits, 0) << label;
        }
      }
    }
  }
}

}  // namespace
}  // namespace sasynth
