// Cross-request sweep-cache behavior: the incremental-DSE tier below the
// DesignCache. Reuse across requests that are not byte-identical, strict
// keying on everything the reuse DFS reads (device change = miss), warm
// responses byte-identical to cold ones, and bounded memory with observable
// LRU eviction.
#include "serve/sweep_cache.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "serve/server.h"
#include "support/metric_deltas.h"
#include "util/strings.h"

namespace sasynth {
namespace {

// Tiny-device layers; a fresh DSE is milliseconds. kLayerTall differs from
// kLayerBase only in the H/W feature-map dimensions, so the two sweeps
// share every hint-tier key; kLayerBaseKu is the same layer on another
// device, which shares nothing.
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

TEST(SweepCacheTest, HintTierCarriesAcrossHwOnlyDifferingLayers) {
  const MetricDeltas delta;
  SynthServer server(sweep_options(4096));
  ASSERT_TRUE(starts_with(server.handle(kLayerBase), "sasynth-response v1 ok"));
  EXPECT_GT(delta("sweep_cache_insertions_total"), 0);
  EXPECT_EQ(delta("sweep_cache_hint_hits_total"), 0);

  ASSERT_TRUE(starts_with(server.handle(kLayerTall), "sasynth-response v1 ok"));
  // The second sweep's floor seeding found middle bounds remembered from
  // the first layer's structurally identical items.
  EXPECT_GT(delta("sweep_cache_hint_hits_total"), 0);
  // Different trips: the exact tier cannot hit across these two layers.
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
  // context changed, so neither tier may answer.
  EXPECT_EQ(delta("sweep_cache_exact_hits_total"), 0);
  EXPECT_EQ(delta("sweep_cache_hint_hits_total"), 0);
}

TEST(SweepCacheTest, WarmResponsesAreByteIdenticalToCold) {
  // A warm sweep cache may only change the time to a response, never its
  // bytes: hint-tier floors are re-evaluated, exact-tier hits replay the
  // same DFS results the cold server computes fresh.
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
  EXPECT_EQ(delta("sweep_cache_exact_hits_total") +
                delta("sweep_cache_hint_hits_total"),
            0);
  EXPECT_EQ(delta("sweep_cache_exact_misses_total") +
                delta("sweep_cache_hint_misses_total"),
            0);
}

}  // namespace
}  // namespace sasynth
