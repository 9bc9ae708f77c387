#include "serve/design_cache.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>

#include "core/design_io.h"
#include "loopnest/conv_nest.h"
#include "nn/network.h"
#include "support/metric_deltas.h"
#include "util/rng.h"

namespace sasynth {
namespace {

class DesignCacheTest : public ::testing::Test {
 protected:
  DesignCacheTest() : nest_(build_conv_nest(alexnet_conv5())) {}

  DesignPoint sys1() const {
    return DesignPoint(
        nest_, SystolicMapping{ConvLoops::kO, ConvLoops::kC, ConvLoops::kI},
        ArrayShape{11, 13, 8}, {4, 4, 1, 13, 3, 3});
  }

  DesignPoint sys2() const {
    return DesignPoint(
        nest_, SystolicMapping{ConvLoops::kO, ConvLoops::kC, ConvLoops::kI},
        ArrayShape{11, 13, 4}, {4, 4, 1, 13, 3, 3});
  }

  std::string temp_dir(const char* tag) const {
    const std::filesystem::path dir =
        std::filesystem::path(::testing::TempDir()) /
        (std::string("sasynth_cache_") + tag);
    std::filesystem::remove_all(dir);
    return dir.string();
  }

  /// Lookups that did not hit (the registry counts probes and hits).
  static std::int64_t misses(const MetricDeltas& delta) {
    return delta("cache_probes_total") - delta("cache_hits_total");
  }

  LoopNest nest_;
};

TEST_F(DesignCacheTest, MemoryHitAfterInsert) {
  const MetricDeltas delta;
  DesignCache cache("", 8);
  DesignPoint out;
  EXPECT_FALSE(cache.lookup("req-a", nest_, &out));
  cache.insert("req-a", sys1());
  ASSERT_TRUE(cache.lookup("req-a", nest_, &out));
  EXPECT_EQ(out, sys1());
  EXPECT_FALSE(cache.lookup("req-b", nest_, &out));

  EXPECT_EQ(delta("cache_hits_total"), 1);
  EXPECT_EQ(misses(delta), 2);
  EXPECT_EQ(delta("cache_disk_hits_total"), 0);
  EXPECT_EQ(delta("cache_stores_total"), 1);
  EXPECT_EQ(cache.size(), 1u);
}

TEST_F(DesignCacheTest, LruEvictsTheColdestEntry) {
  const MetricDeltas delta;
  DesignCache cache("", 2);
  cache.insert("a", sys1());
  cache.insert("b", sys2());
  DesignPoint out;
  ASSERT_TRUE(cache.lookup("a", nest_, &out));  // "b" is now coldest
  cache.insert("c", sys1());
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_TRUE(cache.lookup("a", nest_, &out));
  EXPECT_FALSE(cache.lookup("b", nest_, &out));
  EXPECT_TRUE(cache.lookup("c", nest_, &out));
  EXPECT_EQ(delta("cache_evictions_total"), 1);
}

TEST_F(DesignCacheTest, ZeroCapacityClampsToOne) {
  DesignCache cache("", 0);
  cache.insert("a", sys1());
  DesignPoint out;
  EXPECT_TRUE(cache.lookup("a", nest_, &out));
  EXPECT_EQ(cache.size(), 1u);
}

TEST_F(DesignCacheTest, DiskEntrySurvivesRestart) {
  const std::string dir = temp_dir("restart");
  {
    DesignCache cache(dir, 8);
    cache.insert("req-a", sys1());
  }
  const MetricDeltas delta;
  DesignCache fresh(dir, 8);
  DesignPoint out;
  ASSERT_TRUE(fresh.lookup("req-a", nest_, &out));
  EXPECT_EQ(out, sys1());
  EXPECT_EQ(delta("cache_disk_hits_total"), 1);
  // Promoted into memory: second lookup does not count another disk hit.
  ASSERT_TRUE(fresh.lookup("req-a", nest_, &out));
  EXPECT_EQ(delta("cache_disk_hits_total"), 1);
  EXPECT_EQ(delta("cache_hits_total"), 2);
}

TEST_F(DesignCacheTest, EntryPathUsesThe16DigitHexKey) {
  DesignCache cache("/some/dir", 8);
  EXPECT_EQ(cache.entry_path(0x1234abcdu),
            "/some/dir/000000001234abcd.design");
}

TEST_F(DesignCacheTest, TruncatedDiskEntryFallsBackToMiss) {
  const std::string dir = temp_dir("truncated");
  {
    DesignCache cache(dir, 8);
    cache.insert("req-a", sys1());
  }
  const std::string path =
      DesignCache(dir, 8).entry_path(fnv1a64("req-a"));
  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << path;
  std::stringstream buffer;
  buffer << in.rdbuf();
  const std::string blob = buffer.str();

  // Every truncation of the entry file either loads fully or misses cleanly.
  for (std::size_t len = 0; len < blob.size(); len += 7) {
    std::ofstream(path, std::ios::trunc) << blob.substr(0, len);
    const MetricDeltas delta;
    DesignCache fresh(dir, 8);
    DesignPoint out;
    const bool hit = fresh.lookup("req-a", nest_, &out);
    if (hit) {
      EXPECT_EQ(out, sys1()) << "truncated to " << len;
    } else {
      EXPECT_EQ(delta("cache_load_failures_total") + misses(delta), 2)
          << "truncated to " << len;
    }
  }
}

TEST_F(DesignCacheTest, GarbageDiskEntryFallsBackToMiss) {
  const std::string dir = temp_dir("garbage");
  DesignCache seed(dir, 8);
  seed.insert("req-a", sys1());
  const std::string path = seed.entry_path(fnv1a64("req-a"));
  std::ofstream(path, std::ios::trunc) << "not a cache entry at all\n\x01\x02";

  const MetricDeltas delta;
  DesignCache fresh(dir, 8);
  DesignPoint out;
  EXPECT_FALSE(fresh.lookup("req-a", nest_, &out));
  EXPECT_EQ(delta("cache_load_failures_total"), 1);
  EXPECT_EQ(misses(delta), 1);
}

TEST_F(DesignCacheTest, CanonicalMismatchOnDiskIsRejected) {
  // A file stored for a different request must not satisfy this one, even
  // when placed at this key's path (hash-collision / aliasing guard).
  const std::string dir = temp_dir("alias");
  DesignCache seed(dir, 8);
  seed.insert("req-b", sys1());
  std::filesystem::copy_file(
      seed.entry_path(fnv1a64("req-b")), seed.entry_path(fnv1a64("req-a")),
      std::filesystem::copy_options::overwrite_existing);

  const MetricDeltas delta;
  DesignCache fresh(dir, 8);
  DesignPoint out;
  EXPECT_FALSE(fresh.lookup("req-a", nest_, &out));
  EXPECT_GE(delta("cache_load_failures_total"), 1);
}

TEST_F(DesignCacheTest, StaleEntryForADifferentNestIsRejected) {
  // Same canonical text, but the design no longer fits the nest the caller
  // supplies (e.g. the layer behind the key changed shape): reject, fresh DSE.
  const LoopNest other_nest = build_conv_nest(make_conv("other", 4, 4, 4, 3));
  const std::string dir = temp_dir("stale");
  DesignCache seed(dir, 8);
  seed.insert("req-a", sys1());

  const MetricDeltas delta;
  DesignCache fresh(dir, 8);
  DesignPoint out;
  EXPECT_FALSE(fresh.lookup("req-a", other_nest, &out));
  EXPECT_GE(delta("cache_load_failures_total"), 1);
}

TEST_F(DesignCacheTest, DiskStoreFailureIsCountedAndMemoryTierSurvives) {
  // Park a regular file where the cache directory should go: every disk
  // store fails (create_directories cannot succeed), even when running as
  // root — unlike permission tricks.
  const std::string blocker = temp_dir("storefail_blocker");
  std::ofstream(blocker) << "not a directory";
  const std::string dir = blocker + "/sub";

  const MetricDeltas delta;
  DesignCache cache(dir, 8);
  cache.insert("req-a", sys1());
  cache.insert("req-b", sys2());
  EXPECT_EQ(delta("cache_stores_total"), 2);
  EXPECT_EQ(delta("cache_disk_store_failures_total"), 2);

  // The memory tier is untouched by the disk failure.
  DesignPoint out;
  ASSERT_TRUE(cache.lookup("req-a", nest_, &out));
  EXPECT_EQ(out, sys1());

  // The accounting invariant: stores - disk_store_failures bounds what a
  // fresh process can find on disk. Here that is zero, and indeed:
  DesignCache fresh(dir, 8);
  EXPECT_FALSE(fresh.lookup("req-a", nest_, &out));
  EXPECT_FALSE(fresh.lookup("req-b", nest_, &out));
  EXPECT_EQ(delta("cache_disk_hits_total"), 0);
}

TEST_F(DesignCacheTest, HealthyStoresCountNoFailures) {
  const std::string dir = temp_dir("storefail_healthy");
  const MetricDeltas delta;
  DesignCache cache(dir, 8);
  cache.insert("req-a", sys1());
  EXPECT_EQ(delta("cache_stores_total"), 1);
  EXPECT_EQ(delta("cache_disk_store_failures_total"), 0);
}

TEST_F(DesignCacheTest, MemoryOnlyCacheNeverCountsStoreFailures) {
  // No directory configured: there is no disk tier to fail, so insertions
  // must not be misreported as failed stores.
  const MetricDeltas delta;
  DesignCache cache("", 8);
  cache.insert("req-a", sys1());
  EXPECT_EQ(delta("cache_disk_store_failures_total"), 0);
}

TEST_F(DesignCacheTest, MemoryOnlyWhenDirEmpty) {
  DesignCache cache("", 8);
  cache.insert("req-a", sys1());
  // No dir: nothing persisted, a fresh cache misses.
  DesignCache fresh("", 8);
  DesignPoint out;
  EXPECT_FALSE(fresh.lookup("req-a", nest_, &out));
}

}  // namespace
}  // namespace sasynth
