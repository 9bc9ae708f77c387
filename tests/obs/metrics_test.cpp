// MetricsRegistry semantics: exact totals under thread hammering, gated
// no-ops when disabled, percentile interpolation, and handle stability.
#include "obs/metrics.h"

#include <gtest/gtest.h>

#include <thread>
#include <vector>

namespace sasynth::obs {
namespace {

class MetricsTest : public ::testing::Test {
 protected:
  void SetUp() override { set_metrics_enabled(true); }
  void TearDown() override { set_metrics_enabled(false); }
};

TEST_F(MetricsTest, CounterHammerHasExactTotal) {
  MetricsRegistry registry;
  Counter& counter = registry.counter("hammer_total");
  constexpr int kThreads = 8;
  constexpr int kIters = 20000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&counter] {
      for (int i = 0; i < kIters; ++i) counter.add(1);
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(counter.value(), static_cast<std::int64_t>(kThreads) * kIters);
}

TEST_F(MetricsTest, HistogramHammerHasExactCountAndBuckets) {
  MetricsRegistry registry;
  Histogram& hist = registry.histogram("lat_ms", {1.0, 10.0});
  constexpr int kThreads = 8;
  constexpr int kIters = 5000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&hist] {
      for (int i = 0; i < kIters; ++i) {
        hist.observe(0.5);   // bucket le=1
        hist.observe(5.0);   // bucket le=10
        hist.observe(99.0);  // overflow
      }
    });
  }
  for (std::thread& t : threads) t.join();
  const std::int64_t per_bucket = static_cast<std::int64_t>(kThreads) * kIters;
  EXPECT_EQ(hist.count(), 3 * per_bucket);
  EXPECT_EQ(hist.bucket_count(0), per_bucket);
  EXPECT_EQ(hist.bucket_count(1), per_bucket);
  EXPECT_EQ(hist.bucket_count(2), per_bucket);
  EXPECT_DOUBLE_EQ(hist.sum(),
                   static_cast<double>(per_bucket) * (0.5 + 5.0 + 99.0));
}

TEST_F(MetricsTest, GaugeSetAndAdd) {
  MetricsRegistry registry;
  Gauge& gauge = registry.gauge("depth");
  gauge.set(7);
  EXPECT_EQ(gauge.value(), 7);
  gauge.add(-3);
  EXPECT_EQ(gauge.value(), 4);
  gauge.reset();
  EXPECT_EQ(gauge.value(), 0);
}

TEST_F(MetricsTest, GaugeSetMaxKeepsTheLargestValue) {
  MetricsRegistry registry;
  Gauge& gauge = registry.gauge("longest_us");
  gauge.set_max(40);
  gauge.set_max(15);  // smaller: ignored
  EXPECT_EQ(gauge.value(), 40);
  gauge.set_max(90);
  EXPECT_EQ(gauge.value(), 90);
  set_metrics_enabled(false);
  gauge.set_max(500);  // gated like every other recording call
  EXPECT_EQ(gauge.value(), 90);
}

TEST_F(MetricsTest, DisabledPathIsANoOp) {
  MetricsRegistry registry;
  Counter& counter = registry.counter("gated_total");
  Gauge& gauge = registry.gauge("gated_depth");
  Histogram& hist = registry.histogram("gated_ms", {1.0});
  set_metrics_enabled(false);
  counter.add(5);
  gauge.set(5);
  hist.observe(0.5);
  EXPECT_EQ(counter.value(), 0);
  EXPECT_EQ(gauge.value(), 0);
  EXPECT_EQ(hist.count(), 0);
  set_metrics_enabled(true);
  counter.add(5);
  EXPECT_EQ(counter.value(), 5);
}

TEST_F(MetricsTest, SameNameReturnsSameInstrument) {
  MetricsRegistry registry;
  Counter& a = registry.counter("shared_total");
  Counter& b = registry.counter("shared_total");
  EXPECT_EQ(&a, &b);
  a.add(1);
  b.add(1);
  EXPECT_EQ(a.value(), 2);
}

TEST_F(MetricsTest, PercentileInterpolatesWithinBucket) {
  MetricsRegistry registry;
  Histogram& hist = registry.histogram("interp_ms", {1.0, 2.0, 3.0});
  for (int i = 0; i < 10; ++i) hist.observe(0.5);  // all in [0, 1)
  // rank = 0.5 * 10 + 0.5 = 5 -> 5/10 through the [0, 1) bucket.
  EXPECT_DOUBLE_EQ(hist.percentile(0.50), 0.5);
  // Overflow-only distribution reports the last finite bound.
  Histogram& over = registry.histogram("over_ms", {1.0, 2.0});
  over.observe(100.0);
  EXPECT_DOUBLE_EQ(over.percentile(0.99), 2.0);
  // Empty histogram reports 0.
  Histogram& empty = registry.histogram("empty_ms", {1.0});
  EXPECT_DOUBLE_EQ(empty.percentile(0.99), 0.0);
}

TEST_F(MetricsTest, DefaultBucketsCoverMicrosecondsToMinute) {
  const std::vector<double>& buckets = latency_buckets_ms();
  ASSERT_FALSE(buckets.empty());
  EXPECT_DOUBLE_EQ(buckets.front(), 0.001);  // 1 us
  EXPECT_DOUBLE_EQ(buckets.back(), 6e4);     // 60 s
  for (std::size_t i = 1; i < buckets.size(); ++i) {
    EXPECT_LT(buckets[i - 1], buckets[i]);
  }
}

TEST_F(MetricsTest, ResetValuesClearsEveryInstrument) {
  MetricsRegistry registry;
  registry.counter("c_total").add(3);
  registry.gauge("g").set(3);
  registry.histogram("h_ms", {1.0}).observe(0.5);
  registry.reset_values();
  EXPECT_EQ(registry.counter("c_total").value(), 0);
  EXPECT_EQ(registry.gauge("g").value(), 0);
  EXPECT_EQ(registry.histogram("h_ms").count(), 0);
}

TEST_F(MetricsTest, ConcurrentRegistrationIsSafe) {
  MetricsRegistry registry;
  constexpr int kThreads = 8;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&registry] {
      for (int i = 0; i < 100; ++i) {
        registry.counter("race_" + std::to_string(i % 7)).add(1);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  std::int64_t total = 0;
  for (int i = 0; i < 7; ++i) {
    total += registry.counter("race_" + std::to_string(i)).value();
  }
  EXPECT_EQ(total, kThreads * 100);
}

}  // namespace
}  // namespace sasynth::obs
