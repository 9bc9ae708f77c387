// Process-wide metrics substrate: monotonic counters, gauges, and
// fixed-bucket latency histograms with approximate percentiles, behind a
// near-zero-cost disabled path.
//
// Design rules (docs/OBSERVABILITY.md is the user-facing contract):
//   * Recording never allocates, locks, or branches beyond one relaxed
//     atomic load of the global enable flag — instruments may live on hot
//     paths (thread-pool ranges, per-request serving), though per-item DSE
//     inner loops still must not touch the registry (they aggregate into
//     DseStats and publish once per exploration).
//   * Handles returned by the registry are stable for the registry's
//     lifetime; call sites resolve a name once and keep the reference.
//   * Disabled (the default) means values stay zero: recording is gated,
//     reading is always allowed. sasynthd enables metrics at startup;
//     sasynth_cli enables them for --metrics-out/--trace-out runs.
//   * Metrics never feed back into computation, so enabling them cannot
//     perturb DSE results (tests/obs/obs_determinism_test.cpp pins this).
//
// This library sits below util (thread_pool is instrumented with it), so it
// depends on nothing but the standard library.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace sasynth::obs {

/// Global metrics switch. Off by default: a process that never opts in pays
/// one relaxed load per instrument and records nothing.
bool metrics_enabled();
void set_metrics_enabled(bool enabled);

/// Monotonic event counter (prom type `counter`; name them `*_total`).
class Counter {
 public:
  void add(std::int64_t n = 1) {
    if (metrics_enabled()) value_.fetch_add(n, std::memory_order_relaxed);
  }
  std::int64_t value() const { return value_.load(std::memory_order_relaxed); }
  void reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::int64_t> value_{0};
};

/// Last-write-wins instantaneous value (prom type `gauge`).
class Gauge {
 public:
  void set(std::int64_t v) {
    if (metrics_enabled()) value_.store(v, std::memory_order_relaxed);
  }
  void add(std::int64_t n) {
    if (metrics_enabled()) value_.fetch_add(n, std::memory_order_relaxed);
  }
  /// Raises the value to `v` when `v` is larger: a running maximum.
  void set_max(std::int64_t v) {
    if (!metrics_enabled()) return;
    std::int64_t seen = value_.load(std::memory_order_relaxed);
    while (v > seen &&
           !value_.compare_exchange_weak(seen, v, std::memory_order_relaxed)) {
    }
  }
  std::int64_t value() const { return value_.load(std::memory_order_relaxed); }
  void reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::int64_t> value_{0};
};

/// The shared fixed bucket ladder for latency histograms, in milliseconds:
/// a 1-2-5 series from 1 µs to 60 s (plus the implicit +Inf overflow).
/// One ladder everywhere keeps every latency metric comparable and the
/// serialized formats stable.
const std::vector<double>& latency_buckets_ms();

/// Fixed-bucket histogram with prom-style cumulative serialization and
/// linear-interpolation percentile estimates (exact only at bucket edges;
/// the ladder is dense enough for p50/p95/p99 reporting).
class Histogram {
 public:
  /// `bounds` are ascending upper bucket edges; one overflow bucket is
  /// appended implicitly. Defaults to latency_buckets_ms().
  explicit Histogram(std::vector<double> bounds = latency_buckets_ms());

  void observe(double value);

  std::int64_t count() const { return count_.load(std::memory_order_relaxed); }
  double sum() const { return sum_.load(std::memory_order_relaxed); }

  /// Approximate value at quantile q in (0, 1]; 0 when empty. Values in the
  /// overflow bucket report the last finite bound.
  double percentile(double q) const;

  const std::vector<double>& bounds() const { return bounds_; }
  /// Per-bucket (non-cumulative) count; index bounds().size() is overflow.
  std::int64_t bucket_count(std::size_t i) const {
    return buckets_[i].load(std::memory_order_relaxed);
  }

  void reset();

 private:
  std::vector<double> bounds_;
  std::unique_ptr<std::atomic<std::int64_t>[]> buckets_;  ///< bounds+overflow
  std::atomic<std::int64_t> count_{0};
  std::atomic<double> sum_{0.0};
};

/// Name -> instrument registry. Registration takes a mutex; recording
/// through a returned reference is lock-free. One process-global instance
/// (`global()`) serves the whole flow; tests may build private registries.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Returns the named instrument, creating it on first use. References
  /// stay valid for the registry's lifetime. A name identifies exactly one
  /// kind; reusing it for another kind creates a distinct instrument but
  /// collides in the prom rendering — follow the `*_total`/`*_ms` naming
  /// convention and it cannot happen.
  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  Histogram& histogram(const std::string& name);
  Histogram& histogram(const std::string& name, std::vector<double> bounds);

  /// Prometheus text exposition (sorted by name; `prefix` prepended to every
  /// metric name). Histogram buckets render cumulatively with `le` labels.
  std::string to_prom(const std::string& prefix = "sasynth_") const;

  /// JSON snapshot: {"counters": {...}, "gauges": {...}, "histograms":
  /// {name: {count, sum, p50, p95, p99, buckets: [{le, count}, ...]}}}.
  /// Bucket counts here are per-bucket, not cumulative.
  std::string to_json() const;

  /// Zeroes every registered value. Handles stay valid (tests, bench reruns).
  void reset_values();

  static MetricsRegistry& global();

 private:
  template <typename T>
  struct Named {
    std::string name;
    std::unique_ptr<T> instrument;
  };

  template <typename T>
  T& find_or_create(std::vector<Named<T>>& list, const std::string& name);

  mutable std::mutex mutex_;
  std::vector<Named<Counter>> counters_;
  std::vector<Named<Gauge>> gauges_;
  std::vector<Named<Histogram>> histograms_;
};

}  // namespace sasynth::obs
