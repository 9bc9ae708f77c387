// The unified stage-2 search allocates nothing per leaf. This binary
// replaces the global operator new with a counting one, so it stands alone:
// the count covers everything the process allocates during the call.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <string>

#include "core/unified.h"
#include "nn/network.h"
#include "obs/metrics.h"

namespace {
std::atomic<std::int64_t> g_allocations{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace sasynth {
namespace {

TEST(UnifiedAllocation, LeavesAllocateNothing) {
  // One AlexNet search at the default budget on one thread: every per-call
  // and per-entry buffer together must stay far below one allocation per
  // ten leaves (a DesignPoint or a per-port vector per leaf would exceed
  // it many times over).
  obs::set_metrics_enabled(true);
  obs::Counter& leaves =
      obs::MetricsRegistry::global().counter("unified_leaves_total");
  const Network net = make_alexnet();
  const FpgaDevice device = arria10_gt1150();
  UnifiedOptions options;
  options.jobs = 1;
  options.dse.jobs = 1;
  const std::int64_t leaves0 = leaves.value();
  const std::int64_t allocations0 = g_allocations.load();
  const std::vector<UnifiedCandidate> candidates =
      enumerate_unified_candidates(net, device, DataType::kFloat32, options);
  const std::int64_t allocations = g_allocations.load() - allocations0;
  const std::int64_t scored = leaves.value() - leaves0;
  RecordProperty("allocations", std::to_string(allocations));
  RecordProperty("leaves", std::to_string(scored));
  ASSERT_FALSE(candidates.empty());
  ASSERT_GT(scored, 0);
  EXPECT_LT(allocations, scored / 10)
      << allocations << " allocations for " << scored << " leaves";
}

}  // namespace
}  // namespace sasynth
