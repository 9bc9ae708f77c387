#include "util/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <numeric>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

namespace sasynth {
namespace {

TEST(ThreadPoolTest, ResolveJobsPrefersExplicitRequest) {
  EXPECT_EQ(ThreadPool::resolve_jobs(3), 3);
  EXPECT_EQ(ThreadPool::resolve_jobs(1), 1);
  EXPECT_GE(ThreadPool::resolve_jobs(0), 1);
}

TEST(ThreadPoolTest, EnvOverrideControlsDefault) {
  ASSERT_EQ(setenv("SASYNTH_JOBS", "5", 1), 0);
  EXPECT_EQ(ThreadPool::env_jobs(), 5);
  EXPECT_EQ(ThreadPool::resolve_jobs(0), 5);
  // An explicit request still wins over the environment.
  EXPECT_EQ(ThreadPool::resolve_jobs(2), 2);

  ASSERT_EQ(setenv("SASYNTH_JOBS", "garbage", 1), 0);
  EXPECT_EQ(ThreadPool::env_jobs(), 0);
  // Beyond int64 is invalid, not saturated to the 1024 cap.
  ASSERT_EQ(setenv("SASYNTH_JOBS", "99999999999999999999", 1), 0);
  EXPECT_EQ(ThreadPool::env_jobs(), 0);
  ASSERT_EQ(setenv("SASYNTH_JOBS", "", 1), 0);
  EXPECT_EQ(ThreadPool::env_jobs(), 0);
  ASSERT_EQ(unsetenv("SASYNTH_JOBS"), 0);
  EXPECT_EQ(ThreadPool::env_jobs(), 0);
}

TEST(ThreadPoolTest, SingleJobRunsInlineOnCaller) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.jobs(), 1);
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<std::thread::id> seen;
  std::vector<std::int64_t> order;
  pool.for_each(10, [&](std::int64_t begin, std::int64_t end, int worker) {
    EXPECT_EQ(worker, 0);
    seen.push_back(std::this_thread::get_id());
    for (std::int64_t i = begin; i < end; ++i) order.push_back(i);
  });
  // Inline: exactly one contiguous range, executed on the calling thread.
  ASSERT_EQ(seen.size(), 1U);
  EXPECT_EQ(seen.front(), caller);
  std::vector<std::int64_t> expected(10);
  std::iota(expected.begin(), expected.end(), 0);
  EXPECT_EQ(order, expected);
}

TEST(ThreadPoolTest, CoversEveryIndexExactlyOnce) {
  constexpr std::int64_t kCount = 1000;
  ThreadPool pool(4);
  EXPECT_EQ(pool.jobs(), 4);
  std::vector<std::atomic<int>> hits(kCount);
  pool.for_each(kCount, [&](std::int64_t begin, std::int64_t end, int worker) {
    EXPECT_GE(worker, 0);
    EXPECT_LT(worker, 4);
    for (std::int64_t i = begin; i < end; ++i) {
      hits[static_cast<std::size_t>(i)].fetch_add(1);
    }
  });
  for (std::int64_t i = 0; i < kCount; ++i) {
    EXPECT_EQ(hits[static_cast<std::size_t>(i)].load(), 1) << "index " << i;
  }
}

TEST(ThreadPoolTest, ResultIndependentOfSchedulingOrder) {
  // Accumulating by item index gives the same result no matter which worker
  // runs which range — the property the DSE's deterministic merge rests on.
  constexpr std::int64_t kCount = 512;
  std::vector<std::int64_t> serial(kCount);
  ThreadPool(1).for_each(kCount,
                         [&](std::int64_t begin, std::int64_t end, int) {
                           for (std::int64_t i = begin; i < end; ++i) {
                             serial[static_cast<std::size_t>(i)] = i * i;
                           }
                         });
  for (const int jobs : {2, 3, 8}) {
    std::vector<std::int64_t> parallel(kCount);
    ThreadPool(jobs).for_each(
        kCount,
        [&](std::int64_t begin, std::int64_t end, int) {
          for (std::int64_t i = begin; i < end; ++i) {
            parallel[static_cast<std::size_t>(i)] = i * i;
          }
        },
        /*chunk=*/7);  // deliberately uneven chunking
    EXPECT_EQ(parallel, serial) << "jobs=" << jobs;
  }
}

TEST(ThreadPoolTest, PropagatesExceptionFromWorker) {
  ThreadPool pool(4);
  EXPECT_THROW(
      pool.for_each(100,
                    [](std::int64_t begin, std::int64_t end, int) {
                      for (std::int64_t i = begin; i < end; ++i) {
                        if (i == 42) throw std::runtime_error("boom at 42");
                      }
                    }),
      std::runtime_error);
  // The pool survives a throw and can run again.
  std::atomic<std::int64_t> sum{0};
  pool.for_each(10, [&](std::int64_t begin, std::int64_t end, int) {
    for (std::int64_t i = begin; i < end; ++i) sum.fetch_add(i);
  });
  EXPECT_EQ(sum.load(), 45);
}

TEST(ThreadPoolTest, PropagatesExceptionInline) {
  ThreadPool pool(1);
  EXPECT_THROW(pool.for_each(5,
                             [](std::int64_t, std::int64_t, int) {
                               throw std::logic_error("inline boom");
                             }),
               std::logic_error);
}

TEST(ThreadPoolTest, EmptyAndTinyRangesAreSafe) {
  ThreadPool pool(4);
  bool ran = false;
  pool.for_each(0, [&](std::int64_t, std::int64_t, int) { ran = true; });
  EXPECT_FALSE(ran);
  std::atomic<int> count{0};
  pool.for_each(1, [&](std::int64_t begin, std::int64_t end, int) {
    count.fetch_add(static_cast<int>(end - begin));
  });
  EXPECT_EQ(count.load(), 1);
}

TEST(ThreadPoolTest, SubmitRunsTasksAndWaitTasksBlocks) {
  ThreadPool pool(3);
  std::atomic<std::int64_t> sum{0};
  for (int i = 1; i <= 20; ++i) {
    pool.submit([&sum, i] { sum.fetch_add(i); });
  }
  pool.wait_tasks();
  EXPECT_EQ(sum.load(), 210);
  // The pool is reusable for more tasks and for ranges afterwards.
  pool.submit([&sum] { sum.fetch_add(1); });
  pool.wait_tasks();
  EXPECT_EQ(sum.load(), 211);
  std::atomic<std::int64_t> range_sum{0};
  pool.for_each(10, [&](std::int64_t begin, std::int64_t end, int) {
    for (std::int64_t i = begin; i < end; ++i) range_sum.fetch_add(i);
  });
  EXPECT_EQ(range_sum.load(), 45);
}

TEST(ThreadPoolTest, SubmitAtOneJobNeverRunsOnTheCaller) {
  // An event-loop submitter relies on this: a task run on the caller would
  // block the loop (and every session) behind one request.
  ThreadPool pool(1);
  const std::thread::id caller = std::this_thread::get_id();
  std::thread::id ran_on;
  pool.submit([&] { ran_on = std::this_thread::get_id(); });
  pool.wait_tasks();
  EXPECT_NE(ran_on, std::thread::id());  // it ran...
  EXPECT_NE(ran_on, caller);             // ...on the pool's worker
}

TEST(ThreadPoolTest, TaskExceptionsAreContained) {
  // Unlike for_each (a sweep with one caller to rethrow to), fire-and-forget
  // tasks own their errors: a throwing task must not take the pool down.
  for (const int jobs : {1, 3}) {
    ThreadPool pool(jobs);
    pool.submit([] { throw std::runtime_error("task boom"); });
    pool.wait_tasks();
    std::atomic<int> ran{0};
    pool.submit([&] { ++ran; });
    pool.wait_tasks();
    EXPECT_EQ(ran.load(), 1) << "jobs=" << jobs;
  }
}

TEST(ThreadPoolTest, DestructorDrainsSubmittedTasks) {
  std::atomic<std::int64_t> ran{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 16; ++i) {
      pool.submit([&ran] { ++ran; });
    }
  }
  EXPECT_EQ(ran.load(), 16);
}

TEST(ThreadPoolTest, ReusableAcrossManySweeps) {
  ThreadPool pool(3);
  for (int round = 0; round < 50; ++round) {
    std::atomic<std::int64_t> sum{0};
    pool.for_each(round + 1, [&](std::int64_t begin, std::int64_t end, int) {
      for (std::int64_t i = begin; i < end; ++i) sum.fetch_add(i + 1);
    });
    const std::int64_t n = round + 1;
    EXPECT_EQ(sum.load(), n * (n + 1) / 2) << "round " << round;
  }
}

}  // namespace
}  // namespace sasynth
