#include "serve/scheduler.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <thread>

#include "support/metric_deltas.h"

namespace sasynth {
namespace {

// A gate tasks can block on, so tests control exactly how many requests are
// in flight (no sleeps, no timing assumptions).
class Gate {
 public:
  void open() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      open_ = true;
    }
    cv_.notify_all();
  }
  void wait() {
    std::unique_lock<std::mutex> lock(mutex_);
    cv_.wait(lock, [this] { return open_; });
  }

 private:
  std::mutex mutex_;
  std::condition_variable cv_;
  bool open_ = false;
};

TEST(RequestSchedulerTest, OneJobNeverExecutesOnTheSubmitter) {
  // jobs=1 must still hand work to a worker thread: the submitter is the
  // event-loop (or stdio reader) thread, and executing a request inline
  // would block every other session behind this one. The gated task proves
  // it: try_submit returns while the task is still parked.
  const MetricDeltas delta;
  RequestScheduler scheduler(/*jobs=*/1, /*queue_limit=*/4);
  Gate gate;
  std::atomic<int> ran{0};
  EXPECT_EQ(Admission::kAccepted, scheduler.try_submit([&](bool) {
    gate.wait();
    ++ran;
  }));
  EXPECT_EQ(ran.load(), 0);  // accepted, parked, not run on this thread
  EXPECT_EQ(scheduler.pending(), 1);
  gate.open();
  scheduler.drain();
  EXPECT_EQ(ran.load(), 1);
  EXPECT_EQ(scheduler.pending(), 0);
  EXPECT_EQ(scheduler.high_water(), 1);
  EXPECT_EQ(delta("serve_rejected_total"), 0);
  EXPECT_EQ(scheduler.jobs(), 1);
}

TEST(RequestSchedulerTest, DrainWaitsForAllAcceptedWork) {
  RequestScheduler scheduler(/*jobs=*/2, /*queue_limit=*/16);
  std::atomic<int> ran{0};
  for (int i = 0; i < 8; ++i) {
    ASSERT_EQ(Admission::kAccepted, scheduler.try_submit([&](bool) { ++ran; }));
  }
  scheduler.drain();
  EXPECT_EQ(ran.load(), 8);
  EXPECT_EQ(scheduler.pending(), 0);
  EXPECT_GE(scheduler.high_water(), 1);
  EXPECT_LE(scheduler.high_water(), 8);
}

TEST(RequestSchedulerTest, RefusesBeyondTheAdmissionLimit) {
  const MetricDeltas delta;
  RequestScheduler scheduler(/*jobs=*/2, /*queue_limit=*/2);
  Gate gate;
  std::atomic<int> ran{0};
  ASSERT_EQ(Admission::kAccepted, scheduler.try_submit([&](bool) {
    gate.wait();
    ++ran;
  }));
  ASSERT_EQ(Admission::kAccepted, scheduler.try_submit([&](bool) {
    gate.wait();
    ++ran;
  }));
  // Two in flight == the limit: the third is refused, not queued.
  std::atomic<int> extra{0};
  EXPECT_EQ(Admission::kQueueFull, scheduler.try_submit([&](bool) { ++extra; }));
  EXPECT_EQ(delta("serve_rejected_total"), 1);
  EXPECT_EQ(scheduler.high_water(), 2);

  gate.open();
  scheduler.drain();
  EXPECT_EQ(ran.load(), 2);
  EXPECT_EQ(extra.load(), 0);  // the refused lambda never runs

  // Capacity is available again after the drain.
  EXPECT_EQ(Admission::kAccepted, scheduler.try_submit([&](bool) { ++ran; }));
  scheduler.drain();
  EXPECT_EQ(ran.load(), 3);
}

TEST(RequestSchedulerTest, QueueLimitClampedToOne) {
  RequestScheduler scheduler(/*jobs=*/1, /*queue_limit=*/-5);
  EXPECT_EQ(scheduler.queue_limit(), 1);
}

TEST(RequestSchedulerTest, ExpiredDeadlineRefusedAtAdmission) {
  const MetricDeltas delta;
  RequestScheduler scheduler(/*jobs=*/1, /*queue_limit=*/4);
  std::atomic<int> ran{0};
  // An already-expired deadline never runs the work, never takes a slot,
  // and is distinguished from backpressure.
  EXPECT_EQ(Admission::kExpired,
            scheduler.try_submit([&](bool) { ++ran; }, Deadline::after_ms(0)));
  EXPECT_EQ(ran.load(), 0);
  EXPECT_EQ(delta("serve_rejected_expired_total"), 1);
  EXPECT_EQ(delta("serve_rejected_total"), 0);
  EXPECT_EQ(scheduler.pending(), 0);
  // A live deadline is admitted normally.
  EXPECT_EQ(Admission::kAccepted,
            scheduler.try_submit([&](bool shed) { ran += shed ? 0 : 1; },
                                 Deadline::after_ms(60000)));
  scheduler.drain();
  EXPECT_EQ(ran.load(), 1);
  EXPECT_EQ(delta("serve_shed_expired_total"), 0);
}

TEST(RequestSchedulerTest, DeadlineExpiringInQueueShedsAtDequeue) {
  const MetricDeltas delta;
  RequestScheduler scheduler(/*jobs=*/2, /*queue_limit=*/16);
  Gate gate;
  std::atomic<int> held{0};
  // Fill both workers so later submissions sit in the queue.
  for (int i = 0; i < 2; ++i) {
    ASSERT_EQ(Admission::kAccepted, scheduler.try_submit([&](bool) {
      ++held;
      gate.wait();
    }));
  }
  while (held.load() < 2) std::this_thread::yield();
  // Admitted live, but the 1 ms budget is gone long before a worker frees
  // up — the callback must still run (ordered responses) with shed=true.
  std::atomic<int> shed_count{0};
  std::atomic<int> full_runs{0};
  ASSERT_EQ(Admission::kAccepted, scheduler.try_submit(
                                      [&](bool shed) {
                                        if (shed) {
                                          ++shed_count;
                                        } else {
                                          ++full_runs;
                                        }
                                      },
                                      Deadline::after_ms(1)));
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  gate.open();
  scheduler.drain();
  EXPECT_EQ(shed_count.load(), 1);
  EXPECT_EQ(full_runs.load(), 0);
  EXPECT_EQ(delta("serve_shed_expired_total"), 1);
}

TEST(RequestSchedulerTest, FollowUpIsAdmissionExemptRunsOffCallerAndDrains) {
  const MetricDeltas delta;
  RequestScheduler scheduler(/*jobs=*/2, /*queue_limit=*/1);
  Gate gate;
  std::atomic<int> ran{0};
  ASSERT_EQ(Admission::kAccepted, scheduler.try_submit([&](bool) {
    gate.wait();
    ++ran;
  }));
  // The queue is at its limit, but a follow-up is an internal continuation,
  // not a client admission: it must be accepted anyway, must not execute on
  // the submitting thread (the event loop completes singleflight flights
  // through this path), and must be covered by drain().
  scheduler.submit_followup([&] {
    gate.wait();
    ++ran;
  });
  EXPECT_EQ(ran.load(), 0);  // parked on workers, nothing ran inline
  EXPECT_EQ(scheduler.pending(), 2);
  EXPECT_EQ(delta("serve_rejected_total"), 0);
  gate.open();
  scheduler.drain();
  EXPECT_EQ(ran.load(), 2);
  EXPECT_EQ(scheduler.pending(), 0);
}

TEST(RequestSchedulerTest, DestructionDrainsInFlightWork) {
  std::atomic<int> ran{0};
  {
    RequestScheduler scheduler(/*jobs=*/2, /*queue_limit=*/16);
    for (int i = 0; i < 6; ++i) {
      ASSERT_EQ(Admission::kAccepted, scheduler.try_submit([&](bool) { ++ran; }));
    }
    // No drain: the destructor must finish accepted work, not drop it.
  }
  EXPECT_EQ(ran.load(), 6);
}

}  // namespace
}  // namespace sasynth
