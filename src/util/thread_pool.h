// Fixed-size worker pool for data-parallel sweeps (the DSE's phase-1 hot
// loop). Work is submitted as contiguous index ranges over [0, count): the
// caller's body runs on whichever worker dequeues the range, so bodies must
// tag results by item index (not worker identity) when output order matters.
// Exceptions thrown by a body are captured and rethrown on the calling
// thread after all workers drain.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "util/deadline.h"

namespace sasynth {

class ThreadPool {
 public:
  /// Body of a parallel loop: processes items [begin, end); `worker` is a
  /// stable index in [0, jobs()) usable for thread-local accumulators.
  using RangeBody =
      std::function<void(std::int64_t begin, std::int64_t end, int worker)>;

  /// jobs <= 0 resolves through resolve_jobs() (SASYNTH_JOBS env, then
  /// hardware concurrency). The pool always starts jobs() workers, so
  /// submit() never runs a task on the caller — even at jobs == 1, where an
  /// event-loop submitter would otherwise block the loop (and every other
  /// session) behind one request. for_each at jobs == 1 still runs serially
  /// on the caller.
  explicit ThreadPool(int jobs = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Resolved worker count (>= 1).
  int jobs() const { return jobs_; }

  /// Splits [0, count) into chunks of `chunk` items (0 picks a chunk that
  /// yields ~8 ranges per worker for load balance), queues them, and blocks
  /// until every range has run. Rethrows the first captured exception.
  /// Not reentrant: one for_each at a time per pool.
  void for_each(std::int64_t count, const RangeBody& body,
                std::int64_t chunk = 0);

  /// Queues a one-off task for any worker (FIFO); it never runs on the
  /// caller. Tasks own their errors: an exception escaping a task is
  /// swallowed, not rethrown (unlike for_each).
  /// A task must not call for_each, submit, or wait_tasks on its own pool.
  ///
  /// Tasks may carry a CancelToken: the pool still runs a cancelled task
  /// (the owner decides what shedding means), but a task observed cancelled
  /// at dequeue is counted in `pool_tasks_expired_total` — the queue-side
  /// view of work that waited past its deadline.
  void submit(std::function<void()> task, CancelToken token = CancelToken());

  /// Blocks until every task queued via submit() has finished. Independent
  /// of for_each (ranges and tasks are tracked separately).
  void wait_tasks();

  /// Worker count requested via the SASYNTH_JOBS environment variable,
  /// capped at 1024; 0 when unset or invalid (not a strict int64, or < 1).
  static int env_jobs();

  /// requested > 0 wins; otherwise SASYNTH_JOBS; otherwise
  /// hardware_concurrency (at least 1).
  static int resolve_jobs(int requested);

 private:
  struct Range {
    std::int64_t begin = 0;
    std::int64_t end = 0;
  };

  void worker_loop(int worker);
  void run_serial(std::int64_t count, const RangeBody& body);

  int jobs_ = 1;
  std::vector<std::thread> threads_;

  std::mutex mutex_;
  std::condition_variable work_ready_;
  std::condition_variable work_done_;
  std::vector<Range> queue_;        ///< pending ranges of the active for_each
  const RangeBody* body_ = nullptr; ///< active body (null when idle)
  std::int64_t inflight_ = 0;       ///< ranges dequeued but not finished
  struct Task {
    std::function<void()> fn;
    double enqueue_us = 0.0;  ///< obs clock at submit; < 0 when not sampled
    CancelToken token;        ///< inert unless the submitter passed one
  };
  std::deque<Task> tasks_;          ///< pending submit() tasks
  std::int64_t task_inflight_ = 0;  ///< tasks dequeued but not finished
  std::exception_ptr first_error_;
  bool shutdown_ = false;
};

}  // namespace sasynth
