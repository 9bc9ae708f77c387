// Bounded-admission request scheduler: the concurrency layer between a
// protocol session and the DSE.
//
// Accepted work fans out onto the existing sasynth::ThreadPool (task mode,
// PR 1). Admission is bounded: once `queue_limit` requests are in flight
// (queued or executing), try_submit refuses and the session answers with a
// retry-hint response instead of buffering unboundedly — explicit
// backpressure, the client decides when to come back. drain() blocks until
// every accepted request has finished; `stats` and `shutdown` call it so
// counters are settled and shutdown is graceful, and the event loop's
// bounded drain polls pending() instead.
//
// Deadlines make the scheduler shed dead work at both ends of the queue:
// admission refuses a request whose deadline already expired (kExpired,
// `serve_rejected_expired_total`), and a request that expires while queued
// is handed to its work callback with shed=true at dequeue
// (`serve_shed_expired_total`) so the session can answer `timeout` without
// paying for a DSE nobody is waiting for.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>

#include "util/deadline.h"
#include "util/thread_pool.h"

namespace sasynth {

/// try_submit outcome. kExpired is not backpressure: the queue may be empty;
/// the request simply arrived dead.
enum class Admission { kAccepted, kQueueFull, kExpired };

class RequestScheduler {
 public:
  /// `jobs` resolves like ThreadPool (0 = SASYNTH_JOBS env, then hardware);
  /// requests run on the pool's workers, never on the submitting thread,
  /// even at 1. `queue_limit` < 1 is clamped to 1.
  RequestScheduler(int jobs, std::int64_t queue_limit);

  RequestScheduler(const RequestScheduler&) = delete;
  RequestScheduler& operator=(const RequestScheduler&) = delete;

  /// One accepted request. `shed` is true when the deadline expired between
  /// admission and dequeue — the callback must answer (the ordered writer
  /// needs every seq) but should skip the real work.
  using Work = std::function<void(bool shed)>;

  /// Admits `work` onto a pool worker unless the queue is full or `deadline`
  /// has already expired. `token` (optional) rides along to the pool so
  /// queue-side expiry is visible in `pool_tasks_expired_total`.
  Admission try_submit(Work work, Deadline deadline = Deadline(),
                       CancelToken token = CancelToken());

  /// Admission-exempt pool submission for internal continuations that must
  /// leave the calling thread (e.g. a singleflight completion whose follower
  /// callbacks may each re-execute a full request — running those on the
  /// event-loop thread would stall every session). Always accepted, never
  /// refused or shed, and counted in pending() so drain() covers it; it is
  /// not a client admission, so `serve_admitted_total` is untouched.
  void submit_followup(std::function<void()> fn);

  /// Blocks until every accepted work item has completed.
  void drain();

  int jobs() const { return pool_.jobs(); }
  std::int64_t queue_limit() const { return queue_limit_; }

  /// Accepted-but-unfinished request count right now.
  std::int64_t pending() const;

  /// Highest pending() ever observed (the queue-depth high-water mark).
  /// Admission outcomes are counted in the metrics registry only
  /// (`serve_rejected_total`, `serve_rejected_expired_total`,
  /// `serve_shed_expired_total`).
  std::int64_t high_water() const;

 private:
  std::int64_t queue_limit_;
  mutable std::mutex mutex_;
  std::condition_variable idle_;
  std::int64_t pending_ = 0;
  std::int64_t high_water_ = 0;
  // Declared last: workers may still touch the fields above while the pool
  // drains during destruction.
  ThreadPool pool_;
};

}  // namespace sasynth
