#include "serve/scheduler.h"

#include <algorithm>
#include <utility>

#include "faultinject/faultinject.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/logging.h"

namespace sasynth {

namespace {

/// Scheduler metrics (docs/OBSERVABILITY.md): admission outcomes, the live
/// queue depth, the accept-to-execute queue wait, and the deadline shedding
/// counters.
struct SchedMetrics {
  obs::Counter& admitted;
  obs::Counter& rejected;
  obs::Counter& rejected_expired;
  obs::Counter& shed_expired;
  obs::Gauge& queue_depth;
  obs::Histogram& queue_wait_ms;

  static SchedMetrics& get() {
    static SchedMetrics* m = [] {
      obs::MetricsRegistry& r = obs::MetricsRegistry::global();
      return new SchedMetrics{
          r.counter("serve_admitted_total"),
          r.counter("serve_rejected_total"),
          r.counter("serve_rejected_expired_total"),
          r.counter("serve_shed_expired_total"),
          r.gauge("serve_queue_depth"),
          r.histogram("serve_queue_wait_ms"),
      };
    }();
    return *m;
  }
};

}  // namespace

RequestScheduler::RequestScheduler(int jobs, std::int64_t queue_limit)
    : queue_limit_(std::max<std::int64_t>(1, queue_limit)), pool_(jobs) {}

Admission RequestScheduler::try_submit(Work work, Deadline deadline,
                                       CancelToken token) {
  static fault::Site& admit_site = fault::site(fault::kSiteSchedAdmit);
  SchedMetrics& sm = SchedMetrics::get();
  // Shed before anything else: admitting a dead request would only let it
  // occupy a slot a live one could use. Checked outside the lock — expiry
  // needs no queue state.
  if (deadline.expired()) {
    sm.rejected_expired.add(1);
    return Admission::kExpired;
  }
  const bool admit_fault = admit_site.fire() != fault::ErrorKind::kNone;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (admit_fault || pending_ >= queue_limit_) {
      // An injected admission failure is indistinguishable from a full
      // queue on purpose: the caller's retry-response path is exactly what
      // the fault is exercising.
      sm.rejected.add(1);
      if (admit_fault) fault::note_degraded();
      return Admission::kQueueFull;
    }
    ++pending_;
    high_water_ = std::max(high_water_, pending_);
    sm.admitted.add(1);
    sm.queue_depth.set(pending_);
  }
  const double accept_us =
      obs::metrics_enabled() ? obs::TraceRecorder::global().now_us() : -1.0;
  pool_.submit(
      [this, accept_us, deadline, work = std::move(work)] {
        SchedMetrics& m = SchedMetrics::get();
        if (accept_us >= 0.0) {
          m.queue_wait_ms.observe(
              (obs::TraceRecorder::global().now_us() - accept_us) * 1e-3);
        }
        // Dequeue-side shedding: the deadline ran out while this request sat
        // behind others. The callback still runs (the session's ordered
        // writer needs a response for every seq) but is told to skip the
        // work itself.
        const bool shed = deadline.expired();
        if (shed) m.shed_expired.add(1);
        try {
          work(shed);
        } catch (const std::exception& e) {
          // A throwing work item must not leak its admission slot: pending_
          // would never reach zero again and every later drain() would hang
          // the session. The error itself is the submitter's to handle.
          SA_LOG_WARN << "scheduler: work item threw (" << e.what()
                      << "), releasing its admission slot";
          fault::note_degraded();
        } catch (...) {
          SA_LOG_WARN
              << "scheduler: work item threw, releasing its admission slot";
          fault::note_degraded();
        }
        std::lock_guard<std::mutex> lock(mutex_);
        --pending_;
        m.queue_depth.set(pending_);
        idle_.notify_all();
      },
      std::move(token));
  return Admission::kAccepted;
}

void RequestScheduler::submit_followup(std::function<void()> fn) {
  SchedMetrics& sm = SchedMetrics::get();
  {
    std::lock_guard<std::mutex> lock(mutex_);
    ++pending_;
    high_water_ = std::max(high_water_, pending_);
    sm.queue_depth.set(pending_);
  }
  pool_.submit([this, fn = std::move(fn)] {
    try {
      fn();
    } catch (const std::exception& e) {
      // Like a throwing work item: the slot must be released or every later
      // drain() hangs; the error itself is the continuation's to handle.
      SA_LOG_WARN << "scheduler: follow-up threw (" << e.what()
                  << "), releasing its slot";
      fault::note_degraded();
    } catch (...) {
      SA_LOG_WARN << "scheduler: follow-up threw, releasing its slot";
      fault::note_degraded();
    }
    std::lock_guard<std::mutex> lock(mutex_);
    --pending_;
    SchedMetrics::get().queue_depth.set(pending_);
    idle_.notify_all();
  });
}

void RequestScheduler::drain() {
  std::unique_lock<std::mutex> lock(mutex_);
  idle_.wait(lock, [this] { return pending_ == 0; });
}

std::int64_t RequestScheduler::pending() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return pending_;
}

std::int64_t RequestScheduler::high_water() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return high_water_;
}

}  // namespace sasynth
