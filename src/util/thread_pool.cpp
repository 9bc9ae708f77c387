#include "util/thread_pool.h"

#include <algorithm>
#include <cstdlib>

#include "faultinject/faultinject.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/logging.h"

namespace sasynth {

namespace {

/// Pool metrics (docs/OBSERVABILITY.md): range/task throughput plus the
/// submit-to-dequeue queue wait. Handles resolved once per process.
struct PoolMetrics {
  obs::Counter& ranges;
  obs::Counter& tasks;
  obs::Counter& tasks_expired;
  obs::Histogram& task_wait_ms;

  static PoolMetrics& get() {
    static PoolMetrics* m = [] {
      obs::MetricsRegistry& r = obs::MetricsRegistry::global();
      return new PoolMetrics{
          r.counter("pool_ranges_total"),
          r.counter("pool_tasks_total"),
          r.counter("pool_tasks_expired_total"),
          r.histogram("pool_task_wait_ms"),
      };
    }();
    return *m;
  }
};

}  // namespace

int ThreadPool::env_jobs() {
  const char* env = std::getenv("SASYNTH_JOBS");
  if (env == nullptr || *env == '\0') return 0;
  char* end = nullptr;
  const long v = std::strtol(env, &end, 10);
  if (end == nullptr || *end != '\0' || v < 1) return 0;
  return static_cast<int>(std::min<long>(v, 1024));
}

int ThreadPool::resolve_jobs(int requested) {
  if (requested > 0) return requested;
  const int env = env_jobs();
  if (env > 0) return env;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? static_cast<int>(hw) : 1;
}

ThreadPool::ThreadPool(int jobs) : jobs_(resolve_jobs(jobs)) {
  threads_.reserve(static_cast<std::size_t>(jobs_));
  for (int w = 0; w < jobs_; ++w) {
    threads_.emplace_back([this, w] { worker_loop(w); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    shutdown_ = true;
  }
  work_ready_.notify_all();
  for (std::thread& t : threads_) t.join();
}

void ThreadPool::run_serial(std::int64_t count, const RangeBody& body) {
  if (count > 0) {
    PoolMetrics::get().ranges.add(1);
    body(0, count, 0);
  }
}

void ThreadPool::for_each(std::int64_t count, const RangeBody& body,
                          std::int64_t chunk) {
  if (count <= 0) return;
  if (jobs_ == 1 || count == 1) {
    run_serial(count, body);
    return;
  }
  if (chunk <= 0) {
    // ~8 ranges per worker amortizes queue traffic while keeping enough
    // granules that one expensive item cannot straggle a whole partition.
    chunk = std::max<std::int64_t>(1, count / (static_cast<std::int64_t>(jobs_) * 8));
  }
  {
    std::lock_guard<std::mutex> lock(mutex_);
    queue_.clear();
    for (std::int64_t begin = 0; begin < count; begin += chunk) {
      queue_.push_back(Range{begin, std::min(begin + chunk, count)});
    }
    PoolMetrics::get().ranges.add(static_cast<std::int64_t>(queue_.size()));
    body_ = &body;
    first_error_ = nullptr;
    inflight_ = 0;
  }
  work_ready_.notify_all();
  std::unique_lock<std::mutex> lock(mutex_);
  work_done_.wait(lock, [this] { return queue_.empty() && inflight_ == 0; });
  body_ = nullptr;
  if (first_error_) {
    std::exception_ptr err = first_error_;
    first_error_ = nullptr;
    std::rethrow_exception(err);
  }
}

void ThreadPool::submit(std::function<void()> task, CancelToken token) {
  // Sample the enqueue clock only when metrics are on; a negative stamp
  // tells the dequeuing worker to skip the wait-time observation.
  const double enqueue_us =
      obs::metrics_enabled() ? obs::TraceRecorder::global().now_us() : -1.0;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    tasks_.push_back(Task{std::move(task), enqueue_us, std::move(token)});
  }
  work_ready_.notify_one();
}

void ThreadPool::wait_tasks() {
  std::unique_lock<std::mutex> lock(mutex_);
  work_done_.wait(lock, [this] { return tasks_.empty() && task_inflight_ == 0; });
}

void ThreadPool::worker_loop(int worker) {
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    work_ready_.wait(lock, [this] {
      return shutdown_ || !queue_.empty() || !tasks_.empty();
    });
    if (shutdown_ && queue_.empty() && tasks_.empty()) return;
    if (!queue_.empty()) {
      const Range range = queue_.back();
      queue_.pop_back();
      const RangeBody* body = body_;
      ++inflight_;
      lock.unlock();
      std::exception_ptr err;
      try {
        (*body)(range.begin, range.end, worker);
      } catch (...) {
        err = std::current_exception();
      }
      lock.lock();
      if (err && !first_error_) first_error_ = err;
      --inflight_;
      if (queue_.empty() && inflight_ == 0) work_done_.notify_all();
      continue;
    }
    Task task = std::move(tasks_.front());
    tasks_.pop_front();
    ++task_inflight_;
    lock.unlock();
    PoolMetrics& pm = PoolMetrics::get();
    pm.tasks.add(1);
    if (task.enqueue_us >= 0.0) {
      pm.task_wait_ms.observe(
          (obs::TraceRecorder::global().now_us() - task.enqueue_us) * 1e-3);
    }
    if (task.token.cancelled()) pm.tasks_expired.add(1);
    try {
      task.fn();
    } catch (const std::exception& e) {
      // Submitted tasks own their errors (for_each keeps rethrow semantics),
      // but a swallowed throw is still a degraded event worth counting.
      SA_LOG_WARN << "thread pool: task threw (" << e.what() << ")";
      fault::note_degraded();
    } catch (...) {
      SA_LOG_WARN << "thread pool: task threw";
      fault::note_degraded();
    }
    lock.lock();
    --task_inflight_;
    if (tasks_.empty() && task_inflight_ == 0) work_done_.notify_all();
  }
}

}  // namespace sasynth
