#include "obs/trace.h"

#include <cstdio>

namespace sasynth::obs {

namespace {

std::atomic<bool> g_trace_enabled{false};
std::atomic<int> g_next_thread_id{0};

std::string escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out;
}

std::string fmt_us(double us) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%.3f", us);
  return buf;
}

}  // namespace

bool trace_enabled() { return g_trace_enabled.load(std::memory_order_relaxed); }

void set_trace_enabled(bool enabled) {
  // Pin the global recorder's epoch before the first span can open, so no
  // recorded span starts before the epoch (negative ts confuses viewers).
  if (enabled) TraceRecorder::global();
  g_trace_enabled.store(enabled, std::memory_order_relaxed);
}

TraceRecorder::TraceRecorder(std::size_t capacity)
    : epoch_(std::chrono::steady_clock::now()), capacity_(capacity) {}

void TraceRecorder::record(TraceEvent event) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (events_.size() >= capacity_) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  events_.push_back(std::move(event));
}

double TraceRecorder::now_us() const {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - epoch_)
      .count();
}

std::vector<TraceEvent> TraceRecorder::snapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return events_;
}

std::size_t TraceRecorder::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return events_.size();
}

void TraceRecorder::clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  events_.clear();
  dropped_.store(0, std::memory_order_relaxed);
}

std::string TraceRecorder::to_chrome_trace() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::string out = "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [";
  for (std::size_t i = 0; i < events_.size(); ++i) {
    const TraceEvent& e = events_[i];
    out += std::string(i == 0 ? "" : ",") + "\n  {\"name\": \"" +
           escape(e.name) + "\", \"cat\": \"" + escape(e.category) +
           "\", \"ph\": \"X\", \"pid\": 1, \"tid\": " + std::to_string(e.tid) +
           ", \"ts\": " + fmt_us(e.ts_us) + ", \"dur\": " + fmt_us(e.dur_us);
    if (!e.args.empty()) {
      out += ", \"args\": {";
      for (std::size_t a = 0; a < e.args.size(); ++a) {
        out += std::string(a == 0 ? "" : ", ") + "\"" +
               escape(e.args[a].first) +
               "\": " + std::to_string(e.args[a].second);
      }
      out += "}";
    }
    out += "}";
  }
  out += events_.empty() ? "]}\n" : "\n]}\n";
  return out;
}

int TraceRecorder::thread_id() {
  thread_local const int id =
      g_next_thread_id.fetch_add(1, std::memory_order_relaxed);
  return id;
}

TraceRecorder& TraceRecorder::global() {
  static TraceRecorder* recorder = new TraceRecorder();
  return *recorder;
}

ScopedSpan::ScopedSpan(const char* name, const char* category)
    : name_(name),
      category_(category),
      start_(std::chrono::steady_clock::now()),
      active_(trace_enabled()) {}

ScopedSpan::~ScopedSpan() {
  if (!active_ || !trace_enabled()) return;
  TraceRecorder& recorder = TraceRecorder::global();
  TraceEvent event;
  event.name = name_;
  event.category = category_;
  event.tid = TraceRecorder::thread_id();
  const double end_us = recorder.now_us();
  const double dur_us = elapsed_seconds() * 1e6;
  event.ts_us = end_us - dur_us;
  event.dur_us = dur_us;
  event.args = std::move(args_);
  recorder.record(std::move(event));
}

void ScopedSpan::arg(const char* key, std::int64_t value) {
  if (!active_) return;
  // One allocation for a span's few args (no span carries more than 4),
  // not one per growth step.
  if (args_.empty()) args_.reserve(4);
  args_.emplace_back(key, value);
}

double ScopedSpan::elapsed_seconds() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start_)
      .count();
}

}  // namespace sasynth::obs
