// Monotonic deadlines and cooperative cancellation.
//
// A Deadline is a point on std::chrono::steady_clock (never the wall clock:
// NTP steps must not expire requests), or "unbounded". A CancelToken is a
// cheap copyable handle to shared cancellation state that long-running work
// polls cooperatively: the DSE checks it at work-item granularity, the
// scheduler at admission and dequeue, transports while blocked in poll().
//
// Cancellation is advisory — nothing is interrupted preemptively. A token
// reports cancelled when either (a) request_cancel() was called on any copy,
// or (b) its deadline expired. Work that observes cancellation stops early
// and surfaces a partial result (DseStatus::kCancelled), never a silent
// truncation.
//
// Determinism: wall-clock expiry is inherently racy across thread counts, so
// tokens also support an item-index *cut* (set_cut_at_item): phase-1 work
// items with index >= the cut are skipped by every worker, exactly, which
// makes a cancelled partial top-K bit-identical at jobs=1 and jobs=N. Tests
// use the cut; production uses deadlines; both flow through the same
// DseStatus::kCancelled path.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>

namespace sasynth {

/// A monotonic-clock deadline. Default-constructed = unbounded (never
/// expires). Copyable, trivially cheap to pass by value.
class Deadline {
 public:
  Deadline() = default;  ///< unbounded

  /// A deadline `ms` milliseconds from now; negative clamps to 0 (already
  /// expired — `deadline_ms 0` means "answer instantly or time out").
  static Deadline after_ms(std::int64_t ms);

  bool unbounded() const { return !bounded_; }

  /// True once the clock passed the deadline. Unbounded never expires.
  bool expired() const;

  /// Milliseconds until expiry (<= 0 once expired). A large sentinel
  /// (~292 years) when unbounded, so callers can min() without branching.
  std::int64_t remaining_ms() const;

 private:
  std::chrono::steady_clock::time_point when_{};
  bool bounded_ = false;
};

/// Shared-state cancellation handle. The default-constructed token is
/// *inert*: it never reports cancelled and costs nothing to copy (no
/// allocation) — the right value for "no deadline configured". Cancellable
/// tokens come from cancellable() or with_deadline(); every copy shares one
/// state block.
class CancelToken {
 public:
  CancelToken() = default;  ///< inert: never cancels

  /// A token with no deadline that cancels only via request_cancel().
  static CancelToken cancellable();

  /// A token that reports cancelled once `deadline` expires (or on an
  /// explicit request_cancel(), whichever first).
  static CancelToken with_deadline(Deadline deadline);

  /// Requests cancellation on every copy of this token. No-op on an inert
  /// token. Safe from any thread, idempotent.
  void request_cancel();

  /// True when cancellation was requested or the deadline expired.
  bool cancelled() const;

  /// The token's deadline (unbounded for inert / cancellable() tokens).
  Deadline deadline() const;

  /// Deterministic cut for tests and benches: after set_cut_at_item(k),
  /// cut(i) is true for every i >= k regardless of timing or thread count.
  /// cut(i) also folds in cancelled(), so polling loops need one call.
  void set_cut_at_item(std::int64_t index);
  bool cut(std::int64_t item_index) const;

 private:
  struct State {
    std::atomic<bool> cancelled{false};
    std::atomic<std::int64_t> cut_at{-1};  ///< -1 = no cut
    Deadline deadline;                     ///< immutable after construction
  };

  explicit CancelToken(std::shared_ptr<State> state)
      : state_(std::move(state)) {}

  std::shared_ptr<State> state_;  ///< null = inert
};

}  // namespace sasynth
