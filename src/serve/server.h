// The synthesis server: protocol handlers + DesignCache + scheduler, behind
// the event-loop session engine (serve/event_loop.h), which serves TCP
// clients and stdio alike.
//
// One SynthServer is shared by every session of a deployment: the cache and
// the admission queue are global, while the transport owns each session's
// framing and response order. handle() — the per-request unit — is
// thread-safe and a pure function of the request text, so responses are
// byte-identical regardless of worker count, interleaving, or cache state.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <string>

#include "serve/deploy_protocol.h"
#include "serve/design_cache.h"
#include "serve/framing.h"
#include "serve/protocol.h"
#include "serve/scheduler.h"
#include "serve/shard.h"
#include "serve/singleflight.h"
#include "serve/sweep_cache.h"
#include "util/deadline.h"

namespace sasynth {

struct ServeOptions {
  /// Worker threads shared by all sessions (ThreadPool resolution rules).
  /// Requests always run on these workers, never on the session's thread.
  int jobs = 0;
  /// Admission bound: in-flight requests beyond this are refused with a
  /// retry response instead of queuing (explicit backpressure).
  std::int64_t queue_limit = 64;
  bool cache_enabled = true;
  /// On-disk store directory; empty = in-memory LRU only.
  std::string cache_dir;
  std::size_t cache_capacity = 1024;
  /// Entry bound of the cross-request SweepCache (serve/sweep_cache.h), the
  /// incremental-DSE tier below the exact-match DesignCache: per-(mapping,
  /// shape) sweep results shared across requests. 0 disables it. Unlike the
  /// DesignCache it is not gated on `cache_enabled` — a warm sweep cache can
  /// change only DSE time, never a response byte, so it is execution policy
  /// rather than a response cache.
  std::size_t sweep_cache_capacity = 65536;
  /// Deadline applied to requests that carry no deadline_ms field, in
  /// milliseconds; 0 = none (requests without a deadline run unbounded).
  std::int64_t default_deadline_ms = 0;
  /// Transport read/write timeout for TCP sessions (serve/event_loop.h),
  /// milliseconds; 0 = no timeout. A stalled client (slow-loris) loses its
  /// session when the timer fires — the daemon and every other session keep
  /// going.
  std::int64_t io_timeout_ms = 0;
  /// Shard-coordinator worker endpoints ("host:port" each, --peers). Empty
  /// (the default) serves single-node; nonempty routes every cache-missing
  /// synthesis request's phase 1 through the peer fleet (serve/shard.h),
  /// with byte-identical responses either way.
  std::vector<std::string> shard_peers;
  /// Per-step (connect/write/read) bound on shard peer I/O, milliseconds;
  /// 0 = unbounded (--shard-io-timeout).
  std::int64_t shard_io_timeout_ms = 30000;
  /// Consecutive peer failures that open that peer's circuit breaker
  /// (--peer-failure-threshold; serve/peer_health.h).
  int shard_failure_threshold = 3;
  /// Background health-prober cadence and backoff base, milliseconds
  /// (--peer-probe-interval); 0 disables automatic re-admission probing.
  std::int64_t shard_probe_interval_ms = 1000;
  /// Hedge delay for slow shard peers, milliseconds (--shard-hedge-ms);
  /// 0 disables hedging.
  std::int64_t shard_hedge_ms = 0;
};

class SynthServer {
 public:
  explicit SynthServer(ServeOptions options);

  /// Handles one request block synchronously: parse -> cache lookup ->
  /// (on miss) two-phase DSE + cache insert -> evaluate models -> format.
  /// Returns the full response text. Thread-safe.
  ///
  /// The DSE polls `cancel` and a fired token yields a `timeout` verdict
  /// (with the best-so-far design when one exists) that is never stored
  /// into the DesignCache. Cache hits answer `ok` even if the token already
  /// fired — the lookup precedes any DSE work, so it beats every realistic
  /// budget.
  std::string handle(const std::string& request_block,
                     CancelToken cancel = CancelToken());

  /// Handles one `sasynth-deploy v1` block (deploy_protocol.h): parse ->
  /// per-design cache lookups (all K must hit) -> (on miss) fleet selection
  /// + cache insert -> deploy::evaluate_fleet -> format. Hit and miss paths
  /// both answer through evaluate_fleet, so cached responses are
  /// byte-identical to fresh ones. Thread-safe.
  std::string handle_deploy(const std::string& request_block,
                            CancelToken cancel = CancelToken());

  /// Handles one `sasynth-shard v1` block (serve/shard.h) — the worker side
  /// of the shard tier: parse -> windowed phase-1 sweep (through the shared
  /// SweepCache, so a fleet of daemons warms into one logical sweep cache)
  /// -> partial top-K response. No DesignCache involvement: a windowed
  /// partial is not a full response, and the coordinator owns the response
  /// cache. Thread-safe.
  std::string handle_shard(const std::string& request_block,
                           CancelToken cancel = CancelToken());

  /// Delivers the response for one session sequence number. May be invoked
  /// on any thread (a pool worker, the loop thread, or inline from
  /// submit_session_block), exactly once per submitted seq.
  using PostResponse =
      std::function<void(std::uint64_t seq, std::string response)>;

  /// Session-block admission for the event loop (serve/event_loop.h):
  /// resolves the request's end-to-end budget (explicit deadline_ms wins,
  /// else --default-deadline, else unbounded), coalesces identical in-flight
  /// requests through the singleflight table, and submits leaders through
  /// the scheduler. `post` is called exactly
  /// once with the response for `seq` — possibly before this returns
  /// (admission refusal) and possibly on another thread. A coalesced
  /// follower costs no scheduler slot; it is answered from the leader's
  /// completion (shareable verdicts) or by re-executing under its own cancel
  /// token (the leader timed out — a timeout reflects the leader's budget,
  /// never the follower's). Shard blocks are never coalesced: two windows of
  /// one request are distinct work, and the coordinator already dedups at
  /// the request level.
  void submit_session_block(std::string block, BlockKind kind,
                            std::uint64_t seq, PostResponse post);

  /// Dispatches one bare protocol command (`ping`, `health`, `stats`,
  /// `stats --format=prom|json`, `shutdown`, or unknown) and returns its
  /// response text. `stats` and `shutdown` drain the scheduler first (the
  /// documented blocking points); `shutdown` also flips stop_requested().
  std::string handle_command(const std::string& command);

  /// `stats` command payload (drained sessions make it deterministic up to
  /// wall-clock fields). Counts come from the process-global metrics
  /// registry, so they read zero while metrics are off (sasynthd turns them
  /// on; this class never does) and cover every server in the process.
  std::string stats_text() const;

  /// `health` command payload. Unlike `stats` it does NOT drain first — an
  /// overloaded daemon must still answer its health probe instantly.
  std::string health_text() const;

  /// True once any session processed `shutdown` — transports stop accepting.
  bool stop_requested() const { return stop_.load(); }

  /// Graceful-drain entry (the event loop's drain): flips the server into
  /// draining mode — sessions stop reading further input, health reports
  /// `draining` — without waiting. The loop bounds the actual drain.
  void begin_drain();

  /// True between begin_drain() and process exit.
  bool draining() const { return draining_.load(); }

  const ServeOptions& options() const { return options_; }
  DesignCache& cache() { return cache_; }
  SweepCache& sweep_cache() { return sweep_cache_; }
  RequestScheduler& scheduler() { return scheduler_; }
  SingleFlight& singleflight() { return singleflight_; }

 private:
  /// Runs `block` through its handler. A throw — from the handler, or from
  /// the pool.task fault site in front of it when `pool_task` — degrades to
  /// an `internal error` response, counted as one request and one error.
  std::string run_block(const std::string& block, BlockKind kind,
                        const CancelToken& token, bool pool_task);

  /// Follower-side delivery of a completed flight (see submit_session_block).
  void deliver_coalesced(const std::string& block, BlockKind kind,
                         std::uint64_t seq, const CancelToken& token,
                         const PostResponse& post, const std::string& response,
                         bool shared);

  ServeOptions options_;
  ShardCoordinator shard_;
  DesignCache cache_;
  SweepCache sweep_cache_;
  SingleFlight singleflight_;
  std::atomic<bool> stop_{false};
  std::atomic<bool> draining_{false};
  std::chrono::steady_clock::time_point start_ =
      std::chrono::steady_clock::now();  ///< uptime_s origin for `health`
  // Declared last so in-flight request lambdas (which touch the members
  // above) finish before anything else is torn down.
  RequestScheduler scheduler_;
};

}  // namespace sasynth
