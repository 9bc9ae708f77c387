// Sharded phase-1 DSE across daemons: the `sasynth-shard v1` wire block and
// the coordinator that partitions the (mapping, shape) work-item space over
// worker daemons and reduces their partial top-Ks.
//
// Shard assignment is a deterministic index-range split of the phase-1 item
// list (DesignSpaceExplorer::count_phase1_items) — never load-dependent —
// and the reduce step is the same stable (estimated_gops desc, bram asc,
// item order) merge the in-process sweep uses, so the coordinator's response
// is byte-identical to single-node execution at any shard count, any jobs
// count, and any cache state. Each worker evaluates only its window
// (DseOptions::shard_begin/shard_end); the windowed candidate list is
// exactly the full sweep's list restricted to the window, every item of
// range p precedes every item of range q > p, and the global top-K
// restricted to one range is a prefix of that range's order — so merging
// per-range top-Ks with earlier-range-wins ties reproduces the single-node
// top-K bit for bit.
//
// A shard request block (coordinator -> worker):
//
//   sasynth-shard v1
//   shard_items <begin> <end>     (the item window, half-open)
//   layer I,O,R,C,K,stride,groups
//   device <name>
//   dtype <name>
//   option <key> <value>          (the canonical option set, canonical
//                                  order; min_util carries the coordinator's
//                                  current relax-round floor and auto_relax
//                                  is forced off — relaxation is a global
//                                  decision the coordinator owns)
//   deadline_ms <N>               (optional: remaining budget at dispatch)
//   end
//
// Everything after the shard_items line is an ordinary request body —
// parse_shard_request_block strips the shard framing and delegates to
// parse_request_block, so the two protocols cannot drift.
//
// A worker answers with its windowed partial (one candidate per surviving
// work item, already stable-sorted, truncated to top_k):
//
//   sasynth-shard-response v1 ok
//   items <N>            (the worker's own count of the FULL item list — a
//                         mismatch with the coordinator's count means the
//                         nodes disagree on the enumeration and the range
//                         is re-executed locally instead of merged)
//   cancelled <0|1>
//   work_items <W>
//   candidates <C>
//   <C embedded `sasynth-design v1` blobs, 4 lines each>
//   end
//
// or `sasynth-shard-response v1 error <message>` + `end`.
//
// Degradation contract: a dead/slow/faulty peer (fault sites shard.connect,
// shard.read, shard.write), a malformed partial, or an item-count mismatch
// never fails the request — the coordinator re-executes that peer's range
// locally under the request's remaining deadline budget, counted in
// `shard_degraded_total` (and `degraded_total` via fault::note_degraded).
//
// Resilience tier (serve/peer_health.h): every RPC outcome feeds a per-peer
// circuit breaker. An open breaker skips the doomed connect entirely (the
// range goes straight to local re-execution, so a dead peer costs the fleet
// one timeout total, not one per request); a half-open peer gets exactly one
// in-flight probe request; and with hedge_ms > 0 a slow-but-alive peer is
// hedged — after the delay the coordinator re-executes the range locally and
// takes whichever finishes first. None of this can change a response byte:
// both execution sites enumerate the identical window.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/dse.h"
#include "serve/peer_health.h"
#include "serve/protocol.h"
#include "util/thread_pool.h"

namespace sasynth {

inline constexpr const char* kShardRequestMagic = "sasynth-shard v1";
inline constexpr const char* kShardResponseMagic = "sasynth-shard-response v1";

/// One parsed shard work order: the fully resolved inner request plus the
/// item window the worker must evaluate.
struct ShardRequest {
  ServeRequest request;
  std::int64_t item_begin = 0;
  std::int64_t item_end = 0;
};

struct ParsedShardRequest {
  bool ok = false;
  std::string error;
  ShardRequest request;
};

/// Parses a `sasynth-shard v1` block (with or without the trailing `end`).
/// Strict like parse_request_block: a missing/duplicate/garbled shard_items
/// line, a bad window, or any inner-request error yields ok=false.
ParsedShardRequest parse_shard_request_block(const std::string& block);

/// Serializes a shard work order. `request.dse` is rendered through the
/// existing canonical option set (min_util/auto_relax included as-is — the
/// caller pins the relax round before formatting). deadline_ms < 0 omits
/// the line.
std::string format_shard_request_block(const ServeRequest& request,
                                       std::int64_t item_begin,
                                       std::int64_t item_end,
                                       std::int64_t deadline_ms);

/// One worker's windowed partial result.
struct ShardPartial {
  bool ok = false;
  std::string error;          ///< set when ok == false
  std::int64_t total_items = 0;  ///< the worker's full item-list count
  std::int64_t work_items = 0;   ///< window items actually dispatched
  bool cancelled = false;        ///< the worker's token fired mid-window
  std::vector<DesignPoint> designs;  ///< sorted, truncated to top_k
};

std::string format_shard_response(const ShardPartial& partial);
std::string format_shard_error_response(const std::string& message);

/// Parses a worker response; every design blob is validated against `nest`
/// (DesignLoadMode::kStrict), so a corrupt peer degrades instead of feeding
/// the merge garbage.
ShardPartial parse_shard_response(const std::string& text,
                                  const LoopNest& nest);

struct ShardOptions {
  /// Worker endpoints, "host:port" each (numeric IPv4 or "localhost" —
  /// sasynthd binds loopback only, so a shard fleet is co-located by
  /// design; remote fleets front workers with a real ingress). Empty
  /// disables the tier.
  std::vector<std::string> peers;
  /// Per-step (connect / write / read) bound on peer I/O, milliseconds;
  /// 0 = unbounded. A stalled peer costs at most this much before its range
  /// degrades to local re-execution.
  std::int64_t io_timeout_ms = 30000;
  /// Consecutive request-path failures that open a peer's circuit breaker
  /// (--peer-failure-threshold).
  int failure_threshold = 3;
  /// Background prober cadence and backoff base, milliseconds
  /// (--peer-probe-interval); 0 disables the prober (breakers still open,
  /// but only an operator restart re-admits a peer).
  std::int64_t probe_interval_ms = 1000;
  /// Hedge delay, milliseconds (--shard-hedge-ms): how long the coordinator
  /// waits on a peer RPC before starting local re-execution of the same
  /// range and taking whichever finishes first. 0 disables hedging (wait
  /// for the RPC's own io timeouts, the pre-hedge behavior).
  std::int64_t hedge_ms = 0;
};

/// Validates and splits a "host:port,host:port,..." flag value. Returns an
/// error message or "" (with the peers appended to `out`).
std::string parse_peer_list(const std::string& spec,
                            std::vector<std::string>* out);

/// The coordinator: a drop-in replacement for DesignSpaceExplorer::explore
/// that fans phase 1 out over the peer fleet and runs phase 2 locally on
/// the merged top-K. explore() is thread-safe and callable from scheduler
/// pool tasks; RPCs run on a persistent worker pool sized to the peer count
/// (not one short-lived thread per range per request), and every outcome
/// feeds the shared PeerHealthRegistry.
class ShardCoordinator {
 public:
  explicit ShardCoordinator(ShardOptions options);
  ~ShardCoordinator();

  bool enabled() const { return !options_.peers.empty(); }
  int num_peers() const { return static_cast<int>(options_.peers.size()); }
  const ShardOptions& options() const { return options_; }

  /// The per-peer breaker registry; null when the tier is disabled (no
  /// peers). Exposed for health/stats surfacing and tests.
  PeerHealthRegistry* health() const { return health_.get(); }

  /// Joins the background prober thread. Idempotent; the server calls it at
  /// drain/shutdown so the prober never outlives the transports.
  void stop_health_prober();

  /// Sharded two-phase DSE for one resolved request: DesignSpaceExplorer::
  /// explore with run_round as its phase 1. The auto_relax_util retry loop
  /// stays global (a per-worker relax decision would depend on where the
  /// range boundaries fell): each round fans the full item list out at one
  /// utilization floor, and only a globally empty round relaxes.
  /// `request.dse.cancel` governs both the peer RPC budget and local
  /// fallbacks; a fired token yields DseStatus::kCancelled with the
  /// best-so-far merge, same as in-process.
  DseResult explore(const ServeRequest& request, const LoopNest& nest) const;

 private:
  /// One utilization round: split, consult the breaker registry, fan out,
  /// degrade skipped/failed ranges to local re-execution (hedging slow
  /// ones), merge. Sets stats->cancelled when any range was cut (never
  /// clears it).
  std::vector<DseCandidate> run_round(const ServeRequest& request,
                                      const LoopNest& nest, double util,
                                      DseStats* stats) const;

  /// One peer RPC (connect + send + receive + parse). ok=false on any
  /// transport/protocol failure; never throws.
  ShardPartial call_peer(const std::string& peer, const std::string& block,
                         const LoopNest& nest) const;

  /// Local re-execution of one range (the degradation path).
  std::vector<DseCandidate> local_window(const ServeRequest& request,
                                         const LoopNest& nest, double util,
                                         std::int64_t begin, std::int64_t end,
                                         bool* cancelled) const;

  ShardOptions options_;
  // health_ before rpc_pool_: the pool destructs (and joins its in-flight
  // RPC tasks, which report into the registry) first. Both are null when
  // the tier is disabled. Mutable because explore() is const — the breaker
  // bookkeeping is execution policy, never response content.
  mutable std::unique_ptr<PeerHealthRegistry> health_;
  mutable std::unique_ptr<ThreadPool> rpc_pool_;
};

}  // namespace sasynth
