#include "serve/server.h"

#include <algorithm>
#include <chrono>

#include "core/perf_model.h"
#include "core/resource_model.h"
#include "core/unified.h"
#include "deploy/fleet.h"
#include "faultinject/faultinject.h"
#include "fpga/freq_model.h"
#include "loopnest/conv_nest.h"
#include "nn/network.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/logging.h"
#include "util/rng.h"
#include "util/strings.h"

namespace sasynth {

namespace {

/// The serving instruments (docs/OBSERVABILITY.md). The registry is the
/// one place a serving event is counted: `stats`, `health` and
/// `stats --format=prom|json` all render these.
struct ServeMetrics {
  obs::Counter& requests;
  obs::Counter& ok;
  obs::Counter& errors;
  obs::Counter& timeouts;
  /// Shared with SchedMetrics (the registry dedups by name): the scheduler
  /// bumps these at its own refusal/shed points, but a coalesced follower
  /// never enters the scheduler — its retry/shed verdicts are counted here.
  obs::Counter& rejected;
  obs::Counter& rejected_expired;
  obs::Counter& shed_expired;
  obs::Counter& commands;
  /// Requests answered by coalescing onto an identical in-flight request
  /// (singleflight followers) — the across-concurrency twin of cache_hits.
  obs::Counter& coalesced;
  obs::Counter& dse_runs;
  /// Sum of DseStats::work_items over all fresh explorations — the flatness
  /// of this counter across a warm-cache replay is the proof that cache hits
  /// never re-enter enumerate_phase1.
  obs::Counter& dse_work_items;
  obs::Histogram& request_ms;
  /// Longest single request, microseconds (`stats`' wall_ms_max).
  obs::Gauge& request_max_us;
  /// Budget left when a deadlined request finished (0 for timeouts): how
  /// close production deadlines run to the edge.
  obs::Histogram& deadline_slack_ms;

  static ServeMetrics& get() {
    static ServeMetrics* m = [] {
      obs::MetricsRegistry& r = obs::MetricsRegistry::global();
      return new ServeMetrics{
          r.counter("serve_requests_total"),
          r.counter("serve_ok_total"),
          r.counter("serve_errors_total"),
          r.counter("serve_timeouts_total"),
          r.counter("serve_rejected_total"),
          r.counter("serve_rejected_expired_total"),
          r.counter("serve_shed_expired_total"),
          r.counter("serve_commands_total"),
          r.counter("serve_coalesced_total"),
          r.counter("serve_dse_runs_total"),
          r.counter("serve_dse_work_items_total"),
          r.histogram("serve_request_ms"),
          r.gauge("serve_request_max_us"),
          r.histogram("request_deadline_slack_ms"),
      };
    }();
    return *m;
  }
};

/// One handled request's accounting, shared by handle, handle_deploy and
/// handle_shard: the request is counted when the record opens, and each
/// verdict call counts the verdict and feeds the span's clock to the wall
/// time instruments — so `stats`, prom and the trace all agree.
class RequestRecord {
 public:
  RequestRecord(const obs::ScopedSpan& span, const CancelToken& cancel)
      : span_(span), cancel_(cancel) {
    ServeMetrics::get().requests.add(1);
  }

  std::string ok(std::string response) {
    return finish(ServeMetrics::get().ok, std::move(response));
  }
  std::string error(std::string response) {
    return finish(ServeMetrics::get().errors, std::move(response));
  }
  std::string timeout(std::string response) {
    return finish(ServeMetrics::get().timeouts, std::move(response));
  }

 private:
  std::string finish(obs::Counter& verdict, std::string response) {
    ServeMetrics& sm = ServeMetrics::get();
    verdict.add(1);
    const std::int64_t us =
        static_cast<std::int64_t>(span_.elapsed_seconds() * 1e6);
    sm.request_ms.observe(static_cast<double>(us) * 1e-3);
    sm.request_max_us.set_max(us);
    if (!cancel_.deadline().unbounded()) {
      sm.deadline_slack_ms.observe(static_cast<double>(
          std::max<std::int64_t>(0, cancel_.deadline().remaining_ms())));
    }
    return response;
  }

  const obs::ScopedSpan& span_;
  const CancelToken& cancel_;
};

/// Fixed timeout messages (no numbers/timestamps), keyed by where the
/// deadline fired, so timed-out responses stay deterministic.
constexpr const char* kTimeoutAtAdmission = "deadline expired before admission";
constexpr const char* kTimeoutInQueue = "deadline expired waiting in queue";
constexpr const char* kTimeoutInDse =
    "deadline exceeded during design space exploration";
constexpr const char* kTimeoutInFleet =
    "deadline exceeded during fleet selection";

/// Singleflight sharing policy: ok/error/retry verdicts are pure functions
/// of the request text and may be handed to every coalesced follower
/// byte-for-byte. A timeout verdict reflects the *leader's* deadline — a
/// follower with a different (or no) budget must never receive it, so the
/// flight completes unshared and each follower answers under its own token.
bool response_is_shareable(const std::string& response) {
  const std::string magic = std::string(kResponseMagic) + " ";
  return starts_with(response, magic + "ok") ||
         starts_with(response, magic + "error") ||
         starts_with(response, magic + "retry");
}

}  // namespace

SynthServer::SynthServer(ServeOptions options)
    : options_(std::move(options)),
      shard_(ShardOptions{options_.shard_peers, options_.shard_io_timeout_ms,
                          options_.shard_failure_threshold,
                          options_.shard_probe_interval_ms,
                          options_.shard_hedge_ms}),
      cache_(options_.cache_enabled ? options_.cache_dir : std::string(),
             options_.cache_capacity),
      sweep_cache_(options_.sweep_cache_capacity),
      scheduler_(options_.jobs, options_.queue_limit) {}

std::string SynthServer::handle(const std::string& request_block,
                                CancelToken cancel) {
  obs::ScopedSpan span("serve.handle", "serve");
  RequestRecord record(span, cancel);
  const ParsedRequest parsed = parse_request_block(request_block);
  if (!parsed.ok) return record.error(format_error_response(parsed.error));
  // Mutable copy so the session's cancel token rides into the DSE. The token
  // (like dse.jobs) is execution policy: canonical_request_text never sees
  // it, so the cache key is unchanged.
  ServeRequest request = parsed.request;
  request.dse.cancel = cancel;
  // Like the token: execution policy, invisible to the canonical text. The
  // DSE replays per-item DFS results from the sweep cache when it can; a
  // warm cache shortens the sweep without touching its result.
  if (options_.sweep_cache_capacity > 0) {
    request.dse.sweep_memo = &sweep_cache_;
  }
  const LoopNest nest = build_conv_nest(request.layer);
  const std::string canonical = canonical_request_text(request);

  DesignPoint design;
  bool timed_out = false;
  bool have_design =
      options_.cache_enabled && cache_.lookup(canonical, nest, &design);
  if (have_design) {
    // A cache hit always answers `ok`, even when the token already fired:
    // the lookup runs before any DSE work, so it beats every budget that
    // survived admission.
    SA_LOG_INFO << "cache hit key="
                << strformat("%016llx", static_cast<unsigned long long>(
                                            fnv1a64(canonical)))
                << " layer=" << request.layer.summary();
  } else {
    // With --peers configured, phase 1 fans out over the shard fleet; the
    // coordinator's merge contract makes both paths byte-identical, so the
    // choice is invisible to clients and to the cache.
    const DesignSpaceExplorer explorer(request.device, request.dtype,
                                       request.dse);
    const DseResult result = shard_.enabled() ? shard_.explore(request, nest)
                                              : explorer.explore(nest);
    ServeMetrics& sm = ServeMetrics::get();
    sm.dse_runs.add(1);
    sm.dse_work_items.add(result.stats.work_items);
    timed_out = result.status == DseStatus::kCancelled;
    if (result.empty()) {
      if (timed_out) {
        // The deadline fired before any candidate survived: a payload-free
        // timeout, not an error — the layer may be perfectly synthesizable.
        return record.timeout(format_timeout_response(kTimeoutInDse));
      }
      return record.error(format_error_response(
          "design space exploration found no valid design for this "
          "layer/device"));
    }
    design = result.best()->design;
    have_design = true;
    // A partial sweep must never poison the cache: the next (undeadlined)
    // request for this key has to run the full exploration and store the
    // true optimum.
    if (options_.cache_enabled && !timed_out) cache_.insert(canonical, design);
    SA_LOG_INFO << "cache " << (timed_out ? "skip (partial sweep)" : "miss")
                << ", explored " << result.stats.work_items
                << " work items, layer=" << request.layer.summary();
  }

  // Both paths re-derive the reported numbers from (request, design) with
  // the deterministic models, so a cached response is byte-identical to a
  // freshly explored one.
  const ResourceUsage resources =
      model_resources(nest, design, request.device, request.dtype);
  const double realized_freq = pseudo_pnr_frequency_mhz(
      request.device, resources.report, design.signature());
  const PerfEstimate realized = estimate_performance(
      nest, design, request.device, request.dtype, realized_freq);
  const double latency_ms = layer_latency_ms(request.layer, realized);

  if (timed_out) {
    return record.timeout(format_timeout_response(
        kTimeoutInDse, design, realized, resources.report, latency_ms));
  }
  return record.ok(
      format_ok_response(design, realized, resources.report, latency_ms));
}

std::string SynthServer::handle_deploy(const std::string& request_block,
                                       CancelToken cancel) {
  obs::ScopedSpan span("serve.handle_deploy", "serve");
  RequestRecord record(span, cancel);
  const ParsedDeployRequest parsed = parse_deploy_request_block(request_block);
  if (!parsed.ok) return record.error(format_error_response(parsed.error));
  // Like handle(): the cancel token is execution policy, never key material.
  DeployRequest request = parsed.request;
  request.dse.cancel = cancel;

  // Resolve the network names (validated at parse time) into the workload.
  std::vector<deploy::WorkloadEntry> workload;
  workload.reserve(request.workload.size());
  std::vector<LoopNest> all_nests;
  for (const DeployWorkloadItem& item : request.workload) {
    deploy::WorkloadEntry entry;
    parse_network_name(item.network, &entry.net);
    entry.weight = item.weight;
    for (const ConvLayerDesc& layer : entry.net.layers) {
      all_nests.push_back(build_conv_nest(layer));
    }
    workload.push_back(std::move(entry));
  }
  // Cached fleet designs validate against the workload envelope: every
  // candidate was searched inside a source envelope whose trips the merged
  // envelope dominates, so the strict per-loop bound caps hold there too.
  const LoopNest env = unified_envelope_nest(all_nests);
  const std::string canonical = canonical_deploy_request_text(request);

  std::vector<DesignPoint> designs;
  bool have_fleet = options_.cache_enabled;
  if (have_fleet) {
    for (int i = 0; i < request.fleet_size; ++i) {
      DesignPoint design;
      if (!cache_.lookup(
              deploy_cache_entry_text(canonical, i, request.fleet_size), env,
              &design)) {
        have_fleet = false;
        break;
      }
      designs.push_back(std::move(design));
    }
  }
  if (have_fleet) {
    // All K hit: like handle(), a full cache hit answers `ok` even when the
    // token already fired — no selection work is left to cancel.
    SA_LOG_INFO << "deploy cache hit key="
                << strformat("%016llx", static_cast<unsigned long long>(
                                            fnv1a64(canonical)))
                << " fleet=" << request.fleet_size;
  } else {
    designs.clear();
    deploy::FleetOptions fleet_options;
    fleet_options.unified.dse = request.dse;
    fleet_options.num_designs = request.fleet_size;
    const deploy::FleetResult selected = deploy::select_fleet(
        workload, request.device, request.dtype, fleet_options);
    if (selected.cancelled) {
      // No partial payload: unlike a truncated sweep there is no meaningful
      // best-so-far fleet, and partial results are never cached.
      return record.timeout(format_timeout_response(kTimeoutInFleet));
    }
    if (!selected.valid) {
      return record.error(format_error_response(selected.error));
    }
    designs = selected.designs;
    // A fleet smaller than K (candidate pool ran out) is answered but not
    // cached: the lookup path expects exactly K derived entries.
    if (options_.cache_enabled &&
        static_cast<int>(designs.size()) == request.fleet_size) {
      for (int i = 0; i < request.fleet_size; ++i) {
        cache_.insert(
            deploy_cache_entry_text(canonical, i, request.fleet_size),
            designs[i]);
      }
    }
    SA_LOG_INFO << "deploy cache miss, selected fleet of " << designs.size()
                << " for " << workload.size() << " network(s)";
  }

  // Both paths answer through the pure evaluator, so a cached response is
  // byte-identical to a freshly selected one.
  const deploy::FleetResult evaluated =
      deploy::evaluate_fleet(workload, designs, request.device, request.dtype);
  if (!evaluated.valid) {
    return record.error(format_error_response(evaluated.error));
  }
  return record.ok(format_deploy_ok_response(evaluated));
}

std::string SynthServer::handle_shard(const std::string& request_block,
                                      CancelToken cancel) {
  obs::ScopedSpan span("serve.handle_shard", "serve");
  RequestRecord record(span, cancel);
  const ParsedShardRequest parsed = parse_shard_request_block(request_block);
  if (!parsed.ok) {
    return record.error(format_shard_error_response(parsed.error));
  }
  ServeRequest request = parsed.request.request;
  request.dse.cancel = cancel;
  // The worker's half of the one-logical-cache story: windowed sweeps read
  // and warm the same SweepCache ordinary requests use, so shard traffic and
  // direct traffic amortize each other's DFS work.
  if (options_.sweep_cache_capacity > 0) {
    request.dse.sweep_memo = &sweep_cache_;
  }
  // Relaxation is the coordinator's global decision (it pins min_util per
  // round); a worker must never relax its own window.
  request.dse.auto_relax_util = false;
  request.dse.shard_begin = parsed.request.item_begin;
  request.dse.shard_end = parsed.request.item_end;

  const LoopNest nest = build_conv_nest(request.layer);
  const DesignSpaceExplorer explorer(request.device, request.dtype,
                                     request.dse);
  ShardPartial partial;
  partial.ok = true;
  partial.total_items = explorer.count_phase1_items(nest);
  DseStats stats;
  std::vector<DseCandidate> candidates = explorer.enumerate_phase1(nest, &stats);
  if (candidates.size() > static_cast<std::size_t>(request.dse.top_k)) {
    candidates.resize(static_cast<std::size_t>(request.dse.top_k));
  }
  partial.work_items = stats.work_items;
  partial.cancelled = stats.cancelled;
  partial.designs.reserve(candidates.size());
  for (const DseCandidate& candidate : candidates) {
    partial.designs.push_back(candidate.design);
  }
  ServeMetrics& sm = ServeMetrics::get();
  sm.dse_runs.add(1);
  sm.dse_work_items.add(stats.work_items);
  return record.ok(format_shard_response(partial));
}

std::string SynthServer::stats_text() const {
  // Every count is a registry instrument (docs/SERVING.md names each row's
  // metric); only queue state, configuration and cache sizes come from the
  // components themselves.
  obs::MetricsRegistry& registry = obs::MetricsRegistry::global();
  auto count = [&registry](const char* metric) -> long long {
    return registry.counter(metric).value();
  };
  std::string out = std::string(kStatsMagic) + "\n";
  auto line = [&out](const char* name, long long v) {
    out += strformat("%s %lld\n", name, v);
  };
  line("requests", count("serve_requests_total"));
  line("ok", count("serve_ok_total"));
  line("errors", count("serve_errors_total"));
  line("rejected", count("serve_rejected_total"));
  line("timeouts", count("serve_timeouts_total"));
  line("rejected_expired", count("serve_rejected_expired_total"));
  line("shed_expired", count("serve_shed_expired_total"));
  line("coalesced", count("serve_coalesced_total"));
  line("commands", count("serve_commands_total"));
  line("cache_hits", count("cache_hits_total"));
  line("cache_misses", count("cache_probes_total") - count("cache_hits_total"));
  line("cache_disk_hits", count("cache_disk_hits_total"));
  line("cache_load_failures", count("cache_load_failures_total"));
  line("cache_insertions", count("cache_stores_total"));
  line("cache_evictions", count("cache_evictions_total"));
  line("cache_disk_store_failures", count("cache_disk_store_failures_total"));
  line("cache_entries", static_cast<long long>(cache_.size()));
  line("sweep_cache_exact_hits", count("sweep_cache_exact_hits_total"));
  line("sweep_cache_exact_misses", count("sweep_cache_exact_misses_total"));
  line("sweep_cache_insertions", count("sweep_cache_insertions_total"));
  line("sweep_cache_evictions", count("sweep_cache_evictions_total"));
  line("sweep_cache_entries", static_cast<long long>(sweep_cache_.size()));
  line("dse_runs", count("serve_dse_runs_total"));
  line("dse_work_items", count("serve_dse_work_items_total"));
  line("queue_depth_high_water", scheduler_.high_water());
  line("queue_limit", scheduler_.queue_limit());
  line("jobs", scheduler_.jobs());
  const ServeMetrics& sm = ServeMetrics::get();
  out += strformat("wall_ms_total %.3f\n", sm.request_ms.sum());
  out += strformat("wall_ms_max %.3f\n",
                   static_cast<double>(sm.request_max_us.value()) / 1000.0);
  out += std::string(kBlockEnd) + "\n";
  return out;
}

std::string SynthServer::health_text() const {
  // No drain, no locks beyond the scheduler's own: a probe must get an
  // answer while the queue is jammed — that is the whole point of having a
  // second command next to `stats`. (Probes should use a dedicated
  // connection: responses are per-session ordered, so a probe sharing a
  // session with slow requests queues behind them.) The counts are relaxed
  // loads of registry instruments resolved once per process.
  const ServeMetrics& sm = ServeMetrics::get();
  const std::int64_t pending = scheduler_.pending();
  const std::int64_t limit = scheduler_.queue_limit();
  const std::int64_t uptime_s =
      std::chrono::duration_cast<std::chrono::seconds>(
          std::chrono::steady_clock::now() - start_)
          .count();
  std::string out = std::string(kHealthMagic) + "\n";
  out += strformat("status %s\n", draining_.load() ? "draining" : "ok");
  out += strformat("uptime_s %lld\n", static_cast<long long>(uptime_s));
  out += strformat("queue_depth %lld\n", static_cast<long long>(pending));
  out += strformat("queue_limit %lld\n", static_cast<long long>(limit));
  out += strformat("jobs %d\n", scheduler_.jobs());
  out += strformat("requests %lld\n",
                   static_cast<long long>(sm.requests.value()));
  out += strformat("timeouts %lld\n",
                   static_cast<long long>(sm.timeouts.value()));
  out += strformat("rejected %lld\n",
                   static_cast<long long>(sm.rejected.value()));
  out += strformat("rejected_expired %lld\n",
                   static_cast<long long>(sm.rejected_expired.value()));
  out += strformat("shed_expired %lld\n",
                   static_cast<long long>(sm.shed_expired.value()));
  out += strformat("shedding %d\n", pending >= limit ? 1 : 0);
  if (const PeerHealthRegistry* health = shard_.health()) {
    // Per-peer breaker rows (peer_health.h): `peer<i>_<field> <value>`,
    // indexed in --peers order. The error text goes last on its line so it
    // may contain spaces; "-" means no error recorded.
    out += strformat("peers %lld\n", static_cast<long long>(health->size()));
    const std::vector<PeerHealthSnapshot> snaps =
        health->snapshot(PeerHealthRegistry::Clock::now());
    for (std::size_t i = 0; i < snaps.size(); ++i) {
      const PeerHealthSnapshot& s = snaps[i];
      out += strformat("peer%zu_addr %s\n", i, s.peer.c_str());
      out += strformat("peer%zu_state %s\n", i, peer_state_name(s.state));
      out += strformat("peer%zu_failures %d\n", i, s.consecutive_failures);
      out += strformat("peer%zu_breaker_opens %lld\n", i,
                       static_cast<long long>(s.breaker_opens));
      out += strformat("peer%zu_probes %lld\n", i,
                       static_cast<long long>(s.probes));
      out += strformat("peer%zu_last_probe_age_ms %lld\n", i,
                       static_cast<long long>(s.last_probe_age_ms));
      out += strformat("peer%zu_last_latency_us %lld\n", i,
                       static_cast<long long>(s.last_latency_us));
      out += strformat("peer%zu_last_error %s\n", i,
                       s.last_error.empty() ? "-" : s.last_error.c_str());
    }
  }
  out += std::string(kBlockEnd) + "\n";
  return out;
}

void SynthServer::begin_drain() {
  draining_.store(true);
  // The prober must not outlive the transports it probes through; draining
  // also means no new fan-outs, so re-admission bookkeeping is moot.
  shard_.stop_health_prober();
  SA_LOG_INFO << "server: drain requested, sessions stop reading";
}

void SynthServer::submit_session_block(std::string block, BlockKind kind,
                                       std::uint64_t seq, PostResponse post) {
  // Resolve the request's end-to-end budget up front: an explicit
  // deadline_ms wins, else --default-deadline, else unbounded. The block is
  // parsed a second time here (the handlers re-parse for purity); that cost
  // is noise next to a DSE or fleet selection. The same parse yields the
  // canonical text — the singleflight key, identical to the DesignCache key
  // material, so both dedup layers agree on what "the same request" means.
  std::int64_t budget_ms = -1;
  std::int64_t requested_ms = -1;
  bool peek_ok = false;
  std::string canonical;
  if (kind == BlockKind::kShard) {
    // No canonical text on purpose: a shard window is not a whole request,
    // so it must not coalesce with (or against) one.
    const ParsedShardRequest peek = parse_shard_request_block(block);
    peek_ok = peek.ok;
    requested_ms = peek.request.request.deadline_ms;
  } else if (kind == BlockKind::kDeploy) {
    const ParsedDeployRequest peek = parse_deploy_request_block(block);
    peek_ok = peek.ok;
    requested_ms = peek.request.deadline_ms;
    if (peek.ok) canonical = canonical_deploy_request_text(peek.request);
  } else {
    const ParsedRequest peek = parse_request_block(block);
    peek_ok = peek.ok;
    requested_ms = peek.request.deadline_ms;
    if (peek.ok) canonical = canonical_request_text(peek.request);
  }
  if (peek_ok && requested_ms >= 0) {
    budget_ms = requested_ms;
  } else if (peek_ok && options_.default_deadline_ms > 0) {
    budget_ms = options_.default_deadline_ms;
  }

  const Deadline deadline =
      budget_ms >= 0 ? Deadline::after_ms(budget_ms) : Deadline();
  const CancelToken token = budget_ms >= 0
                                ? CancelToken::with_deadline(deadline)
                                : CancelToken();

  // Coalesce parseable requests only: a malformed block has no canonical
  // text, and its error response is cheap enough to not be worth sharing.
  // Shard windows never coalesce — see above.
  const bool coalescible = peek_ok && kind != BlockKind::kShard;
  if (coalescible) {
    const SingleFlight::Role role = singleflight_.join(
        canonical,
        [this, block, kind, seq, token, post](const std::string& response,
                                              bool shared) {
          deliver_coalesced(block, kind, seq, token, post, response, shared);
        });
    if (role == SingleFlight::Role::kFollower) {
      // No scheduler slot, no DSE: the leader's completion answers this seq
      // (or tells us to answer ourselves). The follower's own token still
      // governs its verdict — see deliver_coalesced.
      ServeMetrics::get().coalesced.add(1);
      return;
    }
  }

  const Admission admission = scheduler_.try_submit(
      [this, post, seq, token, kind, coalescible, canonical,
       block = std::move(block)](bool shed) {
        // Always post *something* for this seq: the loop's in-order emission
        // stalls the whole session on a missing sequence number, so a
        // throwing handler degrades to an error response, not a hole.
        std::string response;
        if (shed) {
          // Expired while queued: answer without paying for the work. The
          // scheduler counted the shed itself.
          ServeMetrics::get().requests.add(1);
          ServeMetrics::get().timeouts.add(1);
          response = format_timeout_response(kTimeoutInQueue);
        } else {
          response = run_block(block, kind, token, /*pool_task=*/true);
        }
        // The leader's own session gets its response before followers are
        // delivered: complete() may re-execute followers synchronously
        // (unshared path), and the leader must not wait behind them.
        post(seq, response);
        if (coalescible) {
          singleflight_.complete(canonical, response,
                                 response_is_shareable(response));
        }
      },
      deadline, token);
  // The scheduler counts both refusals (serve_rejected_total,
  // serve_rejected_expired_total); the request and its verdict count here.
  if (admission == Admission::kQueueFull) {
    ServeMetrics::get().requests.add(1);
    const std::string response = format_retry_response(
        strformat("admission queue full (%lld in flight), retry later",
                  static_cast<long long>(scheduler_.queue_limit())));
    post(seq, response);
    // Backpressure is shareable: the queue is full for every coalesced
    // session alike, and none of them held a slot.
    if (coalescible) singleflight_.complete(canonical, response, true);
  } else if (admission == Admission::kExpired) {
    // Dead on arrival (deadline_ms 0, or a queue-side client stall ate the
    // whole budget before the block finished framing).
    ServeMetrics::get().requests.add(1);
    ServeMetrics::get().timeouts.add(1);
    post(seq, format_timeout_response(kTimeoutAtAdmission));
    // A timeout is the leader's verdict only — followers re-execute. That
    // re-execution is a full handle() per unshared follower, so the
    // completion must leave this thread: submit_session_block runs on the
    // event-loop thread, and completing inline here
    // would run every follower's DSE on it — stalling all sessions behind
    // one dead-on-arrival request. The follow-up is counted in pending(),
    // so drain() still covers the re-executions.
    if (coalescible) {
      scheduler_.submit_followup([this, canonical] {
        singleflight_.complete(canonical,
                               format_timeout_response(kTimeoutAtAdmission),
                               false);
      });
    }
  }
}

std::string SynthServer::run_block(const std::string& block, BlockKind kind,
                                   const CancelToken& token, bool pool_task) {
  bool counted = false;  // each handler counts its own request on entry
  try {
    if (pool_task) fault::raise_if_armed(fault::kSitePoolTask);
    counted = true;
    return kind == BlockKind::kDeploy ? handle_deploy(block, token)
           : kind == BlockKind::kShard ? handle_shard(block, token)
                                       : handle(block, token);
  } catch (const std::exception& e) {
    ServeMetrics& sm = ServeMetrics::get();
    if (!counted) sm.requests.add(1);
    sm.errors.add(1);
    fault::note_degraded();
    return format_error_response(std::string("internal error: ") + e.what());
  }
}

void SynthServer::deliver_coalesced(const std::string& block, BlockKind kind,
                                    std::uint64_t seq,
                                    const CancelToken& token,
                                    const PostResponse& post,
                                    const std::string& response, bool shared) {
  ServeMetrics& sm = ServeMetrics::get();
  if (shared) {
    if (token.cancelled()) {
      // The follower's own deadline fired while it waited on the leader: its
      // budget is the verdict that counts, never a late shared result. Same
      // accounting as queue-side shedding — the request died waiting.
      sm.requests.add(1);
      sm.timeouts.add(1);
      sm.shed_expired.add(1);
      post(seq, format_timeout_response(kTimeoutInQueue));
      return;
    }
    const std::string magic = std::string(kResponseMagic) + " ";
    sm.requests.add(1);
    if (starts_with(response, magic + "ok")) {
      sm.ok.add(1);
    } else if (starts_with(response, magic + "retry")) {
      sm.rejected.add(1);
    } else {
      sm.errors.add(1);
    }
    post(seq, response);
    return;
  }
  // The leader's verdict was not shareable (its deadline fired). Answer this
  // session under its own token with a direct handle() call — not through
  // the scheduler, because this may run inside the leader's pool task and a
  // task must never submit to its own pool. The cost is bounded: the first
  // re-execution that completes populates the DesignCache for the rest.
  post(seq, run_block(block, kind, token, /*pool_task=*/false));
}

std::string SynthServer::handle_command(const std::string& command) {
  ServeMetrics& sm = ServeMetrics::get();
  if (command == "health") {
    sm.commands.add(1);
    return health_text();  // never drains — see health_text()
  }
  if (command == "stats" || starts_with(command, "stats ")) {
    sm.commands.add(1);
    scheduler_.drain();  // settle counters before reporting
    if (command == "stats") return stats_text();  // legacy sasynth-stats v1
    // stats --format=prom|json renders the whole registry (every
    // instrumented subsystem, not just the serving counts). The trailing
    // `end` line is protocol framing, stripped by clients.
    const std::string arg = trim(command.substr(6));
    if (arg == "--format=prom") {
      return obs::MetricsRegistry::global().to_prom() + "end\n";
    }
    if (arg == "--format=json") {
      return obs::MetricsRegistry::global().to_json() + "end\n";
    }
    sm.errors.add(1);
    return format_error_response("unknown stats argument '" + arg +
                                 "' (expected --format=prom|json)");
  }
  if (command == "ping") {
    sm.commands.add(1);
    return "sasynth-pong v1\nend\n";
  }
  if (command == "shutdown") {
    sm.commands.add(1);
    stop_.store(true);
    shard_.stop_health_prober();  // no transports survive a shutdown
    scheduler_.drain();  // graceful: finish accepted work first
    return "sasynth-bye v1\nend\n";
  }
  sm.errors.add(1);
  return format_error_response("unknown command '" + command + "'");
}

}  // namespace sasynth
