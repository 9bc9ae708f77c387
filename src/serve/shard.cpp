#include "serve/shard.h"

#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <memory>
#include <mutex>

#include "core/design_io.h"
#include "core/perf_model.h"
#include "core/resource_model.h"
#include "faultinject/faultinject.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve/tcp.h"
#include "util/logging.h"
#include "util/strings.h"

namespace sasynth {

namespace {

bool parse_int64(const std::string& token, std::int64_t* out) {
  if (token.empty()) return false;
  errno = 0;
  char* end = nullptr;
  const long long v = std::strtoll(token.c_str(), &end, 10);
  if (end == nullptr || *end != '\0' || errno == ERANGE) return false;
  *out = v;
  return true;
}

/// Process-global shard instrumentation (docs/OBSERVABILITY.md).
struct ShardMetrics {
  obs::Counter& requests;        ///< peer RPCs issued
  obs::Counter& degraded;        ///< ranges re-executed locally
  obs::Counter& hedges;          ///< local re-executions started on slow RPCs
  obs::Counter& hedge_wins;      ///< hedged ranges answered by the local copy
  obs::Histogram& peer_latency_ms;  ///< successful RPC round-trip

  static ShardMetrics& get() {
    static ShardMetrics* m = [] {
      obs::MetricsRegistry& r = obs::MetricsRegistry::global();
      return new ShardMetrics{
          r.counter("shard_requests_total"),
          r.counter("shard_degraded_total"),
          r.counter("shard_hedges_total"),
          r.counter("shard_hedge_wins_total"),
          r.histogram("shard_peer_latency_ms"),
      };
    }();
    return *m;
  }
};

/// The stable-merge order of the phase-1 candidate sort (dse.cpp): higher
/// estimated throughput first, fewer BRAM blocks on ties. Strictly-better
/// only — equal keys are resolved by the caller's range scan order, which is
/// item order, matching the in-process stable_sort.
bool strictly_better(const DseCandidate& a, const DseCandidate& b) {
  if (a.estimated_gops() != b.estimated_gops()) {
    return a.estimated_gops() > b.estimated_gops();
  }
  return a.resources.bram_blocks < b.resources.bram_blocks;
}

}  // namespace

std::string parse_peer_list(const std::string& spec,
                            std::vector<std::string>* out) {
  for (const std::string& raw : split(spec, ',')) {
    const std::string peer = trim(raw);
    if (peer.empty()) {
      return "empty peer in list '" + spec + "'";
    }
    std::string host;
    int port = 0;
    const std::string error = split_peer_host_port(peer, &host, &port);
    if (!error.empty()) return error;
    out->push_back(peer);
  }
  if (out->empty()) return "empty peer list";
  return "";
}

std::string format_shard_request_block(const ServeRequest& request,
                                       std::int64_t item_begin,
                                       std::int64_t item_end,
                                       std::int64_t deadline_ms) {
  std::string out = std::string(kShardRequestMagic) + "\n";
  out += strformat("shard_items %lld %lld\n",
                   static_cast<long long>(item_begin),
                   static_cast<long long>(item_end));
  const ConvLayerDesc& l = request.layer;
  out += strformat("layer %lld,%lld,%lld,%lld,%lld,%lld,%lld\n",
                   static_cast<long long>(l.in_maps),
                   static_cast<long long>(l.out_maps),
                   static_cast<long long>(l.out_rows),
                   static_cast<long long>(l.out_cols),
                   static_cast<long long>(l.kernel),
                   static_cast<long long>(l.stride),
                   static_cast<long long>(l.groups));
  // device.name is the display name ("Arria10 GT1150"); the wire needs the
  // protocol token the worker's parser accepts.
  out += "device " + std::string(device_flag_name(request.device)) + "\n";
  out += "dtype " + data_type_name(request.dtype) + "\n";
  // Reuse the canonical option rendering verbatim (one "option " prefix per
  // line), so the shard wire cannot drift from the request canonicalization.
  for (const std::string& line :
       split(canonical_dse_options_text(request.dse), '\n')) {
    if (!line.empty()) out += "option " + line + "\n";
  }
  if (deadline_ms >= 0) {
    out += strformat("deadline_ms %lld\n", static_cast<long long>(deadline_ms));
  }
  out += std::string(kBlockEnd) + "\n";
  return out;
}

ParsedShardRequest parse_shard_request_block(const std::string& block) {
  ParsedShardRequest result;
  auto fail = [&](const std::string& msg) {
    result.error = msg;
    return result;
  };

  const std::vector<std::string> lines = split(block, '\n');
  std::size_t i = 0;
  auto next_line = [&]() -> std::string {
    while (i < lines.size()) {
      const std::string line = trim(lines[i++]);
      if (!line.empty()) return line;
    }
    return "";
  };

  if (next_line() != kShardRequestMagic) {
    return fail(std::string("missing '") + kShardRequestMagic + "' header");
  }

  bool have_items = false;
  std::string inner = std::string(kRequestMagic) + "\n";
  for (std::string line = next_line(); !line.empty() && line != kBlockEnd;
       line = next_line()) {
    const std::vector<std::string> parts = split_ws(line);
    if (parts[0] == "shard_items") {
      // Strict like deadline_ms: a garbled window silently defaulted would
      // make the worker sweep the wrong (or the whole) item range.
      if (have_items) return fail("duplicate shard_items field");
      std::int64_t begin = 0;
      std::int64_t end = 0;
      if (parts.size() != 3 || !parse_int64(parts[1], &begin) ||
          !parse_int64(parts[2], &end)) {
        return fail("shard_items expects two integer values (begin end)");
      }
      if (begin < 0 || end < begin) {
        return fail("shard_items window must satisfy 0 <= begin <= end");
      }
      result.request.item_begin = begin;
      result.request.item_end = end;
      have_items = true;
    } else {
      inner += line + "\n";
    }
  }
  if (!have_items) return fail("shard block has no shard_items line");
  inner += std::string(kBlockEnd) + "\n";

  const ParsedRequest parsed = parse_request_block(inner);
  if (!parsed.ok) return fail(parsed.error);
  result.request.request = parsed.request;
  result.ok = true;
  return result;
}

std::string format_shard_response(const ShardPartial& partial) {
  std::string out = std::string(kShardResponseMagic) + " ok\n";
  out += strformat("items %lld\n", static_cast<long long>(partial.total_items));
  out += strformat("cancelled %d\n", partial.cancelled ? 1 : 0);
  out += strformat("work_items %lld\n",
                   static_cast<long long>(partial.work_items));
  out += strformat("candidates %lld\n",
                   static_cast<long long>(partial.designs.size()));
  for (const DesignPoint& design : partial.designs) {
    out += save_design_text(design);
  }
  out += std::string(kBlockEnd) + "\n";
  return out;
}

std::string format_shard_error_response(const std::string& message) {
  return std::string(kShardResponseMagic) + " error " + message + "\n" +
         kBlockEnd + "\n";
}

ShardPartial parse_shard_response(const std::string& text,
                                  const LoopNest& nest) {
  ShardPartial result;
  auto fail = [&](const std::string& msg) {
    result.ok = false;
    result.error = msg;
    return result;
  };

  const std::vector<std::string> lines = split(text, '\n');
  std::size_t i = 0;
  auto next_line = [&]() -> std::string {
    while (i < lines.size()) {
      const std::string line = trim(lines[i++]);
      if (!line.empty()) return line;
    }
    return "";
  };

  const std::string header = next_line();
  const std::string magic = std::string(kShardResponseMagic) + " ";
  if (!starts_with(header, magic)) {
    return fail(std::string("missing '") + kShardResponseMagic + "' header");
  }
  const std::string verdict = header.substr(magic.size());
  if (starts_with(verdict, "error")) {
    return fail(trim(verdict.size() > 5 ? verdict.substr(5)
                                        : std::string("worker error")));
  }
  if (verdict != "ok") return fail("unknown shard verdict '" + verdict + "'");

  // The four counter lines arrive in a fixed order; anything else is a
  // protocol error and the range degrades to local re-execution.
  auto want_int_line = [&](const char* key, std::int64_t* out) -> bool {
    const std::vector<std::string> parts = split_ws(next_line());
    return parts.size() == 2 && parts[0] == key && parse_int64(parts[1], out);
  };
  std::int64_t cancelled = 0;
  std::int64_t candidates = 0;
  if (!want_int_line("items", &result.total_items) ||
      !want_int_line("cancelled", &cancelled) ||
      !want_int_line("work_items", &result.work_items) ||
      !want_int_line("candidates", &candidates) || result.total_items < 0 ||
      (cancelled != 0 && cancelled != 1) || result.work_items < 0 ||
      candidates < 0) {
    return fail("malformed shard response counters");
  }
  result.cancelled = cancelled != 0;

  result.designs.reserve(static_cast<std::size_t>(candidates));
  for (std::int64_t d = 0; d < candidates; ++d) {
    // Each candidate is an embedded `sasynth-design v1` blob: magic,
    // mapping, shape, middle — the exact save_design_text layout.
    std::string blob;
    for (int line_idx = 0; line_idx < 4; ++line_idx) {
      const std::string line = next_line();
      if (line.empty() || line == kBlockEnd) {
        return fail("truncated design blob in shard response");
      }
      blob += line + "\n";
    }
    const DesignLoadResult loaded =
        load_design_text(blob, nest, DesignLoadMode::kStrict);
    if (!loaded.ok) return fail("bad design in shard response: " + loaded.error);
    result.designs.push_back(loaded.design);
  }
  if (next_line() != kBlockEnd) return fail("shard response has no end line");
  result.ok = true;
  return result;
}

ShardCoordinator::ShardCoordinator(ShardOptions options)
    : options_(std::move(options)) {
  if (options_.peers.empty()) return;
  // Register the shard instruments up front so `stats --format=prom|json`
  // shows the rows (at zero) before the first RPC, not after.
  ShardMetrics::get();
  PeerHealthOptions health_opts;
  health_opts.failure_threshold = options_.failure_threshold;
  health_opts.probe_interval_ms = options_.probe_interval_ms;
  // Probes stay bounded even with unbounded request I/O (io_timeout 0):
  // stop_prober() joins through at most one probe, so a stalled peer must
  // not be able to hold shutdown for the full request timeout.
  health_opts.probe_timeout_ms =
      options_.io_timeout_ms > 0
          ? std::min<std::int64_t>(options_.io_timeout_ms, 2000)
          : 2000;
  health_ = std::make_unique<PeerHealthRegistry>(options_.peers, health_opts);
  rpc_pool_ =
      std::make_unique<ThreadPool>(static_cast<int>(options_.peers.size()));
  health_->start_prober();
}

ShardCoordinator::~ShardCoordinator() { stop_health_prober(); }

void ShardCoordinator::stop_health_prober() {
  if (health_ != nullptr) health_->stop_prober();
}

ShardPartial ShardCoordinator::call_peer(const std::string& peer,
                                         const std::string& block,
                                         const LoopNest& nest) const {
  obs::ScopedSpan span("shard.peer", "shard");
  span.arg("bytes", static_cast<std::int64_t>(block.size()));
  ShardMetrics::get().requests.add(1);

  ShardPartial result;
  std::string error;
  static fault::Site& connect_site = fault::site(fault::kSiteShardConnect);
  const int fd = connect_site.fire() != fault::ErrorKind::kNone
                     ? -1
                     : connect_peer_fd(peer, options_.io_timeout_ms, &error);
  if (fd < 0) {
    if (error.empty()) error = "injected fault at shard.connect";
    result.error = "peer " + peer + ": " + error;
    return result;
  }
  static fault::Site& write_site = fault::site(fault::kSiteShardWrite);
  if (write_site.fire() != fault::ErrorKind::kNone ||
      !write_all_fd(fd, block, options_.io_timeout_ms)) {
    ::close(fd);
    result.error = "peer " + peer + ": write failed";
    return result;
  }
  static fault::Site& read_site = fault::site(fault::kSiteShardRead);
  std::string text;
  bool complete = false;
  if (read_site.fire() == fault::ErrorKind::kNone) {
    FdLineReader reader(fd, options_.io_timeout_ms);
    std::string line;
    while (reader.read_line(&line)) {
      text += line + "\n";
      if (trim(line) == kBlockEnd) {
        complete = true;
        break;
      }
    }
  }
  ::close(fd);
  if (!complete) {
    result.error = "peer " + peer + ": read failed before the end line";
    return result;
  }
  result = parse_shard_response(text, nest);
  if (result.ok) {
    ShardMetrics::get().peer_latency_ms.observe(span.elapsed_seconds() * 1e3);
  } else {
    result.error = "peer " + peer + ": " + result.error;
  }
  return result;
}

std::vector<DseCandidate> ShardCoordinator::local_window(
    const ServeRequest& request, const LoopNest& nest, double util,
    std::int64_t begin, std::int64_t end, bool* cancelled) const {
  obs::ScopedSpan span("shard.local_fallback", "shard");
  span.arg("begin", begin);
  span.arg("end", end);
  // The request's own options carry the cancel token (the remaining deadline
  // budget) and the sweep memo, so the fallback is bounded and cache-warmed
  // exactly like a worker would have been.
  DseOptions opts = request.dse;
  opts.min_dsp_util = util;
  opts.auto_relax_util = false;
  opts.shard_begin = begin;
  opts.shard_end = end;
  const DesignSpaceExplorer explorer(request.device, request.dtype, opts);
  DseStats scratch;
  std::vector<DseCandidate> candidates = explorer.enumerate_phase1(nest, &scratch);
  if (scratch.cancelled) *cancelled = true;
  if (candidates.size() > static_cast<std::size_t>(opts.top_k)) {
    candidates.resize(static_cast<std::size_t>(opts.top_k));
  }
  return candidates;
}

std::vector<DseCandidate> ShardCoordinator::run_round(
    const ServeRequest& request, const LoopNest& nest, double util,
    DseStats* stats, bool* cancelled) const {
  obs::ScopedSpan span("shard.fanout", "shard");
  DseOptions opts = request.dse;
  opts.min_dsp_util = util;
  opts.auto_relax_util = false;
  const DesignSpaceExplorer explorer(request.device, request.dtype, opts);
  // Every node computes the same item list from the same request, so the
  // count alone pins the global index space; the `items` line in each
  // partial is the cross-check.
  const std::int64_t total = explorer.count_phase1_items(nest);
  stats->work_items += total;
  const std::size_t peers = options_.peers.size();
  span.arg("items", total);
  span.arg("peers", static_cast<std::int64_t>(peers));

  // The worker request: same canonical tuple, utilization floor pinned to
  // this round, relaxation off (an empty window must not trigger a local
  // relax decision on one worker while another still finds designs).
  ServeRequest worker_request = request;
  worker_request.dse = opts;
  const Deadline deadline = request.dse.cancel.deadline();
  const std::int64_t remaining_ms =
      deadline.unbounded() ? -1
                           : std::max<std::int64_t>(0, deadline.remaining_ms());

  // Heap-owned per-range state: a hedge-loser RPC task may still be running
  // after run_round returns (its result only matters to the breaker by
  // then), so the task and the collector share ownership.
  struct RangeState {
    std::int64_t begin = 0;
    std::int64_t end = 0;
    bool attempted = false;  ///< an RPC task was dispatched
    bool skipped = false;    ///< breaker open: straight to local fallback
    std::mutex m;
    std::condition_variable cv;
    bool done = false;       ///< partial is valid (guarded by m)
    ShardPartial partial;
  };
  std::vector<std::shared_ptr<RangeState>> ranges;
  ranges.reserve(peers);
  for (std::size_t p = 0; p < peers; ++p) {
    auto state = std::make_shared<RangeState>();
    // Deterministic contiguous split — floor(p*N/P) boundaries, independent
    // of peer health or load by construction.
    state->begin = total * static_cast<std::int64_t>(p) /
                   static_cast<std::int64_t>(peers);
    state->end = total * static_cast<std::int64_t>(p + 1) /
                 static_cast<std::int64_t>(peers);
    ranges.push_back(std::move(state));
  }

  const auto dispatched_at = PeerHealthRegistry::Clock::now();
  if (!request.dse.cancel.cancelled()) {
    for (std::size_t p = 0; p < peers; ++p) {
      const std::shared_ptr<RangeState>& state = ranges[p];
      if (state->end <= state->begin) continue;
      // Consult the breaker: an open peer's range never pays the doomed
      // connect; a half-open peer gets exactly one probe request in flight.
      const PeerHealthRegistry::Admit verdict =
          health_->admit(p, dispatched_at);
      if (verdict == PeerHealthRegistry::Admit::kSkip) {
        state->skipped = true;
        continue;
      }
      state->attempted = true;
      const bool was_probe = verdict == PeerHealthRegistry::Admit::kProbe;
      // The task copies everything it touches (block text, nest, peer name):
      // if the collector hedges past it, only `state` and the registry may
      // still be shared.
      rpc_pool_->submit([this, state, p, was_probe, total, nest,
                         peer = options_.peers[p],
                         block = format_shard_request_block(
                             worker_request, state->begin, state->end,
                             remaining_ms)] {
        const auto rpc_start = PeerHealthRegistry::Clock::now();
        ShardPartial partial = call_peer(peer, block, nest);
        const auto rpc_end = PeerHealthRegistry::Clock::now();
        const bool usable = partial.ok && partial.total_items == total;
        if (usable) {
          health_->on_success(
              p, was_probe,
              std::chrono::duration_cast<std::chrono::microseconds>(rpc_end -
                                                                    rpc_start)
                  .count(),
              rpc_end);
        } else {
          health_->on_failure(p, was_probe,
                              partial.error.empty() ? "item-count mismatch"
                                                    : partial.error,
                              rpc_end);
        }
        {
          std::lock_guard<std::mutex> lock(state->m);
          state->partial = std::move(partial);
          state->done = true;
        }
        state->cv.notify_all();
      });
    }
  }

  // One absolute hedge deadline for the whole fan-out: every range's RPC
  // started (logically) at dispatched_at, so they all convert to local
  // re-execution at the same instant regardless of collection order.
  const auto hedge_deadline =
      dispatched_at + std::chrono::milliseconds(options_.hedge_ms);

  std::vector<std::vector<DseCandidate>> lists(peers);
  auto convert = [&](const ShardPartial& partial,
                     std::vector<DseCandidate>* out) {
    if (partial.cancelled) *cancelled = true;
    out->reserve(partial.designs.size());
    for (const DesignPoint& design : partial.designs) {
      // Recompute the estimate and resource model locally: the models are
      // pure functions of (nest, design, device, dtype), so this matches
      // the worker's own numbers bit for bit without ever round-tripping
      // a float through the wire.
      DseCandidate candidate;
      candidate.design = design;
      candidate.estimate = estimate_performance(
          nest, design, request.device, request.dtype, opts.assumed_freq_mhz);
      candidate.resources =
          model_resources(nest, design, request.device, request.dtype);
      out->push_back(std::move(candidate));
    }
  };
  auto degrade = [&](const RangeState& state, const std::string& reason) {
    // A real peer failure (dead, slow, faulted, malformed, breaker-skipped,
    // or a version-skewed item count): degrade, never fail the request.
    SA_LOG_WARN << "shard: range [" << state.begin << "," << state.end
                << ") degrading to local execution: " << reason;
    ShardMetrics::get().degraded.add(1);
    fault::note_degraded();
  };
  for (std::size_t p = 0; p < peers; ++p) {
    RangeState& state = *ranges[p];
    if (state.end <= state.begin) continue;
    if (state.skipped) {
      degrade(state, "breaker open for peer " + options_.peers[p]);
      lists[p] = local_window(request, nest, util, state.begin, state.end,
                              cancelled);
      continue;
    }
    if (!state.attempted) {
      // Cancelled before dispatch: the bounded local sweep yields the
      // best-so-far cut, same as in-process. Not a peer failure.
      lists[p] = local_window(request, nest, util, state.begin, state.end,
                              cancelled);
      continue;
    }
    bool done;
    {
      std::unique_lock<std::mutex> lock(state.m);
      if (options_.hedge_ms > 0) {
        done = state.cv.wait_until(lock, hedge_deadline,
                                   [&state] { return state.done; });
      } else {
        state.cv.wait(lock, [&state] { return state.done; });
        done = true;
      }
    }
    if (!done) {
      // Hedge: the peer is slow (but maybe alive). Run the range locally
      // and take whichever finished first — both sites enumerate the
      // identical window, so the choice cannot change a response byte.
      ShardMetrics::get().hedges.add(1);
      bool local_cancelled = false;
      std::vector<DseCandidate> local = local_window(
          request, nest, util, state.begin, state.end, &local_cancelled);
      std::lock_guard<std::mutex> lock(state.m);
      if (state.done && state.partial.ok && state.partial.total_items == total) {
        // The peer finished while we hedged: its partial wins the race
        // bookkeeping (the hedge was started but not needed).
        convert(state.partial, &lists[p]);
      } else {
        if (state.done) {
          degrade(state, state.partial.error.empty() ? "item-count mismatch"
                                                     : state.partial.error);
        }
        if (local_cancelled) *cancelled = true;
        lists[p] = std::move(local);
        ShardMetrics::get().hedge_wins.add(1);
      }
      continue;
    }
    std::lock_guard<std::mutex> lock(state.m);
    if (state.partial.ok && state.partial.total_items == total) {
      convert(state.partial, &lists[p]);
    } else {
      degrade(state, state.partial.error.empty() ? "item-count mismatch"
                                                 : state.partial.error);
      lists[p] = local_window(request, nest, util, state.begin, state.end,
                              cancelled);
    }
  }

  // The reduce step: k-way stable merge. Scanning ranges in ascending order
  // and replacing the pick only on a strictly better candidate gives
  // earlier-range-wins ties, which is item order — the same order the
  // in-process stable_sort preserves.
  std::size_t total_candidates = 0;
  for (const std::vector<DseCandidate>& list : lists) {
    total_candidates += list.size();
  }
  std::vector<DseCandidate> merged;
  merged.reserve(total_candidates);
  std::vector<std::size_t> pos(peers, 0);
  for (;;) {
    std::size_t best = peers;
    for (std::size_t p = 0; p < peers; ++p) {
      if (pos[p] >= lists[p].size()) continue;
      if (best == peers ||
          strictly_better(lists[p][pos[p]], lists[best][pos[best]])) {
        best = p;
      }
    }
    if (best == peers) break;
    merged.push_back(std::move(lists[best][pos[best]++]));
  }
  span.arg("candidates", static_cast<std::int64_t>(merged.size()));
  stats->phase1_seconds += span.elapsed_seconds();
  return merged;
}

DseResult ShardCoordinator::explore(const ServeRequest& request,
                                    const LoopNest& nest) const {
  const DseOptions& base = request.dse;
  DseResult result;
  result.stats.effective_min_dsp_util = base.min_dsp_util;
  bool cancelled = false;
  std::vector<DseCandidate> all =
      run_round(request, nest, base.min_dsp_util, &result.stats, &cancelled);
  if (all.empty() && !cancelled && base.auto_relax_util &&
      base.min_dsp_util > 0.0) {
    // Mirror of DesignSpaceExplorer::explore's relax loop — driven here, at
    // the global level, because "phase 1 found nothing" is only knowable
    // after the reduce (one worker's empty window says nothing).
    double relaxed = base.min_dsp_util;
    while (all.empty() && !cancelled && relaxed > 1e-3) {
      relaxed /= 2.0;
      ++result.stats.util_relaxations;
      all = run_round(request, nest, relaxed, &result.stats, &cancelled);
    }
    if (all.empty() && !cancelled) {
      relaxed = 0.0;
      ++result.stats.util_relaxations;
      all = run_round(request, nest, relaxed, &result.stats, &cancelled);
    }
    result.stats.effective_min_dsp_util = relaxed;
  }
  result.stats.cancelled = cancelled;
  const std::size_t keep =
      std::min<std::size_t>(all.size(), static_cast<std::size_t>(base.top_k));
  result.top.assign(all.begin(),
                    all.begin() + static_cast<std::ptrdiff_t>(keep));

  // Phase 2 runs on the coordinator: the top-K list is short, and shipping
  // realized clocks over the wire would trade bit-exactness for nothing.
  double phase2_wall = 0.0;
  {
    obs::ScopedSpan phase2_span("dse.phase2", "dse");
    phase2_span.arg("candidates", static_cast<std::int64_t>(result.top.size()));
    const DesignSpaceExplorer explorer(request.device, request.dtype, base);
    explorer.run_phase2(nest, result.top);
    phase2_wall = phase2_span.elapsed_seconds();
  }
  result.stats.phase2_seconds += phase2_wall;
  result.stats.phase2_cpu_seconds += phase2_wall;

  if (base.cancel.cancelled()) result.stats.cancelled = true;
  result.status =
      result.stats.cancelled ? DseStatus::kCancelled : DseStatus::kOk;
  return result;
}

}  // namespace sasynth
