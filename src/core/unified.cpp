#include "core/unified.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cmath>
#include <limits>
#include <optional>

#include "core/lean_batch.h"
#include "core/lean_model.h"
#include "core/mapping.h"
#include "fpga/freq_model.h"
#include "loopnest/conv_nest.h"
#include "loopnest/reuse.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/math_util.h"
#include "util/strings.h"
#include "util/thread_pool.h"

namespace sasynth {

LoopNest unified_envelope_nest(const std::vector<LoopNest>& nests) {
  assert(!nests.empty());
  LoopNest env;
  for (std::size_t l = 0; l < nests.front().num_loops(); ++l) {
    std::int64_t trip = 1;
    for (const LoopNest& nest : nests) trip = std::max(trip, nest.loop(l).trip);
    env.add_loop(nests.front().loop(l).name, trip);
  }
  for (const ArrayAccess& a : nests.front().accesses()) env.add_access(a);
  return env;
}

namespace {

/// Aggregate over layers for one fully specified design.
struct AggregateEval {
  double total_latency_ms = 0.0;
  double aggregate_gops = 0.0;
  double dram_traffic_bytes = 0.0;
  std::int64_t max_bram = 0;
  bool valid = false;
};

AggregateEval evaluate_aggregate(const Network& net,
                                 const std::vector<LoopNest>& nests,
                                 const DesignPoint& design,
                                 const FpgaDevice& device, DataType dtype,
                                 double freq_mhz, std::int64_t bram_budget) {
  AggregateEval out;
  double latency_ms = 0.0;
  for (std::size_t i = 0; i < net.layers.size(); ++i) {
    const PerfEstimate perf =
        estimate_performance(nests[i], design, device, dtype, freq_mhz);
    if (perf.throughput_gops <= 0.0) return out;
    latency_ms += layer_latency_ms(net.layers[i], perf);
    out.max_bram = std::max(
        out.max_bram, bram_usage_blocks(nests[i], design, device, dtype));
    double block_bytes = 0.0;
    for (std::size_t a = 0; a < nests[i].num_accesses(); ++a) {
      block_bytes += static_cast<double>(design.tiling().footprint_elems(
                         nests[i].accesses()[a].access)) *
                     bytes_per_element(dtype, nests[i], a);
    }
    out.dram_traffic_bytes +=
        block_bytes * static_cast<double>(design.tiling().num_blocks(nests[i])) *
        static_cast<double>(net.layers[i].groups);
  }
  if (out.max_bram > bram_budget) return out;
  out.total_latency_ms = latency_ms;
  out.aggregate_gops =
      static_cast<double>(net.total_ops()) / (latency_ms * 1e-3) * 1e-9;
  out.valid = true;
  return out;
}

/// Upper bound on the aggregate Gops of every design whose block trips are
/// at most `block` in every loop, for a fixed (mapping, shape): the stage-2
/// incumbent rule's corner score. Layer i's throughput is at most U_i =
/// min(PT, MT(corner)) on a stride-1 nest (MT is monotone in every block
/// dimension there) and at most U_i = PT otherwise (PT does not depend on
/// the middle bounds); the aggregate is increasing in every layer's
/// throughput, so summing in evaluate_aggregate's order bounds every leaf
/// below the corner in real arithmetic (docs/MODEL.md, "Dominance
/// pruning"). Returns +infinity, which never prunes, when a layer's corner
/// footprint overflows or some U_i is not positive.
double corner_aggregate_gops(const Network& net,
                             const std::vector<LeanModel>& models,
                             const std::vector<char>& stride1,
                             const std::vector<double>& eff,
                             const std::vector<std::int64_t>& block,
                             std::int64_t lanes, std::int64_t num_pes) {
  constexpr double kNoBound = std::numeric_limits<double>::infinity();
  double latency_ms = 0.0;
  for (std::size_t i = 0; i < models.size(); ++i) {
    const LeanModel::Eval corner =
        models[i].evaluate(block, eff[i], lanes, num_pes);
    if (corner.bram_blocks == std::numeric_limits<std::int64_t>::max()) {
      return kNoBound;
    }
    const double upper = stride1[i] ? corner.throughput_gops : corner.pt_gops;
    if (!(upper > 0.0)) return kNoBound;
    latency_ms +=
        static_cast<double>(net.layers[i].total_ops()) / (upper * 1e9) * 1e3;
  }
  return static_cast<double>(net.total_ops()) / (latency_ms * 1e-3) * 1e-9;
}

/// Stage-2 work tallies of one enumerate_unified_candidates call.
struct SearchCounts {
  std::int64_t leaves = 0;            ///< designs scored by evaluate_aggregate
  std::int64_t bound_evals = 0;       ///< corner aggregates computed
  std::int64_t incumbent_pruned = 0;  ///< subtrees the incumbent rule skipped
};

/// One enumerate_unified_candidates call into the registry, on every path
/// that enumerated pairs — a search that finds nothing is the costliest.
void publish_unified_search(std::size_t pairs, std::size_t shortlist,
                            const SearchCounts& counts) {
  if (!obs::metrics_enabled()) return;
  obs::MetricsRegistry& r = obs::MetricsRegistry::global();
  r.counter("unified_pairs_total").add(static_cast<std::int64_t>(pairs));
  r.counter("unified_shortlist_total").add(static_cast<std::int64_t>(shortlist));
  r.counter("unified_leaves_total").add(counts.leaves);
  r.counter("unified_bound_evals_total").add(counts.bound_evals);
  r.counter("unified_incumbent_pruned_total").add(counts.incumbent_pruned);
}

/// One select_unified_design call that ran the candidate search.
void publish_unified_run(bool cancelled) {
  if (!obs::metrics_enabled()) return;
  obs::MetricsRegistry& r = obs::MetricsRegistry::global();
  r.counter("unified_runs_total").add(1);
  if (cancelled) r.counter("unified_cancelled_total").add(1);
}

}  // namespace

UnifiedDesign evaluate_unified_design(const Network& net,
                                      const DesignPoint& design,
                                      const FpgaDevice& device, DataType dtype,
                                      double freq_mhz) {
  UnifiedDesign result;
  result.design = design;
  result.realized_freq_mhz = freq_mhz;
  double latency_ms = 0.0;
  std::vector<LoopNest> nests;
  nests.reserve(net.layers.size());
  for (const ConvLayerDesc& layer : net.layers) {
    nests.push_back(build_conv_nest(layer));
    LayerPerf lp;
    lp.layer = layer.name;
    lp.perf =
        estimate_performance(nests.back(), design, device, dtype, freq_mhz);
    lp.latency_ms = layer_latency_ms(layer, lp.perf);
    latency_ms += lp.latency_ms;
    result.per_layer.push_back(std::move(lp));
  }
  result.resources = worst_case_resources(nests, design, device, dtype);
  result.total_latency_ms = latency_ms;
  result.aggregate_gops =
      static_cast<double>(net.total_ops()) / (latency_ms * 1e-3) * 1e-9;
  result.valid = true;
  return result;
}

std::vector<UnifiedCandidate> enumerate_unified_candidates(
    const Network& net, const FpgaDevice& device, DataType dtype,
    const UnifiedOptions& options, bool* cancelled_out) {
  if (cancelled_out != nullptr) *cancelled_out = false;
  if (net.layers.empty()) return {};

  std::vector<LoopNest> nests;
  nests.reserve(net.layers.size());
  for (const ConvLayerDesc& layer : net.layers) {
    nests.push_back(build_conv_nest(layer));
  }
  const LoopNest env = unified_envelope_nest(nests);
  const ReuseMatrix reuse = analyze_reuse(env);
  const std::vector<SystolicMapping> mappings =
      enumerate_feasible_mappings(env, reuse);

  const DseOptions& dse = options.dse;
  const double freq = dse.assumed_freq_mhz;

  // One pool serves both stages. Determinism at any thread count comes from
  // indexed result slots: workers write only their own items, and every
  // merge below reads slots in item order — the same order the serial loops
  // produced.
  ThreadPool pool(options.jobs > 0 ? options.jobs : dse.jobs);

  // Stage 1: shortlist (mapping, shape) pairs by the compute-bound score
  // (sum of per-layer latencies assuming s = 1 efficiency — an optimistic
  // but shape-faithful proxy). Parallel over pairs; each body scores all
  // layers for its pair.
  // Cooperative cancellation (options.dse.cancel): polled at item
  // granularity in every stage below. Items the cut skips leave their slots
  // untouched, so a cancelled selection is the best of the prefix actually
  // scored — same contract as DseStatus::kCancelled in the per-layer DSE.
  const CancelToken& cancel = dse.cancel;
  std::atomic<bool> cancelled{false};

  struct Scored {
    SystolicMapping mapping;
    ArrayShape shape;
    double score = -1.0;  ///< aggregate compute-bound Gops; < 0 = not scored
  };
  std::vector<std::pair<SystolicMapping, ArrayShape>> pairs;
  for (const SystolicMapping& mapping : mappings) {
    const std::vector<ArrayShape> shapes =
        enumerate_shapes(env, mapping, device, dtype, dse, nullptr);
    for (const ArrayShape& shape : shapes) pairs.emplace_back(mapping, shape);
  }
  std::vector<Scored> scored(pairs.size());
  {
    obs::ScopedSpan shortlist_span("unified.shortlist", "unified");
    shortlist_span.arg("pairs", static_cast<std::int64_t>(pairs.size()));
    // Per-layer compute-bound rate of every pair, batched through the SoA
    // kernel (the probe DesignPoint + TilingSpec the scalar loop built per
    // (pair, layer) reduced to one exact int64 product and one vectorized
    // flat loop per layer).
    std::vector<std::vector<double>> layer_gops(net.layers.size());
    {
      ShapeBatch batch;
      batch.resize(pairs.size());
      std::vector<std::int64_t> inner;
      for (std::size_t i = 0; i < net.layers.size(); ++i) {
        inner.assign(nests[i].num_loops(), 1);
        for (std::size_t p = 0; p < pairs.size(); ++p) {
          const SystolicMapping& mapping = pairs[p].first;
          const ArrayShape& shape = pairs[p].second;
          std::fill(inner.begin(), inner.end(), 1);
          inner[mapping.row_loop] = shape.rows;
          inner[mapping.col_loop] = shape.cols;
          inner[mapping.vec_loop] = shape.vec;
          batch.lanes[p] = static_cast<double>(shape.num_lanes());
          batch.executed[p] = static_cast<double>(
              executed_iterations_for_inner(nests[i], inner));
        }
        batch_pt_bounds(batch, static_cast<double>(nests[i].total_iterations()),
                        freq * 1e-3);
        layer_gops[i] = batch.pt_gops;
      }
    }
    pool.for_each(
        static_cast<std::int64_t>(pairs.size()),
        [&](std::int64_t begin, std::int64_t end, int worker) {
          obs::ScopedSpan shard("unified.shortlist.shard", "unified");
          shard.arg("begin", begin);
          shard.arg("end", end);
          shard.arg("worker", worker);
          for (std::int64_t p = begin; p < end; ++p) {
            if (cancel.cut(p)) {
              cancelled.store(true, std::memory_order_relaxed);
              break;
            }
            double latency_s = 0.0;
            for (std::size_t i = 0; i < net.layers.size(); ++i) {
              const double gops = layer_gops[i][static_cast<std::size_t>(p)];
              latency_s +=
                  static_cast<double>(net.layers[i].total_ops()) / (gops * 1e9);
            }
            scored[static_cast<std::size_t>(p)] = Scored{
                pairs[static_cast<std::size_t>(p)].first,
                pairs[static_cast<std::size_t>(p)].second,
                static_cast<double>(net.total_ops()) / latency_s * 1e-9};
          }
        });
  }
  // Drop slots the cancellation cut never scored: a default-constructed
  // Scored must not reach the shortlist as if it were a real pair.
  scored.erase(std::remove_if(scored.begin(), scored.end(),
                              [](const Scored& s) { return s.score < 0.0; }),
               scored.end());
  std::sort(scored.begin(), scored.end(),
            [](const Scored& a, const Scored& b) { return a.score > b.score; });
  const std::size_t shortlist = std::min<std::size_t>(
      scored.size(), static_cast<std::size_t>(options.shape_shortlist));

  // Stage 2: unified reuse-strategy search for each shortlisted pair.
  const std::int64_t bram_budget = static_cast<std::int64_t>(
      dse.max_bram_util * static_cast<double>(device.bram_blocks));

  // Incumbent rule (docs/MODEL.md, "Dominance pruning"): once an entry
  // holds a best leaf, the DFS skips a middle-bound subtree whose corner
  // aggregate cannot beat it. The corner is scored by one LeanModel per
  // layer nest, built once here and shared read-only by every worker. Armed
  // only under bound_prune, so `bound_prune 0` keeps the unbounded DFS as
  // the oracle.
  const bool incumbent_skip = dse.bound_prune;
  std::vector<LeanModel> models;
  std::vector<char> stride1;
  if (incumbent_skip) {
    models.reserve(nests.size());
    for (const LoopNest& nest : nests) {
      models.emplace_back(nest, device, dtype, freq);
      stride1.push_back(has_stride1_accesses(nest) ? 1 : 0);
    }
  }

  // Stage 2 is the expensive half (a DFS over middle bounds re-evaluating
  // every layer at each leaf); each shortlist entry is independent, so the
  // entries fan out across the pool into per-entry slots.
  std::vector<std::optional<UnifiedCandidate>> entry_best(shortlist);
  std::vector<SearchCounts> entry_counts(shortlist);
  auto search_entry = [&](std::size_t idx) {
    const SystolicMapping& mapping = scored[idx].mapping;
    const ArrayShape& shape = scored[idx].shape;
    const std::size_t n = env.num_loops();
    std::vector<std::int64_t> inner(n, 1);
    inner[mapping.row_loop] = shape.rows;
    inner[mapping.col_loop] = shape.cols;
    inner[mapping.vec_loop] = shape.vec;
    const std::int64_t lanes = shape.num_lanes();
    const std::int64_t num_pes = shape.num_pes();
    std::vector<double> eff(models.size());
    for (std::size_t i = 0; i < models.size(); ++i) {
      eff[i] = models[i].efficiency(inner);
    }
    std::vector<std::int64_t> block(n, 0);
    SearchCounts counts;

    std::vector<std::vector<std::int64_t>> cand(n);
    for (std::size_t l = 0; l < n; ++l) {
      cand[l] = dse.pow2_middle
                    ? pow2_candidates_covering(ceil_div(env.loop(l).trip, inner[l]))
                    : [&] {
                        std::vector<std::int64_t> all;
                        for (std::int64_t v = 1;
                             v <= ceil_div(env.loop(l).trip, inner[l]); ++v) {
                          all.push_back(v);
                        }
                        return all;
                      }();
    }

    std::vector<std::int64_t> current(n, 1);
    UnifiedCandidate best;
    bool found = false;
    auto dfs = [&](auto&& self, std::size_t depth) -> void {
      // The margin covers the two evaluators' rounding and the 1e-12 tie
      // window of `better` below: a skipped leaf could not replace `best`.
      if (incumbent_skip && found && depth > 0 && depth < n) {
        for (std::size_t l = 0; l < n; ++l) {
          block[l] = (l < depth ? current[l] : cand[l].back()) * inner[l];
        }
        ++counts.bound_evals;
        const double corner = corner_aggregate_gops(net, models, stride1, eff,
                                                    block, lanes, num_pes);
        if (corner * (1.0 + 1e-9) + 1e-12 < best.est_gops) {
          ++counts.incumbent_pruned;
          return;
        }
      }
      if (depth == n) {
        const DesignPoint design(nests.front(), mapping, shape,
                                 std::vector<std::int64_t>(current));
        ++counts.leaves;
        const AggregateEval eval = evaluate_aggregate(
            net, nests, design, device, dtype, freq, bram_budget);
        if (!eval.valid) return;
        const bool better =
            !found || eval.aggregate_gops > best.est_gops + 1e-12 ||
            (eval.aggregate_gops > best.est_gops - 1e-12 &&
             (eval.dram_traffic_bytes < best.dram_traffic_bytes * (1.0 - 1e-12) ||
              (eval.dram_traffic_bytes <=
                   best.dram_traffic_bytes * (1.0 + 1e-12) &&
               eval.max_bram < best.max_bram)));
        if (better) {
          best = UnifiedCandidate{design, eval.aggregate_gops,
                                  eval.dram_traffic_bytes, eval.max_bram};
          found = true;
        }
        return;
      }
      for (const std::int64_t s : cand[depth]) {
        current[depth] = s;
        // Monotone BRAM prune: minimal suffix on the first layer's nest.
        std::vector<std::int64_t> mids(n, 1);
        for (std::size_t l = 0; l <= depth; ++l) mids[l] = current[l];
        const DesignPoint probe(nests.front(), mapping, shape, std::move(mids));
        if (bram_usage_blocks(nests.front(), probe, device, dtype) >
            bram_budget) {
          break;
        }
        self(self, depth + 1);
      }
      current[depth] = 1;
    };
    dfs(dfs, 0);
    if (found) entry_best[idx] = std::move(best);
    entry_counts[idx] = counts;
  };
  {
    obs::ScopedSpan search_span("unified.search", "unified");
    search_span.arg("shortlist", static_cast<std::int64_t>(shortlist));
    pool.for_each(static_cast<std::int64_t>(shortlist),
                  [&](std::int64_t begin, std::int64_t end, int worker) {
                    obs::ScopedSpan shard("unified.search.shard", "unified");
                    shard.arg("begin", begin);
                    shard.arg("end", end);
                    shard.arg("worker", worker);
                    for (std::int64_t i = begin; i < end; ++i) {
                      // Deadline/explicit-cancel poll per shortlist entry
                      // (the deterministic cut indexes stage-1 pairs, so it
                      // does not apply here).
                      if (cancel.cancelled()) {
                        cancelled.store(true, std::memory_order_relaxed);
                        return;
                      }
                      search_entry(static_cast<std::size_t>(i));
                    }
                  });
  }

  std::vector<UnifiedCandidate> candidates;
  candidates.reserve(shortlist);
  SearchCounts counts;
  for (std::size_t e = 0; e < shortlist; ++e) {
    if (entry_best[e].has_value()) {
      candidates.push_back(std::move(*entry_best[e]));
    }
    counts.leaves += entry_counts[e].leaves;
    counts.bound_evals += entry_counts[e].bound_evals;
    counts.incumbent_pruned += entry_counts[e].incumbent_pruned;
  }
  std::sort(candidates.begin(), candidates.end(),
            [](const UnifiedCandidate& a, const UnifiedCandidate& b) {
              if (a.est_gops != b.est_gops) return a.est_gops > b.est_gops;
              return a.max_bram < b.max_bram;
            });
  if (cancelled_out != nullptr) {
    *cancelled_out = cancelled.load() || cancel.cancelled();
  }
  publish_unified_search(pairs.size(), shortlist, counts);
  return candidates;
}

UnifiedDesign select_unified_design(const Network& net,
                                    const FpgaDevice& device, DataType dtype,
                                    const UnifiedOptions& options) {
  obs::ScopedSpan select_span("unified.select", "unified");
  UnifiedDesign failure;
  if (net.layers.empty()) return failure;

  const DseOptions& dse = options.dse;
  const CancelToken& cancel = dse.cancel;
  bool enum_cancelled = false;
  const std::vector<UnifiedCandidate> candidates = enumerate_unified_candidates(
      net, device, dtype, options, &enum_cancelled);
  std::atomic<bool> cancelled{enum_cancelled};
  if (candidates.empty()) {
    failure.cancelled = cancelled.load() || cancel.cancelled();
    publish_unified_run(failure.cancelled);
    return failure;
  }

  // Stage 3 (phase 2 of Fig. 5): pseudo-P&R the top-K, pick best realized.
  const std::size_t keep = std::min<std::size_t>(
      candidates.size(), static_cast<std::size_t>(dse.top_k));
  obs::ScopedSpan phase2_span("unified.phase2", "unified");
  phase2_span.arg("candidates", static_cast<std::int64_t>(keep));
  std::vector<LoopNest> nests;
  nests.reserve(net.layers.size());
  for (const ConvLayerDesc& layer : net.layers) {
    nests.push_back(build_conv_nest(layer));
  }
  UnifiedDesign best_result;
  for (std::size_t i = 0; i < keep; ++i) {
    if (cancel.cancelled()) {
      cancelled.store(true, std::memory_order_relaxed);
      break;
    }
    const DesignPoint& design = candidates[i].design;
    // Resource report from the worst-case layer for the frequency model.
    const ResourceUsage resources =
        worst_case_resources(nests, design, device, dtype);
    if (dse.enforce_soft_logic && !resources.report.fits()) continue;
    const double realized = pseudo_pnr_frequency_mhz(
        device, resources.report, design.signature());
    UnifiedDesign realized_eval =
        evaluate_unified_design(net, design, device, dtype, realized);
    if (!best_result.valid ||
        realized_eval.aggregate_gops > best_result.aggregate_gops) {
      best_result = std::move(realized_eval);
    }
  }
  best_result.cancelled = cancelled.load() || cancel.cancelled();
  publish_unified_run(best_result.cancelled);
  return best_result;
}

std::string UnifiedDesign::summary(const Network& net) const {
  std::string out = strformat(
      "%s unified design: shape=%s @%.1f MHz -> %.1f Gops, %.2f ms/image\n",
      net.name.c_str(), design.shape().to_string().c_str(), realized_freq_mhz,
      aggregate_gops, total_latency_ms);
  out += "  " + resources.report.summary() + "\n";
  for (const LayerPerf& lp : per_layer) {
    out += strformat("  %-10s %8.1f Gops  eff %6.2f%%  %8.3f ms%s\n",
                     lp.layer.c_str(), lp.perf.throughput_gops,
                     lp.perf.eff * 100.0, lp.latency_ms,
                     lp.perf.memory_bound ? "  [memory-bound]" : "");
  }
  return out;
}

}  // namespace sasynth
