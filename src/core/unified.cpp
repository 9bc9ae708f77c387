#include "core/unified.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cmath>
#include <limits>
#include <optional>

#include "core/layer_eval.h"
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

/// Upper bound on the aggregate Gops of every design whose block trips are
/// at most `block` in every loop, for a fixed (mapping, shape): the stage-2
/// incumbent rule's corner score. Layer i's throughput is at most U_i =
/// min(PT, MT(corner)) on a stride-1 nest (MT is monotone in every block
/// dimension there) and at most U_i = PT otherwise (PT does not depend on
/// the middle bounds); the aggregate is increasing in every layer's
/// throughput, so summing in the leaf's order bounds every leaf below the
/// corner in real arithmetic (docs/MODEL.md, "Dominance
/// pruning"). Returns +infinity, which never prunes, when a layer's corner
/// footprint overflows or some U_i is not positive.
double corner_aggregate_gops(const Network& net,
                             const std::vector<LeanModel>& models,
                             const std::vector<char>& stride1,
                             const std::vector<double>& eff,
                             const std::vector<std::int64_t>& block,
                             std::int64_t lanes) {
  constexpr double kNoBound = std::numeric_limits<double>::infinity();
  double latency_ms = 0.0;
  for (std::size_t i = 0; i < models.size(); ++i) {
    const LeanModel::Eval corner = models[i].rate(block, eff[i], lanes);
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
  std::int64_t leaves = 0;            ///< complete middle-bound vectors scored
  std::int64_t leaves_early_exit = 0; ///< leaves stopped by their partial latency
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
  r.counter("unified_leaves_early_exit_total").add(counts.leaves_early_exit);
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
    pool.for_each(
        static_cast<std::int64_t>(pairs.size()),
        [&](std::int64_t begin, std::int64_t end, int worker) {
          obs::ScopedSpan shard("unified.shortlist.shard", "unified");
          shard.arg("begin", begin);
          shard.arg("end", end);
          shard.arg("worker", worker);
          // Per-layer compute-bound rate of every pair in the range,
          // batched through the SoA kernel: one exact int64 executed
          // product per (pair, layer) and one vectorized flat loop per
          // layer. Each pair's latency sums its layers in layer order.
          const std::size_t m = static_cast<std::size_t>(end - begin);
          std::vector<double> lanes(m);
          std::vector<double> executed(m);
          std::vector<double> pt(m);
          std::vector<double> latency_s(m, 0.0);
          for (std::size_t k = 0; k < m; ++k) {
            lanes[k] = static_cast<double>(
                pairs[static_cast<std::size_t>(begin) + k].second.num_lanes());
          }
          std::vector<std::int64_t> inner;
          for (std::size_t i = 0; i < net.layers.size(); ++i) {
            inner.assign(nests[i].num_loops(), 1);
            for (std::size_t k = 0; k < m; ++k) {
              const auto& [mapping, shape] =
                  pairs[static_cast<std::size_t>(begin) + k];
              std::fill(inner.begin(), inner.end(), 1);
              inner[mapping.row_loop] = shape.rows;
              inner[mapping.col_loop] = shape.cols;
              inner[mapping.vec_loop] = shape.vec;
              executed[k] = static_cast<double>(
                  executed_iterations_for_inner(nests[i], inner));
            }
            batch_pt_bounds(executed.data(), lanes.data(),
                            static_cast<double>(nests[i].total_iterations()),
                            freq * 1e-3, pt.data(), m);
            const double ops = static_cast<double>(net.layers[i].total_ops());
            for (std::size_t k = 0; k < m; ++k) {
              latency_s[k] += ops / (pt[k] * 1e9);
            }
          }
          for (std::int64_t p = begin; p < end; ++p) {
            if (cancel.cut(p)) {
              cancelled.store(true, std::memory_order_relaxed);
              break;
            }
            const std::size_t slot = static_cast<std::size_t>(p);
            scored[slot] = Scored{
                pairs[slot].first, pairs[slot].second,
                static_cast<double>(net.total_ops()) /
                    latency_s[static_cast<std::size_t>(p - begin)] * 1e-9};
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

  // One LeanModel per layer nest, built once here and shared read-only by
  // every worker. Its LayerConstants hold the layer's Eq. 5 kernel: leaves
  // and BRAM probes score them through the layer evaluator
  // (core/layer_eval.h) and allocate nothing, and the corner bound reads
  // the model's rate.
  std::vector<LeanModel> models;
  std::vector<char> stride1;
  models.reserve(nests.size());
  std::size_t max_accesses = 0;
  for (const LoopNest& nest : nests) {
    models.emplace_back(nest, device, dtype, freq);
    stride1.push_back(has_stride1_accesses(nest) ? 1 : 0);
    max_accesses = std::max(max_accesses, models.back().layer().num_accesses());
  }
  const double total_ops = static_cast<double>(net.total_ops());

  // Incumbent rules (docs/MODEL.md, "Dominance pruning"), armed once an
  // entry holds a best leaf and only under bound_prune, so `bound_prune 0`
  // keeps the unbounded DFS as the oracle:
  //  - the DFS skips a middle-bound subtree whose corner aggregate cannot
  //    beat the incumbent;
  //  - a leaf stops once its partial latency proves it cannot beat it.
  const bool incumbent_skip = dse.bound_prune;

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
    // Per (layer, shape) constants: the corner's LeanModel efficiency, and
    // the leaf's Eq. 1 (int64 executed product) and PT.
    std::vector<double> lean_eff(models.size());
    for (std::size_t i = 0; i < models.size(); ++i) {
      lean_eff[i] = models[i].efficiency(inner);
    }
    std::vector<double> eff(models.size());
    std::vector<double> pt(models.size());
    for (std::size_t i = 0; i < models.size(); ++i) {
      eff[i] = efficiency_for_inner(nests[i], inner);
      pt[i] = pt_gops(eff[i], lanes, freq);
    }
    // Leaf buffers, reused by every leaf of the entry.
    std::vector<std::int64_t> block(n, 0);
    std::vector<std::int64_t> fp(models.size() * max_accesses);
    std::vector<double> ports(max_accesses);
    std::vector<LayerEval> evals(models.size());
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
    std::vector<std::int64_t> best_mids;
    double best_gops = 0.0;
    double best_traffic = 0.0;
    std::int64_t best_bram = 0;
    bool found = false;

    // Scores the leaf `current` on every layer and keeps it if it passes
    // `better` (aggregate, then traffic, then BRAM, 1e-12 tie window).
    auto score_leaf = [&] {
      ++counts.leaves;
      std::int64_t macs_per_block = 1;
      for (std::size_t l = 0; l < n; ++l) {
        block[l] = current[l] * inner[l];
        macs_per_block *= block[l];
      }
      // Early exit: partial latencies of positive terms never decrease and
      // the aggregate never rises as the latency grows, so once a prefix's
      // aggregate fails `better`, the full aggregate fails it too.
      const bool early_exit = incumbent_skip && found;
      double latency_ms = 0.0;
      for (std::size_t i = 0; i < models.size(); ++i) {
        const LayerConstants& layer = models[i].layer();
        std::int64_t* layer_fp = &fp[i * max_accesses];
        // An overflowing footprint cannot fit any BRAM budget.
        if (!layer.footprints(block.data(), layer_fp)) return;
        evals[i] = evaluate_layer_rates(layer.num_accesses(),
                                        layer.terms(layer_fp), eff[i], pt[i],
                                        macs_per_block, device, ports.data());
        if (evals[i].throughput_gops <= 0.0) return;
        latency_ms += static_cast<double>(net.layers[i].total_ops()) /
                      (evals[i].throughput_gops * 1e9) * 1e3;
        if (early_exit &&
            !(total_ops / (latency_ms * 1e-3) * 1e-9 > best_gops - 1e-12)) {
          ++counts.leaves_early_exit;
          return;
        }
      }
      std::int64_t max_bram = 0;
      double traffic = 0.0;
      for (std::size_t i = 0; i < models.size(); ++i) {
        const LayerConstants& layer = models[i].layer();
        evals[i].bram_blocks = evaluate_layer_bram(
            layer.num_accesses(), layer.terms(&fp[i * max_accesses]), num_pes,
            device);
        evals[i].num_blocks = layer.num_blocks(block.data());
        max_bram = std::max(max_bram, evals[i].bram_blocks);
        traffic += evals[i].block_bytes *
                   static_cast<double>(evals[i].num_blocks) *
                   static_cast<double>(net.layers[i].groups);
      }
      if (max_bram > bram_budget) return;
      const double aggregate = total_ops / (latency_ms * 1e-3) * 1e-9;
      const bool better =
          !found || aggregate > best_gops + 1e-12 ||
          (aggregate > best_gops - 1e-12 &&
           (traffic < best_traffic * (1.0 - 1e-12) ||
            (traffic <= best_traffic * (1.0 + 1e-12) && max_bram < best_bram)));
      if (better) {
        best_gops = aggregate;
        best_traffic = traffic;
        best_bram = max_bram;
        best_mids = current;
        found = true;
      }
    };

    const LayerConstants& front = models.front().layer();
    auto dfs = [&](auto&& self, std::size_t depth) -> void {
      // The margin covers the two evaluators' rounding and the 1e-12 tie
      // window of `better`: a skipped leaf could not replace the incumbent.
      if (incumbent_skip && found && depth > 0 && depth < n) {
        for (std::size_t l = 0; l < n; ++l) {
          block[l] = (l < depth ? current[l] : cand[l].back()) * inner[l];
        }
        ++counts.bound_evals;
        const double corner =
            corner_aggregate_gops(net, models, stride1, lean_eff, block, lanes);
        if (corner * (1.0 + 1e-9) + 1e-12 < best_gops) {
          ++counts.incumbent_pruned;
          return;
        }
      }
      if (depth == n) {
        score_leaf();
        return;
      }
      for (const std::int64_t s : cand[depth]) {
        current[depth] = s;
        // Monotone BRAM prune: minimal suffix on the first layer's nest (an
        // overflowing footprint counts as over the budget).
        for (std::size_t l = 0; l < n; ++l) {
          block[l] = (l <= depth ? current[l] : 1) * inner[l];
        }
        if (!front.footprints(block.data(), fp.data()) ||
            evaluate_layer_bram(front.num_accesses(), front.terms(fp.data()),
                                num_pes, device) > bram_budget) {
          break;
        }
        self(self, depth + 1);
      }
      current[depth] = 1;
    };
    dfs(dfs, 0);
    if (found) {
      entry_best[idx] = UnifiedCandidate{
          DesignPoint(nests.front(), mapping, shape, std::move(best_mids)),
          best_gops, best_traffic, best_bram};
    }
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
    counts.leaves_early_exit += entry_counts[e].leaves_early_exit;
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
