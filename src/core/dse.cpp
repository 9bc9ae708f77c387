#include "core/dse.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <memory>
#include <numeric>
#include <unordered_map>

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

namespace {

/// Registry handles resolved once per process (registration locks; the
/// increments behind these references are lock-free and gated on
/// obs::metrics_enabled()). Names are the docs/OBSERVABILITY.md contract.
struct DseMetrics {
  obs::Counter& phase1_runs;
  obs::Counter& explorations;
  obs::Counter& work_items;
  obs::Counter& candidates;
  obs::Counter& mappings_pruned_feasibility;  ///< Eq. 2/3/11
  obs::Counter& shapes_pruned_util;           ///< Eq. 12 floor
  obs::Counter& reuse_pruned_pow2;            ///< pow2 middle-bound rule
  obs::Counter& items_pruned_bound;           ///< branch-and-bound rule
  obs::Counter& bound_seed_evals;             ///< floor-seeding evaluations
  obs::Counter& reuse_subtrees_pruned;        ///< within-DFS floor rule
  obs::Counter& reuse_incumbent_pruned;       ///< within-DFS incumbent rule
  obs::Counter& reuse_bound_evals;            ///< corner evaluations spent
  obs::Counter& reuse_evaluated;
  obs::Counter& reuse_rejected_bram;
  obs::Counter& rejected_soft_logic;
  obs::Counter& util_relaxations;
  obs::Counter& cancelled;
  obs::Histogram& phase1_ms;
  obs::Histogram& phase2_ms;

  static DseMetrics& get() {
    static DseMetrics* m = [] {
      obs::MetricsRegistry& r = obs::MetricsRegistry::global();
      return new DseMetrics{
          r.counter("dse_phase1_runs_total"),
          r.counter("dse_explorations_total"),
          r.counter("dse_work_items_total"),
          r.counter("dse_candidates_total"),
          r.counter("dse_mappings_pruned_feasibility_total"),
          r.counter("dse_shapes_pruned_util_total"),
          r.counter("dse_reuse_pruned_pow2_total"),
          r.counter("dse_items_pruned_bound_total"),
          r.counter("dse_bound_seed_evals_total"),
          r.counter("dse_reuse_subtrees_pruned_total"),
          r.counter("dse_reuse_incumbent_pruned_total"),
          r.counter("dse_reuse_bound_evals_total"),
          r.counter("dse_reuse_evaluated_total"),
          r.counter("dse_reuse_rejected_bram_total"),
          r.counter("dse_candidates_rejected_soft_logic_total"),
          r.counter("dse_util_relaxations_total"),
          r.counter("dse_cancelled_total"),
          r.histogram("dse_phase1_ms"),
          r.histogram("dse_phase2_ms"),
      };
    }();
    return *m;
  }
};

/// Publishes one enumerate_phase1 run (the delta between the caller's stats
/// before and after) into the global registry.
void publish_phase1_run(const DseStats& before, const DseStats& after,
                        std::size_t candidate_count, double wall_seconds) {
  if (!obs::metrics_enabled()) return;
  DseMetrics& m = DseMetrics::get();
  m.phase1_runs.add(1);
  m.work_items.add(after.work_items - before.work_items);
  m.candidates.add(static_cast<std::int64_t>(candidate_count));
  m.mappings_pruned_feasibility.add(
      (after.mappings_candidates - before.mappings_candidates) -
      (after.mappings_feasible - before.mappings_feasible));
  m.shapes_pruned_util.add((after.shapes_considered - before.shapes_considered) -
                           (after.shapes_after_prune - before.shapes_after_prune));
  m.reuse_pruned_pow2.add(
      (after.reuse_space_bruteforce - before.reuse_space_bruteforce) -
      (after.reuse_space_pow2 - before.reuse_space_pow2));
  m.items_pruned_bound.add(after.items_pruned_bound -
                           before.items_pruned_bound);
  m.bound_seed_evals.add(after.bound_seed_evaluated -
                         before.bound_seed_evaluated);
  m.reuse_subtrees_pruned.add(after.reuse_subtrees_pruned -
                              before.reuse_subtrees_pruned);
  m.reuse_incumbent_pruned.add(after.reuse_incumbent_pruned -
                               before.reuse_incumbent_pruned);
  m.reuse_bound_evals.add(after.reuse_bound_evals - before.reuse_bound_evals);
  m.reuse_evaluated.add(after.reuse_evaluated - before.reuse_evaluated);
  m.reuse_rejected_bram.add(after.reuse_bram_rejected -
                            before.reuse_bram_rejected);
  m.rejected_soft_logic.add(after.soft_logic_rejected -
                            before.soft_logic_rejected);
  m.phase1_ms.observe(wall_seconds * 1e3);
}

/// Memoized candidate middle bounds keyed by cap = ceil(trip / t). The
/// phase-1 sweep hits the same few caps for every (mapping, shape) work
/// item, so deriving the vectors once per cap removes the repeated
/// pow2_candidates_covering / iota work from the inner loop. Entries are
/// node-based (unordered_map), so returned references stay valid across
/// inserts. One cache per worker thread — no locking.
class MiddleCandidateCache {
 public:
  /// Powers of two covering `cap` (also the pow2 search-space size).
  const std::vector<std::int64_t>& pow2_covering(std::int64_t cap) {
    auto it = pow2_.find(cap);
    if (it == pow2_.end()) {
      it = pow2_.emplace(cap, pow2_candidates_covering(cap)).first;
    }
    return it->second;
  }

  /// Candidate middle bounds for one loop: powers of two covering `cap`
  /// (or all integers 1..cap when pow2 pruning is disabled).
  const std::vector<std::int64_t>& middles(std::int64_t cap, bool pow2_only) {
    if (pow2_only) return pow2_covering(cap);
    auto it = all_.find(cap);
    if (it == all_.end()) {
      std::vector<std::int64_t> all(static_cast<std::size_t>(cap));
      for (std::int64_t v = 1; v <= cap; ++v) {
        all[static_cast<std::size_t>(v - 1)] = v;
      }
      it = all_.emplace(cap, std::move(all)).first;
    }
    return it->second;
  }

 private:
  std::unordered_map<std::int64_t, std::vector<std::int64_t>> pow2_;
  std::unordered_map<std::int64_t, std::vector<std::int64_t>> all_;
};

/// One (mapping, shape) unit of the phase-1 sweep.
struct Phase1Item {
  const SystolicMapping* mapping = nullptr;
  ArrayShape shape;
};

/// Optimal middle bounds for a fixed (mapping, shape) — the inner loop of
/// phase 1. The LeanModel and candidate cache are hoisted by the caller so
/// the sweep constructs neither per work item. Writes the winning middle
/// bounds to `out_s` (the caller builds the DesignPoint, and the sweep memo
/// stores the raw bounds). `mt_monotone` arms the corner-bound rules: the
/// floor rule when `floor_gops` is finite, the incumbent rule under
/// `options.bound_prune`.
bool best_reuse_impl(const LoopNest& nest, const LeanModel& model,
                     const FpgaDevice& device, const DseOptions& options,
                     const SystolicMapping& mapping, const ArrayShape& shape,
                     MiddleCandidateCache& cache,
                     std::vector<std::int64_t>* out_s, DseStats* stats,
                     double floor_gops =
                         -std::numeric_limits<double>::infinity(),
                     bool mt_monotone = false) {
  const std::size_t n = nest.num_loops();
  std::vector<std::int64_t> inner(n, 1);
  inner[mapping.row_loop] = shape.rows;
  inner[mapping.col_loop] = shape.cols;
  inner[mapping.vec_loop] = shape.vec;

  std::vector<const std::vector<std::int64_t>*> candidates(n);
  std::int64_t pow2_space = 1;
  std::int64_t brute_space = 1;
  for (std::size_t l = 0; l < n; ++l) {
    const std::int64_t cap = ceil_div(nest.loop(l).trip, inner[l]);
    candidates[l] = &cache.middles(cap, options.pow2_middle);
    // Search-space sizes are reporting-only; saturate rather than wrap on
    // pathologically deep nests.
    pow2_space = sat_mul(
        pow2_space, static_cast<std::int64_t>(cache.pow2_covering(cap).size()));
    brute_space = sat_mul(brute_space, cap);
  }
  if (stats != nullptr) {
    stats->reuse_space_pow2 += pow2_space;
    stats->reuse_space_bruteforce += brute_space;
  }

  const std::int64_t lanes = shape.num_lanes();
  const std::int64_t num_pes = shape.num_pes();
  const std::int64_t bram_budget = static_cast<std::int64_t>(
      options.max_bram_util * static_cast<double>(device.bram_blocks));

  std::vector<std::int64_t> block(n, 0);
  std::vector<std::int64_t> best_s;
  const double eff = model.efficiency(inner);
  double best_gops = -1.0;
  double best_traffic = 0.0;
  std::int64_t best_bram = 0;
  std::int64_t evaluated = 0;
  std::int64_t bram_rejected = 0;
  std::int64_t bound_evals = 0;
  std::int64_t subtrees_pruned = 0;
  std::int64_t incumbent_pruned = 0;

  // Corner-bound subtree skips. With a stride-1 access structure, MT — and
  // therefore min(PT, MT) — is monotone non-decreasing in every middle
  // bound, so the throughput of a subtree's maximal corner (current prefix,
  // every remaining loop at its largest candidate) upper-bounds every leaf
  // beneath it. The margin covers both the FP rounding of the corner
  // evaluation and the 1e-12 tie window of the best-leaf selection
  // (docs/MODEL.md, "Dominance pruning"). Two rules read the same corner:
  //  - floor: a corner below a finite top-K floor proves no leaf in the
  //    subtree can reach the floor or tie with a leaf that does. The
  //    reported best may then understate an item whose true best lies below
  //    the floor — such items can never enter the top-K.
  //  - incumbent: a corner below the item's best leaf so far proves no leaf
  //    in the subtree passes the `better` test below, so the incumbent, and
  //    therefore the DFS result, is the one the full subtree would leave.
  //    The result stays exact. Armed only under bound_prune, so
  //    `bound_prune 0` keeps the exhaustive DFS as the oracle.
  const bool floor_skip = mt_monotone && std::isfinite(floor_gops);
  const bool incumbent_skip = mt_monotone && options.bound_prune;

  // DFS over middle bounds. BRAM is monotone non-decreasing in every s_l, so
  // once a prefix with all-minimal suffix exceeds the budget, every larger
  // choice at the current level can be skipped.
  std::vector<std::int64_t> current(n, 1);
  auto dfs = [&](auto&& self, std::size_t depth) -> void {
    // Depth 0 is covered by the caller's per-item bound (same corner).
    const bool has_incumbent = incumbent_skip && !best_s.empty();
    if ((floor_skip || has_incumbent) && depth > 0 && depth < n) {
      for (std::size_t l = 0; l < n; ++l) {
        block[l] = (l < depth ? current[l] : candidates[l]->back()) * inner[l];
      }
      const LeanModel::Eval corner = model.rate(block, eff, lanes);
      ++bound_evals;
      if (corner.bram_blocks != std::numeric_limits<std::int64_t>::max()) {
        const double corner_hi = corner.throughput_gops * (1.0 + 1e-9) + 1e-12;
        if (floor_skip && corner_hi < floor_gops) {
          ++subtrees_pruned;
          return;
        }
        if (has_incumbent && corner_hi < best_gops) {
          ++incumbent_pruned;
          return;
        }
      }
    }
    if (depth == n) {
      for (std::size_t l = 0; l < n; ++l) block[l] = current[l] * inner[l];
      const LeanModel::Eval eval = model.evaluate(block, eff, lanes, num_pes);
      ++evaluated;
      if (eval.bram_blocks > bram_budget) {
        ++bram_rejected;
        return;
      }
      // Maximize throughput; among ties, prefer the reuse strategy with the
      // least total off-chip traffic ("balance data reuse and memory
      // bandwidth", §2.3), then the smaller buffers.
      const bool better =
          best_s.empty() || eval.throughput_gops > best_gops + 1e-12 ||
          (eval.throughput_gops > best_gops - 1e-12 &&
           (eval.dram_traffic_bytes < best_traffic * (1.0 - 1e-12) ||
            (eval.dram_traffic_bytes <= best_traffic * (1.0 + 1e-12) &&
             eval.bram_blocks < best_bram)));
      if (better) {
        best_gops = eval.throughput_gops;
        best_traffic = eval.dram_traffic_bytes;
        best_bram = eval.bram_blocks;
        best_s = current;
      }
      return;
    }
    for (const std::int64_t s : *candidates[depth]) {
      current[depth] = s;
      // Prune: lower-bound BRAM with minimal suffix (BRAM-only evaluation —
      // throughput is irrelevant to this cut).
      for (std::size_t l = 0; l < n; ++l) {
        block[l] = (l <= depth ? current[l] : 1) * inner[l];
      }
      if (model.bram_only(block, num_pes) > bram_budget) {
        break;  // candidates are ascending
      }
      self(self, depth + 1);
    }
    current[depth] = 1;
  };
  dfs(dfs, 0);

  if (stats != nullptr) {
    stats->reuse_evaluated += evaluated;
    stats->reuse_bram_rejected += bram_rejected;
    stats->reuse_bound_evals += bound_evals;
    stats->reuse_subtrees_pruned += subtrees_pruned;
    stats->reuse_incumbent_pruned += incumbent_pruned;
  }
  if (best_s.empty()) return false;
  *out_s = std::move(best_s);
  return true;
}

/// Per-item key text for the sweep memo (the context text carries
/// everything else).
std::string item_key_text(const SystolicMapping& mapping,
                          const ArrayShape& shape) {
  return strformat("m=%zu,%zu,%zu t=%lldx%lldx%lld",
                   mapping.row_loop, mapping.col_loop, mapping.vec_loop,
                   static_cast<long long>(shape.rows),
                   static_cast<long long>(shape.cols),
                   static_cast<long long>(shape.vec));
}

}  // namespace

std::string sweep_context_text(const LoopNest& nest, const FpgaDevice& device,
                               DataType dtype, const DseOptions& options) {
  // Every input the reuse DFS reads, rendered exactly (%.17g round-trips a
  // double). Two work items with equal context + item texts are therefore
  // the same computation, which is what makes a memo hit bit-identical to
  // re-running the DFS.
  std::string out = strformat("sweep-ctx v1 loops=%zu\n", nest.num_loops());
  for (std::size_t l = 0; l < nest.num_loops(); ++l) {
    out += strformat("loop %lld\n", static_cast<long long>(nest.loop(l).trip));
  }
  for (std::size_t a = 0; a < nest.num_accesses(); ++a) {
    const AccessFunction& f = nest.accesses()[a].access;
    out += strformat("access bpe=%.17g",
                     bytes_per_element(dtype, nest, a));
    for (const AffineExpr& dim : f.indices) {
      out += " [";
      for (std::size_t l = 0; l < nest.num_loops(); ++l) {
        out += strformat("%lld,", static_cast<long long>(dim.coeff(l)));
      }
      out += "]";
    }
    out += "\n";
  }
  out += strformat(
      "device bram_blocks=%lld bram_kbits=%lld c_b=%lld c_p=%.17g "
      "bw_total=%.17g bw_port=%.17g\n",
      static_cast<long long>(device.bram_blocks),
      static_cast<long long>(device.bram_kbits),
      static_cast<long long>(device.bram_const_per_buffer), device.bram_per_pe,
      device.bw_total_gbs, device.bw_port_gbs);
  out += strformat("freq=%.17g pow2_middle=%d max_bram_util=%.17g\n",
                   options.assumed_freq_mhz, options.pow2_middle ? 1 : 0,
                   options.max_bram_util);
  return out;
}

std::string DseStats::summary() const {
  std::string out = strformat(
      "mappings %lld/%lld feasible; shapes %lld -> %lld after Eq.12 prune; "
      "reuse evaluated %lld (pow2 space %lld, brute-force space %lld); "
      "%lld work items on %d jobs; phase1 %.2fs (cpu %.2fs) phase2 %.2fs",
      static_cast<long long>(mappings_feasible),
      static_cast<long long>(mappings_candidates),
      static_cast<long long>(shapes_considered),
      static_cast<long long>(shapes_after_prune),
      static_cast<long long>(reuse_evaluated),
      static_cast<long long>(reuse_space_pow2),
      static_cast<long long>(reuse_space_bruteforce),
      static_cast<long long>(work_items), jobs_used, phase1_seconds,
      phase1_cpu_seconds, phase2_seconds);
  if (items_pruned_bound > 0 || bound_seed_evaluated > 0) {
    out += strformat("; B&B pruned %lld items (%lld seed evals)",
                     static_cast<long long>(items_pruned_bound),
                     static_cast<long long>(bound_seed_evaluated));
  }
  if (reuse_subtrees_pruned > 0 || reuse_incumbent_pruned > 0) {
    out += strformat(
        "; corner bound skipped %lld subtrees below the floor, %lld below the "
        "incumbent (%lld bound evals)",
        static_cast<long long>(reuse_subtrees_pruned),
        static_cast<long long>(reuse_incumbent_pruned),
        static_cast<long long>(reuse_bound_evals));
  }
  if (memo_exact_hits > 0) {
    out += strformat("; sweep memo %lld exact hits",
                     static_cast<long long>(memo_exact_hits));
  }
  if (util_relaxations > 0) {
    out += strformat("; c_s relaxed %lldx to %.3f",
                     static_cast<long long>(util_relaxations),
                     effective_min_dsp_util);
  }
  if (cancelled) out += "; cancelled (partial sweep)";
  return out;
}

const DseCandidate* DseResult::best() const {
  const DseCandidate* best = nullptr;
  for (const DseCandidate& c : top) {
    if (best == nullptr || c.realized_gops() > best->realized_gops()) {
      best = &c;
    }
  }
  return best;
}

DesignSpaceExplorer::DesignSpaceExplorer(FpgaDevice device, DataType dtype,
                                         DseOptions options)
    : device_(std::move(device)), dtype_(dtype), options_(options) {}

std::vector<ArrayShape> enumerate_shapes(const LoopNest& nest,
                                         const SystolicMapping& mapping,
                                         const FpgaDevice& device,
                                         DataType dtype,
                                         const DseOptions& options,
                                         std::int64_t* considered) {
  const std::int64_t capacity = device_mac_capacity(device, dtype);
  const std::int64_t min_lanes = static_cast<std::int64_t>(
      std::ceil(options.min_dsp_util * static_cast<double>(capacity)));

  // An inner extent beyond the next power of two above the trip count only
  // adds pure waste, so cap each dimension there (and at the global caps).
  auto dim_cap = [&](std::size_t loop, std::int64_t global_cap) {
    return std::min(global_cap, round_up_pow2(nest.loop(loop).trip));
  };
  const std::int64_t row_cap = dim_cap(mapping.row_loop, options.max_rows);
  const std::int64_t col_cap = dim_cap(mapping.col_loop, options.max_cols);
  const std::int64_t vec_cap = dim_cap(mapping.vec_loop, options.max_vec);

  std::vector<std::int64_t> vec_values;
  if (options.pow2_vec_only) {
    vec_values = pow2_candidates(vec_cap);
  } else {
    for (std::int64_t v = 1; v <= vec_cap; ++v) vec_values.push_back(v);
  }

  std::vector<ArrayShape> shapes;
  std::int64_t considered_count = 0;
  for (std::int64_t rows = 1; rows <= row_cap; ++rows) {
    for (std::int64_t cols = 1; cols <= col_cap; ++cols) {
      // vec >= 1, so once rows * cols alone exceeds the capacity no larger
      // cols and no vec can fit.
      std::int64_t pes;
      if (!checked_mul(rows, cols, &pes) || pes > capacity) break;
      for (const std::int64_t vec : vec_values) {
        std::int64_t lanes;
        if (!checked_mul(pes, vec, &lanes)) {
          continue;  // overflowed lane count certainly exceeds any capacity
        }
        if (lanes > capacity) continue;
        ++considered_count;
        if (lanes < min_lanes) continue;  // Eq. 12
        shapes.push_back(ArrayShape{rows, cols, vec});
      }
    }
  }
  if (considered != nullptr) *considered += considered_count;
  return shapes;
}

bool DesignSpaceExplorer::best_reuse_strategy(const LoopNest& nest,
                                              const SystolicMapping& mapping,
                                              const ArrayShape& shape,
                                              DesignPoint* out,
                                              DseStats* stats) const {
  const LeanModel model(nest, device_, dtype_, options_.assumed_freq_mhz);
  MiddleCandidateCache cache;
  std::vector<std::int64_t> best_s;
  if (!best_reuse_impl(nest, model, device_, options_, mapping, shape, cache,
                       &best_s, stats)) {
    return false;
  }
  *out = DesignPoint(nest, mapping, shape, std::move(best_s));
  return true;
}

std::vector<DseCandidate> DesignSpaceExplorer::enumerate_phase1(
    const LoopNest& nest, DseStats* stats) const {
  obs::ScopedSpan phase1_span("dse.phase1", "dse");
  DseStats local;
  DseStats* st = stats != nullptr ? stats : &local;
  const DseStats before = *st;

  // Flatten the sweep into (mapping, shape) work items so it can be
  // partitioned across workers. Each worker evaluates its ranges into
  // per-item slots and a per-worker stats block; the merge below reads slots
  // in item order, so the candidate list entering the sort is byte-identical
  // to the sequential sweep at any thread count (and integer stat counters
  // sum commutatively).
  std::vector<SystolicMapping> mappings;
  std::vector<Phase1Item> items;
  {
    obs::ScopedSpan enumerate_span("dse.phase1.enumerate", "dse");
    const ReuseMatrix reuse = analyze_reuse(nest);
    st->mappings_candidates += num_candidate_mappings(nest);
    mappings = enumerate_feasible_mappings(nest, reuse);
    st->mappings_feasible += static_cast<std::int64_t>(mappings.size());
    for (const SystolicMapping& mapping : mappings) {
      const std::vector<ArrayShape> shapes = enumerate_shapes(
          nest, mapping, device_, dtype_, options_, &st->shapes_considered);
      st->shapes_after_prune += static_cast<std::int64_t>(shapes.size());
      for (const ArrayShape& shape : shapes) {
        items.push_back(Phase1Item{&mapping, shape});
      }
    }
    enumerate_span.arg("mappings", static_cast<std::int64_t>(mappings.size()));
    enumerate_span.arg("work_items", static_cast<std::int64_t>(items.size()));
  }
  // Execution window of the sharding tier (serve/shard.h). Items are
  // enumerated in full on every node — indices are global — but only
  // [wb, we) is evaluated here. The default window is the whole list.
  const std::int64_t total_items = static_cast<std::int64_t>(items.size());
  const std::int64_t wb =
      std::clamp<std::int64_t>(options_.shard_begin, 0, total_items);
  const std::int64_t we =
      options_.shard_end < 0
          ? total_items
          : std::clamp<std::int64_t>(options_.shard_end, wb, total_items);
  st->work_items += we - wb;

  const LeanModel model(nest, device_, dtype_, options_.assumed_freq_mhz);
  // Stride-1 access structure: the precondition of the MT-monotonicity
  // rules — the per-item MT bound refinement and the within-DFS corner-bound
  // subtree skip (docs/MODEL.md, "Dominance pruning").
  const bool mt_monotone = has_stride1_accesses(nest);
  ThreadPool pool(options_.jobs);
  st->jobs_used = pool.jobs();
  const std::size_t workers = static_cast<std::size_t>(pool.jobs());
  // One pointer per item: most items yield no candidate, and a slot of
  // inline DseCandidates would touch ~0.4 KB per item on construction.
  std::vector<std::unique_ptr<DseCandidate>> slots(items.size());
  std::vector<DseStats> worker_stats(workers);
  std::vector<MiddleCandidateCache> caches(workers);
  std::vector<double> busy(workers, 0.0);

  // Bound pass: the Eq. 8 compute-bound PT of every item, batched through
  // the SoA kernel. PT depends only on the shape t (efficiency is a function
  // of t alone; the middle bounds s never raise it), so pt_gops[i] is an
  // admissible upper bound on the throughput of every reuse strategy of item
  // i — and bit-identical to the pt_gops estimate_performance would report
  // for any candidate of that item.
  ShapeBatch batch;
  batch.resize(items.size());
  {
    obs::ScopedSpan bound_span("dse.phase1.bound", "dse");
    bound_span.arg("items", static_cast<std::int64_t>(items.size()));
    std::vector<std::int64_t> inner(nest.num_loops(), 1);
    for (std::size_t i = 0; i < items.size(); ++i) {
      const Phase1Item& item = items[i];
      std::fill(inner.begin(), inner.end(), 1);
      inner[item.mapping->row_loop] = item.shape.rows;
      inner[item.mapping->col_loop] = item.shape.cols;
      inner[item.mapping->vec_loop] = item.shape.vec;
      batch.lanes[i] = static_cast<double>(item.shape.num_lanes());
      batch.executed[i] =
          static_cast<double>(executed_iterations_for_inner(nest, inner));
    }
    batch_pt_bounds(batch, static_cast<double>(nest.total_iterations()),
                    options_.assumed_freq_mhz * 1e-3);
  }

  // Sweep-memo context: rendered once per sweep, while an item's key text
  // is rendered only when the memo is consulted for it.
  SweepMemo* const memo = options_.sweep_memo;
  const std::string memo_ctx =
      memo != nullptr ? sweep_context_text(nest, device_, dtype_, options_)
                      : std::string();

  // Resolves one work item into its slot: the shape's soft-logic check,
  // then the sweep memo, then the reuse DFS. DSP, LUT and FF use are
  // functions of the shape and data type alone, so a shape that overflows
  // them is rejected here, before its DFS — the same decision the full
  // fits() below would make afterwards. BRAM depends on the middle bounds
  // (and max_bram_util may exceed 1), so that half stays after the DFS. A
  // finite `floor` arms the corner-bound subtree skip inside the DFS; the
  // result may then understate an item whose true best lies below the
  // floor. The memo therefore answers and stores only floor-free
  // evaluations, whose results are exact: a hit replays what the DFS would
  // compute, so a warm memo never changes a slot, a stat the sweep prunes
  // by, or a floor — only the time to reach them.
  auto evaluate_item = [&](std::int64_t i, MiddleCandidateCache& cache,
                           DseStats& ws, double floor) {
    const Phase1Item& item = items[static_cast<std::size_t>(i)];
    if (options_.enforce_soft_logic &&
        !estimate_resources(SynthInput{item.shape.rows, item.shape.cols,
                                       item.shape.vec, /*bram_blocks=*/0,
                                       dtype_},
                            device_)
             .fits()) {
      ++ws.soft_logic_rejected;
      return;
    }
    const bool memoize =
        memo != nullptr && !(mt_monotone && std::isfinite(floor));
    const std::string key =
        memoize ? item_key_text(*item.mapping, item.shape) : std::string();
    std::vector<std::int64_t> best_s;
    bool found = false;
    SweepMemo::Result cached;
    if (memoize && memo->lookup(memo_ctx, key, &cached)) {
      ++ws.memo_exact_hits;
      found = cached.found_fit;
      best_s = std::move(cached.best_s);
    } else {
      found = best_reuse_impl(nest, model, device_, options_, *item.mapping,
                              item.shape, cache, &best_s, &ws, floor,
                              mt_monotone);
      if (memoize) memo->store(memo_ctx, key, SweepMemo::Result{found, best_s});
    }
    if (!found) return;
    DseCandidate candidate;
    candidate.design =
        DesignPoint(nest, *item.mapping, item.shape, std::move(best_s));
    candidate.estimate = estimate_performance(nest, candidate.design, device_,
                                              dtype_, options_.assumed_freq_mhz);
    candidate.resources =
        model_resources(nest, candidate.design, device_, dtype_);
    if (options_.enforce_soft_logic && !candidate.resources.report.fits()) {
      ++ws.soft_logic_rejected;
      return;
    }
    slots[static_cast<std::size_t>(i)] =
        std::make_unique<DseCandidate>(std::move(candidate));
  };

  // Branch-and-bound floor. A sequential seed pass fully evaluates the top_k
  // items with the highest bounds; the K-th largest accepted throughput
  // becomes the prune floor for the parallel sweep. Every contribution is
  // the real throughput of a distinct item (at most one per item, each <=
  // that item's best), so the floor never exceeds the true K-th best
  // estimate and no exhaustive top-K member is pruned (docs/MODEL.md). The
  // seed pass is sequential and ignores the deterministic item cut (it polls
  // only cancelled()), which keeps the floor — and therefore every prune
  // decision — a pure function of the request at any jobs value and any cut
  // position.
  const bool prune =
      options_.bound_prune && options_.top_k > 0 && we > wb &&
      !options_.cancel.cancelled();
  std::vector<char> resolved(items.size(), 0);
  std::vector<double> bounds;
  double floor_gops = -std::numeric_limits<double>::infinity();
  DseStats seed_stats;
  if (prune) {
    obs::ScopedSpan seed_span("dse.phase1.seed", "dse");
    bounds = batch.pt_gops;
    // MT refinement of the bound. When every access coefficient is 0 or 1
    // (stride-1 structure), prod(block)/footprint_a is monotone
    // non-decreasing in every middle bound, so the MT of the maximal grid
    // point upper-bounds the MT of every reachable reuse strategy — in real
    // arithmetic. Each MT evaluation is a handful of IEEE operations
    // (relative error far below 1e-13), so inflating by 1e-9 provably
    // absorbs the rounding slack: bound >= min(PT, MT(s)) >= the item's best
    // throughput, bit for bit. Items with a strided access keep the PT-only
    // bound (docs/MODEL.md, "Dominance pruning").
    if (mt_monotone) {
      const std::size_t n = nest.num_loops();
      const std::vector<std::int64_t>& trips = model.layer().trips();
      std::vector<std::int64_t> inner(n, 1);
      std::vector<std::int64_t> block(n, 0);
      // Window-only: bounds are read solely for window items (seed order and
      // the parallel sweep both iterate [wb, we)).
      for (std::size_t i = static_cast<std::size_t>(wb);
           i < static_cast<std::size_t>(we); ++i) {
        const Phase1Item& item = items[i];
        std::fill(inner.begin(), inner.end(), 1);
        inner[item.mapping->row_loop] = item.shape.rows;
        inner[item.mapping->col_loop] = item.shape.cols;
        inner[item.mapping->vec_loop] = item.shape.vec;
        for (std::size_t l = 0; l < n; ++l) {
          // The largest candidate middle bound: all integers up to cap, or
          // the powers of two covering it, whose last is round_up_pow2(cap).
          const std::int64_t cap = ceil_div(trips[l], inner[l]);
          block[l] = (options_.pow2_middle ? round_up_pow2(cap) : cap) * inner[l];
        }
        const LeanModel::Eval top =
            model.rate(block, model.efficiency(inner), item.shape.num_lanes());
        if (top.bram_blocks == std::numeric_limits<std::int64_t>::max()) {
          continue;  // footprint overflowed: keep the PT-only bound
        }
        bounds[i] = std::min(bounds[i], top.mt_gops * (1.0 + 1e-9));
      }
    }
    const std::size_t top_k = static_cast<std::size_t>(options_.top_k);
    // Seed (and prune) inside the window only: a windowed sweep's floor is a
    // function of its own items, so its surviving candidate list is exactly
    // the full sweep's list restricted to the window (same admissibility
    // argument, applied per window).
    std::vector<std::int64_t> order(static_cast<std::size_t>(we - wb));
    std::iota(order.begin(), order.end(), wb);
    std::sort(order.begin(), order.end(),
              [&](std::int64_t a, std::int64_t b) {
                const double pa = bounds[static_cast<std::size_t>(a)];
                const double pb = bounds[static_cast<std::size_t>(b)];
                if (pa != pb) return pa > pb;
                return a < b;
              });
    // Walk the bound-sorted order until top_k items produced accepted
    // candidates: when the highest-bound items are BRAM-infeasible or
    // soft-logic-rejected (common on wide layers), stopping after top_k
    // ranks would leave fewer than K contributions and no floor at all. The
    // walk length is a deterministic function of the request, so prune
    // decisions stay jobs-invariant.
    std::vector<double> contributions;
    contributions.reserve(top_k);
    std::size_t seed_n = 0;
    while (seed_n < order.size() && contributions.size() < top_k) {
      if (options_.cancel.cancelled()) {
        seed_stats.cancelled = true;
        break;
      }
      const std::int64_t idx = order[seed_n++];
      evaluate_item(idx, caches[0], seed_stats,
                    -std::numeric_limits<double>::infinity());
      resolved[static_cast<std::size_t>(idx)] = 1;
      ++seed_stats.bound_seed_evaluated;
      const auto& slot = slots[static_cast<std::size_t>(idx)];
      if (slot != nullptr) contributions.push_back(slot->estimated_gops());
    }
    // The walk stops at top_k contributions, so the K-th best is the least.
    if (contributions.size() == top_k) {
      floor_gops = *std::min_element(contributions.begin(), contributions.end());
    }
    seed_span.arg("seeded", static_cast<std::int64_t>(seed_n));
  }

  // Busy time: the calling thread runs every stage outside the parallel
  // sweep (enumeration, bound pass, seed walk, merge) and only waits while
  // the workers' shards run, so phase 1 is busy except for the sweep's wall
  // time, plus each worker's shard time.
  const double sweep_start = phase1_span.elapsed_seconds();
  pool.for_each(
      we - wb,
      [&](std::int64_t begin, std::int64_t end, int worker) {
        // One shard span per dequeued range (~8 per worker) — granular
        // enough to see load balance in the trace, far off the per-item
        // hot path. Its clock is also the per-worker busy timer.
        obs::ScopedSpan shard("dse.phase1.shard", "dse");
        shard.arg("begin", begin);
        shard.arg("end", end);
        shard.arg("worker", worker);
        DseStats& ws = worker_stats[static_cast<std::size_t>(worker)];
        MiddleCandidateCache& cache = caches[static_cast<std::size_t>(worker)];
        for (std::int64_t i = begin; i < end; ++i) {
          // The pool iterates window-relative indices; items are addressed
          // by their global index so slots, bounds and the deterministic
          // item cut agree across any window placement.
          const std::int64_t idx = wb + i;
          // Cooperative cancellation poll, per work item: one relaxed load
          // (plus a clock read only when a deadline is armed) against an
          // item that costs orders of magnitude more. cut(idx) folds in the
          // deterministic item cut, an expired deadline, and an explicit
          // request_cancel(); the rest of this shard — and, via the same
          // check at its own first item, every later shard — is skipped,
          // leaving the already-filled slots as the best-so-far partial.
          if (options_.cancel.cut(idx)) {
            ws.cancelled = true;
            break;
          }
          if (resolved[static_cast<std::size_t>(idx)]) continue;
          // Branch-and-bound: strictly below the floor means no reuse
          // strategy of this item can enter the top-K (ties survive, so the
          // K-boundary ordering matches the exhaustive sweep bit for bit).
          if (prune && bounds[static_cast<std::size_t>(idx)] < floor_gops) {
            ++ws.items_pruned_bound;
            continue;
          }
          evaluate_item(idx, cache, ws, floor_gops);
        }
        busy[static_cast<std::size_t>(worker)] += shard.elapsed_seconds();
      });
  const double sweep_seconds = phase1_span.elapsed_seconds() - sweep_start;

  worker_stats.push_back(seed_stats);
  for (const DseStats& ws : worker_stats) {
    st->reuse_evaluated += ws.reuse_evaluated;
    st->reuse_bram_rejected += ws.reuse_bram_rejected;
    st->soft_logic_rejected += ws.soft_logic_rejected;
    st->reuse_space_pow2 += ws.reuse_space_pow2;
    st->reuse_space_bruteforce += ws.reuse_space_bruteforce;
    st->items_pruned_bound += ws.items_pruned_bound;
    st->bound_seed_evaluated += ws.bound_seed_evaluated;
    st->reuse_subtrees_pruned += ws.reuse_subtrees_pruned;
    st->reuse_incumbent_pruned += ws.reuse_incumbent_pruned;
    st->reuse_bound_evals += ws.reuse_bound_evals;
    st->memo_exact_hits += ws.memo_exact_hits;
    st->cancelled = st->cancelled || ws.cancelled;
  }

  std::vector<DseCandidate> candidates;
  candidates.reserve(static_cast<std::size_t>(we - wb));
  for (std::int64_t i = wb; i < we; ++i) {
    const std::unique_ptr<DseCandidate>& slot =
        slots[static_cast<std::size_t>(i)];
    if (slot != nullptr) candidates.push_back(std::move(*slot));
  }
  // stable_sort: slots arrive in item order, so candidates tied on both sort
  // keys keep that order — including across the pruned/exhaustive pair,
  // whose surviving lists agree on every item at or above the floor.
  std::stable_sort(candidates.begin(), candidates.end(),
                   [](const DseCandidate& a, const DseCandidate& b) {
                     if (a.estimated_gops() != b.estimated_gops()) {
                       return a.estimated_gops() > b.estimated_gops();
                     }
                     return a.resources.bram_blocks < b.resources.bram_blocks;
                   });
  const double wall = phase1_span.elapsed_seconds();
  st->phase1_seconds += wall;
  st->phase1_cpu_seconds += wall - sweep_seconds;
  for (const double b : busy) st->phase1_cpu_seconds += b;
  phase1_span.arg("work_items", st->work_items - before.work_items);
  phase1_span.arg("candidates", static_cast<std::int64_t>(candidates.size()));
  publish_phase1_run(before, *st, candidates.size(), wall);
  return candidates;
}

std::int64_t DesignSpaceExplorer::count_phase1_items(
    const LoopNest& nest) const {
  const ReuseMatrix reuse = analyze_reuse(nest);
  const std::vector<SystolicMapping> mappings =
      enumerate_feasible_mappings(nest, reuse);
  std::int64_t count = 0;
  for (const SystolicMapping& mapping : mappings) {
    count += static_cast<std::int64_t>(
        enumerate_shapes(nest, mapping, device_, dtype_, options_).size());
  }
  return count;
}

void DesignSpaceExplorer::run_phase2(const LoopNest& nest,
                                     std::vector<DseCandidate>& candidates)
    const {
  // Each candidate's pseudo-P&R is independent and written in place, so the
  // parallel sweep is trivially order-insensitive.
  ThreadPool pool(options_.jobs);
  pool.for_each(static_cast<std::int64_t>(candidates.size()),
                [&](std::int64_t begin, std::int64_t end, int /*worker*/) {
                  for (std::int64_t i = begin; i < end; ++i) {
                    // Deadline poll only (the deterministic item cut indexes
                    // phase-1 work items, not this top-K list): candidates
                    // the cut skips keep realized_freq_mhz == 0 and best()
                    // falls back to the estimated ranking.
                    if (options_.cancel.cancelled()) return;
                    DseCandidate& candidate =
                        candidates[static_cast<std::size_t>(i)];
                    candidate.realized_freq_mhz = pseudo_pnr_frequency_mhz(
                        device_, candidate.resources.report,
                        candidate.design.signature());
                    candidate.realized = estimate_performance(
                        nest, candidate.design, device_, dtype_,
                        candidate.realized_freq_mhz);
                  }
                });
}

DseResult DesignSpaceExplorer::explore(const LoopNest& nest) const {
  return explore(nest, [&](double min_dsp_util, DseStats* stats) {
    DseOptions at_floor = options_;
    at_floor.min_dsp_util = min_dsp_util;
    return DesignSpaceExplorer(device_, dtype_, at_floor)
        .enumerate_phase1(nest, stats);
  });
}

DseResult DesignSpaceExplorer::explore(const LoopNest& nest,
                                       const Phase1Step& phase1) const {
  DseResult result;
  result.stats.effective_min_dsp_util = options_.min_dsp_util;
  std::vector<DseCandidate> all = phase1(options_.min_dsp_util, &result.stats);
  if (all.empty() && !result.stats.cancelled && options_.auto_relax_util &&
      options_.min_dsp_util > 0.0) {
    // The utilization floor excluded every feasible shape (tiny layer or
    // tight device); relax c_s and retry — the paper's phase 1 rerun knob.
    // A cancelled empty sweep must not enter this loop: "found nothing
    // before the deadline" is a timeout, not evidence that c_s is too
    // aggressive, and each retry re-sweeps the whole space. A sharded
    // phase 1 relaxes here too, after its reduce: one worker's empty window
    // says nothing about the whole space.
    double relaxed = options_.min_dsp_util;
    while (all.empty() && !result.stats.cancelled && relaxed > 1e-3) {
      relaxed /= 2.0;
      ++result.stats.util_relaxations;
      all = phase1(relaxed, &result.stats);
    }
    if (all.empty() && !result.stats.cancelled) {
      relaxed = 0.0;
      ++result.stats.util_relaxations;
      all = phase1(relaxed, &result.stats);
    }
    result.stats.effective_min_dsp_util = relaxed;
  }
  const std::size_t keep =
      std::min<std::size_t>(all.size(), static_cast<std::size_t>(options_.top_k));
  result.top.assign(all.begin(), all.begin() + static_cast<std::ptrdiff_t>(keep));

  double phase2_wall = 0.0;
  {
    obs::ScopedSpan phase2_span("dse.phase2", "dse");
    phase2_span.arg("candidates", static_cast<std::int64_t>(result.top.size()));
    run_phase2(nest, result.top);
    phase2_wall = phase2_span.elapsed_seconds();
  }
  result.stats.phase2_seconds += phase2_wall;
  // Phase 2 has no per-worker timers; its busy time is ~the wall time of the
  // sweep itself (the top-K list is short).
  result.stats.phase2_cpu_seconds += phase2_wall;

  // A deadline that expired during phase 2 is still a cancellation (some
  // realized numbers are missing); the deterministic item cut, by contrast,
  // only marks phase 1.
  if (options_.cancel.cancelled()) result.stats.cancelled = true;
  result.status =
      result.stats.cancelled ? DseStatus::kCancelled : DseStatus::kOk;

  if (obs::metrics_enabled()) {
    DseMetrics& m = DseMetrics::get();
    m.explorations.add(1);
    m.util_relaxations.add(result.stats.util_relaxations);
    m.phase2_ms.observe(phase2_wall * 1e3);
    if (result.status == DseStatus::kCancelled) m.cancelled.add(1);
  }
  return result;
}

DseResult DesignSpaceExplorer::explore_layer(const ConvLayerDesc& layer) const {
  return explore(build_conv_nest(layer));
}

}  // namespace sasynth
