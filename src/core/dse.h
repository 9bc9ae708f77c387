// Two-phase design space exploration (paper §4, Fig. 5).
//
// Phase 1 (architectural): enumerate feasible mappings, prune PE array shapes
// by the DSP-utilization floor (Eq. 12, constant c_s), prune the data-reuse
// space to power-of-two middle bounds (valid because throughput is monotone
// non-decreasing in s and BRAM allocation rounds depths up to powers of two),
// then exhaustively search the remaining space with the analytical models at
// an assumed clock frequency. Phase 2 (hardware): run the top-K candidates
// through the pseudo-P&R frequency model and re-rank by realized throughput.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "core/design_point.h"
#include "core/perf_model.h"
#include "core/resource_model.h"
#include "core/sweep_memo.h"
#include "fpga/datatype.h"
#include "fpga/device.h"
#include "loopnest/loop_nest.h"
#include "nn/layer.h"
#include "util/deadline.h"

namespace sasynth {

struct DseOptions {
  /// Clock assumed during phase 1 (the paper uses 280 MHz for Fig. 7a).
  double assumed_freq_mhz = 280.0;

  /// c_s of Eq. 12: minimum DSP (MAC-capacity) utilization for a shape to
  /// survive the architectural prune.
  double min_dsp_util = 0.80;

  /// Restrict middle bounds to powers of two (§4's 17.5x prune). Disabling
  /// this gives the brute-force reuse search the paper compares against.
  bool pow2_middle = true;

  /// Candidates carried into phase 2 (the paper carries 14 into P&R).
  int top_k = 14;

  /// Shape enumeration caps.
  std::int64_t max_rows = 64;
  std::int64_t max_cols = 64;
  std::int64_t max_vec = 16;

  /// SIMD vector restricted to powers of two (DSP accumulation chain, §2.2).
  bool pow2_vec_only = true;

  /// Upper bound on BRAM utilization for a valid design.
  double max_bram_util = 1.0;

  /// Also reject designs whose estimated soft logic (LUT/FF) exceeds the
  /// device. The paper's Problem 2 bounds only DSP and BRAM because its
  /// designs never approached the ALM limit; on small parts the check
  /// matters.
  bool enforce_soft_logic = true;

  /// When phase 1 finds nothing at min_dsp_util (too aggressive a c_s for
  /// this layer/device), halve the floor and retry until a design appears or
  /// the floor reaches zero. Keeps the push-button flow push-button.
  bool auto_relax_util = true;

  /// Branch-and-bound pruning of the phase-1 sweep: work items whose
  /// compute-bound PT (Eq. 8, an admissible upper bound on every reuse
  /// strategy of the item — see phase1_pt_bound_gops) is strictly below a
  /// floor derived from a sequential seed pass over the top_k most
  /// promising items are skipped without running their reuse DFS. The
  /// final top_k candidates are bit-identical to the exhaustive sweep
  /// (docs/MODEL.md, "Dominance pruning"); only the tail of the full
  /// enumerate_phase1 dump shrinks. Disable for exhaustive-baseline
  /// measurements and full design-space dumps (Fig. 7a).
  bool bound_prune = true;

  /// Optional cross-request sweep memo (serve/sweep_cache.h). Like `cancel`
  /// and `jobs` this is execution policy, not request identity: a memo hit
  /// replays the identical DFS result, so it never changes a response byte
  /// or a prune decision. Excluded from canonical_request_text(). Not
  /// owned; may be null.
  SweepMemo* sweep_memo = nullptr;

  /// Phase-1 work-item execution window [shard_begin, shard_end), in the
  /// deterministic item enumeration order (mappings in feasibility order,
  /// shapes in row/col/vec order). The full item list is always enumerated —
  /// indices are global and identical on every node — but only items inside
  /// the window are evaluated (seeded, pruned, or swept). shard_end == -1
  /// means "through the last item"; the default window covers everything,
  /// which is the single-node sweep. Like `jobs` this is execution policy
  /// for the sharding tier (serve/shard.h), not request identity: it never
  /// enters canonical_request_text(). The windowed candidate list is exactly
  /// the full sweep's candidate list restricted to the window, so a
  /// deterministic top-K merge of disjoint windows reproduces the
  /// single-node top-K bit for bit.
  std::int64_t shard_begin = 0;
  std::int64_t shard_end = -1;

  /// Worker threads for the phase-1 sweep and phase-2 re-ranking. 0 resolves
  /// through the SASYNTH_JOBS environment variable, then hardware
  /// concurrency; 1 forces the serial path. Results are bit-identical at any
  /// value (deterministic merge).
  int jobs = 0;

  /// Cooperative cancellation (util/deadline.h). The sweeps poll this token
  /// at work-item granularity; once it reports cancelled (explicit request,
  /// expired deadline, or a deterministic item cut) the exploration stops
  /// early and returns the best-so-far candidates with
  /// DseResult::status == DseStatus::kCancelled. The default token is inert
  /// (never cancels, zero polling cost beyond a relaxed load). Like `jobs`,
  /// the token is execution policy, not part of the request identity — it is
  /// excluded from canonical_request_text().
  CancelToken cancel;
};

/// Outcome of an exploration: kOk = the search space was fully swept;
/// kCancelled = the token fired mid-sweep and `top` holds only the
/// candidates evaluated before the cut (best-so-far, deterministically
/// merged — never a silent truncation).
enum class DseStatus { kOk, kCancelled };

/// One explored design with its phase-1 estimate and (after phase 2) its
/// realized clock and throughput.
struct DseCandidate {
  DesignPoint design;
  PerfEstimate estimate;        ///< at the assumed clock
  ResourceUsage resources;
  double realized_freq_mhz = 0.0;  ///< 0 until phase 2 runs
  PerfEstimate realized;           ///< at the realized clock

  double estimated_gops() const { return estimate.throughput_gops; }
  double realized_gops() const { return realized.throughput_gops; }
};

/// Search-space statistics (the quantities behind the paper's §4 claims).
/// This is the per-exploration view; each enumerate_phase1/explore call also
/// publishes its deltas into the process-global obs::MetricsRegistry (the
/// `dse_*` metrics of docs/OBSERVABILITY.md) and opens trace spans, so the
/// CLI, daemon, benches and tests all read one instrumentation source.
struct DseStats {
  std::int64_t mappings_candidates = 0;  ///< ordered loop triples examined
  std::int64_t mappings_feasible = 0;
  std::int64_t shapes_considered = 0;    ///< (mapping, t) within DSP capacity
  std::int64_t shapes_after_prune = 0;   ///< after Eq. 12
  std::int64_t reuse_evaluated = 0;      ///< s-vectors actually evaluated
  /// Reuse strategies whose leaf evaluation exceeded the BRAM budget.
  std::int64_t reuse_bram_rejected = 0;
  /// Phase-1 work items dropped by the soft-logic fit check: shapes whose
  /// DSP, LUT or FF use exceeds the device (checked before the reuse DFS —
  /// the three depend on the shape and data type alone), plus candidates
  /// whose BRAM use exceeds the device after it (possible only with
  /// max_bram_util > 1).
  std::int64_t soft_logic_rejected = 0;
  /// Size of the unpruned (all-integer s) reuse space for the surviving
  /// shapes — computed analytically, not enumerated.
  std::int64_t reuse_space_bruteforce = 0;
  /// Size of the pow2-restricted reuse space before BRAM pruning.
  std::int64_t reuse_space_pow2 = 0;
  /// (mapping, shape) work items dispatched to the phase-1 sweep.
  std::int64_t work_items = 0;
  /// Work items skipped by the branch-and-bound rule: their Eq. 8 bound
  /// fell strictly below the seeded top-K floor, so no reuse strategy of
  /// theirs could enter the top-K (new dominance rule; docs/MODEL.md).
  std::int64_t items_pruned_bound = 0;
  /// Work items fully evaluated by the sequential seed pass that
  /// establishes the branch-and-bound floor (the walk down the bound-sorted
  /// order stops once top_k items produced accepted candidates).
  std::int64_t bound_seed_evaluated = 0;
  /// Reuse-DFS subtrees skipped because the throughput of their maximal
  /// corner fell below the floor (valid only for stride-1 access structures,
  /// where MT is monotone non-decreasing in every middle bound;
  /// docs/MODEL.md, "Dominance pruning").
  std::int64_t reuse_subtrees_pruned = 0;
  /// Reuse-DFS subtrees skipped because the throughput of their maximal
  /// corner fell below the item's own best leaf so far (same stride-1
  /// precondition; only under bound_prune). Exact: the item's result is the
  /// one the full DFS returns.
  std::int64_t reuse_incumbent_pruned = 0;
  /// Corner evaluations spent deciding subtree skips (the overhead side of
  /// `reuse_subtrees_pruned` and `reuse_incumbent_pruned`; not part of
  /// `reuse_evaluated`).
  std::int64_t reuse_bound_evals = 0;
  /// Sweep-memo hits: items answered from a previous sweep's DFS result
  /// instead of re-running it (0 without a sweep_memo).
  std::int64_t memo_exact_hits = 0;
  /// auto_relax_util floor halvings taken before a design appeared.
  std::int64_t util_relaxations = 0;
  /// The c_s that actually produced the result (after any relaxation);
  /// negative until explore() runs.
  double effective_min_dsp_util = -1.0;
  /// True when the cancel token fired during the sweep: the counters above
  /// cover only the portion of the space visited before the cut.
  bool cancelled = false;
  /// Resolved worker count of the last explore (0 until a sweep runs).
  int jobs_used = 0;
  double phase1_seconds = 0.0;      ///< wall time
  double phase2_seconds = 0.0;      ///< wall time
  /// Busy time of phase 1: every stage on the calling thread (enumeration,
  /// bound pass, seed walk, merge) plus the summed per-worker busy time of
  /// the parallel sweep. phase1_cpu_seconds / phase1_seconds approximates
  /// the realized parallel speedup (~1 at jobs 1).
  double phase1_cpu_seconds = 0.0;
  double phase2_cpu_seconds = 0.0;

  std::string summary() const;
};

struct DseResult {
  /// Top candidates sorted by estimated throughput (desc), each with phase-2
  /// realized numbers filled in (candidates the cancel cut skipped in
  /// phase 2 keep realized_freq_mhz == 0; best() then falls back to the
  /// estimated ranking).
  std::vector<DseCandidate> top;
  DseStats stats;
  DseStatus status = DseStatus::kOk;

  /// Highest realized throughput (empty result if nothing valid was found).
  const DseCandidate* best() const;
  bool empty() const { return top.empty(); }
};

class DesignSpaceExplorer {
 public:
  DesignSpaceExplorer(FpgaDevice device, DataType dtype, DseOptions options);

  /// Full two-phase DSE for one loop nest (one layer, one group).
  DseResult explore(const LoopNest& nest) const;

  /// Phase 1 at one utilization floor: all valid candidates in ranked order,
  /// accumulating into `stats` (work items, and `cancelled` when the cancel
  /// token cut the sweep).
  using Phase1Step = std::function<std::vector<DseCandidate>(
      double min_dsp_util, DseStats* stats)>;

  /// The same two-phase DSE with phase 1 supplied by the caller — a shard
  /// coordinator fans each round out over its peers. The auto_relax_util
  /// retry loop, the top-K cut, phase 2 and the `dse_*` metric publish are
  /// this explorer's; explore(nest) passes enumerate_phase1.
  DseResult explore(const LoopNest& nest, const Phase1Step& phase1) const;

  /// Convenience: builds the conv nest and explores it.
  DseResult explore_layer(const ConvLayerDesc& layer) const;

  /// Phase-1 only: all valid candidates (design + estimate) without the
  /// top-K cut; used by the Fig. 7(a) design-space dump. `per_shape_best`
  /// keeps only the best reuse strategy per (mapping, shape).
  std::vector<DseCandidate> enumerate_phase1(const LoopNest& nest,
                                             DseStats* stats) const;

  /// Size of the phase-1 (mapping, shape) work-item list for `nest` under
  /// these options — the quantity a shard coordinator partitions. Pure
  /// enumeration (feasible mappings × surviving shapes); no reuse DFS, no
  /// stats side effects. Deterministic, so every node that runs it against
  /// the same request computes the same item count and index order.
  std::int64_t count_phase1_items(const LoopNest& nest) const;

  /// Optimal middle bounds for a fixed (mapping, shape) — Problem 2 of §3.5.
  /// Returns false if no reuse strategy fits the BRAM budget.
  bool best_reuse_strategy(const LoopNest& nest, const SystolicMapping& mapping,
                           const ArrayShape& shape, DesignPoint* out,
                           DseStats* stats) const;

  /// Runs phase 2 on candidates (pseudo-P&R + re-estimate), in place.
  void run_phase2(const LoopNest& nest, std::vector<DseCandidate>& candidates)
      const;

  const FpgaDevice& device() const { return device_; }
  DataType dtype() const { return dtype_; }
  const DseOptions& options() const { return options_; }

 private:
  FpgaDevice device_;
  DataType dtype_;
  DseOptions options_;
};

/// Canonical text of everything the phase-1 reuse DFS reads for one sweep:
/// loop trip counts, access coefficient matrices and per-access byte widths,
/// the device's BRAM/bandwidth parameters, and the sweep options the DFS
/// consumes (assumed clock, pow2 restriction, BRAM ceiling — min_dsp_util
/// is deliberately excluded: the DFS never reads it, so auto-relax retries
/// share entries). Two work items with equal context and item texts are the
/// same computation; the sweep memo (core/sweep_memo.h) keys on the pair.
std::string sweep_context_text(const LoopNest& nest, const FpgaDevice& device,
                               DataType dtype, const DseOptions& options);

/// All PE-array shapes for `mapping` that pass the capacity and Eq. 12
/// utilization constraints. `considered` (optional) counts pre-prune shapes.
std::vector<ArrayShape> enumerate_shapes(const LoopNest& nest,
                                         const SystolicMapping& mapping,
                                         const FpgaDevice& device,
                                         DataType dtype,
                                         const DseOptions& options,
                                         std::int64_t* considered = nullptr);

}  // namespace sasynth
