// Fixed-design execution: fold an arbitrary layer onto a fixed DesignPoint.
//
// The DSE synthesizes one bespoke design per layer, but a deployed FPGA has
// exactly one bitstream: every layer of every hosted model must execute on
// whatever (row, col, vec) array was built (Systolic-CNN, PAPERS.md). The
// mapping primitive is the DIVCEIL fold of SET-ISCA2023 (SNIPPETS.md): a
// layer whose trip counts do not divide the design's bounds is padded up to
// the next array quantum — ceil(N_l / t_l) granules along every loop — and
// the padded lanes/cycles are charged as waste rather than rejected.
//
// plan_fold() is deterministic and device-free: it decides feasibility (the
// design's loop mapping must satisfy the Eq. 2/3/11 feasibility conditions
// on the *layer's own* nest), retargets the middle bounds so the schedule
// doesn't spin through empty blocks, and reports per-loop and aggregate
// padding statistics. evaluate_fixed_design() layers the device on top:
// resources and realized pseudo-P&R frequency of the fixed array, then the
// folded performance estimate of every layer of a network.
//
// Identity guarantee (the differential-testing anchor): a layer planned onto
// its own bespoke design yields `identity == true` and a retargeted design
// *equal* to the input, so every downstream number reproduces the bespoke
// path bit for bit. The middle-bound clamp preserves this because a DSE-
// chosen middle bound never exceeds round_up_pow2(ceil(N_l / t_l)).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/design_point.h"
#include "core/perf_model.h"
#include "core/resource_model.h"
#include "fpga/datatype.h"
#include "fpga/device.h"
#include "loopnest/loop_nest.h"
#include "nn/network.h"

namespace sasynth::deploy {

/// Per-loop fold decision: how one loop of the layer maps onto the fixed
/// array dimension that covers it.
struct LoopFold {
  std::string loop;          ///< loop name ("o", "i", ...)
  std::int64_t trip = 0;     ///< N_l, the layer's trip count
  std::int64_t inner = 1;    ///< t_l, the fixed design's hardware extent
  std::int64_t middle = 1;   ///< s'_l, the retargeted middle bound
  std::int64_t granules = 0; ///< ceil(N_l / t_l), units of executed work
  std::int64_t folds = 0;    ///< outer trip: ceil(N_l / (s'_l * t_l))
  std::int64_t pad = 0;      ///< granules * t_l - N_l padded iterations
};

struct FoldPlan {
  bool feasible = false;
  std::string error;      ///< why infeasible (empty when feasible)
  /// The fixed design with middle bounds retargeted to this nest:
  /// s'_l = min(s_l, round_up_pow2(ceil(N_l / t_l))). Hardware-identical to
  /// the input (same mapping, same array shape — the middle bounds are a
  /// schedule, not silicon) but never larger than the layer needs.
  DesignPoint design;
  /// True when retargeting was a no-op (design == the fixed input); implied
  /// for a layer on its own bespoke design. Distinct from zero waste: a
  /// bespoke design can still pad (13 rows on an 11-row array).
  bool identity = false;
  std::vector<LoopFold> loops;
  std::int64_t effective_iterations = 0;
  std::int64_t executed_iterations = 0;  ///< padded to the array quantum
  double waste_ratio = 0.0;  ///< (executed - effective) / executed

  std::string summary() const;
};

/// Computes the deterministic fold/pad plan for `nest` on `fixed`.
/// Infeasible (with `error` set) when the design's mapping is out of range
/// for the nest or fails the feasibility conditions on the layer's own reuse
/// analysis. Fault site: `deploy.plan`. Metrics: `deploy_mapped_total`,
/// `deploy_infeasible_total`, `deploy_fold_waste_ratio`.
FoldPlan plan_fold(const LoopNest& nest, const DesignPoint& fixed);

/// One layer's outcome under a fixed design.
struct FixedLayerPerf {
  std::string layer;
  FoldPlan plan;
  FoldedPerfEstimate perf;  ///< meaningful only when plan.feasible
  double latency_ms = 0.0;
};

/// A fixed design evaluated over a whole network at its realized clock.
struct FixedDesignEval {
  bool valid = false;  ///< every layer feasible and the array fits the device
  std::string error;
  DesignPoint design;             ///< the fixed design (not retargeted)
  double realized_freq_mhz = 0.0;
  ResourceUsage resources;        ///< the fixed array's synthesis cost
  std::vector<FixedLayerPerf> per_layer;
  double total_latency_ms = 0.0;  ///< one image through all conv layers
  double aggregate_gops = 0.0;    ///< total ops / total latency
  bool memory_bound_layers = false;

  std::string summary(const Network& net) const;
};

/// Evaluates `design` on every layer of `net`: resources of the fixed array
/// (sized by its worst-case layer, worst_case_resources), realized
/// pseudo-P&R frequency, then per-layer folded estimates. A layer
/// whose fold plan is infeasible marks the whole evaluation invalid (its
/// row is still reported). The resource/frequency derivation matches the
/// bespoke CLI path exactly when `net` is a single layer and `design` its
/// bespoke design, which is what makes fold-identity end-to-end testable.
FixedDesignEval evaluate_fixed_design(const Network& net,
                                      const DesignPoint& design,
                                      const FpgaDevice& device, DataType dtype);

}  // namespace sasynth::deploy
