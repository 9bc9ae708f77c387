// Performance model: Eqs. 1 and 7-10 of the paper.
//
//   Eff      = effective ops / executed ops                    (Eq. 1)
//   PT       = Eff * prod(t) * 2 * F                           (Eq. 8)
//   MT_t     = Eff*2*prod(s*t) / (sum_r DA_r bytes / BW_total)  (Eq. 10)
//   MT_r     = Eff*2*prod(s*t) / (DA_r bytes / BW_port)         (Eq. 10)
//   MT       = min(MT_t, min_r MT_r)                           (Eq. 9)
//   T        = min(PT, MT)                                     (Eq. 7)
//
// Both PT and MT are rates of *effective* operations (operations of the
// original untiled program), so a layer's runtime is simply
// effective_ops / T. Double buffering lets computation and transfer overlap,
// which is what justifies the min() composition (§3.4).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/design_point.h"
#include "core/resource_model.h"
#include "fpga/datatype.h"
#include "fpga/device.h"
#include "loopnest/loop_nest.h"
#include "nn/layer.h"

namespace sasynth {

struct PerfEstimate {
  double freq_mhz = 0.0;
  double eff = 0.0;             ///< Eq. 1
  double pt_gops = 0.0;          ///< Eq. 8, computation-bound rate
  double mt_total_gops = 0.0;    ///< Eq. 10, aggregate-bandwidth bound
  std::vector<double> mt_port_gops;  ///< Eq. 10, one per array port
  double mt_gops = 0.0;          ///< Eq. 9
  double throughput_gops = 0.0;  ///< Eq. 7
  bool memory_bound = false;     ///< MT < PT

  /// Block pipeline quantities (also used by the performance simulator).
  std::int64_t num_blocks = 0;
  std::int64_t cycles_per_block = 0;   ///< prod(s), steady-state
  std::int64_t fill_drain_cycles = 0;  ///< array skew: rows + cols - 2

  std::string summary() const;
};

/// Evaluates the performance model for one design on one layer's nest at a
/// given clock. `freq_mhz` is the assumed clock in phase 1 and the realized
/// pseudo-P&R clock in phase 2.
PerfEstimate estimate_performance(const LoopNest& nest,
                                  const DesignPoint& design,
                                  const FpgaDevice& device, DataType dtype,
                                  double freq_mhz);

/// Folded-execution estimate: the performance model applied to a fixed
/// design executing a layer it was not necessarily synthesized for
/// (src/deploy). `design` must pass validate_folded(nest); typically it is
/// the retargeted design a deploy::FoldPlan produced. The PerfEstimate is
/// computed by the exact same arithmetic as estimate_performance — when the
/// fold plan degenerates to identity (a layer on its own bespoke design) the
/// numbers reproduce the bespoke estimate bit for bit — plus explicit
/// DIVCEIL padding accounting: executed vs effective iterations and the
/// wasted-lane/pad-cycle fraction.
struct FoldedPerfEstimate {
  PerfEstimate perf;
  std::int64_t effective_iterations = 0;  ///< the layer's true iterations
  std::int64_t executed_iterations = 0;   ///< padded to the array quantum
  std::int64_t padded_iterations = 0;     ///< executed - effective
  double waste_ratio = 0.0;               ///< padded / executed = 1 - eff

  std::string summary() const;
};

FoldedPerfEstimate estimate_folded_performance(const LoopNest& nest,
                                               const DesignPoint& design,
                                               const FpgaDevice& device,
                                               DataType dtype, double freq_mhz);

/// Runtime of one full layer (all groups, sequentially) in milliseconds.
double layer_latency_ms(const ConvLayerDesc& layer, const PerfEstimate& perf);

/// Modeled total compute cycles for one group of the layer: blocks * prod(s)
/// plus one array fill/drain. The cycle-accurate simulator is validated
/// against this.
std::int64_t modeled_compute_cycles(const LoopNest& nest,
                                    const DesignPoint& design);

/// DSP efficiency alone (Eq. 1) — convenience wrapper over the tiling.
double dsp_efficiency(const LoopNest& nest, const DesignPoint& design);

/// Executed (padded) iterations for the inner bounds `t` alone (Eq. 1
/// denominator): prod_l ceil(N_l / t_l) * t_l. This matches
/// TilingSpec::executed_iterations for any middle bounds s, because the
/// middle loops clip and only the array-shape quantization pads. The
/// product saturates to INT64_MAX instead of overflowing (a saturated
/// denominator makes the bound *larger*, so it stays admissible).
std::int64_t executed_iterations_for_inner(const LoopNest& nest,
                                           const std::vector<std::int64_t>& inner);

/// Eq. 1 for the inner bounds t alone: total iterations over
/// executed_iterations_for_inner. Equals TilingSpec::efficiency for any
/// middle bounds s.
double efficiency_for_inner(const LoopNest& nest,
                            const std::vector<std::int64_t>& inner);

/// Admissible upper bound on the phase-1 throughput of *every* reuse
/// strategy of one (mapping, shape) work item: the compute-bound PT of
/// Eq. 8, which is independent of the middle bounds s (Eff depends only on
/// t). Since T = min(PT, MT) <= PT, no candidate of the item can estimate
/// above this value. The arithmetic replicates estimate_performance's
/// pt_gops expression operation for operation, so the bound is not merely
/// >= the estimate — it is bit-identical to the PT every candidate of the
/// item reports, which is what makes the branch-and-bound prune in
/// enumerate_phase1 exact under floating-point comparison (docs/MODEL.md,
/// "Dominance pruning").
double phase1_pt_bound_gops(const LoopNest& nest,
                            const std::vector<std::int64_t>& inner,
                            std::int64_t lanes, double freq_mhz);

}  // namespace sasynth
