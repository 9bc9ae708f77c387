#include "core/perf_model.h"

#include <algorithm>
#include <cassert>

#include "core/layer_eval.h"
#include "util/math_util.h"
#include "util/strings.h"

namespace sasynth {

double dsp_efficiency(const LoopNest& nest, const DesignPoint& design) {
  return design.tiling().efficiency(nest);
}

std::int64_t executed_iterations_for_inner(
    const LoopNest& nest, const std::vector<std::int64_t>& inner) {
  std::int64_t executed = 1;
  for (std::size_t l = 0; l < nest.num_loops(); ++l) {
    executed =
        sat_mul(executed, ceil_div(nest.loop(l).trip, inner[l]) * inner[l]);
  }
  return executed;
}

double efficiency_for_inner(const LoopNest& nest,
                            const std::vector<std::int64_t>& inner) {
  return static_cast<double>(nest.total_iterations()) /
         static_cast<double>(executed_iterations_for_inner(nest, inner));
}

double phase1_pt_bound_gops(const LoopNest& nest,
                            const std::vector<std::int64_t>& inner,
                            std::int64_t lanes, double freq_mhz) {
  return pt_gops(efficiency_for_inner(nest, inner), lanes, freq_mhz);
}

PerfEstimate estimate_performance(const LoopNest& nest,
                                  const DesignPoint& design,
                                  const FpgaDevice& device, DataType dtype,
                                  double freq_mhz) {
  PerfEstimate perf;
  const TilingSpec& tiling = design.tiling();
  perf.freq_mhz = freq_mhz;
  perf.eff = tiling.efficiency(nest);
  perf.pt_gops = pt_gops(perf.eff, design.num_lanes(), freq_mhz);
  perf.mt_port_gops.resize(nest.num_accesses());
  const LayerEval eval = evaluate_layer_rates(
      nest.num_accesses(), TilingTerms{nest, tiling, dtype}, perf.eff,
      perf.pt_gops, tiling.macs_per_block(), device, perf.mt_port_gops.data());
  perf.mt_total_gops = eval.mt_total_gops;
  perf.mt_gops = eval.mt_gops;
  perf.throughput_gops = eval.throughput_gops;
  perf.memory_bound = perf.mt_gops < perf.pt_gops;

  perf.num_blocks = tiling.num_blocks(nest);
  perf.cycles_per_block = tiling.cycles_per_block();
  perf.fill_drain_cycles = design.shape().rows + design.shape().cols - 2;
  return perf;
}

FoldedPerfEstimate estimate_folded_performance(const LoopNest& nest,
                                               const DesignPoint& design,
                                               const FpgaDevice& device,
                                               DataType dtype,
                                               double freq_mhz) {
  assert(design.validate_folded(nest).empty());
  FoldedPerfEstimate out;
  out.perf = estimate_performance(nest, design, device, dtype, freq_mhz);
  out.effective_iterations = nest.total_iterations();
  out.executed_iterations = design.tiling().executed_iterations(nest);
  out.padded_iterations = out.executed_iterations - out.effective_iterations;
  out.waste_ratio = static_cast<double>(out.padded_iterations) /
                    static_cast<double>(out.executed_iterations);
  return out;
}

std::string FoldedPerfEstimate::summary() const {
  return perf.summary() +
         strformat(" waste=%.2f%% (%lld of %lld iterations padded)",
                   waste_ratio * 100.0,
                   static_cast<long long>(padded_iterations),
                   static_cast<long long>(executed_iterations));
}

double layer_latency_ms(const ConvLayerDesc& layer, const PerfEstimate& perf) {
  assert(perf.throughput_gops > 0.0);
  const double ops = static_cast<double>(layer.total_ops());
  return ops / (perf.throughput_gops * 1e9) * 1e3;
}

std::int64_t modeled_compute_cycles(const LoopNest& nest,
                                    const DesignPoint& design) {
  const TilingSpec& tiling = design.tiling();
  // Boundary blocks clip their middle loops, so the steady-state cycle count
  // is the total wavefront count, not blocks * full-block wavefronts.
  const std::int64_t steady = tiling.total_wavefronts(nest);
  const std::int64_t skew = design.shape().rows + design.shape().cols - 2;
  return steady + skew;
}

std::string PerfEstimate::summary() const {
  return strformat(
      "T=%.1f Gops (PT=%.1f, MT=%.1f%s) eff=%.2f%% @%.1f MHz, %lld blocks x "
      "%lld cycles",
      throughput_gops, pt_gops, mt_gops, memory_bound ? ", memory-bound" : "",
      eff * 100.0, freq_mhz, static_cast<long long>(num_blocks),
      static_cast<long long>(cycles_per_block));
}

}  // namespace sasynth
