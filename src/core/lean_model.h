// Flattened, allocation-free evaluator of Eqs. 1 and 5-10 for the search
// inner loops: the phase-1 reuse DFS (core/dse.cpp) scores every leaf and
// every corner bound with it, and the unified stage-2 DFS (core/unified.cpp)
// scores its corner bounds with it. Eq. 5 is the layer evaluator's own
// kernel (LayerConstants::footprint, core/layer_eval.h), so the footprints
// are the same integers in both searches. Eqs. 6-10 are written here a
// second time, in a different floating-point operation order from the
// layer evaluator's (MT as ops * bw / bytes), which is why the bounds built
// on it carry a (1 + 1e-9) margin (docs/MODEL.md, "Dominance pruning");
// tests assert the two agree on every integer.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "core/layer_eval.h"
#include "fpga/datatype.h"
#include "fpga/device.h"
#include "loopnest/loop_nest.h"
#include "util/math_util.h"

namespace sasynth {

/// True when every affine coefficient of every access of `nest` is 0 or 1
/// (every stride-1 conv nest; a strided layer's input access carries the
/// stride as a coefficient). Then prod(block) / footprint is monotone
/// non-decreasing in every block dimension, so MT — and min(PT, MT) —
/// evaluated at a grid corner upper-bounds every block below it: the
/// precondition of the corner-bound rules in both searches (docs/MODEL.md,
/// "Dominance pruning").
bool has_stride1_accesses(const LoopNest& nest);

class LeanModel {
 public:
  LeanModel(const LoopNest& nest, const FpgaDevice& device, DataType dtype,
            double freq_mhz)
      : layer_(nest, dtype),
        device_(device),
        freq_ghz_(freq_mhz * 1e-3),
        total_iters_(nest.total_iterations()) {}

  /// The layer's Eq. 5 kernel and bytes per element, which this model reads.
  const LayerConstants& layer() const { return layer_; }

  struct Eval {
    double eff = 0.0;
    std::int64_t bram_blocks = 0;
    double pt_gops = 0.0;
    double mt_gops = 0.0;
    double throughput_gops = 0.0;
    double dram_traffic_bytes = 0.0;  ///< total off-chip bytes, all blocks
  };

  /// DSP efficiency for inner bounds t (Eq. 1; middle loops clip, so only
  /// the array-shape quantization wastes computation). Constant across the
  /// reuse search for a fixed shape.
  double efficiency(const std::vector<std::int64_t>& inner) const {
    const std::vector<std::int64_t>& trips = layer_.trips();
    double executed = 1.0;
    for (std::size_t l = 0; l < trips.size(); ++l) {
      executed *= static_cast<double>(ceil_div(trips[l], inner[l]) * inner[l]);
    }
    return static_cast<double>(total_iters_) / executed;
  }

  /// Evaluates the full model at block trips b_l = s_l * t_l with the
  /// precomputed efficiency. `lanes` is prod(t), `num_pes` is rows*cols.
  /// A footprint that overflows int64 returns at once with bram_blocks ==
  /// INT64_MAX and every rate 0.
  Eval evaluate(const std::vector<std::int64_t>& block, double eff,
                std::int64_t lanes, std::int64_t num_pes) const {
    return evaluate_impl<true, true>(block, eff, lanes, num_pes);
  }

  /// The rate alone: eff, pt_gops, mt_gops and throughput_gops are
  /// bit-identical to evaluate()'s (one code path); bram_blocks is INT64_MAX
  /// on a footprint overflow and 0 otherwise. The corner bounds of both
  /// searches and phase 1's per-item MT refinement read nothing else.
  Eval rate(const std::vector<std::int64_t>& block, double eff,
            std::int64_t lanes) const {
    return evaluate_impl<true, false>(block, eff, lanes, 0);
  }

  /// BRAM blocks only, bit-identical to evaluate()'s bram_blocks (one code
  /// path). The DFS prefix prune needs nothing else, and skipping the
  /// throughput/traffic arithmetic roughly halves the cost of the interior
  /// of the reuse search.
  std::int64_t bram_only(const std::vector<std::int64_t>& block,
                         std::int64_t num_pes) const {
    return evaluate_impl<false, true>(block, 0.0, 0, num_pes).bram_blocks;
  }

 private:
  template <bool kRate, bool kBram>
  Eval evaluate_impl(const std::vector<std::int64_t>& block, double eff,
                     std::int64_t lanes, std::int64_t num_pes) const {
    Eval out;
    out.eff = eff;
    double macs_per_block = 1.0;
    double num_blocks = 1.0;
    if constexpr (kRate) {
      const std::vector<std::int64_t>& trips = layer_.trips();
      for (std::size_t l = 0; l < trips.size(); ++l) {
        macs_per_block *= static_cast<double>(block[l]);
        if constexpr (kBram) {
          num_blocks *= static_cast<double>(ceil_div(trips[l], block[l]));
        }
      }
    }

    // Eq. 5/6.
    double total_bytes = 0.0;
    double min_port_gops = 1e300;
    const double eff_ops_per_block = out.eff * 2.0 * macs_per_block;
    std::int64_t bram = 0;
    for (std::size_t a = 0; a < layer_.num_accesses(); ++a) {
      std::int64_t footprint = 0;
      if (!layer_.footprint(a, block.data(), &footprint)) {
        // A buffer footprint that overflows int64 cannot fit any device;
        // reject the shape instead of feeding wrapped sizes into the BRAM
        // model below.
        out.bram_blocks = std::numeric_limits<std::int64_t>::max();
        return out;
      }
      const double bytes_per_elem = layer_.bytes_per_elem(a);
      if constexpr (kBram) {
        const double bytes =
            2.0 * static_cast<double>(round_up_pow2(footprint)) *
            bytes_per_elem;
        bram += static_cast<std::int64_t>(std::ceil(
                    bytes / static_cast<double>(device_.bram_bytes()))) +
                device_.bram_const_per_buffer;
      }
      if constexpr (kRate) {
        const double stream_bytes =
            static_cast<double>(footprint) * bytes_per_elem;
        total_bytes += stream_bytes;
        min_port_gops = std::min(
            min_port_gops,
            eff_ops_per_block * device_.bw_port_gbs / stream_bytes);
      }
    }
    if constexpr (kBram) {
      bram += static_cast<std::int64_t>(
          std::ceil(device_.bram_per_pe * static_cast<double>(num_pes)));
      out.bram_blocks = bram;
    }

    // Eqs. 7-10.
    if constexpr (kRate) {
      out.pt_gops = out.eff * static_cast<double>(lanes) * 2.0 * freq_ghz_;
      out.mt_gops =
          std::min(eff_ops_per_block * device_.bw_total_gbs / total_bytes,
                   min_port_gops);
      out.throughput_gops = std::min(out.pt_gops, out.mt_gops);
      if constexpr (kBram) out.dram_traffic_bytes = num_blocks * total_bytes;
    }
    return out;
  }

  LayerConstants layer_;
  const FpgaDevice& device_;
  double freq_ghz_;
  std::int64_t total_iters_;
};

}  // namespace sasynth
