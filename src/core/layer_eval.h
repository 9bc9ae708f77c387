// The layer evaluator: Eqs. 5-10 for one layer under one design, with no
// heap allocation.
//
// estimate_performance, bram_usage_blocks and model_resources are views over
// it, and the unified stage-2 leaf (core/unified.cpp) calls it directly on
// constants built once per search. Every caller therefore gets the same bits:
// the operations run in one order, estimate_performance's
//
//   MT_r  = eff*2*prod(b) / (DA_r*bpe_r / BW_port)      (Eq. 10, per port)
//   MT_t  = eff*2*prod(b) / (sum_r DA_r*bpe_r / BW_total)
//   MT    = min(MT_t, MT_0, MT_1, ...)                  (Eq. 9)
//   T     = min(PT, MT)                                 (Eq. 7)
//   B     = sum_r (ceil(2*pow2(DA_r)*bpe_r / blk) + c_b) + ceil(c_p*PEs)
//
// The one other copy is the phase-1 LeanModel (core/lean_model.h), which
// divides in a different order (docs/MODEL.md, "Dominance pruning").
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "fpga/datatype.h"
#include "fpga/device.h"
#include "loopnest/loop_nest.h"
#include "loopnest/tiling.h"

namespace sasynth {

/// One array access of a layer under one design: its Eq. 5 footprint and
/// its element width.
struct AccessTerms {
  std::int64_t footprint_elems = 0;  ///< DA_r
  double bytes_per_elem = 0.0;
};

/// The evaluator's result for one layer under one design.
struct LayerEval {
  double pt_gops = 0.0;          ///< Eq. 8
  double mt_total_gops = 0.0;    ///< Eq. 10, aggregate-bandwidth bound
  double mt_gops = 0.0;          ///< Eq. 9
  double throughput_gops = 0.0;  ///< Eq. 7
  std::int64_t bram_blocks = 0;  ///< Eq. 6
  double block_bytes = 0.0;      ///< off-chip bytes of one block: sum_r DA_r*bpe_r
  std::int64_t num_blocks = 0;   ///< prod_l ceil(N_l / b_l)
};

/// Eq. 8: every lane completes one multiply + one accumulate per cycle.
inline double pt_gops(double eff, std::int64_t lanes, double freq_mhz) {
  const double freq_ghz = freq_mhz * 1e-3;
  return eff * static_cast<double>(lanes) * 2.0 * freq_ghz;
}

/// Eq. 6 for one double-buffered reuse buffer of DA elements.
struct BufferBram {
  std::int64_t depth_pow2 = 0;   ///< pow2_roundup(DA)
  double bytes = 0.0;            ///< 2 * depth * bytes per element
  std::int64_t bram_blocks = 0;  ///< ceil(bytes / block) + c_b
};
BufferBram buffer_bram(const AccessTerms& access, const FpgaDevice& device);

/// Eq. 6's per-PE term, ceil(c_p * PEs).
std::int64_t pe_bram_blocks(std::int64_t num_pes, const FpgaDevice& device);

/// Eqs. 7, 9 and 10 of one layer. `terms(a)` returns access a's
/// AccessTerms; `macs_per_block` is prod_l b_l. Per-port rates go to
/// `port_gops[0..num_accesses)`, storage the caller owns. Fills every rate
/// and block_bytes; bram_blocks and num_blocks are left 0.
template <class Terms>
LayerEval evaluate_layer_rates(std::size_t num_accesses, const Terms& terms,
                               double eff, double pt,
                               std::int64_t macs_per_block,
                               const FpgaDevice& device, double* port_gops) {
  LayerEval out;
  out.pt_gops = pt;
  // Eq. 10: effective ops per block over that block's transfer time.
  const double eff_ops_per_block =
      eff * 2.0 * static_cast<double>(macs_per_block);
  double total_bytes = 0.0;
  for (std::size_t a = 0; a < num_accesses; ++a) {
    const AccessTerms access = terms(a);
    const double bytes =
        static_cast<double>(access.footprint_elems) * access.bytes_per_elem;
    total_bytes += bytes;
    // Port time in ns = bytes / (GB/s); rate in Gops = ops / ns.
    const double port_time_ns = bytes / device.bw_port_gbs;
    port_gops[a] = eff_ops_per_block / port_time_ns;
  }
  out.block_bytes = total_bytes;
  const double total_time_ns = total_bytes / device.bw_total_gbs;
  out.mt_total_gops = eff_ops_per_block / total_time_ns;
  // Eq. 9.
  out.mt_gops = out.mt_total_gops;
  for (std::size_t a = 0; a < num_accesses; ++a) {
    out.mt_gops = std::min(out.mt_gops, port_gops[a]);
  }
  // Eq. 7.
  out.throughput_gops = std::min(out.pt_gops, out.mt_gops);
  return out;
}

/// Eq. 6 of one layer: every buffer, then the per-PE term.
template <class Terms>
std::int64_t evaluate_layer_bram(std::size_t num_accesses, const Terms& terms,
                                 std::int64_t num_pes,
                                 const FpgaDevice& device) {
  std::int64_t total_blocks = 0;
  for (std::size_t a = 0; a < num_accesses; ++a) {
    total_blocks += buffer_bram(terms(a), device).bram_blocks;
  }
  return total_blocks + pe_bram_blocks(num_pes, device);
}

/// AccessTerms of a DesignPoint on a nest, read from the tiling: the view
/// estimate_performance, bram_usage_blocks and model_resources evaluate.
struct TilingTerms {
  const LoopNest& nest;
  const TilingSpec& tiling;
  DataType dtype;

  AccessTerms operator()(std::size_t a) const;
};

/// Per-(nest, dtype) constants of the evaluator, built once per search: the
/// trips, every access's coefficient rows and constant offsets (flattened),
/// and every access's bytes per element. Evaluating allocates nothing. The
/// per-(layer, shape) terms are efficiency_for_inner (perf_model.h) and
/// pt_gops above.
class LayerConstants {
 public:
  LayerConstants(const LoopNest& nest, DataType dtype);

  std::size_t num_accesses() const { return bytes_per_elem_.size(); }

  /// Eq. 5 of every access at block trips `block`, into fp[a]: the same
  /// integers as TilingSpec::footprint_elems, signed coefficients and
  /// constant offsets included.
  void footprints(const std::int64_t* block, std::int64_t* fp) const;

  /// prod_l ceil(N_l / b_l), as TilingSpec::num_blocks.
  std::int64_t num_blocks(const std::int64_t* block) const;

  /// The AccessTerms of footprints `fp` (one per access).
  struct Terms {
    const std::int64_t* fp;
    const double* bytes_per_elem;
    AccessTerms operator()(std::size_t a) const {
      return AccessTerms{fp[a], bytes_per_elem[a]};
    }
  };
  Terms terms(const std::int64_t* fp) const {
    return Terms{fp, bytes_per_elem_.data()};
  }

 private:
  std::vector<std::int64_t> trips_;
  /// Access a's dimensions are dims_[access_begin_[a], access_begin_[a + 1]).
  std::vector<std::size_t> access_begin_;
  /// Per dimension: the constant offset, then one coefficient per loop.
  std::vector<std::int64_t> dims_;
  std::vector<double> bytes_per_elem_;
};

}  // namespace sasynth
