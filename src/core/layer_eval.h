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
// Eq. 5 is computed once for both searches, by LayerConstants::footprint
// below. Eqs. 6-10 have one other copy, the phase-1 LeanModel
// (core/lean_model.h), which divides in a different order (docs/MODEL.md,
// "Dominance pruning").
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "fpga/datatype.h"
#include "fpga/device.h"
#include "loopnest/loop_nest.h"
#include "loopnest/tiling.h"
#include "util/math_util.h"

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
/// trips, every access's Eq. 5 terms and every access's bytes per element.
/// Both searches compute Eq. 5 here: the unified stage-2 leaf and BRAM probe
/// directly, phase 1 and the stage-2 corner bound through LeanModel
/// (core/lean_model.h). Evaluating allocates nothing. The per-(layer, shape)
/// terms are efficiency_for_inner (perf_model.h) and pt_gops above.
class LayerConstants {
 public:
  LayerConstants(const LoopNest& nest, DataType dtype);

  std::size_t num_accesses() const { return bytes_per_elem_.size(); }
  const std::vector<std::int64_t>& trips() const { return trips_; }
  double bytes_per_elem(std::size_t a) const { return bytes_per_elem_[a]; }

  /// Eq. 5 of access a at block trips `block`:
  ///   DA = prod_dims (1 + sum_l |c_l| * (b_l - 1)),
  /// summed over each dimension's nonzero coefficients only. That is
  /// TilingSpec::footprint_elems's hi - lo + 1 (constant offsets cancel), so
  /// the integers are the same, signed coefficients included. The product
  /// runs over the dimensions in order with a checked multiply: false, with
  /// *out untouched, when it overflows int64.
  bool footprint(std::size_t a, const std::int64_t* block,
                 std::int64_t* out) const {
    std::int64_t total = 1;
    for (std::size_t d = dim_begin_[a]; d < dim_begin_[a + 1]; ++d) {
      std::int64_t range = 1;
      for (std::size_t t = term_begin_[d]; t < term_begin_[d + 1]; ++t) {
        range += terms_[t].abs_coeff * (block[terms_[t].loop] - 1);
      }
      if (!checked_mul(total, range, &total)) return false;
    }
    *out = total;
    return true;
  }

  /// footprint() of every access into fp[a]; false on the first overflow.
  bool footprints(const std::int64_t* block, std::int64_t* fp) const {
    for (std::size_t a = 0; a < num_accesses(); ++a) {
      if (!footprint(a, block, &fp[a])) return false;
    }
    return true;
  }

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
  /// One nonzero coefficient of one access dimension.
  struct Term {
    std::size_t loop;
    std::int64_t abs_coeff;
  };

  std::vector<std::int64_t> trips_;
  /// Access a's dimensions are [dim_begin_[a], dim_begin_[a + 1]), and
  /// dimension d's terms are terms_[term_begin_[d], term_begin_[d + 1]).
  std::vector<std::size_t> dim_begin_;
  std::vector<std::size_t> term_begin_;
  std::vector<Term> terms_;
  std::vector<double> bytes_per_elem_;
};

}  // namespace sasynth
