#include "core/layer_eval.h"

#include <cmath>

#include "core/resource_model.h"
#include "util/math_util.h"

namespace sasynth {

BufferBram buffer_bram(const AccessTerms& access, const FpgaDevice& device) {
  BufferBram buf;
  buf.depth_pow2 = round_up_pow2(access.footprint_elems);
  buf.bytes =
      2.0 * static_cast<double>(buf.depth_pow2) * access.bytes_per_elem;
  buf.bram_blocks =
      static_cast<std::int64_t>(
          std::ceil(buf.bytes / static_cast<double>(device.bram_bytes()))) +
      device.bram_const_per_buffer;
  return buf;
}

std::int64_t pe_bram_blocks(std::int64_t num_pes, const FpgaDevice& device) {
  return static_cast<std::int64_t>(
      std::ceil(device.bram_per_pe * static_cast<double>(num_pes)));
}

AccessTerms TilingTerms::operator()(std::size_t a) const {
  return AccessTerms{tiling.footprint_elems(nest.accesses()[a].access),
                     bytes_per_element(dtype, nest, a)};
}

LayerConstants::LayerConstants(const LoopNest& nest, DataType dtype)
    : trips_(nest.trip_counts()) {
  const std::size_t n = nest.num_loops();
  for (std::size_t a = 0; a < nest.num_accesses(); ++a) {
    access_begin_.push_back(dims_.size());
    for (const AffineExpr& dim : nest.accesses()[a].access.indices) {
      dims_.push_back(dim.constant());
      for (std::size_t l = 0; l < n; ++l) dims_.push_back(dim.coeff(l));
    }
    bytes_per_elem_.push_back(bytes_per_element(dtype, nest, a));
  }
  access_begin_.push_back(dims_.size());
}

void LayerConstants::footprints(const std::int64_t* block,
                                std::int64_t* fp) const {
  // TilingSpec::footprint_elems over flattened rows: per dimension, the
  // range [lo, hi] of constant + sum_l coeff_l * [0, b_l - 1].
  const std::size_t n = trips_.size();
  for (std::size_t a = 0; a < num_accesses(); ++a) {
    std::int64_t total = 1;
    for (std::size_t d = access_begin_[a]; d < access_begin_[a + 1];
         d += n + 1) {
      const std::int64_t* coeffs = &dims_[d + 1];
      std::int64_t lo = dims_[d];
      std::int64_t hi = dims_[d];
      for (std::size_t l = 0; l < n; ++l) {
        const std::int64_t span = coeffs[l] * (block[l] - 1);
        if (span >= 0) hi += span;
        else lo += span;
      }
      total *= hi - lo + 1;
    }
    fp[a] = total;
  }
}

std::int64_t LayerConstants::num_blocks(const std::int64_t* block) const {
  std::int64_t total = 1;
  for (std::size_t l = 0; l < trips_.size(); ++l) {
    total *= ceil_div(trips_[l], block[l]);
  }
  return total;
}

}  // namespace sasynth
