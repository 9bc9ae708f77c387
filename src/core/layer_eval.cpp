#include "core/layer_eval.h"

#include <cmath>

#include "core/resource_model.h"

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
  for (std::size_t a = 0; a < nest.num_accesses(); ++a) {
    dim_begin_.push_back(term_begin_.size());
    for (const AffineExpr& dim : nest.accesses()[a].access.indices) {
      term_begin_.push_back(terms_.size());
      for (std::size_t l = 0; l < nest.num_loops(); ++l) {
        const std::int64_t c = dim.coeff(l);
        if (c != 0) terms_.push_back(Term{l, c < 0 ? -c : c});
      }
    }
    bytes_per_elem_.push_back(bytes_per_element(dtype, nest, a));
  }
  dim_begin_.push_back(term_begin_.size());
  term_begin_.push_back(terms_.size());
}

std::int64_t LayerConstants::num_blocks(const std::int64_t* block) const {
  std::int64_t total = 1;
  for (std::size_t l = 0; l < trips_.size(); ++l) {
    total *= ceil_div(trips_[l], block[l]);
  }
  return total;
}

}  // namespace sasynth
