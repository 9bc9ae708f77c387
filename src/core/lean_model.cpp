#include "core/lean_model.h"

namespace sasynth {

bool has_stride1_accesses(const LoopNest& nest) {
  for (const ArrayAccess& access : nest.accesses()) {
    for (const AffineExpr& dim : access.access.indices) {
      for (std::size_t l = 0; l < nest.num_loops(); ++l) {
        const std::int64_t c = dim.coeff(l);
        if (c < 0 || c > 1) return false;
      }
    }
  }
  return true;
}

LeanModel::LeanModel(const LoopNest& nest, const FpgaDevice& device,
                     DataType dtype, double freq_mhz)
    : device_(device), freq_ghz_(freq_mhz * 1e-3) {
  num_loops_ = nest.num_loops();
  trips_ = nest.trip_counts();
  total_iters_ = nest.total_iterations();
  for (std::size_t a = 0; a < nest.num_accesses(); ++a) {
    AccessInfo info;
    const AccessFunction& f = nest.accesses()[a].access;
    for (const AffineExpr& dim : f.indices) {
      std::vector<std::int64_t> coeffs(num_loops_);
      for (std::size_t l = 0; l < num_loops_; ++l) coeffs[l] = dim.coeff(l);
      info.dims.push_back(std::move(coeffs));
    }
    info.bytes_per_elem = bytes_per_element(dtype, nest, a);
    accesses_.push_back(std::move(info));
  }
}

}  // namespace sasynth
