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

}  // namespace sasynth
