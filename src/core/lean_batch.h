// Struct-of-arrays batch view of phase-1 work items.
//
// The exhaustive sweep evaluated Eq. 1/8 one (mapping, shape) item at a
// time through pointer-chasing scalar code. The branch-and-bound pass needs
// the compute-bound PT of *every* item up front, so the items are laid out
// as contiguous arrays (lanes, plus the Eq. 1 executed-iteration
// denominator precomputed in exact int64 arithmetic) and the
// remaining double arithmetic runs as one flat loop the compiler can
// auto-vectorize. The kernel lives in its own translation unit
// (lean_batch.cpp) so scripts/check_vectorization.sh can assert the loop
// actually vectorizes at the CI optimization level.
//
// Determinism: the kernel is pure double divide/multiply, element-wise —
// IEEE-754 semantics are identical lane-by-lane to the scalar expression in
// estimate_performance (no reassociation, no FMA contraction: the
// expression contains no addition), so the vectorized bounds are
// bit-identical to the scalar model. tests/core/dse_prune_equivalence_test
// pins this.
#pragma once

#include <cstddef>
#include <vector>

namespace sasynth {

/// One phase-1 work item per index. lanes and executed feed the kernel as
/// doubles so the hot loop needs no int64->double conversion (SSE2 has no
/// packed conversion for that).
struct ShapeBatch {
  std::vector<double> lanes;     ///< rows * cols * vec
  std::vector<double> executed;  ///< Eq. 1 denominator (exact int64 -> double)
  std::vector<double> pt_gops;   ///< output: Eq. 8 compute-bound rate

  std::size_t size() const { return executed.size(); }

  void resize(std::size_t n) {
    lanes.resize(n);
    executed.resize(n);
    pt_gops.resize(n);
  }
};

/// pt[i] = ((total_iters / executed[i]) * lanes[i]) * 2.0 * freq_ghz — the
/// exact operation sequence of estimate_performance's Eq. 1 + Eq. 8.
/// Preconditions: executed[i] > 0; the arrays do not alias.
void batch_pt_bounds(const double* executed, const double* lanes,
                     double total_iters, double freq_ghz, double* pt_gops,
                     std::size_t n);

/// Convenience over a filled ShapeBatch (writes batch.pt_gops).
void batch_pt_bounds(ShapeBatch& batch, double total_iters, double freq_ghz);

}  // namespace sasynth
