// Affine expressions over loop iterators, and array access functions.
//
// This is the "polyhedral-lite" layer the analytical models are built on.
// CNN loop nests only need affine index expressions with non-negative
// coefficients (paper §3.3 observes exactly two patterns: a single iterator,
// and the sum of two iterators, e.g. r+p), but the representation here is a
// general linear form c0 + sum_l coeff_l * i_l so the reuse and footprint
// analyses work for any affine program the front end parses.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace sasynth {

/// Linear expression over the iterators of an enclosing loop nest.
/// Iterator `l` refers to position `l` in the nest's loop list.
class AffineExpr {
 public:
  AffineExpr() = default;

  /// Zero expression over `num_loops` iterators.
  explicit AffineExpr(std::size_t num_loops);

  /// Builds coeff * i_l (+ constant).
  static AffineExpr term(std::size_t num_loops, std::size_t loop,
                         std::int64_t coeff = 1, std::int64_t constant = 0);

  std::size_t num_loops() const { return coeffs_.size(); }
  std::int64_t coeff(std::size_t loop) const;
  const std::vector<std::int64_t>& coeffs() const { return coeffs_; }
  std::int64_t constant() const { return constant_; }

  AffineExpr& set_coeff(std::size_t loop, std::int64_t value);
  AffineExpr& set_constant(std::int64_t value);
  AffineExpr& add_term(std::size_t loop, std::int64_t coeff);

  /// Evaluates at a concrete iteration point (size must equal num_loops()).
  std::int64_t eval(const std::vector<std::int64_t>& iters) const;

  /// True if the expression does not involve iterator `loop` (Eq. 3's
  /// invariance condition specialized to affine accesses).
  bool invariant_in(std::size_t loop) const;

  /// True if no iterator appears (pure constant).
  bool is_constant() const;

  AffineExpr operator+(const AffineExpr& other) const;

  /// Renders like "r + p" or "2*c + q + 1".
  std::string to_string(const std::vector<std::string>& iter_names) const;

  bool operator==(const AffineExpr& other) const;

 private:
  std::vector<std::int64_t> coeffs_;
  std::int64_t constant_ = 0;
};

/// A reference to a (multi-dimensional) array: one affine expression per
/// array dimension.
struct AccessFunction {
  std::string array;               ///< e.g. "IN"
  std::vector<AffineExpr> indices;  ///< one per array dimension

  std::size_t rank() const { return indices.size(); }

  /// Evaluates all dimensions at an iteration point.
  std::vector<std::int64_t> eval(const std::vector<std::int64_t>& iters) const;

  /// Invariance of the whole access in iterator `loop`: every dimension's
  /// expression must be invariant. This is exactly the condition of Eq. 3:
  /// F_r(..., i_l, ...) == F_r(..., i_l + 1, ...) for all points.
  bool invariant_in(std::size_t loop) const;

  /// "IN[i][r + p][c + q]" style rendering.
  std::string to_string(const std::vector<std::string>& iter_names) const;
};

}  // namespace sasynth
