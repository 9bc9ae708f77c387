// Small integer/math helpers shared across the synthesis framework.
//
// All quantities in the analytical models (loop trip counts, tile sizes,
// resource counts) are non-negative 64-bit integers; these helpers provide
// the ceiling-division / power-of-two arithmetic that Eqs. 1, 5 and 6 of the
// paper are built from.
#pragma once

#include <bit>
#include <cassert>
#include <cstdint>
#include <limits>
#include <vector>

namespace sasynth {

/// Ceiling division for non-negative integers. ceil_div(0, b) == 0.
/// Precondition: b > 0.
inline std::int64_t ceil_div(std::int64_t a, std::int64_t b) {
  assert(b > 0);
  assert(a >= 0);
  return (a + b - 1) / b;
}

/// Rounds `a` up to the next multiple of `b`. Precondition: b > 0, a >= 0.
std::int64_t round_up(std::int64_t a, std::int64_t b);

/// Smallest power of two >= a (a >= 1). round_up_pow2(1) == 1. Saturates to
/// INT64_MAX when the next power of two does not fit in int64 (a > 2^62).
/// This models the Intel OpenCL flow's buffer allocation, which rounds
/// memory sizes up to powers of two (paper §3.3, Eq. 6).
inline std::int64_t round_up_pow2(std::int64_t a) {
  assert(a >= 1);
  // 2^62 is the largest int64 power of two; anything above it saturates.
  constexpr std::int64_t kMaxPow2 = std::int64_t{1} << 62;
  if (a > kMaxPow2) return std::numeric_limits<std::int64_t>::max();
  return static_cast<std::int64_t>(
      std::bit_ceil(static_cast<std::uint64_t>(a)));
}

/// True if a is a power of two (a >= 1).
bool is_pow2(std::int64_t a);

/// floor(log2(a)) for a >= 1.
int floor_log2(std::int64_t a);

/// ceil(log2(a)) for a >= 1.
int ceil_log2(std::int64_t a);

/// Greatest common divisor (non-negative inputs).
std::int64_t gcd(std::int64_t a, std::int64_t b);

/// Checked multiply: *out = a * b and true, or false when the product does
/// not fit in int64 (*out unspecified). Non-negative inputs.
inline bool checked_mul(std::int64_t a, std::int64_t b, std::int64_t* out) {
  return !__builtin_mul_overflow(a, b, out);
}

/// Saturating multiply for non-negative inputs: a * b, or INT64_MAX on
/// overflow. A footprint/size that saturates always fails any resource
/// budget check, which is exactly the right outcome for an overflowed model.
std::int64_t sat_mul(std::int64_t a, std::int64_t b);

/// Checked product of extents: false when the running product overflows
/// int64. Empty product is 1.
bool checked_product(const std::vector<std::int64_t>& v, std::int64_t* out);

/// Least common multiple; saturates to INT64_MAX if the result does not fit
/// (a saturated LCM fails every divisibility/resource test downstream).
std::int64_t lcm(std::int64_t a, std::int64_t b);

/// Product of a vector of extents, saturating to INT64_MAX on overflow.
/// Empty product is 1.
std::int64_t product(const std::vector<std::int64_t>& v);

/// All divisors of n in increasing order. Precondition: n >= 1.
std::vector<std::int64_t> divisors(std::int64_t n);

/// Powers of two 1, 2, 4, ... <= n (n >= 1).
std::vector<std::int64_t> pow2_candidates(std::int64_t n);

/// Powers of two 1, 2, 4, ..., first value >= n included (covers the bound).
/// E.g. pow2_candidates_covering(13) == {1, 2, 4, 8, 16}.
/// Used by the DSE's middle-loop pruning (paper §4): tile bounds are explored
/// only at powers of two because BRAM allocation rounds up to powers of two.
std::vector<std::int64_t> pow2_candidates_covering(std::int64_t n);

/// Saturating clamp of `v` into [lo, hi].
std::int64_t clamp64(std::int64_t v, std::int64_t lo, std::int64_t hi);

}  // namespace sasynth
