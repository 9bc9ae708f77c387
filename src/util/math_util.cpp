#include "util/math_util.h"

#include <cassert>
#include <limits>

namespace sasynth {

std::int64_t round_up(std::int64_t a, std::int64_t b) {
  return ceil_div(a, b) * b;
}

bool is_pow2(std::int64_t a) {
  return a >= 1 && (a & (a - 1)) == 0;
}

int floor_log2(std::int64_t a) {
  assert(a >= 1);
  int l = 0;
  while (a > 1) {
    a >>= 1;
    ++l;
  }
  return l;
}

int ceil_log2(std::int64_t a) {
  assert(a >= 1);
  return floor_log2(a) + (is_pow2(a) ? 0 : 1);
}

std::int64_t gcd(std::int64_t a, std::int64_t b) {
  while (b != 0) {
    const std::int64_t t = a % b;
    a = b;
    b = t;
  }
  return a;
}

std::int64_t sat_mul(std::int64_t a, std::int64_t b) {
  std::int64_t r;
  if (__builtin_mul_overflow(a, b, &r)) {
    return std::numeric_limits<std::int64_t>::max();
  }
  return r;
}

bool checked_product(const std::vector<std::int64_t>& v, std::int64_t* out) {
  std::int64_t p = 1;
  for (const std::int64_t x : v) {
    if (__builtin_mul_overflow(p, x, &p)) return false;
  }
  *out = p;
  return true;
}

std::int64_t lcm(std::int64_t a, std::int64_t b) {
  if (a == 0 || b == 0) return 0;
  return sat_mul(a / gcd(a, b), b);
}

std::int64_t product(const std::vector<std::int64_t>& v) {
  std::int64_t p;
  if (!checked_product(v, &p)) return std::numeric_limits<std::int64_t>::max();
  return p;
}

std::vector<std::int64_t> divisors(std::int64_t n) {
  assert(n >= 1);
  std::vector<std::int64_t> small;
  std::vector<std::int64_t> large;
  for (std::int64_t d = 1; d * d <= n; ++d) {
    if (n % d == 0) {
      small.push_back(d);
      if (d != n / d) large.push_back(n / d);
    }
  }
  for (auto it = large.rbegin(); it != large.rend(); ++it) small.push_back(*it);
  return small;
}

std::vector<std::int64_t> pow2_candidates(std::int64_t n) {
  assert(n >= 1);
  std::vector<std::int64_t> out;
  for (std::int64_t p = 1; p <= n; p <<= 1) out.push_back(p);
  return out;
}

std::vector<std::int64_t> pow2_candidates_covering(std::int64_t n) {
  assert(n >= 1);
  std::vector<std::int64_t> out;
  std::int64_t p = 1;
  for (;; p <<= 1) {
    out.push_back(p);
    if (p >= n) break;
  }
  return out;
}

std::int64_t clamp64(std::int64_t v, std::int64_t lo, std::int64_t hi) {
  if (v < lo) return lo;
  if (v > hi) return hi;
  return v;
}

}  // namespace sasynth
