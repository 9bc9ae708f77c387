#include "loopnest/tiling.h"

#include <cassert>

#include "util/math_util.h"
#include "util/strings.h"

namespace sasynth {

TilingSpec::TilingSpec(std::size_t num_loops)
    : middle_(num_loops, 1), inner_(num_loops, 1) {}

TilingSpec::TilingSpec(std::vector<std::int64_t> middle,
                       std::vector<std::int64_t> inner)
    : middle_(std::move(middle)), inner_(std::move(inner)) {
  assert(middle_.size() == inner_.size());
}

std::int64_t TilingSpec::middle(std::size_t l) const {
  assert(l < middle_.size());
  return middle_[l];
}

std::int64_t TilingSpec::inner(std::size_t l) const {
  assert(l < inner_.size());
  return inner_[l];
}

TilingSpec& TilingSpec::set_middle(std::size_t l, std::int64_t s) {
  assert(l < middle_.size());
  middle_[l] = s;
  return *this;
}

TilingSpec& TilingSpec::set_inner(std::size_t l, std::int64_t t) {
  assert(l < inner_.size());
  inner_[l] = t;
  return *this;
}

std::int64_t TilingSpec::block_trip(std::size_t l) const {
  return middle(l) * inner(l);
}

std::vector<std::int64_t> TilingSpec::block_trips() const {
  std::vector<std::int64_t> trips(middle_.size());
  for (std::size_t l = 0; l < middle_.size(); ++l) trips[l] = block_trip(l);
  return trips;
}

std::int64_t TilingSpec::outer_trip(const LoopNest& nest, std::size_t l) const {
  return ceil_div(nest.loop(l).trip, block_trip(l));
}

std::int64_t TilingSpec::num_blocks(const LoopNest& nest) const {
  std::int64_t total = 1;
  for (std::size_t l = 0; l < num_loops(); ++l) total *= outer_trip(nest, l);
  return total;
}

std::int64_t TilingSpec::granules(const LoopNest& nest, std::size_t l) const {
  return ceil_div(nest.loop(l).trip, inner(l));
}

std::int64_t TilingSpec::total_wavefronts(const LoopNest& nest) const {
  std::int64_t total = 1;
  for (std::size_t l = 0; l < num_loops(); ++l) total *= granules(nest, l);
  return total;
}

std::int64_t TilingSpec::executed_iterations(const LoopNest& nest) const {
  std::int64_t total = 1;
  for (std::size_t l = 0; l < num_loops(); ++l) {
    total *= granules(nest, l) * inner(l);
  }
  return total;
}

double TilingSpec::efficiency(const LoopNest& nest) const {
  return static_cast<double>(nest.total_iterations()) /
         static_cast<double>(executed_iterations(nest));
}

std::int64_t TilingSpec::macs_per_block() const {
  std::int64_t total = 1;
  for (std::size_t l = 0; l < num_loops(); ++l) total *= block_trip(l);
  return total;
}

std::int64_t TilingSpec::cycles_per_block() const {
  std::int64_t total = 1;
  for (const std::int64_t s : middle_) total *= s;
  return total;
}

RectDomain TilingSpec::block_domain() const { return RectDomain(block_trips()); }

std::int64_t TilingSpec::footprint_elems(const AccessFunction& access) const {
  // closed_form_footprint(access, block_domain()) without materializing the
  // block trips and the domain: the same int64 range product over the
  // extents b_l = s_l * t_l (the model calls this once per access per
  // evaluated design, on the search hot paths).
  std::int64_t total = 1;
  for (const AffineExpr& expr : access.indices) {
    const std::vector<std::int64_t>& coeffs = expr.coeffs();
    assert(coeffs.size() == num_loops());
    std::int64_t lo = expr.constant();
    std::int64_t hi = expr.constant();
    for (std::size_t l = 0; l < coeffs.size(); ++l) {
      const std::int64_t span = coeffs[l] * (middle_[l] * inner_[l] - 1);
      if (span >= 0) hi += span;
      else lo += span;
    }
    total *= hi - lo + 1;
  }
  return total;
}

std::string TilingSpec::validate(const LoopNest& nest) const {
  if (num_loops() != nest.num_loops()) {
    return "tiling spec loop count does not match nest";
  }
  for (std::size_t l = 0; l < num_loops(); ++l) {
    if (middle_[l] < 1) return "middle bound must be >= 1";
    if (inner_[l] < 1) return "inner bound must be >= 1";
    if (block_trip(l) > round_up_pow2(nest.loop(l).trip) * 2) {
      // A block larger than ~2x the trip count is pure waste; flag it as a
      // configuration error rather than letting Eff silently crater.
      return "block trip of loop '" + nest.loop(l).name +
             "' exceeds twice the padded trip count";
    }
  }
  return "";
}

std::string TilingSpec::validate_structure(const LoopNest& nest) const {
  if (num_loops() != nest.num_loops()) {
    return "tiling spec loop count does not match nest";
  }
  for (std::size_t l = 0; l < num_loops(); ++l) {
    if (middle_[l] < 1) return "middle bound must be >= 1";
    if (inner_[l] < 1) return "inner bound must be >= 1";
  }
  return "";
}

std::string TilingSpec::to_string() const {
  std::vector<std::string> s_str;
  std::vector<std::string> t_str;
  for (std::size_t l = 0; l < num_loops(); ++l) {
    s_str.push_back(std::to_string(middle_[l]));
    t_str.push_back(std::to_string(inner_[l]));
  }
  return "s=(" + join(s_str, ",") + ") t=(" + join(t_str, ",") + ")";
}

bool TilingSpec::operator==(const TilingSpec& other) const {
  return middle_ == other.middle_ && inner_ == other.inner_;
}

}  // namespace sasynth
