// Seeded random conv designs for the property tests: a small conv layer, one
// of its feasible mappings, a shape and middle bounds drawn from valid
// ranges (every block stays within the padded trip count).
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "core/design_point.h"
#include "core/mapping.h"
#include "loopnest/conv_nest.h"
#include "loopnest/reuse.h"
#include "nn/layer.h"
#include "util/math_util.h"
#include "util/rng.h"

namespace sasynth {

struct RandomDesign {
  ConvLayerDesc layer;
  LoopNest nest;
  DesignPoint design;
};

/// Draws one design from `rng`; the caller may keep drawing from it.
inline RandomDesign random_design(Rng& rng) {
  RandomDesign out;
  out.layer = make_conv("rand", rng.next_range(2, 10), rng.next_range(2, 10),
                        rng.next_range(3, 7), rng.next_range(1, 3) * 2 - 1);
  out.nest = build_conv_nest(out.layer);
  const ReuseMatrix reuse = analyze_reuse(out.nest);
  const std::vector<SystolicMapping> mappings =
      enumerate_feasible_mappings(out.nest, reuse);
  const SystolicMapping mapping = mappings[rng.next_below(mappings.size())];

  auto pick_extent = [&](std::size_t loop) {
    return rng.next_range(1,
                          std::min<std::int64_t>(4, out.nest.loop(loop).trip));
  };
  const ArrayShape shape{pick_extent(mapping.row_loop),
                         pick_extent(mapping.col_loop),
                         pick_extent(mapping.vec_loop)};
  std::vector<std::int64_t> middle(out.nest.num_loops(), 1);
  for (std::size_t l = 0; l < middle.size(); ++l) {
    // Keep the block within the padded trip count (oversized middle bounds
    // on tiny loops are a configuration error the validator rejects).
    const std::int64_t inner =
        l == mapping.row_loop ? shape.rows
        : l == mapping.col_loop ? shape.cols
        : l == mapping.vec_loop ? shape.vec
                                : 1;
    const std::int64_t cap = ceil_div(out.nest.loop(l).trip, inner);
    middle[l] = rng.next_range(1, std::min<std::int64_t>(3, cap));
  }
  out.design = DesignPoint(out.nest, mapping, shape, std::move(middle));
  return out;
}

}  // namespace sasynth
