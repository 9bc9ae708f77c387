// Parameterized property sweeps: every (layer, mapping, shape, tiling)
// combination must satisfy the framework's core invariants —
//   1. the systolic simulation equals the reference convolution,
//   2. measured efficiency equals the analytical Eff,
//   3. footprint closed forms equal exact enumeration,
//   4. simulated cycles equal the modeled cycle count.
#include <gtest/gtest.h>

#include <tuple>

#include "core/mapping.h"
#include "core/perf_model.h"
#include "loopnest/conv_nest.h"
#include "loopnest/reuse.h"
#include "nn/reference.h"
#include "sim/systolic_array.h"
#include "util/math_util.h"
#include "util/rng.h"

namespace sasynth {
namespace {

struct SweepCase {
  const char* name;
  ConvLayerDesc layer;
  ArrayShape shape;
  std::vector<std::int64_t> middle;
  std::size_t mapping_index;  ///< index into the feasible-mapping list
};

// Print the case by name: gtest's default dumps the struct's bytes, whose
// pointers change from run to run and so would change the listed test ID.
void PrintTo(const SweepCase& c, std::ostream* os) { *os << c.name; }

class SystolicSweep : public ::testing::TestWithParam<SweepCase> {};

TEST_P(SystolicSweep, AllInvariantsHold) {
  const SweepCase& param = GetParam();
  const LoopNest nest = build_conv_nest(param.layer);
  const ReuseMatrix reuse = analyze_reuse(nest);
  const std::vector<SystolicMapping> mappings =
      enumerate_feasible_mappings(nest, reuse);
  ASSERT_LT(param.mapping_index, mappings.size());
  const DesignPoint design(nest, mappings[param.mapping_index], param.shape,
                           std::vector<std::int64_t>(param.middle));
  ASSERT_TRUE(design.validate(nest).empty()) << design.to_string(nest);

  Rng rng(fnv1a64(std::string(param.name)));
  const ConvData data = make_random_conv_data(param.layer, rng);

  // Invariant 3: footprints.
  const RectDomain block = design.tiling().block_domain();
  for (const ArrayAccess& access : nest.accesses()) {
    EXPECT_EQ(closed_form_footprint(access.access, block),
              exact_footprint(access.access, block))
        << access.access.array;
  }

  // Invariants 1, 2, 4: simulate.
  const SimResult sim = simulate_systolic(nest, design, param.layer, data);
  const Tensor ref = reference_conv(param.layer, data);
  EXPECT_LT(Tensor::max_abs_diff(sim.output, ref), 2e-3F)
      << design.to_string(nest);
  EXPECT_NEAR(sim.measured_efficiency(), dsp_efficiency(nest, design), 1e-12);
  EXPECT_EQ(sim.pipelined_cycles, modeled_compute_cycles(nest, design));
  EXPECT_EQ(sim.active_macs, nest.total_iterations());
}

INSTANTIATE_TEST_SUITE_P(
    Cases, SystolicSweep,
    ::testing::Values(
        SweepCase{"dividing_shapes", make_conv("a", 8, 6, 6, 3),
                  ArrayShape{3, 2, 4}, {2, 2, 3, 6, 3, 3}, 0},
        SweepCase{"padding_rows", make_conv("b", 8, 7, 6, 3),
                  ArrayShape{3, 2, 4}, {1, 2, 1, 2, 1, 3}, 1},
        SweepCase{"padding_everything", make_conv("c", 5, 5, 5, 3),
                  ArrayShape{2, 3, 4}, {2, 1, 2, 2, 2, 2}, 2},
        SweepCase{"vec_on_p", make_conv("d", 6, 4, 4, 3),
                  ArrayShape{2, 2, 2}, {2, 2, 2, 2, 2, 2}, 3},
        SweepCase{"vec_on_q", make_conv("e", 6, 4, 4, 3),
                  ArrayShape{2, 2, 2}, {1, 3, 2, 2, 1, 2}, 11},
        SweepCase{"row_is_c", make_conv("f", 6, 4, 5, 3),
                  ArrayShape{4, 2, 2}, {1, 2, 1, 3, 2, 2}, 6},
        SweepCase{"row_is_r", make_conv("g", 6, 4, 5, 3),
                  ArrayShape{4, 2, 2}, {2, 2, 2, 1, 2, 2}, 8},
        SweepCase{"strided", make_conv("h", 4, 4, 4, 3, 2),
                  ArrayShape{2, 2, 2}, {2, 1, 2, 2, 2, 2}, 0},
        SweepCase{"kernel1", make_conv("i", 8, 8, 5, 1),
                  ArrayShape{4, 5, 2}, {1, 2, 1, 5, 1, 1}, 0},
        SweepCase{"kernel5", make_conv("j", 4, 4, 4, 5),
                  ArrayShape{2, 2, 2}, {1, 2, 2, 2, 3, 3}, 0},
        SweepCase{"wide_vec", make_conv("k", 16, 4, 4, 3),
                  ArrayShape{2, 2, 8}, {2, 2, 2, 2, 2, 2}, 0},
        SweepCase{"single_pe_row", make_conv("l", 6, 4, 4, 3),
                  ArrayShape{1, 4, 2}, {2, 3, 1, 4, 3, 3}, 0}),
    [](const ::testing::TestParamInfo<SweepCase>& info) {
      return info.param.name;
    });

// Randomized sweep: derive designs pseudo-randomly from a seed; shapes and
// tilings are drawn from valid ranges, all invariants re-checked.
class RandomizedSweep : public ::testing::TestWithParam<int> {};

TEST_P(RandomizedSweep, InvariantsHoldOnRandomDesign) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 7919 + 13);
  const ConvLayerDesc layer = make_conv(
      "rand", rng.next_range(2, 10), rng.next_range(2, 10),
      rng.next_range(3, 7), rng.next_range(1, 3) * 2 - 1);
  const LoopNest nest = build_conv_nest(layer);
  const ReuseMatrix reuse = analyze_reuse(nest);
  const std::vector<SystolicMapping> mappings =
      enumerate_feasible_mappings(nest, reuse);
  const SystolicMapping mapping =
      mappings[rng.next_below(mappings.size())];

  auto pick_extent = [&](std::size_t loop) {
    return rng.next_range(1, std::min<std::int64_t>(4, nest.loop(loop).trip));
  };
  const ArrayShape shape{pick_extent(mapping.row_loop),
                         pick_extent(mapping.col_loop),
                         pick_extent(mapping.vec_loop)};
  std::vector<std::int64_t> middle(6, 1);
  for (std::size_t l = 0; l < 6; ++l) {
    // Keep the block within the padded trip count (oversized middle bounds
    // on tiny loops are a configuration error the validator rejects).
    const std::int64_t inner =
        l == mapping.row_loop ? shape.rows
        : l == mapping.col_loop ? shape.cols
        : l == mapping.vec_loop ? shape.vec
                                : 1;
    const std::int64_t cap = ceil_div(nest.loop(l).trip, inner);
    middle[l] = rng.next_range(1, std::min<std::int64_t>(3, cap));
  }
  const DesignPoint design(nest, mapping, shape, std::move(middle));
  ASSERT_TRUE(design.validate(nest).empty());

  const ConvData data = make_random_conv_data(layer, rng);
  const SimResult sim = simulate_systolic(nest, design, layer, data);
  EXPECT_LT(Tensor::max_abs_diff(sim.output, reference_conv(layer, data)),
            2e-3F)
      << layer.summary() << " " << design.to_string(nest);
  EXPECT_NEAR(sim.measured_efficiency(), dsp_efficiency(nest, design), 1e-12);
  EXPECT_EQ(sim.active_macs, nest.total_iterations());
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomizedSweep, ::testing::Range(0, 24));

}  // namespace
}  // namespace sasynth
