// Edge cases of the deterministic fold/pad planner: non-dividing trips,
// 1x1 convs, FC-shaped layers, layers strictly smaller than the array in
// every dimension, exact fits, and the bespoke-identity guarantee; plus the
// worst-case-layer sizing of a fixed design (evaluate_fixed_design).
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "core/dse.h"
#include "core/mapping.h"
#include "core/perf_model.h"
#include "core/resource_model.h"
#include "deploy/fold.h"
#include "fpga/freq_model.h"
#include "loopnest/conv_nest.h"
#include "loopnest/reuse.h"
#include "nn/layer.h"
#include "nn/network.h"

namespace sasynth {
namespace {

using deploy::FoldPlan;
using deploy::LoopFold;
using deploy::plan_fold;

DesignPoint make_design(const LoopNest& nest, ArrayShape shape,
                        std::vector<std::int64_t> middle) {
  return DesignPoint(
      nest, SystolicMapping{ConvLoops::kO, ConvLoops::kC, ConvLoops::kI},
      shape, std::move(middle));
}

/// Invariants every feasible plan must satisfy, regardless of shape.
void check_plan_invariants(const LoopNest& nest, const FoldPlan& plan) {
  ASSERT_TRUE(plan.feasible) << plan.error;
  ASSERT_EQ(plan.loops.size(), nest.num_loops());
  std::int64_t executed = 1;
  for (std::size_t l = 0; l < plan.loops.size(); ++l) {
    const LoopFold& f = plan.loops[l];
    EXPECT_EQ(f.trip, nest.loop(l).trip);
    EXPECT_GE(f.inner, 1);
    EXPECT_GE(f.middle, 1);
    // DIVCEIL: granules cover the trip with less than one quantum of slack.
    EXPECT_EQ(f.granules, (f.trip + f.inner - 1) / f.inner);
    EXPECT_EQ(f.pad, f.granules * f.inner - f.trip);
    EXPECT_GE(f.pad, 0);
    EXPECT_LT(f.pad, f.inner);
    // Folds cover the granules: folds blocks of (middle) granules each.
    EXPECT_GE(f.folds * f.middle, f.granules);
    executed *= f.granules * f.inner;
  }
  EXPECT_EQ(plan.executed_iterations, executed);
  EXPECT_EQ(plan.effective_iterations, nest.total_iterations());
  EXPECT_GE(plan.executed_iterations, plan.effective_iterations);
  EXPECT_DOUBLE_EQ(
      plan.waste_ratio,
      static_cast<double>(plan.executed_iterations -
                          plan.effective_iterations) /
          static_cast<double>(plan.executed_iterations));
}

TEST(FoldPlan, ExactFitHasZeroWaste) {
  // Every mapped trip divides its hardware extent and the middle bounds
  // divide the granule counts: the plan must assert exactly zero waste.
  const ConvLayerDesc layer = make_conv("fit", 8, 16, 8, 3);
  const LoopNest nest = build_conv_nest(layer);
  // o=16 on 4 rows (4 granules), c=8 on 4 cols (2 granules), i=8 on vec 8
  // (1 granule); middle bounds in [o,i,c,r,p,q] order.
  const DesignPoint design =
      make_design(nest, ArrayShape{4, 4, 8}, {4, 1, 2, 8, 3, 3});
  const FoldPlan plan = plan_fold(nest, design);
  check_plan_invariants(nest, plan);
  for (const LoopFold& f : plan.loops) EXPECT_EQ(f.pad, 0) << f.loop;
  EXPECT_EQ(plan.executed_iterations, plan.effective_iterations);
  EXPECT_DOUBLE_EQ(plan.waste_ratio, 0.0);
  EXPECT_TRUE(plan.identity);  // bounds already minimal: retarget is a no-op
}

TEST(FoldPlan, NonDividingTripsArePaddedUp) {
  // o=9 on 4 rows, i=7 on vec 2, c=5 on 3 cols: none divide.
  const ConvLayerDesc layer = make_conv("nd", 7, 9, 5, 3);
  const LoopNest nest = build_conv_nest(layer);
  const DesignPoint design =
      make_design(nest, ArrayShape{4, 3, 2}, {1, 1, 1, 1, 1, 1});
  const FoldPlan plan = plan_fold(nest, design);
  check_plan_invariants(nest, plan);
  EXPECT_EQ(plan.loops[ConvLoops::kO].granules, 3);
  EXPECT_EQ(plan.loops[ConvLoops::kO].pad, 3);  // 3*4 - 9
  EXPECT_EQ(plan.loops[ConvLoops::kI].granules, 4);
  EXPECT_EQ(plan.loops[ConvLoops::kI].pad, 1);  // 4*2 - 7
  EXPECT_EQ(plan.loops[ConvLoops::kC].granules, 2);
  EXPECT_EQ(plan.loops[ConvLoops::kC].pad, 1);  // 2*3 - 5
  EXPECT_GT(plan.waste_ratio, 0.0);
  EXPECT_LT(plan.waste_ratio, 1.0);
}

TEST(FoldPlan, OneByOneConvFolds) {
  // Pointwise conv: kernel loops are trip 1; the fold must treat them as
  // single granules with no padding.
  const ConvLayerDesc layer = make_conv("pw", 64, 96, 7, 1);
  const LoopNest nest = build_conv_nest(layer);
  const DesignPoint design =
      make_design(nest, ArrayShape{8, 8, 8}, {4, 2, 1, 7, 1, 1});
  const FoldPlan plan = plan_fold(nest, design);
  check_plan_invariants(nest, plan);
  EXPECT_EQ(plan.loops[ConvLoops::kP].granules, 1);
  EXPECT_EQ(plan.loops[ConvLoops::kQ].pad, 0);
  EXPECT_EQ(plan.loops[ConvLoops::kO].pad, 0);    // 96 % 8 == 0
  EXPECT_EQ(plan.loops[ConvLoops::kC].pad, 1);    // ceil(7/8)*8 - 7
}

TEST(FoldPlan, FcShapedLayerWastesTheSpatialColumns) {
  // A fully connected layer expressed as a 1x1 conv over a 1x1 feature map:
  // the columns dimension has one granule and pads 15 of 16 lanes.
  const ConvLayerDesc layer = make_conv("fc", 256, 128, 1, 1);
  const LoopNest nest = build_conv_nest(layer);
  const DesignPoint design =
      make_design(nest, ArrayShape{16, 16, 8}, {8, 4, 1, 1, 1, 1});
  const FoldPlan plan = plan_fold(nest, design);
  check_plan_invariants(nest, plan);
  const LoopFold& c = plan.loops[ConvLoops::kC];
  EXPECT_EQ(c.granules, 1);
  EXPECT_EQ(c.pad, 15);
  EXPECT_NEAR(plan.waste_ratio, 15.0 / 16.0, 1e-12);
}

TEST(FoldPlan, LayerSmallerThanArrayClampsTheSchedule) {
  // A design synthesized for a big layer, folded onto a layer strictly
  // smaller than the array in every dimension: one granule per mapped loop,
  // and the oversized middle bounds are clamped so the schedule does not
  // spin through empty blocks.
  const ConvLayerDesc big = make_conv("big", 32, 64, 16, 3);
  const LoopNest big_nest = build_conv_nest(big);
  const DesignPoint fixed =
      make_design(big_nest, ArrayShape{8, 8, 8}, {8, 4, 2, 16, 3, 3});

  const ConvLayerDesc tiny = make_conv("tiny", 2, 3, 2, 1);
  const LoopNest nest = build_conv_nest(tiny);
  const FoldPlan plan = plan_fold(nest, fixed);
  check_plan_invariants(nest, plan);
  EXPECT_FALSE(plan.identity);
  for (const std::size_t l :
       {ConvLoops::kO, ConvLoops::kC, ConvLoops::kI}) {
    EXPECT_EQ(plan.loops[l].granules, 1);
    EXPECT_EQ(plan.loops[l].folds, 1);
  }
  // Clamped: s'_l = min(s_l, round_up_pow2(ceil(N_l / t_l))).
  EXPECT_EQ(plan.design.tiling().middle(ConvLoops::kO), 1);  // min(8, 1)
  EXPECT_EQ(plan.design.tiling().middle(ConvLoops::kI), 1);  // min(4, 1)
  EXPECT_EQ(plan.design.tiling().middle(ConvLoops::kR), 2);  // min(16, 2)
  EXPECT_EQ(plan.design.tiling().middle(ConvLoops::kP), 1);  // min(3, 1)
  // Same silicon, different schedule.
  EXPECT_EQ(plan.design.shape(), fixed.shape());
  EXPECT_EQ(plan.design.mapping(), fixed.mapping());
  EXPECT_GT(plan.waste_ratio, 0.9);  // 24 useful of 1024 executed
}

TEST(FoldPlan, BespokeDesignIsIdentity) {
  // The acceptance anchor: a layer folded onto its own DSE-chosen design is
  // a no-op plan, and the folded estimate reproduces the bespoke realized
  // prediction bit for bit.
  const ConvLayerDesc layer = make_conv("own", 32, 64, 14, 3);
  const LoopNest nest = build_conv_nest(layer);
  const FpgaDevice device = tiny_test_device();
  DseOptions options;
  options.min_dsp_util = 0.5;
  const DesignSpaceExplorer explorer(device, DataType::kFloat32, options);
  const DseResult result = explorer.explore(nest);
  ASSERT_FALSE(result.empty());
  for (const DseCandidate& c : result.top) {
    const FoldPlan plan = plan_fold(nest, c.design);
    ASSERT_TRUE(plan.feasible) << plan.error;
    EXPECT_TRUE(plan.identity) << c.design.to_string(nest);
    EXPECT_TRUE(plan.design == c.design);
    const FoldedPerfEstimate folded = estimate_folded_performance(
        nest, plan.design, device, DataType::kFloat32, c.realized_freq_mhz);
    EXPECT_EQ(folded.perf.throughput_gops, c.realized.throughput_gops);
    EXPECT_EQ(folded.perf.eff, c.realized.eff);
    EXPECT_EQ(folded.perf.memory_bound, c.realized.memory_bound);
  }
}

TEST(FoldPlan, InfeasibleMappingIsRejectedWithAReason) {
  // The planner re-checks the Eq. 2/3/11 mapping conditions on the target
  // layer's own reuse analysis (a fixed design may come from a structurally
  // different frontend nest). A mapping without the o-loop can never drive
  // the row/col shift chains of a conv nest — the oracle and the planner
  // must agree it is unusable.
  const ConvLayerDesc layer = make_conv("home", 16, 16, 8, 3);
  const LoopNest nest = build_conv_nest(layer);
  const SystolicMapping bad{ConvLoops::kC, ConvLoops::kR, ConvLoops::kI};
  std::string why;
  ASSERT_FALSE(is_feasible_mapping(nest, analyze_reuse(nest), bad, &why));
  const DesignPoint fixed(nest, bad, ArrayShape{4, 4, 4},
                          {1, 1, 1, 1, 1, 1});
  const FoldPlan plan = plan_fold(nest, fixed);
  EXPECT_FALSE(plan.feasible);
  EXPECT_NE(plan.error.find("mapping infeasible"), std::string::npos)
      << plan.error;
}

TEST(FixedDesignEval, SizedByTheWorstCaseLayerWhereverItSits) {
  // The stride-2 layer's input tile is wider, so its buffers need more
  // BRAM; the one array must be sized (and clocked) for it even though the
  // stride-1 layer comes first.
  Network net;
  net.name = "strided-second";
  net.layers.push_back(make_conv("s1", 8, 16, 8, 3));
  net.layers.push_back(make_conv("s2", 8, 16, 8, 3, /*stride=*/2));
  const LoopNest first = build_conv_nest(net.layers[0]);
  const LoopNest second = build_conv_nest(net.layers[1]);
  const DesignPoint design =
      make_design(first, ArrayShape{4, 4, 8}, {4, 1, 2, 8, 3, 3});
  const FpgaDevice device = arria10_gt1150();
  const ResourceUsage want =
      model_resources(second, design, device, DataType::kFloat32);
  ASSERT_GT(want.bram_blocks,
            model_resources(first, design, device, DataType::kFloat32)
                .bram_blocks);

  const deploy::FixedDesignEval eval =
      deploy::evaluate_fixed_design(net, design, device, DataType::kFloat32);
  EXPECT_EQ(eval.resources.bram_blocks, want.bram_blocks);
  EXPECT_EQ(eval.resources.report.summary(), want.report.summary());
  EXPECT_EQ(eval.realized_freq_mhz,
            pseudo_pnr_frequency_mhz(device, want.report, design.signature()));
}

}  // namespace
}  // namespace sasynth
