// Fleet optimizer: determinism across jobs counts, K semantics, input
// validation, cooperative cancellation, the select/evaluate consistency
// that backs the serving cache's byte-identity guarantee, workload-wide
// design sizing, and one candidate enumeration per distinct layer list.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/unified.h"
#include "deploy/fleet.h"
#include "fpga/device.h"
#include "loopnest/conv_nest.h"
#include "nn/network.h"
#include "support/metric_deltas.h"
#include "util/deadline.h"

namespace sasynth {
namespace {

using deploy::FleetOptions;
using deploy::FleetResult;
using deploy::WorkloadEntry;
using deploy::select_fleet;

/// A second tiny network with a deliberately different layer mix so K=2 has
/// something to specialize for.
Network make_wide_testnet() {
  Network net;
  net.name = "wide";
  net.layers.push_back(make_conv("w1", 4, 8, 6, 1));
  net.layers.push_back(make_conv("w2", 8, 4, 6, 3));
  return net;
}

FleetOptions fast_options(int jobs = 1) {
  FleetOptions options;
  options.unified.dse.min_dsp_util = 0.5;
  options.unified.dse.jobs = jobs;
  options.unified.shape_shortlist = 12;
  return options;
}

std::vector<WorkloadEntry> tiny_workload() {
  return {{make_tiny_testnet(), 2.0}, {make_wide_testnet(), 1.0}};
}

std::vector<std::string> fleet_signatures(const FleetResult& fleet) {
  std::vector<std::string> sigs;
  for (const DesignPoint& d : fleet.designs) sigs.push_back(d.signature());
  return sigs;
}

TEST(Fleet, SelectsAValidFleetForTheTinyWorkload) {
  const FpgaDevice device = tiny_test_device();
  const FleetResult fleet =
      select_fleet(tiny_workload(), device, DataType::kFloat32, fast_options());
  ASSERT_TRUE(fleet.valid) << fleet.error;
  EXPECT_FALSE(fleet.cancelled);
  ASSERT_EQ(fleet.designs.size(), 1u);
  ASSERT_EQ(fleet.realized_freq_mhz.size(), fleet.designs.size());
  ASSERT_EQ(fleet.plans.size(), 2u);
  // Plans come back in workload order with the request weights.
  EXPECT_EQ(fleet.plans[0].network, make_tiny_testnet().name);
  EXPECT_EQ(fleet.plans[1].network, "wide");
  EXPECT_DOUBLE_EQ(fleet.plans[0].weight, 2.0);
  EXPECT_DOUBLE_EQ(fleet.plans[1].weight, 1.0);
  double weighted = 0.0;
  for (const deploy::NetworkPlan& p : fleet.plans) {
    EXPECT_LT(p.design_index, fleet.designs.size());
    EXPECT_GT(p.latency_ms, 0.0);
    EXPECT_GT(p.aggregate_gops, 0.0);
    weighted += p.weight * p.latency_ms;
  }
  EXPECT_DOUBLE_EQ(fleet.weighted_latency_ms, weighted);
  EXPECT_GT(fleet.weighted_gops, 0.0);
  EXPECT_FALSE(fleet.summary().empty());
}

TEST(Fleet, BitIdenticalAtAnyJobsCount) {
  const FpgaDevice device = tiny_test_device();
  const std::vector<WorkloadEntry> workload = tiny_workload();
  FleetOptions options = fast_options(1);
  options.num_designs = 2;
  const FleetResult serial =
      select_fleet(workload, device, DataType::kFloat32, options);
  ASSERT_TRUE(serial.valid) << serial.error;
  for (const int jobs : {2, 4}) {
    FleetOptions parallel_options = fast_options(jobs);
    parallel_options.num_designs = 2;
    const FleetResult parallel =
        select_fleet(workload, device, DataType::kFloat32, parallel_options);
    ASSERT_TRUE(parallel.valid) << parallel.error;
    EXPECT_EQ(fleet_signatures(serial), fleet_signatures(parallel))
        << "jobs=" << jobs;
    EXPECT_EQ(serial.weighted_latency_ms, parallel.weighted_latency_ms)
        << "jobs=" << jobs;
    EXPECT_EQ(serial.weighted_gops, parallel.weighted_gops) << "jobs=" << jobs;
    ASSERT_EQ(serial.plans.size(), parallel.plans.size());
    for (std::size_t n = 0; n < serial.plans.size(); ++n) {
      EXPECT_EQ(serial.plans[n].design_index, parallel.plans[n].design_index);
      EXPECT_EQ(serial.plans[n].latency_ms, parallel.plans[n].latency_ms);
    }
  }
}

TEST(Fleet, LargerFleetNeverHurtsTheObjective) {
  const FpgaDevice device = tiny_test_device();
  const std::vector<WorkloadEntry> workload = tiny_workload();
  FleetOptions k1 = fast_options();
  k1.num_designs = 1;
  FleetOptions k2 = fast_options();
  k2.num_designs = 2;
  const FleetResult one =
      select_fleet(workload, device, DataType::kFloat32, k1);
  const FleetResult two =
      select_fleet(workload, device, DataType::kFloat32, k2);
  ASSERT_TRUE(one.valid) << one.error;
  ASSERT_TRUE(two.valid) << two.error;
  EXPECT_EQ(one.designs.size(), 1u);
  // The pool may not hold 2 distinct useful designs, but greedy never keeps
  // a second design that worsens the objective.
  EXPECT_LE(two.weighted_latency_ms, one.weighted_latency_ms * (1.0 + 1e-12));
  // K=1 on a one-network workload is exactly unified selection's shape:
  // the first greedy pick minimizes the single weighted latency.
  EXPECT_GE(two.designs.size(), 1u);
  EXPECT_LE(two.designs.size(), 2u);
}

TEST(Fleet, RejectsBadInputs) {
  const FpgaDevice device = tiny_test_device();
  const FleetOptions options = fast_options();

  const FleetResult empty =
      select_fleet({}, device, DataType::kFloat32, options);
  EXPECT_FALSE(empty.valid);
  EXPECT_FALSE(empty.error.empty());

  FleetResult bad_weight = select_fleet({{make_tiny_testnet(), 0.0}}, device,
                                        DataType::kFloat32, options);
  EXPECT_FALSE(bad_weight.valid);
  EXPECT_NE(bad_weight.error.find("weight"), std::string::npos)
      << bad_weight.error;

  FleetOptions bad_k = fast_options();
  bad_k.num_designs = 0;
  const FleetResult zero_k = select_fleet(tiny_workload(), device,
                                          DataType::kFloat32, bad_k);
  EXPECT_FALSE(zero_k.valid);

  Network empty_net;
  empty_net.name = "empty";
  const FleetResult no_layers = select_fleet(
      {{empty_net, 1.0}}, device, DataType::kFloat32, options);
  EXPECT_FALSE(no_layers.valid);
}

TEST(Fleet, PreFiredCancelTokenStopsSelection) {
  const FpgaDevice device = tiny_test_device();
  FleetOptions options = fast_options();
  CancelToken token = CancelToken::cancellable();
  token.request_cancel();
  options.unified.dse.cancel = token;
  const FleetResult fleet =
      select_fleet(tiny_workload(), device, DataType::kFloat32, options);
  EXPECT_TRUE(fleet.cancelled);
  EXPECT_FALSE(fleet.valid);
}

TEST(Fleet, EvaluateReproducesSelectExactly) {
  // The serving cache stores only the K designs; a hit re-derives everything
  // else through evaluate_fleet. That is byte-identical to the fresh path
  // only if evaluate_fleet(select.designs) reproduces select's own numbers.
  const FpgaDevice device = tiny_test_device();
  const std::vector<WorkloadEntry> workload = tiny_workload();
  FleetOptions options = fast_options();
  options.num_designs = 2;
  const FleetResult fleet =
      select_fleet(workload, device, DataType::kFloat32, options);
  ASSERT_TRUE(fleet.valid) << fleet.error;
  const FleetResult echoed = deploy::evaluate_fleet(
      workload, fleet.designs, device, DataType::kFloat32);
  ASSERT_TRUE(echoed.valid) << echoed.error;
  EXPECT_EQ(fleet_signatures(fleet), fleet_signatures(echoed));
  EXPECT_EQ(fleet.realized_freq_mhz, echoed.realized_freq_mhz);
  EXPECT_EQ(fleet.weighted_latency_ms, echoed.weighted_latency_ms);
  EXPECT_EQ(fleet.weighted_gops, echoed.weighted_gops);
  ASSERT_EQ(fleet.plans.size(), echoed.plans.size());
  for (std::size_t n = 0; n < fleet.plans.size(); ++n) {
    EXPECT_EQ(fleet.plans[n].design_index, echoed.plans[n].design_index);
    EXPECT_EQ(fleet.plans[n].latency_ms, echoed.plans[n].latency_ms);
    EXPECT_EQ(fleet.plans[n].aggregate_gops, echoed.plans[n].aggregate_gops);
  }
  EXPECT_EQ(fleet.summary(), echoed.summary());
}

TEST(Fleet, OneNetworkWorkloadEnumeratesItsPoolOnce) {
  // A one-network workload is its own merged mix: the selector enumerates
  // that layer list once, not once as the mix and again as the network.
  const FpgaDevice device = tiny_test_device();
  const FleetOptions options = fast_options();
  const MetricDeltas one_call;
  ASSERT_FALSE(enumerate_unified_candidates(make_tiny_testnet(), device,
                                            DataType::kFloat32,
                                            options.unified)
                   .empty());
  const std::int64_t pairs_per_call = one_call("unified_pairs_total");
  ASSERT_GT(pairs_per_call, 0);

  const MetricDeltas delta;
  const FleetResult fleet = select_fleet({{make_tiny_testnet(), 1.0}}, device,
                                         DataType::kFloat32, options);
  ASSERT_TRUE(fleet.valid) << fleet.error;
  EXPECT_EQ(delta("unified_pairs_total"), pairs_per_call);
}

TEST(Fleet, DesignClockIsIndependentOfNetworkOrder) {
  // AlexNet conv3's DSE winner needs more BRAM on GoogLeNet's stride-2
  // conv1_7x7 than on AlexNet's (folded, stride-1) conv1: the input tile
  // grows with the stride. Either network may be assigned the design, so it
  // is sized — and clocked — over the whole workload, in either order.
  const Network alexnet = make_alexnet();
  const Network googlenet = make_googlenet();
  const ConvLayerDesc* conv3 = alexnet.find_layer("conv3");
  ASSERT_NE(conv3, nullptr);
  const DesignPoint design(build_conv_nest(*conv3), SystolicMapping{0, 3, 1},
                           ArrayShape{7, 13, 16}, {64, 16, 16, 1, 1, 4});
  ASSERT_EQ(design.signature(), "m0_3_1_t(7,13,16)_s(64,16,16,1,1,4)");
  const FpgaDevice device = arria10_gt1150();
  const FleetResult alexnet_first = deploy::evaluate_fleet(
      {{alexnet, 1.0}, {googlenet, 1.0}}, {design}, device,
      DataType::kFloat32);
  const FleetResult googlenet_first = deploy::evaluate_fleet(
      {{googlenet, 1.0}, {alexnet, 1.0}}, {design}, device,
      DataType::kFloat32);
  ASSERT_TRUE(alexnet_first.valid) << alexnet_first.error;
  ASSERT_TRUE(googlenet_first.valid) << googlenet_first.error;
  EXPECT_EQ(alexnet_first.realized_freq_mhz, googlenet_first.realized_freq_mhz);
  EXPECT_EQ(alexnet_first.weighted_latency_ms,
            googlenet_first.weighted_latency_ms);
}

TEST(Fleet, EvaluateRejectsAnUncoverableNetwork) {
  const FpgaDevice device = tiny_test_device();
  const FleetResult direct = deploy::evaluate_fleet(
      tiny_workload(), {}, device, DataType::kFloat32);
  EXPECT_FALSE(direct.valid);
  EXPECT_FALSE(direct.error.empty());
}

}  // namespace
}  // namespace sasynth
