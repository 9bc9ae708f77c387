// Deploy protocol + server plumbing: parse errors, canonical-text policy,
// cached-vs-fresh byte identity, deadline handling, and a full session mix
// of synthesis and deploy blocks.
#include <gtest/gtest.h>

#include <string>

#include "serve/deploy_protocol.h"
#include "serve/server.h"
#include "support/loop_harness.h"
#include "support/metric_deltas.h"
#include "util/deadline.h"
#include "util/strings.h"

namespace sasynth {
namespace {

const char* kDeployRequest =
    "sasynth-deploy v1\n"
    "network tiny\n"
    "fleet 1\n"
    "device tiny\n"
    "option min_util 0.5\n"
    "end\n";

const char* kWeightedFleetRequest =
    "sasynth-deploy v1\n"
    "network tiny 3\n"
    "network tiny 0.25\n"
    "fleet 2\n"
    "device tiny\n"
    "option min_util 0.5\n"
    "end\n";

ServeOptions memory_options(int jobs = 1) {
  ServeOptions options;
  options.jobs = jobs;
  options.cache_capacity = 16;
  return options;
}

TEST(DeployProtocol, ParsesAFullRequest) {
  const ParsedDeployRequest parsed = parse_deploy_request_block(
      "sasynth-deploy v1\n"
      "network alexnet 2.5\n"
      "network vgg16\n"
      "fleet 3\n"
      "device tiny\n"
      "dtype fixed8_16\n"
      "option min_util 0.6\n"
      "deadline_ms 1500\n"
      "end\n");
  ASSERT_TRUE(parsed.ok) << parsed.error;
  const DeployRequest& r = parsed.request;
  ASSERT_EQ(r.workload.size(), 2u);
  EXPECT_EQ(r.workload[0].network, "alexnet");
  EXPECT_DOUBLE_EQ(r.workload[0].weight, 2.5);
  EXPECT_EQ(r.workload[1].network, "vgg16");
  EXPECT_DOUBLE_EQ(r.workload[1].weight, 1.0);
  EXPECT_EQ(r.fleet_size, 3);
  EXPECT_EQ(r.device.name, tiny_test_device().name);
  EXPECT_EQ(r.dtype, DataType::kFixed8_16);
  EXPECT_DOUBLE_EQ(r.dse.min_dsp_util, 0.6);
  EXPECT_EQ(r.deadline_ms, 1500);
}

TEST(DeployProtocol, RejectsMalformedBlocks) {
  const char* bad[] = {
      // wrong magic
      "sasynth-request v1\nnetwork tiny\nend\n",
      // no network line at all
      "sasynth-deploy v1\nfleet 1\nend\n",
      // unknown network name
      "sasynth-deploy v1\nnetwork resnet50\nend\n",
      // non-positive weight
      "sasynth-deploy v1\nnetwork tiny 0\nend\n",
      "sasynth-deploy v1\nnetwork tiny -1\nend\n",
      // fleet size out of range / duplicated
      "sasynth-deploy v1\nnetwork tiny\nfleet 0\nend\n",
      "sasynth-deploy v1\nnetwork tiny\nfleet 65\nend\n",
      "sasynth-deploy v1\nnetwork tiny\nfleet 2\nfleet 2\nend\n",
      // unknown field and unknown option key
      "sasynth-deploy v1\nnetwork tiny\nbitstream yes\nend\n",
      "sasynth-deploy v1\nnetwork tiny\noption warp_speed 9\nend\n",
  };
  for (const char* block : bad) {
    const ParsedDeployRequest parsed = parse_deploy_request_block(block);
    EXPECT_FALSE(parsed.ok) << block;
    EXPECT_FALSE(parsed.error.empty()) << block;
  }
}

TEST(DeployProtocol, CanonicalTextExcludesExecutionPolicy) {
  ParsedDeployRequest a = parse_deploy_request_block(kDeployRequest);
  ASSERT_TRUE(a.ok) << a.error;
  ParsedDeployRequest b = parse_deploy_request_block(kDeployRequest);
  ASSERT_TRUE(b.ok);
  b.request.deadline_ms = 123;
  b.request.dse.jobs = 7;
  EXPECT_EQ(canonical_deploy_request_text(a.request),
            canonical_deploy_request_text(b.request));
  // ...but everything request-identity-bearing is included.
  ParsedDeployRequest c = parse_deploy_request_block(kDeployRequest);
  ASSERT_TRUE(c.ok);
  c.request.fleet_size = 2;
  EXPECT_NE(canonical_deploy_request_text(a.request),
            canonical_deploy_request_text(c.request));
  const std::string canonical = canonical_deploy_request_text(a.request);
  EXPECT_TRUE(starts_with(canonical, "deploy\n")) << canonical;
  // Derived per-design keys are distinct.
  EXPECT_NE(deploy_cache_entry_text(canonical, 0, 2),
            deploy_cache_entry_text(canonical, 1, 2));
}

TEST(DeployServer, CachedResponseIsByteIdentical) {
  const MetricDeltas delta;
  SynthServer server(memory_options());
  const std::string cold = server.handle_deploy(kDeployRequest);
  ASSERT_TRUE(starts_with(cold, "sasynth-response v1 ok")) << cold;
  EXPECT_NE(cold.find("fleet 1"), std::string::npos);
  EXPECT_NE(cold.find("sasynth-design v1"), std::string::npos);
  // Assign lines carry the resolved network's display name.
  EXPECT_NE(cold.find("assign TinyTestNet"), std::string::npos) << cold;

  const std::string warm = server.handle_deploy(kDeployRequest);
  EXPECT_EQ(warm, cold);
  EXPECT_GT(delta("cache_hits_total"), 0);
}

TEST(DeployServer, MultiDesignFleetCachesAllOrNothing) {
  SynthServer server(memory_options());
  const std::string cold = server.handle_deploy(kWeightedFleetRequest);
  ASSERT_TRUE(starts_with(cold, "sasynth-response v1 ok")) << cold;
  const std::string warm = server.handle_deploy(kWeightedFleetRequest);
  EXPECT_EQ(warm, cold);
  // Both assignment lines carry their request weights, workload order.
  const std::size_t first = cold.find("assign TinyTestNet weight=3");
  const std::size_t second = cold.find("assign TinyTestNet weight=0.25");
  ASSERT_NE(first, std::string::npos) << cold;
  ASSERT_NE(second, std::string::npos) << cold;
  EXPECT_LT(first, second);
}

TEST(DeployServer, MalformedDeployBlockGetsErrorResponse) {
  SynthServer server(memory_options());
  const std::string response =
      server.handle_deploy("sasynth-deploy v1\nnetwork nope\nend\n");
  EXPECT_TRUE(starts_with(response, "sasynth-response v1 error")) << response;
}

TEST(DeployServer, PreFiredTokenTimesOutInFleetSelection) {
  SynthServer server(memory_options());
  CancelToken token = CancelToken::cancellable();
  token.request_cancel();
  const std::string response = server.handle_deploy(kDeployRequest, token);
  EXPECT_TRUE(starts_with(response, "sasynth-response v1 timeout")) << response;
  EXPECT_NE(response.find("deadline exceeded during fleet selection"),
            std::string::npos)
      << response;
}

TEST(DeployServer, SessionMixesSynthesisAndDeployBlocks) {
  const char* kSynthRequest =
      "sasynth-request v1\n"
      "layer 16,16,8,8,3\n"
      "device tiny\n"
      "option min_util 0.5\n"
      "end\n";
  SynthServer server(memory_options());
  const std::string transcript = run_session(
      server, std::string("ping\n") + kSynthRequest + kDeployRequest);
  const std::size_t pong = transcript.find("sasynth-pong v1");
  const std::size_t synth_ok = transcript.find("sasynth-response v1 ok");
  const std::size_t fleet = transcript.find("fleet 1");
  ASSERT_NE(pong, std::string::npos) << transcript;
  ASSERT_NE(synth_ok, std::string::npos) << transcript;
  ASSERT_NE(fleet, std::string::npos) << transcript;
  EXPECT_LT(pong, synth_ok);
  EXPECT_LT(synth_ok, fleet);  // responses in request order
}

TEST(DeployServer, SessionTranscriptInvariantAcrossJobsAndCacheState) {
  const std::string stream =
      std::string(kDeployRequest) + kWeightedFleetRequest + kDeployRequest;
  SynthServer baseline(memory_options(/*jobs=*/1));
  const std::string reference = run_session(baseline, stream);
  ASSERT_NE(reference.find("sasynth-response v1 ok"), std::string::npos)
      << reference;
  {
    SynthServer server(memory_options(/*jobs=*/4));
    EXPECT_EQ(run_session(server, stream), reference);
  }
  {
    ServeOptions options = memory_options(/*jobs=*/2);
    options.cache_enabled = false;
    SynthServer server(options);
    EXPECT_EQ(run_session(server, stream), reference);
  }
}

}  // namespace
}  // namespace sasynth
