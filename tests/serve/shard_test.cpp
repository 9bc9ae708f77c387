// Sharded-DSE tier tests: wire-block round trips, peer-list validation,
// byte-identity of the coordinator against single-node at several shard and
// jobs counts, degradation on dead/faulty/malformed peers, and coordinator
// drain with worker RPCs in flight. Workers are real in-process daemons
// (SynthServer behind an EventLoopServer on an ephemeral loopback port) so
// every test exercises the actual TCP path the fleet uses.
#include "serve/shard.h"

#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/design_io.h"
#include "faultinject/faultinject.h"
#include "loopnest/conv_nest.h"
#include "obs/metrics.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "serve/tcp.h"
#include "support/loop_harness.h"
#include "support/metric_deltas.h"
#include "util/strings.h"

namespace sasynth {
namespace {

/// A real AlexNet layer (conv2: 96->256, 27x27, k5, 2 groups) and a real
/// GoogLeNet layer (inception 3a's 3x3-reduce: 192->96, 28x28, k1) — the
/// byte-identity contract is tested on the paper's workloads, not a toy
/// device.
const char* const kAlexNetConv2 = "96,256,27,27,5,1,2";
const char* const kGoogLeNetReduce = "192,96,28,28,1";

std::string request_block(const std::string& layer, int jobs) {
  return strformat(
      "sasynth-request v1\n"
      "layer %s\n"
      "device arria10_gt1150\n"
      "dtype float32\n"
      "option jobs %d\n"
      "end\n",
      layer.c_str(), jobs);
}

class ShardTest : public ::testing::Test {
 protected:
  void SetUp() override { obs::set_metrics_enabled(true); }
  void TearDown() override { fault::disarm_all(); }

  static obs::Counter& shard_degraded() {
    return obs::MetricsRegistry::global().counter("shard_degraded_total");
  }
  static obs::Counter& shard_requests() {
    return obs::MetricsRegistry::global().counter("shard_requests_total");
  }
};

// ---------------------------------------------------------------------------
// Peer-list flag parsing.

TEST_F(ShardTest, PeerListAcceptsNumericHostsAndLocalhost) {
  std::vector<std::string> peers;
  EXPECT_EQ(parse_peer_list("127.0.0.1:9000,localhost:80,10.0.0.7:65535",
                            &peers),
            "");
  ASSERT_EQ(peers.size(), 3u);
  EXPECT_EQ(peers[0], "127.0.0.1:9000");
  EXPECT_EQ(peers[1], "localhost:80");
}

TEST_F(ShardTest, PeerListRejectsBadEntries) {
  for (const char* bad : {
           "",                    // empty list
           "127.0.0.1",           // no port
           "127.0.0.1:",          // empty port
           "127.0.0.1:abc",       // non-numeric port
           "127.0.0.1:0",         // port out of range
           "127.0.0.1:70000",     // port out of range
           "127.0.0.1:80x",       // trailing garbage
           "example.com:80",      // DNS names are rejected by design
           "127.0.0.1:80,,127.0.0.1:81",  // empty entry mid-list
       }) {
    std::vector<std::string> peers;
    EXPECT_NE(parse_peer_list(bad, &peers), "") << "'" << bad << "'";
  }
}

// ---------------------------------------------------------------------------
// Wire-block round trips.

TEST_F(ShardTest, ShardRequestRoundTripsThroughTheCanonicalText) {
  ParsedRequest inner = parse_request_block(
      "sasynth-request v1\n"
      "layer 16,16,8,8,3\n"
      "device tiny\n"
      "option min_util 0.25\n"
      "option auto_relax 0\n"
      "option jobs 4\n"
      "end\n");
  ASSERT_TRUE(inner.ok) << inner.error;

  const std::string block =
      format_shard_request_block(inner.request, 3, 17, 250);
  const ParsedShardRequest parsed = parse_shard_request_block(block);
  ASSERT_TRUE(parsed.ok) << parsed.error;
  EXPECT_EQ(parsed.request.item_begin, 3);
  EXPECT_EQ(parsed.request.item_end, 17);
  EXPECT_EQ(parsed.request.request.deadline_ms, 250);
  EXPECT_EQ(parsed.request.request.dse.min_dsp_util, 0.25);
  EXPECT_FALSE(parsed.request.request.dse.auto_relax_util);
  // The inner request survives bit-exact: its canonical text (the cache-key
  // text) is unchanged by a format/parse cycle through the shard framing.
  EXPECT_EQ(canonical_request_text(parsed.request.request),
            canonical_request_text(inner.request));

  // deadline_ms < 0 omits the line entirely.
  const std::string unbounded =
      format_shard_request_block(inner.request, 0, 4, -1);
  EXPECT_EQ(unbounded.find("deadline_ms"), std::string::npos);
  const ParsedShardRequest reparsed = parse_shard_request_block(unbounded);
  ASSERT_TRUE(reparsed.ok) << reparsed.error;
  // No line -> the parsed request keeps the "no deadline" default.
  EXPECT_EQ(reparsed.request.request.deadline_ms, inner.request.deadline_ms);
}

TEST_F(ShardTest, ShardRequestParserRejectsMalformedBlocks) {
  const char* const kBad[] = {
      // Wrong magic.
      "sasynth-request v1\nshard_items 0 4\nlayer 16,16,8,8,3\nend\n",
      // Missing shard_items.
      "sasynth-shard v1\nlayer 16,16,8,8,3\ndevice tiny\nend\n",
      // Garbled windows.
      "sasynth-shard v1\nshard_items 4\nlayer 16,16,8,8,3\nend\n",
      "sasynth-shard v1\nshard_items a b\nlayer 16,16,8,8,3\nend\n",
      "sasynth-shard v1\nshard_items 0 4x\nlayer 16,16,8,8,3\nend\n",
      "sasynth-shard v1\nshard_items -1 4\nlayer 16,16,8,8,3\nend\n",
      "sasynth-shard v1\nshard_items 5 4\nlayer 16,16,8,8,3\nend\n",
      // Duplicate window.
      "sasynth-shard v1\nshard_items 0 4\nshard_items 0 4\n"
      "layer 16,16,8,8,3\nend\n",
      // Inner-request errors surface through the same parser.
      "sasynth-shard v1\nshard_items 0 4\ndevice tiny\nend\n",
      "sasynth-shard v1\nshard_items 0 4\nlayer 16,16,8,8,3\n"
      "device not_a_device\nend\n",
  };
  for (const char* block : kBad) {
    const ParsedShardRequest parsed = parse_shard_request_block(block);
    EXPECT_FALSE(parsed.ok) << block;
    EXPECT_FALSE(parsed.error.empty()) << block;
  }
}

TEST_F(ShardTest, ShardResponseRoundTripsDesigns) {
  // Harvest real designs by running the windowed sweep directly.
  ParsedRequest inner = parse_request_block(
      "sasynth-request v1\nlayer 16,16,8,8,3\ndevice tiny\n"
      "option min_util 0.25\nend\n");
  ASSERT_TRUE(inner.ok) << inner.error;
  const LoopNest nest = build_conv_nest(inner.request.layer);
  DseOptions opts = inner.request.dse;
  opts.auto_relax_util = false;
  DesignSpaceExplorer explorer(inner.request.device, inner.request.dtype,
                               opts);
  const DseResult swept = explorer.explore(nest);
  ASSERT_FALSE(swept.top.empty());

  ShardPartial partial;
  partial.ok = true;
  partial.total_items = explorer.count_phase1_items(nest);
  partial.work_items = 42;
  partial.cancelled = false;
  for (const DseCandidate& c : swept.top) {
    partial.designs.push_back(c.design);
  }

  const ShardPartial parsed =
      parse_shard_response(format_shard_response(partial), nest);
  ASSERT_TRUE(parsed.ok) << parsed.error;
  EXPECT_EQ(parsed.total_items, partial.total_items);
  EXPECT_EQ(parsed.work_items, 42);
  EXPECT_FALSE(parsed.cancelled);
  ASSERT_EQ(parsed.designs.size(), partial.designs.size());
  for (std::size_t i = 0; i < parsed.designs.size(); ++i) {
    EXPECT_EQ(save_design_text(parsed.designs[i]),
              save_design_text(partial.designs[i]));
  }

  // The error form round-trips its message.
  const ShardPartial err = parse_shard_response(
      format_shard_error_response("queue full"), nest);
  EXPECT_FALSE(err.ok);
  EXPECT_NE(err.error.find("queue full"), std::string::npos);

  // Truncated and corrupted responses reject instead of feeding the merge.
  std::string text = format_shard_response(partial);
  const ShardPartial truncated = parse_shard_response(
      text.substr(0, text.rfind("end")), nest);
  EXPECT_FALSE(truncated.ok);
  const ShardPartial corrupt = parse_shard_response(
      replace_all(text, "mapping", "mangling"), nest);
  EXPECT_FALSE(corrupt.ok);
}

// A candidate count is untrusted wire data: a huge one is a malformed
// partial, never a throwing allocation sized by the peer.
TEST_F(ShardTest, HugeCandidateCountIsMalformedNotThrown) {
  const ParsedRequest inner = parse_request_block(
      "sasynth-request v1\nlayer 16,16,8,8,3\ndevice tiny\nend\n");
  ASSERT_TRUE(inner.ok) << inner.error;
  const LoopNest nest = build_conv_nest(inner.request.layer);
  for (const char* count : {"100000000000", "9223372036854775807"}) {
    const std::string text = std::string(kShardResponseMagic) +
                             " ok\nitems 0\ncancelled 0\nwork_items 0\n"
                             "candidates " +
                             count + "\nend\n";
    ShardPartial partial;
    EXPECT_NO_THROW(partial = parse_shard_response(text, nest)) << count;
    EXPECT_FALSE(partial.ok) << count;
  }
}

// ---------------------------------------------------------------------------
// The worker side: shard blocks over the real event-loop transport.

TEST_F(ShardTest, WorkerAnswersShardBlocksOverTcp) {
  WorkerDaemon worker;
  ParsedRequest inner = parse_request_block(request_block(kGoogLeNetReduce, 1));
  ASSERT_TRUE(inner.ok) << inner.error;
  const LoopNest nest = build_conv_nest(inner.request.layer);
  DseOptions opts = inner.request.dse;
  opts.auto_relax_util = false;
  const std::int64_t total =
      DesignSpaceExplorer(inner.request.device, inner.request.dtype, opts)
          .count_phase1_items(nest);
  ASSERT_GT(total, 1);

  ServeRequest pinned = inner.request;
  pinned.dse.auto_relax_util = false;
  const std::string block =
      format_shard_request_block(pinned, 0, total / 2, -1);

  const int fd = connect_loopback(worker.port());
  ASSERT_GE(fd, 0);
  ASSERT_TRUE(write_all_fd(fd, block));
  FdLineReader reader(fd);
  std::string text;
  std::string line;
  while (reader.read_line(&line)) {
    text += line + "\n";
    if (line == kBlockEnd) break;
  }
  ::close(fd);

  const ShardPartial partial = parse_shard_response(text, nest);
  ASSERT_TRUE(partial.ok) << partial.error << "\n" << text;
  EXPECT_EQ(partial.total_items, total);
  EXPECT_EQ(partial.work_items, total / 2);
  EXPECT_FALSE(partial.cancelled);
  EXPECT_LE(partial.designs.size(),
            static_cast<std::size_t>(inner.request.dse.top_k));

  // A malformed shard block gets a shard error response, not a hangup.
  SynthServer direct({});
  const std::string err = direct.handle_shard("sasynth-shard v1\nend\n");
  EXPECT_NE(err.find(std::string(kShardResponseMagic) + " error"),
            std::string::npos)
      << err;
}

// ---------------------------------------------------------------------------
// Byte-identity: the coordinator's response equals single-node execution at
// every shard count and jobs count.

TEST_F(ShardTest, CoordinatorIsByteIdenticalToSingleNode) {
  std::vector<std::unique_ptr<WorkerDaemon>> workers;
  for (int i = 0; i < 3; ++i) {
    workers.push_back(std::make_unique<WorkerDaemon>());
  }

  for (const char* layer : {kAlexNetConv2, kGoogLeNetReduce}) {
    for (const int jobs : {1, 4}) {
      const std::string block = request_block(layer, jobs);
      // One reference per (layer, jobs): determinism across jobs counts is
      // already covered by the core DSE tests.
      SynthServer reference({});
      const std::string expected = reference.handle(block);
      ASSERT_NE(expected.find("sasynth-response v1 ok"), std::string::npos)
          << expected;

      for (const int shards : {1, 2, 3}) {
        ServeOptions options;
        for (int p = 0; p < shards; ++p) {
          options.shard_peers.push_back(workers[p]->peer());
        }
        const std::int64_t degraded_before = shard_degraded().value();
        const std::int64_t requests_before = shard_requests().value();
        // A fresh coordinator per config keeps its DesignCache cold so the
        // shard path actually runs.
        SynthServer coordinator(options);
        EXPECT_EQ(coordinator.handle(block), expected)
            << "layer=" << layer << " jobs=" << jobs << " shards=" << shards;
        EXPECT_EQ(shard_degraded().value(), degraded_before);
        EXPECT_EQ(shard_requests().value() - requests_before, shards);
      }
    }
  }
}

// A sharded exploration is an exploration: it publishes the `dse_*` metrics
// exactly like single-node execution does.
TEST_F(ShardTest, ShardedExplorationPublishesTheDseMetrics) {
  std::vector<std::unique_ptr<WorkerDaemon>> workers;
  for (int i = 0; i < 2; ++i) {
    workers.push_back(std::make_unique<WorkerDaemon>());
  }
  ServeOptions options;
  for (const auto& w : workers) options.shard_peers.push_back(w->peer());
  SynthServer coordinator(options);

  // The in-process workers run phase 1 only, never an exploration, so every
  // count below is the coordinator's.
  for (const char* layer : {kAlexNetConv2, kGoogLeNetReduce}) {
    const MetricDeltas delta;
    const std::string response = coordinator.handle(request_block(layer, 4));
    ASSERT_NE(response.find("sasynth-response v1 ok"), std::string::npos)
        << response;
    EXPECT_EQ(delta("dse_explorations_total"), 1) << layer;
    EXPECT_EQ(delta("dse_phase2_ms_count"), 1) << layer;
  }
}

// ---------------------------------------------------------------------------
// Degradation: dead and faulty peers re-execute locally, never change bytes.

TEST_F(ShardTest, DeadPeerDegradesToLocalExecutionWithIdenticalBytes) {
  std::vector<std::unique_ptr<WorkerDaemon>> workers;
  for (int i = 0; i < 3; ++i) {
    workers.push_back(std::make_unique<WorkerDaemon>());
  }
  ServeOptions options;
  for (const auto& w : workers) options.shard_peers.push_back(w->peer());

  const std::string block = request_block(kAlexNetConv2, 4);
  SynthServer reference({});
  const std::string expected = reference.handle(block);

  // Kill the middle worker; its port now refuses connections.
  workers[1]->stop();

  const std::int64_t degraded_before = shard_degraded().value();
  SynthServer coordinator(options);
  EXPECT_EQ(coordinator.handle(block), expected);
  EXPECT_GE(shard_degraded().value() - degraded_before, 1);
}

TEST_F(ShardTest, ShardFaultSitesAllDegradeWithoutChangingBytes) {
  std::vector<std::unique_ptr<WorkerDaemon>> workers;
  for (int i = 0; i < 2; ++i) {
    workers.push_back(std::make_unique<WorkerDaemon>());
  }
  ServeOptions options;
  for (const auto& w : workers) options.shard_peers.push_back(w->peer());

  const std::string block = request_block(kGoogLeNetReduce, 4);
  SynthServer reference({});
  const std::string expected = reference.handle(block);

  for (const char* site :
       {fault::kSiteShardConnect, fault::kSiteShardRead,
        fault::kSiteShardWrite}) {
    for (const fault::ErrorKind kind :
         {fault::ErrorKind::kError, fault::ErrorKind::kCorrupt,
          fault::ErrorKind::kStall}) {
      fault::FaultSpec spec;
      spec.kind = kind;
      spec.after = 1;
      spec.count = 1;
      fault::arm(site, spec);

      const std::int64_t degraded_before = shard_degraded().value();
      SynthServer coordinator(options);
      EXPECT_EQ(coordinator.handle(block), expected)
          << site << "/" << fault::kind_name(kind);
      EXPECT_GT(fault::injected_total(), 0)
          << site << "/" << fault::kind_name(kind);
      EXPECT_GE(shard_degraded().value() - degraded_before, 1)
          << site << "/" << fault::kind_name(kind);
      fault::disarm_all();
    }
  }
}

/// A fake worker: every connection gets `response` once its request block's
/// `end` line has arrived.
class FakePeer {
 public:
  explicit FakePeer(std::string response) : response_(std::move(response)) {
    std::string error;
    EXPECT_TRUE(listener_.listen_on(0, &error)) << error;
    thread_ = std::thread([this] {
      for (;;) {
        const int fd = ::accept(listener_.fd(), nullptr, nullptr);
        if (fd < 0) return;  // the destructor shut the listener down
        std::string request;
        char chunk[4096];
        ssize_t n;
        while (request.find("\nend\n") == std::string::npos &&
               (n = ::read(fd, chunk, sizeof(chunk))) > 0) {
          request.append(chunk, static_cast<std::size_t>(n));
        }
        client_send_all(fd, response_);
        ::close(fd);
      }
    });
  }

  ~FakePeer() {
    ::shutdown(listener_.fd(), SHUT_RDWR);  // wakes the blocked accept
    thread_.join();
  }

  FakePeer(const FakePeer&) = delete;
  FakePeer& operator=(const FakePeer&) = delete;

  std::string peer() const {
    return "127.0.0.1:" + std::to_string(listener_.port());
  }

 private:
  std::string response_;
  TcpListener listener_;
  std::thread thread_;
};

// A malformed partial is a peer failure like any other: the range completes,
// degrades to local execution and tells the breaker. The hedge delay only
// bounds the test should the range never complete; it must not fire.
TEST_F(ShardTest, MalformedPartialDegradesAndCountsAsAPeerFailure) {
  const std::string block =
      "sasynth-request v1\nlayer 16,16,8,8,3\ndevice tiny\n"
      "option min_util 0.5\nend\n";
  SynthServer reference({});
  const std::string expected = reference.handle(block);
  ASSERT_NE(expected.find("sasynth-response v1 ok"), std::string::npos)
      << expected;

  FakePeer fake(std::string(kShardResponseMagic) +
                " ok\nitems 0\ncancelled 0\nwork_items 0\n"
                "candidates 100000000000\nend\n");
  ServeOptions options;
  options.cache_enabled = false;
  options.shard_peers = {fake.peer()};
  options.shard_hedge_ms = 2000;
  SynthServer coordinator(options);
  const MetricDeltas delta;
  EXPECT_EQ(coordinator.handle(block), expected);
  EXPECT_EQ(delta("shard_degraded_total"), 1);
  EXPECT_EQ(delta("shard_hedges_total"), 0);
  const std::string health = coordinator.health_text();
  EXPECT_NE(health.find("peer0_failures 1\n"), std::string::npos) << health;
}

// ---------------------------------------------------------------------------
// Coordinator drain: a shutdown with a sharded request in flight finishes
// the accepted work (the response arrives, then the goodbye) and exits 0.

TEST_F(ShardTest, CoordinatorDrainFinishesInFlightShardedWork) {
  std::vector<std::unique_ptr<WorkerDaemon>> workers;
  for (int i = 0; i < 2; ++i) {
    workers.push_back(std::make_unique<WorkerDaemon>());
  }
  ServeOptions options;
  for (const auto& w : workers) options.shard_peers.push_back(w->peer());
  SynthServer coordinator(options);
  LoopRunner loop(coordinator);

  const int fd = connect_loopback(loop.port());
  ASSERT_GE(fd, 0);
  ASSERT_TRUE(
      write_all_fd(fd, request_block(kAlexNetConv2, 4) + "shutdown\n"));
  ::shutdown(fd, SHUT_WR);
  std::string transcript;
  {
    FdLineReader reader(fd);
    std::string line;
    while (reader.read_line(&line)) transcript += line + "\n";
  }
  ::close(fd);

  EXPECT_EQ(loop.join(), 0);
  const std::size_t ok = transcript.find("sasynth-response v1 ok");
  const std::size_t bye = transcript.find("sasynth-bye v1");
  ASSERT_NE(ok, std::string::npos) << transcript;
  ASSERT_NE(bye, std::string::npos) << transcript;
  EXPECT_LT(ok, bye);
}

}  // namespace
}  // namespace sasynth
