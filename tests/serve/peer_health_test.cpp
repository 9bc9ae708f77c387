// Resilience-tier tests: the breaker state machine (closed -> open ->
// half-open -> closed) driven socket-free with synthetic clocks, the
// deterministic backoff schedule, probe single-flight, the shard.probe
// fault site, and the coordinator-level behaviors — open peers skipped
// byte-identically, a restarted peer re-admitted through the background
// prober, and a stalled peer hedged by local re-execution.
#include "serve/peer_health.h"

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "faultinject/faultinject.h"
#include "obs/metrics.h"
#include "serve/server.h"
#include "serve/shard.h"
#include "support/loop_harness.h"
#include "util/strings.h"

namespace sasynth {
namespace {

using Clock = PeerHealthRegistry::Clock;
using Admit = PeerHealthRegistry::Admit;

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

/// A listener that never accepts: connects succeed (kernel backlog) and the
/// request write lands in the socket buffer, but no response ever comes —
/// the deterministic "slow peer" for hedge tests.
class SilentPeer {
 public:
  SilentPeer() {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    EXPECT_GE(fd_, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = 0;
    EXPECT_EQ(::bind(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
              0);
    EXPECT_EQ(::listen(fd_, 8), 0);
    socklen_t len = sizeof(addr);
    EXPECT_EQ(::getsockname(fd_, reinterpret_cast<sockaddr*>(&addr), &len), 0);
    port_ = ntohs(addr.sin_port);
  }
  ~SilentPeer() {
    if (fd_ >= 0) ::close(fd_);
  }
  int port() const { return port_; }
  std::string peer() const { return "127.0.0.1:" + std::to_string(port_); }

 private:
  int fd_ = -1;
  int port_ = 0;
};

class PeerHealthTest : public ::testing::Test {
 protected:
  void SetUp() override { obs::set_metrics_enabled(true); }
  void TearDown() override { fault::disarm_all(); }

  static obs::Counter& breaker_opens() {
    return obs::MetricsRegistry::global().counter("shard_breaker_opens_total");
  }
  static obs::Counter& probes_total() {
    return obs::MetricsRegistry::global().counter("shard_probes_total");
  }
  static obs::Counter& hedges_total() {
    return obs::MetricsRegistry::global().counter("shard_hedges_total");
  }
  static obs::Counter& hedge_wins_total() {
    return obs::MetricsRegistry::global().counter("shard_hedge_wins_total");
  }
  static obs::Counter& degraded_total() {
    return obs::MetricsRegistry::global().counter("shard_degraded_total");
  }
  static obs::Counter& requests_total() {
    return obs::MetricsRegistry::global().counter("shard_requests_total");
  }

  /// The `peer<i>_<field>` value out of a health payload, or "" if absent.
  static std::string health_field(const std::string& health, std::size_t peer,
                                  const std::string& field) {
    const std::string key =
        strformat("peer%zu_%s ", peer, field.c_str());
    for (const std::string& line : split(health, '\n')) {
      if (starts_with(line, key)) return line.substr(key.size());
    }
    return "";
  }
};

// ---------------------------------------------------------------------------
// The deterministic backoff schedule.

TEST_F(PeerHealthTest, BackoffScheduleIsDeterministicAndCapped) {
  PeerHealthOptions opts;
  opts.probe_interval_ms = 1000;
  EXPECT_EQ(PeerHealthRegistry::backoff_ms(opts, 0), 1000);
  EXPECT_EQ(PeerHealthRegistry::backoff_ms(opts, 1), 2000);
  EXPECT_EQ(PeerHealthRegistry::backoff_ms(opts, 2), 4000);
  EXPECT_EQ(PeerHealthRegistry::backoff_ms(opts, 3), 8000);
  EXPECT_EQ(PeerHealthRegistry::backoff_ms(opts, 4), 16000);
  EXPECT_EQ(PeerHealthRegistry::backoff_ms(opts, 5), 16000);    // capped
  EXPECT_EQ(PeerHealthRegistry::backoff_ms(opts, 1000), 16000); // no overflow

  // The same history always yields the same schedule.
  for (std::int64_t round = 0; round < 8; ++round) {
    EXPECT_EQ(PeerHealthRegistry::backoff_ms(opts, round),
              PeerHealthRegistry::backoff_ms(opts, round));
  }

  // interval 0 (prober disabled) still yields a sane >= 1 ms schedule for
  // manually driven probes.
  PeerHealthOptions zero;
  zero.probe_interval_ms = 0;
  EXPECT_EQ(PeerHealthRegistry::backoff_ms(zero, 0), 1);
  EXPECT_EQ(PeerHealthRegistry::backoff_ms(zero, 4), 16);
}

// ---------------------------------------------------------------------------
// The breaker state machine, socket-free with synthetic clocks.

TEST_F(PeerHealthTest, FullBreakerCycleClosedOpenHalfOpenClosed) {
  PeerHealthOptions opts;
  opts.failure_threshold = 3;
  opts.probe_interval_ms = 100;
  PeerHealthRegistry registry({"127.0.0.1:9"}, opts);
  const Clock::time_point t0 = Clock::now();
  const std::int64_t opens_before = breaker_opens().value();

  // Closed: everything admits as a normal send.
  EXPECT_EQ(registry.admit(0, t0), Admit::kSend);

  // Two failures: still closed (threshold is 3).
  registry.on_failure(0, false, "connect timed out", t0);
  registry.on_failure(0, false, "connect timed out", t0);
  EXPECT_EQ(registry.admit(0, t0), Admit::kSend);
  std::vector<PeerHealthSnapshot> snaps = registry.snapshot(t0);
  ASSERT_EQ(snaps.size(), 1u);
  EXPECT_EQ(snaps[0].state, PeerState::kClosed);
  EXPECT_EQ(snaps[0].consecutive_failures, 2);
  EXPECT_EQ(snaps[0].last_error, "connect timed out");

  // Third failure trips the breaker: open, skip, first probe one interval
  // out, global counter bumped.
  registry.on_failure(0, false, "connect timed out", t0);
  EXPECT_EQ(registry.admit(0, t0), Admit::kSkip);
  snaps = registry.snapshot(t0);
  EXPECT_EQ(snaps[0].state, PeerState::kOpen);
  EXPECT_EQ(snaps[0].breaker_opens, 1);
  EXPECT_EQ(snaps[0].next_probe_in_ms, 100);
  EXPECT_EQ(breaker_opens().value() - opens_before, 1);

  // A successful background ping moves it to half-open.
  registry.record_probe_result(0, true, "", t0);
  snaps = registry.snapshot(t0);
  EXPECT_EQ(snaps[0].state, PeerState::kHalfOpen);
  EXPECT_EQ(snaps[0].probes, 1);

  // Half-open hands out exactly one probe ticket (single-flight): a second
  // concurrent request still takes the local fallback.
  EXPECT_EQ(registry.admit(0, t0), Admit::kProbe);
  EXPECT_EQ(registry.admit(0, t0), Admit::kSkip);

  // The probe request succeeds: re-admitted, counters reset.
  registry.on_success(0, /*was_probe=*/true, 1500, t0);
  snaps = registry.snapshot(t0);
  EXPECT_EQ(snaps[0].state, PeerState::kClosed);
  EXPECT_EQ(snaps[0].consecutive_failures, 0);
  EXPECT_EQ(snaps[0].last_latency_us, 1500);
  EXPECT_EQ(snaps[0].last_error, "");
  EXPECT_EQ(registry.admit(0, t0), Admit::kSend);
}

TEST_F(PeerHealthTest, FailedProbeRequestReopensOneBackoffStepLater) {
  PeerHealthOptions opts;
  opts.failure_threshold = 1;
  opts.probe_interval_ms = 100;
  PeerHealthRegistry registry({"127.0.0.1:9"}, opts);
  const Clock::time_point t0 = Clock::now();

  registry.on_failure(0, false, "dead", t0);           // open (round 0: 100)
  registry.record_probe_result(0, true, "", t0);       // half-open
  EXPECT_EQ(registry.admit(0, t0), Admit::kProbe);
  registry.on_failure(0, /*was_probe=*/true, "dead again", t0);

  // Re-opened, and the next background probe waits the round-1 step.
  std::vector<PeerHealthSnapshot> snaps = registry.snapshot(t0);
  EXPECT_EQ(snaps[0].state, PeerState::kOpen);
  EXPECT_EQ(snaps[0].breaker_opens, 2);
  EXPECT_EQ(snaps[0].next_probe_in_ms, 200);
  // The probe ticket was released: once half-open again, a new probe admits.
  registry.record_probe_result(0, true, "", t0);
  EXPECT_EQ(registry.admit(0, t0), Admit::kProbe);
}

TEST_F(PeerHealthTest, FailedBackgroundProbesBackOffExponentially) {
  PeerHealthOptions opts;
  opts.failure_threshold = 1;
  opts.probe_interval_ms = 100;
  PeerHealthRegistry registry({"127.0.0.1:9"}, opts);
  const Clock::time_point t0 = Clock::now();

  registry.on_failure(0, false, "dead", t0);
  EXPECT_EQ(registry.snapshot(t0)[0].next_probe_in_ms, 100);
  const std::int64_t expected[] = {200, 400, 800, 1600, 1600, 1600};
  for (const std::int64_t next : expected) {
    registry.record_probe_result(0, false, "still dead", t0);
    EXPECT_EQ(registry.snapshot(t0)[0].next_probe_in_ms, next);
    EXPECT_EQ(registry.snapshot(t0)[0].state, PeerState::kOpen);
  }
}

TEST_F(PeerHealthTest, LateLosersNeverReopenABreakerTheyDoNotOwn) {
  PeerHealthOptions opts;
  opts.failure_threshold = 2;
  opts.probe_interval_ms = 100;
  PeerHealthRegistry registry({"127.0.0.1:9"}, opts);
  const Clock::time_point t0 = Clock::now();

  registry.on_failure(0, false, "a", t0);
  registry.on_failure(0, false, "b", t0);  // open
  ASSERT_EQ(registry.snapshot(t0)[0].state, PeerState::kOpen);

  // A hedge loser failing after the breaker already opened only refreshes
  // the error text — no double-open, no schedule change.
  registry.on_failure(0, false, "late loser", t0);
  std::vector<PeerHealthSnapshot> snaps = registry.snapshot(t0);
  EXPECT_EQ(snaps[0].state, PeerState::kOpen);
  EXPECT_EQ(snaps[0].breaker_opens, 1);
  EXPECT_EQ(snaps[0].last_error, "late loser");

  // But a late *success* (the peer answered after all) re-admits instantly:
  // the breaker exists to predict failure, and a success refutes it.
  registry.on_success(0, false, 900, t0);
  EXPECT_EQ(registry.snapshot(t0)[0].state, PeerState::kClosed);
}

// ---------------------------------------------------------------------------
// Real probes: ping over TCP, the shard.probe fault site, probe_due_peers.

TEST_F(PeerHealthTest, ProbePingAgainstLiveAndDeadPeers) {
  WorkerDaemon worker;
  std::string error;
  EXPECT_TRUE(probe_peer_ping(worker.peer(), 2000, &error)) << error;

  // A dead port refuses; the probe fails with a nonempty reason.
  WorkerDaemon doomed;
  const std::string dead = doomed.peer();
  doomed.stop();
  error.clear();
  EXPECT_FALSE(probe_peer_ping(dead, 2000, &error));
  EXPECT_FALSE(error.empty());
}

TEST_F(PeerHealthTest, ShardProbeFaultSiteFailsProbesOfEveryKind) {
  WorkerDaemon worker;
  for (const fault::ErrorKind kind :
       {fault::ErrorKind::kError, fault::ErrorKind::kCorrupt,
        fault::ErrorKind::kStall}) {
    fault::FaultSpec spec;
    spec.kind = kind;
    spec.after = 1;
    spec.count = 1;
    fault::arm(fault::kSiteShardProbe, spec);
    std::string error;
    EXPECT_FALSE(probe_peer_ping(worker.peer(), 2000, &error))
        << fault::kind_name(kind);
    EXPECT_FALSE(error.empty()) << fault::kind_name(kind);
    fault::disarm_all();
    // The site is disarmed again: the same probe succeeds.
    EXPECT_TRUE(probe_peer_ping(worker.peer(), 2000, &error)) << error;
  }
}

TEST_F(PeerHealthTest, ProbeDuePeersPingsOnlyDueOpenPeers) {
  WorkerDaemon worker;
  PeerHealthOptions opts;
  opts.failure_threshold = 1;
  opts.probe_interval_ms = 100;
  opts.probe_timeout_ms = 2000;
  // Prober not started: the test drives probe_due_peers directly.
  PeerHealthRegistry registry({worker.peer()}, opts);
  const Clock::time_point t0 = Clock::now();
  const std::int64_t probes_before = probes_total().value();

  // Closed peers are never probed.
  EXPECT_EQ(registry.probe_due_peers(t0 + std::chrono::hours(1)), 0);

  registry.on_failure(0, false, "flap", t0);
  ASSERT_EQ(registry.snapshot(t0)[0].state, PeerState::kOpen);
  // Not due yet at t0; due one interval later.
  EXPECT_EQ(registry.probe_due_peers(t0), 0);
  EXPECT_EQ(registry.probe_due_peers(t0 + std::chrono::milliseconds(100)), 1);

  // The worker is alive, so the ping moved the peer to half-open — and a
  // half-open peer is no longer probed by the background pass.
  std::vector<PeerHealthSnapshot> snaps = registry.snapshot(t0);
  EXPECT_EQ(snaps[0].state, PeerState::kHalfOpen);
  EXPECT_EQ(snaps[0].probes, 1);
  EXPECT_GE(snaps[0].last_probe_age_ms, 0);
  EXPECT_EQ(probes_total().value() - probes_before, 1);
  EXPECT_EQ(registry.probe_due_peers(t0 + std::chrono::hours(1)), 0);
}

// ---------------------------------------------------------------------------
// Coordinator integration: breaker skips, re-admission, hedging — all
// byte-identical to single-node.

TEST_F(PeerHealthTest, OpenBreakerSkipsTheConnectAndStaysByteIdentical) {
  WorkerDaemon alive;
  WorkerDaemon doomed;
  ServeOptions options;
  options.shard_peers = {alive.peer(), doomed.peer()};
  options.shard_failure_threshold = 1;
  options.shard_probe_interval_ms = 0;  // no prober: open stays open
  doomed.stop();

  const std::string block = request_block(kGoogLeNetReduce, 2);
  SynthServer reference({});
  const std::string expected = reference.handle(block);

  SynthServer coordinator(options);
  // First request pays the dead peer's connect failure once and opens its
  // breaker (threshold 1).
  EXPECT_EQ(coordinator.handle(block), expected);
  EXPECT_EQ(health_field(coordinator.health_text(), 1, "state"), "open");
  EXPECT_EQ(health_field(coordinator.health_text(), 0, "state"), "closed");

  // From now on the dead peer's range skips the connect entirely: the RPC
  // counter moves by exactly one per request (the alive peer), and the
  // bytes never change. Distinct layers keep the DesignCache out of the way.
  // Layers distinct from the warm-up request, so the coordinator's
  // DesignCache cannot answer them without a fan-out.
  for (int i = 0; i < 3; ++i) {
    const std::string layer = strformat("192,96,%d,%d,1", 29 + i, 29 + i);
    const std::string varied = request_block(layer, 2);
    SynthServer ref({});
    const std::int64_t requests_before = requests_total().value();
    const std::int64_t degraded_before = degraded_total().value();
    EXPECT_EQ(coordinator.handle(varied), ref.handle(varied));
    EXPECT_EQ(requests_total().value() - requests_before, 1);
    EXPECT_GE(degraded_total().value() - degraded_before, 1);
  }
}

TEST_F(PeerHealthTest, RestartedPeerIsReAdmittedByTheProber) {
  WorkerDaemon alive;
  auto flappy = std::make_unique<WorkerDaemon>();
  const int flappy_port = flappy->port();
  const std::string flappy_peer = flappy->peer();

  ServeOptions options;
  options.shard_peers = {alive.peer(), flappy_peer};
  options.shard_failure_threshold = 1;
  options.shard_probe_interval_ms = 50;
  options.cache_enabled = false;
  SynthServer coordinator(options);

  const std::string block = request_block(kGoogLeNetReduce, 2);
  SynthServer reference({});
  const std::string expected = reference.handle(block);

  // Healthy fleet first: both peers closed.
  EXPECT_EQ(coordinator.handle(block), expected);
  EXPECT_EQ(health_field(coordinator.health_text(), 1, "state"), "closed");

  // Kill the peer; the next request opens its breaker (threshold 1) and
  // still answers byte-identically.
  flappy->stop();
  flappy.reset();
  EXPECT_EQ(coordinator.handle(block), expected);
  EXPECT_EQ(health_field(coordinator.health_text(), 1, "state"), "open");

  // Restart on the same port: the background prober (50 ms cadence) must
  // move it to half-open without any request traffic.
  auto restarted = std::make_unique<WorkerDaemon>(ServeOptions{}, flappy_port);
  ASSERT_EQ(restarted->port(), flappy_port);
  std::string state;
  for (int i = 0; i < 400; ++i) {  // <= 20 s, TSan-safe bound
    state = health_field(coordinator.health_text(), 1, "state");
    if (state == "half_open") break;
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  EXPECT_EQ(state, "half_open");

  // The next request carries the single-flight probe; success re-admits.
  EXPECT_EQ(coordinator.handle(block), expected);
  EXPECT_EQ(health_field(coordinator.health_text(), 1, "state"), "closed");
  // And the re-admitted peer serves real RPC traffic again: with both peers
  // closed, one request moves the RPC counter by two.
  const std::string varied = request_block("192,96,30,30,1", 2);
  SynthServer ref({});
  const std::int64_t requests_before = requests_total().value();
  EXPECT_EQ(coordinator.handle(varied), ref.handle(varied));
  EXPECT_EQ(requests_total().value() - requests_before, 2);
}

TEST_F(PeerHealthTest, SlowPeerIsHedgedByLocalReExecution) {
  WorkerDaemon alive;
  SilentPeer silent;  // connects fine, never answers

  ServeOptions options;
  options.shard_peers = {alive.peer(), silent.peer()};
  options.shard_io_timeout_ms = 2000;  // the RPC would block this long
  options.shard_hedge_ms = 100;        // ...but the hedge fires at 100 ms
  options.cache_enabled = false;
  SynthServer coordinator(options);

  const std::string block = request_block(kGoogLeNetReduce, 2);
  SynthServer reference({});
  const std::string expected = reference.handle(block);

  const std::int64_t hedges_before = hedges_total().value();
  const std::int64_t wins_before = hedge_wins_total().value();
  const auto start = std::chrono::steady_clock::now();
  EXPECT_EQ(coordinator.handle(block), expected);
  const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
      std::chrono::steady_clock::now() - start);

  EXPECT_GE(hedges_total().value() - hedges_before, 1);
  EXPECT_GE(hedge_wins_total().value() - wins_before, 1);
  // The request must NOT have waited out the silent peer's full io timeout:
  // the hedge converted a 2 s stall into ~a hedge delay plus local work.
  EXPECT_LT(elapsed.count(), 1900) << "hedge did not preempt the stall";
}

}  // namespace
}  // namespace sasynth
