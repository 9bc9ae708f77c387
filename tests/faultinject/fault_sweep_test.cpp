// The fault sweep: every injection point crossed with every error kind,
// driven through real TCP sessions on the event-loop transport sasynthd
// serves with, against a disk-backed server.
//
// The contract under test (ISSUE: failure-path hardening):
//   * no crash, no hang, for any (site, kind);
//   * benign kinds (EINTR, short read/write) are invisible — the transcript
//     is byte-identical to the clean reference;
//   * recoverable faults (cache disk errors, transient accept failures)
//     degrade silently: the transcript stays byte-identical and
//     `degraded_total` counts the fallback;
//   * surfaced faults (admission failure, task failure) yield a clean
//     retry/error response and the session keeps serving;
//   * fatal transport faults end the session cleanly (no partial request is
//     ever parsed);
//   * after disarming, a fresh server over the same cache produces a
//     byte-identical transcript (retries are deterministic).
#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <string>
#include <vector>

#include "faultinject/faultinject.h"
#include "obs/metrics.h"
#include "serve/server.h"
#include "support/loop_harness.h"
#include "support/metric_deltas.h"

namespace sasynth {
namespace {

const char* kRequestA =
    "sasynth-request v1\n"
    "layer 16,16,8,8,3\n"
    "device tiny\n"
    "option min_util 0.5\n"
    "end\n";
const char* kRequestB =
    "sasynth-request v1\n"
    "layer 8,16,4,4,3\n"
    "device tiny\n"
    "option min_util 0.5\n"
    "end\n";
/// Exercises the deploy sites (deploy.select fires at selection entry,
/// deploy.plan on the first per-layer fold of the latency matrix).
const char* kDeployRequest =
    "sasynth-deploy v1\n"
    "network tiny\n"
    "fleet 1\n"
    "device tiny\n"
    "option min_util 0.5\n"
    "end\n";

class FaultSweepTest : public ::testing::Test {
 protected:
  void SetUp() override {
    fault::disarm_all();
    obs::set_metrics_enabled(true);
  }
  void TearDown() override { fault::disarm_all(); }

  /// One cache directory shared by every sweep iteration: responses are
  /// derived deterministically from (request, design), so it does not matter
  /// whether a particular run got its design from memory, disk, or a fresh
  /// DSE — the bytes on the wire are identical. Sharing the warm directory
  /// keeps the 48-iteration sweep fast.
  static std::string shared_cache_dir() {
    static const std::string dir = [] {
      // Per-pid: ctest runs each test case as its own process, possibly in
      // parallel, and two processes sweeping one directory race remove_all
      // against each other's stores.
      const std::filesystem::path p =
          std::filesystem::path(::testing::TempDir()) /
          ("sasynth_fault_sweep_" + std::to_string(::getpid()));
      std::filesystem::remove_all(p);
      return p.string();
    }();
    return dir;
  }

  /// remove_all that tolerates entries vanishing underneath it.
  static void reset_cache_dir() {
    std::error_code ec;
    std::filesystem::remove_all(shared_cache_dir(), ec);
  }

  static ServeOptions sweep_options() {
    ServeOptions options;
    options.jobs = 1;
    options.cache_dir = shared_cache_dir();
    // Capacity 1 forces an eviction on the second distinct request, so the
    // cache.evict site actually fires during the sweep.
    options.cache_capacity = 1;
    return options;
  }

  /// A session that exercises every serve-side site: a command (ping), a
  /// disk-warm request, a second request (evicts + stores), a repeat of
  /// the first (reloads from disk after the eviction), and a deploy
  /// request (fleet selection; crosses deploy.select and deploy.plan).
  static std::string session_script() {
    return std::string("ping\n") + kRequestA + kRequestB + kRequestA +
           kDeployRequest + "shutdown\n";
  }

  /// Runs one full TCP client/server session on an event loop and returns
  /// what the client received. Joins everything: if this returns, nothing
  /// hung. A session a fault ended never reaches its `shutdown`, so the
  /// loop is stopped from outside (a no-op drain otherwise).
  static std::string run_tcp_session(SynthServer& server) {
    LoopRunner runner(server);
    const std::string transcript = run_client(runner.port(), session_script());
    EXPECT_EQ(runner.stop(), 0);
    return transcript;
  }

  /// The clean-run transcript (computed once; also warms the shared cache
  /// directory so later iterations skip most DSE work).
  static const std::string& reference() {
    static const std::string ref = [] {
      SynthServer server(sweep_options());
      return run_tcp_session(server);
    }();
    return ref;
  }
};

/// How a (site, kind) pair is expected to surface.
enum class Outcome {
  kInvisible,   ///< transcript byte-identical, no degradation recorded
  kDegraded,    ///< transcript byte-identical, degraded_total incremented
  kSurfaced,    ///< clean retry/error response; session keeps serving
  kSessionEnd,  ///< transport gone: session ends cleanly, nothing parsed
};

Outcome expected_outcome(const std::string& site, fault::ErrorKind kind) {
  const bool benign = kind == fault::ErrorKind::kEintr ||
                      kind == fault::ErrorKind::kShortRead;
  if (site == fault::kSiteTcpRead || site == fault::kSiteTcpWrite) {
    // The sweep sessions run without an I/O timeout, so a stall is a brief
    // real delay and then the call proceeds — invisible. The timed flavor
    // (stall == elapsed timeout, session ends) is covered separately below.
    if (kind == fault::ErrorKind::kStall) return Outcome::kInvisible;
    return benign ? Outcome::kInvisible : Outcome::kSessionEnd;
  }
  if (site == fault::kSiteSchedAdmit) return Outcome::kSurfaced;
  if (site == fault::kSitePoolTask) return Outcome::kSurfaced;
  // Deploy faults abort that one request (clean `internal error` response);
  // the session and every other request keep working.
  if (site == fault::kSiteDeployPlan || site == fault::kSiteDeploySelect) {
    return Outcome::kSurfaced;
  }
  // tcp.accept treats every kind as a transient accept failure; loop.poll
  // loses one wait tick and loop.wakeup one wakeup, recovered by the
  // <= 250 ms wait tick; cache sites always fall back (fresh DSE / skip
  // persist / drop memory tier).
  return Outcome::kDegraded;
}

TEST_F(FaultSweepTest, EverySiteTimesEveryKindDegradesGracefully) {
  const std::string& ref = reference();
  ASSERT_NE(ref.find("sasynth-pong v1"), std::string::npos) << ref;
  ASSERT_NE(ref.find("sasynth-response v1 ok"), std::string::npos) << ref;
  ASSERT_NE(ref.find("sasynth-bye v1"), std::string::npos) << ref;

  const fault::ErrorKind kinds[] = {
      fault::ErrorKind::kShortRead, fault::ErrorKind::kEintr,
      fault::ErrorKind::kEpipe,     fault::ErrorKind::kEnospc,
      fault::ErrorKind::kCorrupt,   fault::ErrorKind::kError,
      fault::ErrorKind::kStall,
  };

  for (const std::string& site_name : fault::known_sites()) {
    // The shard.* sites only exist on a coordinator's peer RPCs, and this
    // sweep runs no fleet; serve/shard_test.cpp sweeps them against a real
    // worker fleet.
    if (site_name.rfind("shard.", 0) == 0) continue;
    for (const fault::ErrorKind kind : kinds) {
      SCOPED_TRACE(site_name + ":" + fault::kind_name(kind));
      fault::disarm_all();

      // Reset the disk tier to "request A only" so every cache site has
      // work each iteration: A loads from disk (cache.load), B is cold and
      // must be explored + stored (cache.store), and capacity 1 forces an
      // eviction when B lands (cache.evict).
      reset_cache_dir();
      {
        SynthServer prewarm(sweep_options());
        prewarm.handle(kRequestA);
      }

      fault::FaultSpec spec;
      spec.kind = kind;
      spec.after = 1;
      spec.count = 1;
      fault::arm(site_name, spec);

      const MetricDeltas delta;
      SynthServer server(sweep_options());
      const std::string transcript = run_tcp_session(server);
      const std::int64_t degraded = delta("degraded_total");
      const std::int64_t injected = fault::injected_total();

      // Every request block is counted exactly once, with exactly one
      // verdict — whichever site faulted (the script sends no malformed
      // commands, whose errors carry no request).
      server.scheduler().drain();
      EXPECT_EQ(delta("serve_requests_total"),
                delta("serve_ok_total") + delta("serve_errors_total") +
                    delta("serve_timeouts_total") +
                    delta("serve_rejected_total"));

      switch (expected_outcome(site_name, kind)) {
        case Outcome::kInvisible:
          EXPECT_GT(injected, 0);
          EXPECT_EQ(transcript, ref);
          break;
        case Outcome::kDegraded:
          EXPECT_GT(injected, 0);
          EXPECT_EQ(transcript, ref);
          EXPECT_GT(degraded, 0);
          break;
        case Outcome::kSurfaced:
          EXPECT_GT(injected, 0);
          EXPECT_GT(degraded, 0);
          // The faulted request gets a clean protocol response...
          if (site_name == fault::kSiteSchedAdmit) {
            EXPECT_NE(transcript.find("sasynth-response v1 retry"),
                      std::string::npos)
                << transcript;
          } else {
            EXPECT_NE(transcript.find("internal error"), std::string::npos)
                << transcript;
          }
          // ...and the session keeps serving: later requests succeed and
          // the shutdown handshake completes.
          EXPECT_NE(transcript.find("sasynth-response v1 ok"),
                    std::string::npos)
              << transcript;
          EXPECT_NE(transcript.find("sasynth-bye v1"), std::string::npos)
              << transcript;
          break;
        case Outcome::kSessionEnd:
          EXPECT_GT(injected, 0);
          EXPECT_GT(degraded, 0);
          // The very first read/write failed, so the client saw nothing —
          // crucially, no partial or garbage response.
          EXPECT_TRUE(transcript.empty()) << transcript;
          break;
      }

      // Retry determinism: disarm and replay the identical stream against a
      // fresh server over the same cache directory — byte-identical.
      fault::disarm_all();
      SynthServer retry_server(sweep_options());
      EXPECT_EQ(run_tcp_session(retry_server), ref);
    }
  }
}

/// The tcp.accept site rides out a whole burst of transient failures, not
/// just one: the listener must keep retrying until the kernel hands it the
/// parked connection.
TEST_F(FaultSweepTest, AcceptSurvivesATransientErrorBurst) {
  const std::string& ref = reference();  // computed before arming
  fault::FaultSpec spec;
  spec.kind = fault::ErrorKind::kError;
  spec.after = 1;
  spec.count = 3;  // three consecutive failed accepts, then the real one
  fault::arm(fault::kSiteTcpAccept, spec);

  SynthServer server(sweep_options());
  const std::string transcript = run_tcp_session(server);
  EXPECT_EQ(fault::site(fault::kSiteTcpAccept).injected(), 3);
  EXPECT_EQ(transcript, ref);
}

/// EINTR storms on the transport are fully absorbed: a long run of
/// interrupted reads/writes never surfaces in the transcript.
TEST_F(FaultSweepTest, EintrStormIsInvisible) {
  const std::string& ref = reference();  // computed before arming
  std::string error;
  ASSERT_TRUE(
      fault::parse_and_arm("tcp.read:eintr@1x20,tcp.write:eintr@2x20", &error))
      << error;
  SynthServer server(sweep_options());
  EXPECT_EQ(run_tcp_session(server), ref);
  EXPECT_GE(fault::injected_total(), 40);
}

/// With an I/O timeout configured, a stalled peer is modeled as the timer
/// having elapsed: the session ends cleanly before anything is parsed, the
/// degradation is recorded, and io_timeouts_total counts the firing.
TEST_F(FaultSweepTest, StallWithIoTimeoutEndsTheSession) {
  const std::string& ref = reference();  // computed before arming
  fault::FaultSpec spec;
  spec.kind = fault::ErrorKind::kStall;
  spec.after = 1;
  spec.count = 1;
  fault::arm(fault::kSiteTcpRead, spec);

  const MetricDeltas delta;
  ServeOptions options = sweep_options();
  options.io_timeout_ms = 30000;  // never actually waited: stall == elapsed
  SynthServer server(options);
  const std::string transcript = run_tcp_session(server);
  // First read stalled out, so the client saw nothing — and no partial
  // request was ever parsed.
  EXPECT_TRUE(transcript.empty()) << transcript;
  EXPECT_EQ(fault::site(fault::kSiteTcpRead).injected(), 1);
  EXPECT_EQ(delta("io_timeouts_total"), 1);
  EXPECT_GT(delta("degraded_total"), 0);

  // Disarmed replay over the same cache: byte-identical to the reference.
  fault::disarm_all();
  SynthServer retry_server(sweep_options());
  EXPECT_EQ(run_tcp_session(retry_server), ref);
}

/// A cache directory that fails on every disk operation still serves every
/// request correctly — the server just re-runs the DSE each time.
TEST_F(FaultSweepTest, AllDiskFaultsFallBackToFreshDse) {
  const std::string& ref = reference();  // computed before arming
  std::string error;
  ASSERT_TRUE(fault::parse_and_arm(
                  "cache.load:error@1x*,cache.store:enospc@1x*", &error))
      << error;
  const MetricDeltas delta;
  SynthServer server(sweep_options());
  EXPECT_EQ(run_tcp_session(server), ref);
  EXPECT_GT(delta("serve_dse_runs_total"), 0);
}

}  // namespace
}  // namespace sasynth
