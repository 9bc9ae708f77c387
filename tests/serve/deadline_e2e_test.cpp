// End-to-end deadline behavior of the synthesis service: timeout verdicts
// with deterministic partial payloads, cache hygiene (a partial sweep is
// never stored) and the health probe — all over the same real code paths
// sasynthd uses, including the event-loop TCP transport for the
// acceptance-style latency test. (The transport-level slow-loris guard is
// pinned in event_loop_test.cpp.)
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <string>

#include "core/dse.h"
#include "loopnest/conv_nest.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "support/loop_harness.h"
#include "support/metric_deltas.h"
#include "util/deadline.h"
#include "util/strings.h"

namespace sasynth {
namespace {

// Sanitizer builds run the DSE and the models an order of magnitude slower,
// so the "response within deadline + slack" bound gets a wider (but still
// finite) allowance there.
#if defined(__SANITIZE_THREAD__) || defined(__SANITIZE_ADDRESS__)
constexpr std::int64_t kLatencySlackMs = 2000;
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer) || __has_feature(address_sanitizer)
constexpr std::int64_t kLatencySlackMs = 2000;
#else
constexpr std::int64_t kLatencySlackMs = 50;
#endif
#else
constexpr std::int64_t kLatencySlackMs = 50;
#endif

constexpr const char* kTinyBlock =
    "sasynth-request v1\n"
    "layer 16,16,8,8,3\n"
    "device tiny\n"
    "option min_util 0.5\n"
    "end\n";

/// Reads until one full response block ("...\nend\n") has arrived.
std::string read_one_block(int fd) {
  std::string out;
  char chunk[4096];
  while (out.find("\nend\n") == std::string::npos &&
         !(out.size() >= 5 && out.compare(out.size() - 5, 5, "end\n") == 0)) {
    const ssize_t n = ::read(fd, chunk, sizeof(chunk));
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      break;
    }
    out.append(chunk, static_cast<std::size_t>(n));
  }
  return out;
}

TEST(HandleDeadlineTest, TimeoutResponseIsNeverCached) {
  const MetricDeltas delta;
  ServeOptions options;
  options.jobs = 1;
  SynthServer server(options);

  // An already-fired token: the DSE is entered, cancels on item 0, and the
  // result is a payload-free timeout.
  const std::string timeout_response = server.handle(
      kTinyBlock, CancelToken::with_deadline(Deadline::after_ms(0)));
  EXPECT_TRUE(starts_with(timeout_response, "sasynth-response v1 timeout"))
      << timeout_response;
  EXPECT_EQ(delta("serve_timeouts_total"), 1);
  EXPECT_EQ(delta("serve_dse_runs_total"), 1);

  // The same request without a deadline must re-run the DSE (dse_runs goes
  // up): the cancelled sweep was not stored into the cache.
  const std::string full_response = server.handle(kTinyBlock);
  EXPECT_TRUE(starts_with(full_response, "sasynth-response v1 ok"))
      << full_response;
  EXPECT_EQ(delta("serve_dse_runs_total"), 2);

  // And the full run *was* cached: a third request is a hit.
  const std::string cached_response = server.handle(kTinyBlock);
  EXPECT_EQ(cached_response, full_response);
  EXPECT_EQ(delta("serve_dse_runs_total"), 2);
}

TEST(HandleDeadlineTest, CutTimeoutCarriesDeterministicPartialPayload) {
  // Place a deterministic cut strictly inside the sweep, then check the
  // timed-out response is byte-identical at dse jobs=1 and jobs=4.
  const ParsedRequest parsed = parse_request_block(kTinyBlock);
  ASSERT_TRUE(parsed.ok) << parsed.error;
  const LoopNest nest = build_conv_nest(parsed.request.layer);
  DseStats stats;
  const DesignSpaceExplorer explorer(parsed.request.device,
                                     parsed.request.dtype, parsed.request.dse);
  explorer.enumerate_phase1(nest, &stats);
  ASSERT_GT(stats.work_items, 2);
  const std::int64_t cut = stats.work_items / 2;

  auto run = [&](const char* extra_option) {
    std::string block = kTinyBlock;
    const std::size_t end_at = block.rfind("end\n");
    block.insert(end_at, extra_option);
    ServeOptions options;
    options.jobs = 1;
    options.cache_enabled = false;
    const MetricDeltas delta;
    SynthServer server(options);
    CancelToken token = CancelToken::cancellable();
    token.set_cut_at_item(cut);
    const std::string response = server.handle(block, token);
    EXPECT_EQ(delta("serve_timeouts_total"), 1);
    return response;
  };

  const std::string serial = run("");
  const std::string parallel = run("option jobs 4\n");
  EXPECT_TRUE(starts_with(serial, "sasynth-response v1 timeout")) << serial;
  // The partial payload is a full, valid design block.
  EXPECT_NE(serial.find("sasynth-design v1"), std::string::npos) << serial;
  EXPECT_NE(serial.find("perf freq_mhz="), std::string::npos) << serial;
  EXPECT_EQ(serial, parallel);
}

TEST(ServerHealthTest, HealthReportsStateWithoutDraining) {
  ServeOptions options;
  options.jobs = 1;
  SynthServer server(options);
  const std::string healthy = server.health_text();
  EXPECT_NE(healthy.find("sasynth-health v1"), std::string::npos);
  EXPECT_NE(healthy.find("status ok"), std::string::npos);
  EXPECT_NE(healthy.find("queue_limit 64"), std::string::npos);
  EXPECT_NE(healthy.find("shedding 0"), std::string::npos);

  server.begin_drain();
  EXPECT_TRUE(server.draining());
  EXPECT_NE(server.health_text().find("status draining"), std::string::npos);
}

TEST(ServerHealthTest, HealthCommandAnsweredInSession) {
  const MetricDeltas delta;
  ServeOptions options;
  options.jobs = 1;
  SynthServer server(options);
  const std::string transcript = run_session(server, "health\n");
  EXPECT_NE(transcript.find("sasynth-health v1"), std::string::npos)
      << transcript;
  EXPECT_NE(transcript.find("uptime_s "), std::string::npos);
  EXPECT_EQ(delta("serve_commands_total"), 1);
}

TEST(ServerDeadlineTest, ZeroDeadlineShedsAtAdmission) {
  const MetricDeltas delta;
  ServeOptions options;
  options.jobs = 1;
  SynthServer server(options);
  const std::string transcript = run_session(
      server,
      "sasynth-request v1\nlayer 16,16,8,8,3\ndevice tiny\n"
      "deadline_ms 0\nend\n");
  EXPECT_EQ(transcript,
            "sasynth-response v1 timeout deadline expired before admission\n"
            "end\n");
  EXPECT_EQ(delta("serve_rejected_expired_total"), 1);
  EXPECT_EQ(delta("serve_timeouts_total"), 1);
  // Shed at admission: the DSE never ran.
  EXPECT_EQ(delta("serve_dse_runs_total"), 0);
}

TEST(TcpDeadlineTest, ColdRequestTimesOutWithinBudgetOverTcp) {
  // The acceptance scenario: a deadline far below the cold-DSE time must
  // come back as `timeout` with a valid partial design, within
  // deadline + slack, over a real socket.
  constexpr std::int64_t kDeadlineMs = 500;
  const MetricDeltas delta;
  ServeOptions options;
  options.jobs = 4;
  options.cache_enabled = false;
  SynthServer server(options);
  LoopRunner runner(server);

  const int client = connect_loopback(runner.port());
  ASSERT_GE(client, 0);
  // bound_prune and pow2_middle off: the branch-and-bound sweep, and even
  // the exhaustive sweep over power-of-two middle bounds, finish this layer
  // inside 500 ms, and the scenario needs a cold DSE that cannot (the
  // all-integer exhaustive sweep takes ~2.6 s at 4 jobs on a 4-vCPU host).
  const std::string request =
      "sasynth-request v1\n"
      "layer 48,128,13,13,3\n"
      "option bound_prune 0\n"
      "option pow2_middle 0\n"
      "deadline_ms 500\n"
      "end\n";
  const auto sent_at = std::chrono::steady_clock::now();
  ASSERT_TRUE(client_send_all(client, request));
  const std::string response = read_one_block(client);
  const std::int64_t elapsed_ms =
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now() - sent_at)
          .count();

  ASSERT_TRUE(client_send_all(client, "shutdown\n"));
  read_to_eof(client);
  ::close(client);
  EXPECT_EQ(runner.join(), 0);  // the session's shutdown ends the loop

  EXPECT_TRUE(starts_with(response, "sasynth-response v1 timeout"))
      << response;
  // Enough of the sweep ran inside 500 ms to have a best-so-far design.
  EXPECT_NE(response.find("sasynth-design v1"), std::string::npos) << response;
  EXPECT_NE(response.find("resource dsp="), std::string::npos) << response;
  EXPECT_LT(elapsed_ms, kDeadlineMs + kLatencySlackMs);
  EXPECT_EQ(delta("serve_timeouts_total"), 1);
}

TEST(TcpDeadlineTest, NoDeadlineResponseByteIdenticalAcrossJobs) {
  // The control arm: without a deadline the same request completes with the
  // full response, identical at every worker count.
  auto run = [](int jobs) {
    ServeOptions options;
    options.jobs = jobs;
    options.cache_enabled = false;
    SynthServer server(options);
    LoopRunner runner(server);
    const std::string script =
        "sasynth-request v1\n"
        "layer 48,128,13,13,3\n"
        "option jobs " + std::to_string(jobs) + "\n"
        "end\n"
        "shutdown\n";
    const std::string transcript = run_client(runner.port(), script);
    EXPECT_EQ(runner.join(), 0);
    // First block only (the bye block follows).
    const std::size_t end_at = transcript.find("\nend\n");
    EXPECT_NE(end_at, std::string::npos) << transcript;
    return transcript.substr(0, end_at + 5);
  };

  const std::string serial = run(1);
  const std::string parallel = run(4);
  EXPECT_TRUE(starts_with(serial, "sasynth-response v1 ok")) << serial;
  EXPECT_EQ(serial, parallel);
}

}  // namespace
}  // namespace sasynth
