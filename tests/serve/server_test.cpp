#include "serve/server.h"

#include <gtest/gtest.h>

#include <condition_variable>
#include <cstdint>
#include <filesystem>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "util/strings.h"

namespace sasynth {
namespace {

// Small layer on the tiny device: a fresh DSE takes well under a second, a
// cache hit is instant.
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

ServeOptions memory_options(int jobs = 1) {
  ServeOptions options;
  options.jobs = jobs;
  options.cache_capacity = 16;
  return options;
}

std::string cache_dir(const char* tag) {
  const std::filesystem::path dir =
      std::filesystem::path(::testing::TempDir()) /
      (std::string("sasynth_server_") + tag);
  std::filesystem::remove_all(dir);
  return dir.string();
}

/// Runs one session over a canned line stream; returns every response
/// concatenated in emit order.
std::string run_session(SynthServer& server, const std::string& input) {
  std::vector<std::string> lines = split(input, '\n');
  std::size_t i = 0;
  std::string transcript;
  std::mutex mutex;  // writer thread vs. test thread
  server.serve(
      [&](std::string* line) {
        if (i >= lines.size()) return false;
        *line = lines[i++];
        return true;
      },
      [&](const std::string& response) {
        std::lock_guard<std::mutex> lock(mutex);
        transcript += response;
      });
  return transcript;
}

TEST(SynthServerTest, MalformedRequestGetsErrorResponse) {
  SynthServer server(memory_options());
  const std::string response =
      server.handle("sasynth-request v1\nlayer 1,2\nend\n");
  EXPECT_TRUE(starts_with(response, "sasynth-response v1 error"));
  EXPECT_EQ(server.counters().requests.load(), 1);
  EXPECT_EQ(server.counters().errors.load(), 1);
  EXPECT_EQ(server.counters().dse_runs.load(), 0);
}

TEST(SynthServerTest, CachedResponseIsByteIdenticalAndSkipsTheDse) {
  SynthServer server(memory_options());
  const std::string cold = server.handle(kRequestA);
  ASSERT_TRUE(starts_with(cold, "sasynth-response v1 ok")) << cold;
  EXPECT_EQ(server.counters().dse_runs.load(), 1);
  const std::int64_t cold_work = server.counters().dse_work_items.load();
  EXPECT_GT(cold_work, 0);

  const std::string warm = server.handle(kRequestA);
  EXPECT_EQ(warm, cold);  // byte-identical, though it came from the cache
  // The warm request never re-entered the exploration.
  EXPECT_EQ(server.counters().dse_runs.load(), 1);
  EXPECT_EQ(server.counters().dse_work_items.load(), cold_work);
  EXPECT_EQ(server.cache().stats().hits, 1);
}

TEST(SynthServerTest, DisabledCacheStillYieldsIdenticalResponses) {
  ServeOptions options = memory_options();
  options.cache_enabled = false;
  SynthServer server(options);
  const std::string first = server.handle(kRequestA);
  const std::string second = server.handle(kRequestA);
  EXPECT_EQ(first, second);
  EXPECT_EQ(server.counters().dse_runs.load(), 2);  // no memoization
}

TEST(SynthServerTest, DiskCacheWarmsAcrossServerInstances) {
  const std::string dir = cache_dir("across");
  ServeOptions options = memory_options();
  options.cache_dir = dir;

  std::string cold;
  {
    SynthServer server(options);
    cold = server.handle(kRequestA);
    EXPECT_EQ(server.counters().dse_runs.load(), 1);
  }
  SynthServer warm_server(options);
  const std::string warm = warm_server.handle(kRequestA);
  EXPECT_EQ(warm, cold);
  EXPECT_EQ(warm_server.counters().dse_runs.load(), 0);
  EXPECT_EQ(warm_server.counters().dse_work_items.load(), 0);
  EXPECT_EQ(warm_server.cache().stats().disk_hits, 1);
}

TEST(SynthServerTest, SessionCommandsAndOrdering) {
  SynthServer server(memory_options());
  const std::string transcript =
      run_session(server, std::string("ping\n") + kRequestA + "bogus\n");
  // Responses come back in request order regardless of completion order.
  const std::size_t pong = transcript.find("sasynth-pong v1");
  const std::size_t ok = transcript.find("sasynth-response v1 ok");
  const std::size_t error = transcript.find("sasynth-response v1 error");
  ASSERT_NE(pong, std::string::npos) << transcript;
  ASSERT_NE(ok, std::string::npos) << transcript;
  ASSERT_NE(error, std::string::npos) << transcript;
  EXPECT_LT(pong, ok);
  EXPECT_LT(ok, error);
  EXPECT_EQ(server.counters().commands.load(), 1);
}

TEST(SynthServerTest, ShutdownStopsTheSessionAndDrains) {
  SynthServer server(memory_options());
  const std::string transcript =
      run_session(server, std::string(kRequestA) + "shutdown\nping\n");
  EXPECT_NE(transcript.find("sasynth-response v1 ok"), std::string::npos);
  EXPECT_NE(transcript.find("sasynth-bye v1"), std::string::npos);
  // The line after `shutdown` is never processed.
  EXPECT_EQ(transcript.find("sasynth-pong"), std::string::npos);
  EXPECT_TRUE(server.stop_requested());
}

TEST(SynthServerTest, StatsCommandReportsCountersAndCache) {
  SynthServer server(memory_options());
  // `stats` drains in-flight work, so the stats between the two identical
  // requests pins their order: request execution is asynchronous at any
  // jobs count, and without the barrier the second request would race the
  // first — sometimes a cache hit, sometimes a coalesced follower.
  const std::string transcript = run_session(
      server, std::string(kRequestA) + "stats\n" + kRequestA + "stats\n");
  EXPECT_NE(transcript.find("sasynth-stats v1"), std::string::npos);
  EXPECT_NE(transcript.find("requests 2\n"), std::string::npos) << transcript;
  EXPECT_NE(transcript.find("ok 2\n"), std::string::npos);
  EXPECT_NE(transcript.find("cache_hits 1\n"), std::string::npos);
  EXPECT_NE(transcript.find("cache_misses 1\n"), std::string::npos);
  EXPECT_NE(transcript.find("dse_runs 1\n"), std::string::npos);
  EXPECT_NE(transcript.find("queue_limit 64\n"), std::string::npos);
}

TEST(SynthServerTest, BackpressureAnswersRetryDeterministically) {
  ServeOptions options = memory_options(/*jobs=*/2);
  options.queue_limit = 1;
  SynthServer server(options);

  // Fill the admission queue with a gated blocker so the session's request
  // is refused — no timing involved.
  std::mutex mutex;
  std::condition_variable cv;
  bool open = false;
  ASSERT_EQ(Admission::kAccepted, server.scheduler().try_submit([&](bool) {
    std::unique_lock<std::mutex> lock(mutex);
    cv.wait(lock, [&] { return open; });
  }));

  std::vector<std::string> lines = split(std::string(kRequestA), '\n');
  std::size_t i = 0;
  std::string transcript;
  std::mutex transcript_mutex;
  server.serve(
      [&](std::string* line) {
        if (i < lines.size()) {
          *line = lines[i++];
          return true;
        }
        // The request block has been submitted (and refused) by now; release
        // the blocker so the session's final drain can finish.
        {
          std::lock_guard<std::mutex> lock(mutex);
          open = true;
        }
        cv.notify_all();
        return false;
      },
      [&](const std::string& response) {
        std::lock_guard<std::mutex> lock(transcript_mutex);
        transcript += response;
      });

  EXPECT_NE(transcript.find("sasynth-response v1 retry"), std::string::npos)
      << transcript;
  EXPECT_NE(transcript.find("retry later"), std::string::npos);
  EXPECT_EQ(server.counters().rejected.load(), 1);
  EXPECT_EQ(server.counters().dse_runs.load(), 0);
}

/// `base` with `deadline_ms 0` spliced in before `end`: dead on arrival,
/// same canonical key (deadline_ms is execution policy, never key material).
std::string expired_block(const char* base) {
  std::string block(base);
  block.insert(block.rfind("end\n"), "deadline_ms 0\n");
  return block;
}

TEST(SynthServerTest, CoalescedFollowerVerdictsUpdateTheGlobalRegistry) {
  obs::set_metrics_enabled(true);
  obs::MetricsRegistry& reg = obs::MetricsRegistry::global();
  const std::int64_t rejected_before =
      reg.counter("serve_rejected_total").value();
  const std::int64_t shed_before =
      reg.counter("serve_shed_expired_total").value();

  SynthServer server(memory_options());
  const ParsedRequest peek = parse_request_block(kRequestA);
  ASSERT_TRUE(peek.ok) << peek.error;
  const std::string key = canonical_request_text(peek.request);
  // The test holds the leader role so both submissions below park as
  // followers and the flight closes exactly when the test completes it.
  ASSERT_EQ(server.singleflight().join(key, {}), SingleFlight::Role::kLeader);

  std::mutex mutex;
  std::map<std::uint64_t, std::string> responses;
  auto post = [&](std::uint64_t seq, std::string response) {
    std::lock_guard<std::mutex> lock(mutex);
    responses[seq] = std::move(response);
  };
  server.submit_session_block(kRequestA, BlockKind::kSynth, 0, post);
  server.submit_session_block(expired_block(kRequestA), BlockKind::kSynth, 1,
                              post);
  EXPECT_EQ(server.counters().coalesced.load(), 2);

  // A shareable retry verdict: follower 0 receives it byte-for-byte;
  // follower 1's own already-fired deadline outranks it (shed).
  const std::string retry = format_retry_response("queue full, retry later");
  EXPECT_EQ(server.singleflight().complete(key, retry, true), 2);
  EXPECT_EQ(responses[0], retry);
  EXPECT_NE(responses[1].find("deadline expired waiting in queue"),
            std::string::npos)
      << responses[1];

  // The legacy stats block and the registry (stats --format=prom|json) must
  // agree: each follower verdict bumps both or neither.
  EXPECT_EQ(server.counters().rejected.load(), 1);
  EXPECT_EQ(server.counters().shed_expired.load(), 1);
  EXPECT_EQ(reg.counter("serve_rejected_total").value() - rejected_before, 1);
  EXPECT_EQ(reg.counter("serve_shed_expired_total").value() - shed_before, 1);
  EXPECT_EQ(server.counters().dse_runs.load(), 0);
}

TEST(SynthServerTest, ExpiredAtAdmissionLeaderStillClosesItsFlight) {
  SynthServer server(memory_options());
  std::mutex mutex;
  std::map<std::uint64_t, std::string> responses;
  auto post = [&](std::uint64_t seq, std::string response) {
    std::lock_guard<std::mutex> lock(mutex);
    responses[seq] = std::move(response);
  };
  // Dead on arrival: the leader is answered inline, and its flight is
  // completed through a scheduler follow-up — off the submitting thread,
  // which in the TCP transport is the event loop — so followers' inline
  // re-executions can never stall it. drain() covers the follow-up.
  server.submit_session_block(expired_block(kRequestA), BlockKind::kSynth, 0,
                              post);
  {
    std::lock_guard<std::mutex> lock(mutex);
    ASSERT_NE(responses[0].find("deadline expired before admission"),
              std::string::npos)
        << responses[0];
  }
  server.scheduler().drain();
  EXPECT_EQ(server.singleflight().inflight(), 0);

  // The key is free again: the identical canonical text runs as a fresh
  // leader instead of parking forever behind a leaked flight.
  server.submit_session_block(kRequestA, BlockKind::kSynth, 1, post);
  server.scheduler().drain();
  std::lock_guard<std::mutex> lock(mutex);
  EXPECT_NE(responses[1].find("sasynth-response v1 ok"), std::string::npos)
      << responses[1];
  EXPECT_EQ(server.counters().coalesced.load(), 0);
}

// Satellite (d): the same request stream yields a byte-identical transcript
// at any worker count, with the cache on or off, cold or warm.
TEST(SynthServerTest, TranscriptIsInvariantAcrossJobsAndCacheState) {
  const std::string stream =
      std::string(kRequestA) + kRequestB + "ping\n" + kRequestA;

  SynthServer baseline(memory_options(/*jobs=*/1));
  const std::string reference = run_session(baseline, stream);
  ASSERT_NE(reference.find("sasynth-response v1 ok"), std::string::npos)
      << reference;

  {  // more workers, cold cache
    SynthServer server(memory_options(/*jobs=*/4));
    EXPECT_EQ(run_session(server, stream), reference);
  }
  {  // cache disabled entirely
    ServeOptions options = memory_options(/*jobs=*/4);
    options.cache_enabled = false;
    SynthServer server(options);
    EXPECT_EQ(run_session(server, stream), reference);
  }
  {  // warm replay on one server: second pass is all cache hits
    SynthServer server(memory_options(/*jobs=*/2));
    EXPECT_EQ(run_session(server, stream), reference);
    const std::int64_t work = server.counters().dse_work_items.load();
    EXPECT_EQ(run_session(server, stream), reference);
    EXPECT_EQ(server.counters().dse_work_items.load(), work);
  }
}

}  // namespace
}  // namespace sasynth
