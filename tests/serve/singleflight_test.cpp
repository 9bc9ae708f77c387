#include "serve/singleflight.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "obs/metrics.h"
#include "serve/protocol.h"
#include "serve/server.h"

namespace sasynth {
namespace {

TEST(SingleFlightTest, FirstJoinIsLeaderDuplicatesAreFollowers) {
  SingleFlight sf;
  EXPECT_EQ(sf.inflight(), 0);
  EXPECT_EQ(sf.join("k", {}), SingleFlight::Role::kLeader);
  EXPECT_EQ(sf.inflight(), 1);
  EXPECT_EQ(sf.join("k", [](const std::string&, bool) {}),
            SingleFlight::Role::kFollower);
  EXPECT_EQ(sf.join("other", {}), SingleFlight::Role::kLeader);
  EXPECT_EQ(sf.inflight(), 2);
}

TEST(SingleFlightTest, CompleteDeliversFollowersInJoinOrder) {
  SingleFlight sf;
  ASSERT_EQ(sf.join("k", {}), SingleFlight::Role::kLeader);
  std::vector<int> order;
  std::string seen;
  bool seen_shared = false;
  for (int i = 0; i < 3; ++i) {
    ASSERT_EQ(sf.join("k",
                      [&, i](const std::string& response, bool shared) {
                        order.push_back(i);
                        seen = response;
                        seen_shared = shared;
                      }),
              SingleFlight::Role::kFollower);
  }
  EXPECT_EQ(sf.complete("k", "resp", true), 3);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(seen, "resp");
  EXPECT_TRUE(seen_shared);
  EXPECT_EQ(sf.inflight(), 0);
  // The key is free again: the next join starts a fresh flight.
  EXPECT_EQ(sf.join("k", {}), SingleFlight::Role::kLeader);
}

TEST(SingleFlightTest, UnsharedCompletionTellsFollowersToRunThemselves) {
  SingleFlight sf;
  ASSERT_EQ(sf.join("k", {}), SingleFlight::Role::kLeader);
  bool shared = true;
  ASSERT_EQ(sf.join("k", [&](const std::string&, bool s) { shared = s; }),
            SingleFlight::Role::kFollower);
  EXPECT_EQ(sf.complete("k", "leader timed out", false), 1);
  EXPECT_FALSE(shared);
}

TEST(SingleFlightTest, CompleteOnUnknownKeyIsANoOp) {
  SingleFlight sf;
  EXPECT_EQ(sf.complete("never-joined", "resp", true), 0);
}

TEST(SingleFlightTest, CallbacksRunOutsideTheTableLock) {
  // A follower callback that re-enters the table (an unshared follower
  // re-executing may itself become a leader for a new flight of the same
  // key) must not deadlock.
  SingleFlight sf;
  ASSERT_EQ(sf.join("k", {}), SingleFlight::Role::kLeader);
  SingleFlight::Role reentry = SingleFlight::Role::kFollower;
  ASSERT_EQ(sf.join("k",
                    [&](const std::string&, bool) {
                      reentry = sf.join("k", {});
                      sf.complete("k", "again", true);
                    }),
            SingleFlight::Role::kFollower);
  EXPECT_EQ(sf.complete("k", "resp", true), 1);
  EXPECT_EQ(reentry, SingleFlight::Role::kLeader);
}

// ---------------------------------------------------------------------------
// SynthServer::submit_session_block follower semantics, driven
// deterministically: the test itself takes the leader role in the server's
// singleflight table, so follower behavior is exercised without any timing
// dependence on a real in-flight DSE.
// ---------------------------------------------------------------------------

constexpr const char* kBlock =
    "sasynth-request v1\n"
    "layer 16,16,8,8,3\n"
    "device tiny\n"
    "option min_util 0.5\n"
    "end\n";

std::string canonical_of(const std::string& block) {
  const ParsedRequest parsed = parse_request_block(block);
  EXPECT_TRUE(parsed.ok) << parsed.error;
  return canonical_request_text(parsed.request);
}

TEST(CoalescingTest, FollowerReceivesTheLeadersShareableResponse) {
  ServeOptions options;
  options.jobs = 1;
  SynthServer server(options);
  const std::string key = canonical_of(kBlock);

  // The test is the leader; the submitted duplicate must park as follower.
  ASSERT_EQ(server.singleflight().join(key, {}), SingleFlight::Role::kLeader);
  std::string got;
  int posts = 0;
  server.submit_session_block(kBlock, BlockKind::kSynth, /*seq=*/0,
                              [&](std::uint64_t, std::string response) {
                                got = std::move(response);
                                ++posts;
                              });
  EXPECT_EQ(posts, 0);  // parked: no scheduler slot, no DSE, no answer yet
  EXPECT_EQ(server.counters().coalesced.load(), 1);
  EXPECT_EQ(server.counters().dse_runs.load(), 0);

  const std::string shared = "sasynth-response v1 ok\nfake\nend\n";
  EXPECT_EQ(server.singleflight().complete(key, shared, true), 1);
  EXPECT_EQ(posts, 1);
  EXPECT_EQ(got, shared);  // byte-identical to the leader's bytes
  EXPECT_EQ(server.counters().dse_runs.load(), 0);  // follower never ran DSE
  EXPECT_EQ(server.counters().requests.load(), 1);
  EXPECT_EQ(server.counters().ok.load(), 1);
}

TEST(CoalescingTest, UnsharedCompletionMakesTheFollowerRunItself) {
  ServeOptions options;
  options.jobs = 1;
  SynthServer server(options);
  const std::string key = canonical_of(kBlock);
  const std::string reference = server.handle(kBlock);
  ASSERT_NE(reference.find("sasynth-response v1 ok"), std::string::npos);

  ASSERT_EQ(server.singleflight().join(key, {}), SingleFlight::Role::kLeader);
  std::string got;
  server.submit_session_block(kBlock, BlockKind::kSynth, 0,
                              [&](std::uint64_t, std::string response) {
                                got = std::move(response);
                              });
  ASSERT_EQ(server.counters().coalesced.load(), 1);

  // The leader "timed out": its verdict reflects the leader's budget and is
  // never handed over. The follower re-executes under its own (unbounded)
  // token and produces the normal ok response.
  server.singleflight().complete(key, "sasynth-response v1 timeout\nend\n",
                                 /*shareable=*/false);
  EXPECT_EQ(got, reference);
}

TEST(CoalescingTest, ExpiredFollowerGetsItsOwnTimeoutNotTheSharedResult) {
  ServeOptions options;
  options.jobs = 1;
  SynthServer server(options);
  // deadline_ms 0 = "answer instantly or time out": the follower's own
  // budget is already spent when the leader's (shareable) result lands, so
  // it must get a timeout verdict, never a late shared answer.
  const std::string block = std::string(kBlock).replace(
      std::string(kBlock).find("end\n"), 4, "deadline_ms 0\nend\n");
  const std::string key = canonical_of(block);
  ASSERT_EQ(key, canonical_of(kBlock));  // execution policy is not key material

  ASSERT_EQ(server.singleflight().join(key, {}), SingleFlight::Role::kLeader);
  std::string got;
  server.submit_session_block(block, BlockKind::kSynth, 0,
                              [&](std::uint64_t, std::string response) {
                                got = std::move(response);
                              });
  ASSERT_EQ(server.counters().coalesced.load(), 1);

  server.singleflight().complete(key, "sasynth-response v1 ok\nfake\nend\n",
                                 true);
  EXPECT_NE(got.find("sasynth-response v1 timeout"), std::string::npos) << got;
  EXPECT_NE(got.find("deadline expired waiting in queue"), std::string::npos)
      << got;
  EXPECT_EQ(server.counters().timeouts.load(), 1);
  EXPECT_EQ(server.counters().shed_expired.load(), 1);
}

TEST(CoalescingTest, MalformedBlocksAreNotCoalesced) {
  ServeOptions options;
  options.jobs = 1;
  SynthServer server(options);
  std::string got;
  server.submit_session_block("sasynth-request v1\nnot a field\nend\n",
                              BlockKind::kSynth, 0,
                              [&](std::uint64_t, std::string response) {
                                got = std::move(response);
                              });
  server.scheduler().drain();  // execution is asynchronous at any jobs count
  EXPECT_NE(got.find("sasynth-response v1 error"), std::string::npos) << got;
  EXPECT_EQ(server.counters().coalesced.load(), 0);
  EXPECT_EQ(server.singleflight().inflight(), 0);
}

TEST(CoalescingTest, LeaderCompletionClosesTheFlight) {
  // End-to-end through submit_session_block alone. Execution is
  // asynchronous even at jobs=1 (the scheduler never runs a request on the
  // submitter), so each submission is drained before the flight table is
  // inspected: once the leader's response lands the flight must be closed,
  // and the next identical submission must lead again (and hit the
  // DesignCache instead of coalescing).
  ServeOptions options;
  options.jobs = 1;
  SynthServer server(options);
  std::string first;
  std::string second;
  server.submit_session_block(kBlock, BlockKind::kSynth, 0,
                              [&](std::uint64_t, std::string r) { first = r; });
  server.scheduler().drain();
  EXPECT_EQ(server.singleflight().inflight(), 0);
  server.submit_session_block(kBlock, BlockKind::kSynth, 1,
                              [&](std::uint64_t, std::string r) { second = r; });
  server.scheduler().drain();
  EXPECT_EQ(server.singleflight().inflight(), 0);
  EXPECT_EQ(first, second);
  EXPECT_EQ(server.counters().coalesced.load(), 0);
  EXPECT_EQ(server.counters().dse_runs.load(), 1);  // second was a cache hit
}

}  // namespace
}  // namespace sasynth
