#include "serve/event_loop.h"

#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "faultinject/faultinject.h"
#include "obs/metrics.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "support/loop_harness.h"
#include "support/metric_deltas.h"
#include "util/strings.h"

namespace sasynth {
namespace {

std::string request_block(double min_util) {
  return strformat(
      "sasynth-request v1\n"
      "layer 16,16,8,8,3\n"
      "device tiny\n"
      "option min_util %g\n"
      "end\n",
      min_util);
}

class EventLoopTest : public ::testing::Test {
 protected:
  void SetUp() override { obs::set_metrics_enabled(true); }
  void TearDown() override { fault::disarm_all(); }

  /// Starts a loop over `server` on an ephemeral port and runs it on a
  /// background thread. stop() joins and returns run()'s status.
  void start(SynthServer& server, EventLoopOptions options = {}) {
    runner_ = std::make_unique<LoopRunner>(server, options);
  }

  int stop() { return runner_->stop(); }
  int join() { return runner_->join(); }
  int port() const { return runner_->port(); }
  EventLoopServer& loop() { return runner_->loop(); }

 private:
  std::unique_ptr<LoopRunner> runner_;
};

TEST_F(EventLoopTest, EndToEndSessionMatchesTheBlockingTransport) {
  ServeOptions options;
  options.jobs = 1;
  SynthServer server(options);
  start(server);

  const std::string transcript = run_client(
      port(), "ping\n" + request_block(0.5) + "shutdown\n");
  EXPECT_EQ(join(), 0);  // the shutdown command drains the loop itself

  const std::size_t pong = transcript.find("sasynth-pong v1");
  const std::size_t ok = transcript.find("sasynth-response v1 ok");
  const std::size_t bye = transcript.find("sasynth-bye v1");
  ASSERT_NE(pong, std::string::npos) << transcript;
  ASSERT_NE(ok, std::string::npos) << transcript;
  ASSERT_NE(bye, std::string::npos) << transcript;
  EXPECT_LT(pong, ok);
  EXPECT_LT(ok, bye);
  EXPECT_TRUE(server.stop_requested());

  // Byte-identical to a direct call: the ok response is exactly what a
  // fresh handle() of the same block produces.
  SynthServer reference({});
  const std::string ref = reference.handle(request_block(0.5));
  EXPECT_NE(transcript.find(ref), std::string::npos) << transcript;
}

// The stdio transport's shape: one session handed over by start_on, with no
// listener. It answers exactly as a TCP session does, and once it ends the
// loop has nothing left to serve, so run() drains and returns.
TEST_F(EventLoopTest, StartOnServesOneSessionAndReturnsAtItsEnd) {
  ServeOptions options;
  options.jobs = 1;
  const std::string script = "ping\n" + request_block(0.5) + "bogus\n";
  SynthServer tcp_server(options);
  const std::string expected = run_session(tcp_server, script);

  SynthServer server(options);
  EventLoopServer loop(server, {});
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  std::string error;
  ASSERT_TRUE(loop.start_on(fds[0], &error)) << error;
  int status = -1;
  std::thread runner([&] { status = loop.run(); });
  ASSERT_TRUE(client_send_all(fds[1], script));
  ::shutdown(fds[1], SHUT_WR);
  EXPECT_EQ(read_to_eof(fds[1]), expected);
  runner.join();
  EXPECT_EQ(status, 0);
  EXPECT_TRUE(server.draining());
  ::close(fds[1]);
}

TEST_F(EventLoopTest, StormOfMixedSessionsMatchesSerialReplay) {
  // 64 concurrent sessions: 8 unique requests x 8 duplicate sessions each.
  // Every transcript must be byte-identical to a serial replay, and the 8
  // uniques must cost exactly 8 DSE executions (one dse_work_items unit per
  // unique request) — duplicates are answered by coalescing or the cache,
  // never by a second exploration.
  constexpr int kUnique = 8;
  constexpr int kDup = 8;

  // Serial reference on an identically-configured fresh server.
  std::vector<std::string> blocks;
  std::vector<std::string> expected;
  const MetricDeltas serial;
  SynthServer reference({});
  for (int u = 0; u < kUnique; ++u) {
    blocks.push_back(request_block(0.1 + 0.05 * u));
    expected.push_back(reference.handle(blocks.back()));
    ASSERT_NE(expected.back().find("sasynth-response v1 ok"),
              std::string::npos)
        << expected.back();
  }
  const std::int64_t serial_work = serial("serve_dse_work_items_total");

  const MetricDeltas delta;
  ServeOptions options;
  options.jobs = 4;
  options.queue_limit = 256;
  SynthServer server(options);
  start(server);

  std::vector<std::string> transcripts(kUnique * kDup);
  std::vector<std::thread> clients;
  clients.reserve(transcripts.size());
  for (int u = 0; u < kUnique; ++u) {
    for (int d = 0; d < kDup; ++d) {
      clients.emplace_back([this, &transcripts, &blocks, u, d] {
        transcripts[u * kDup + d] = run_client(port(), blocks[u]);
      });
    }
  }
  for (std::thread& t : clients) t.join();
  EXPECT_EQ(stop(), 0);

  for (int u = 0; u < kUnique; ++u) {
    for (int d = 0; d < kDup; ++d) {
      EXPECT_EQ(transcripts[u * kDup + d], expected[u])
          << "session " << u << "/" << d;
    }
  }
  EXPECT_EQ(delta("serve_requests_total"), kUnique * kDup);
  EXPECT_EQ(delta("serve_ok_total"), kUnique * kDup);
  EXPECT_EQ(delta("serve_dse_runs_total"), kUnique);
  EXPECT_EQ(delta("serve_dse_work_items_total"), serial_work);
  EXPECT_EQ(loop().open_connections(), 0);
}

TEST_F(EventLoopTest, LoopStaysLiveWhileAFlightIsParked) {
  // The liveness property behind coalescing: a session waiting on an
  // in-flight DSE parks as a singleflight follower and must never occupy the
  // loop thread. The test takes the leader role itself so the flight stays
  // open exactly as long as it wants, then proves the loop still answers a
  // second session while the first is parked — at jobs=1, where an inline
  // execution path would deadlock this exact sequence.
  const MetricDeltas delta;
  ServeOptions options;
  options.jobs = 1;
  SynthServer server(options);
  start(server);

  const std::string block = request_block(0.5);
  const ParsedRequest peek = parse_request_block(block);
  ASSERT_TRUE(peek.ok) << peek.error;
  const std::string key = canonical_request_text(peek.request);
  ASSERT_EQ(server.singleflight().join(key, {}), SingleFlight::Role::kLeader);

  const int parked = connect_loopback(port());
  ASSERT_GE(parked, 0);
  ASSERT_TRUE(client_send_all(parked, block));
  ::shutdown(parked, SHUT_WR);
  while (delta("serve_coalesced_total") < 1) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  // With the follower parked, a fresh session must still get served.
  EXPECT_NE(run_client(port(), "ping\n").find("sasynth-pong v1"),
            std::string::npos);

  // Release the flight; the parked session receives the shared bytes.
  const std::string shared = "sasynth-response v1 ok\nfake\nend\n";
  EXPECT_EQ(server.singleflight().complete(key, shared, true), 1);
  EXPECT_EQ(read_to_eof(parked), shared);
  ::close(parked);
  EXPECT_EQ(delta("serve_dse_runs_total"), 0);  // nobody ran a DSE
  EXPECT_EQ(stop(), 0);
}

TEST_F(EventLoopTest, DrainMidStormFinishesAcceptedWorkAndExitsCleanly) {
  ServeOptions options;
  options.jobs = 2;
  options.queue_limit = 256;
  SynthServer server(options);
  EventLoopOptions loop_options;
  loop_options.drain_timeout_ms = 30000;
  start(server, loop_options);

  // Three client shapes, all holding their sockets open when the drain
  // fires: (a) answered sessions — request already answered, socket idle;
  // (b) parked sessions — a *partial* block and then silence; (c) racing
  // sessions — a request whose bytes may or may not have been read yet.
  // The drain must close (a) untouched, answer (b) with the parse error for
  // the truncated block, and either answer or drop (c) — but never hang.
  constexpr int kAnswered = 6;
  constexpr int kParked = 6;
  constexpr int kRacing = 4;
  constexpr int kClients = kAnswered + kParked + kRacing;
  SynthServer reference({});
  const std::string ref = reference.handle(request_block(0.5));

  std::vector<std::string> transcripts(kClients);
  std::atomic<int> settled{0};
  std::vector<std::thread> clients;
  for (int i = 0; i < kClients; ++i) {
    clients.emplace_back([this, &transcripts, &settled, &ref, i] {
      const int fd = connect_loopback(port());
      if (fd < 0) {
        transcripts[i] = "<connect failed>";
        settled.fetch_add(1);
        return;
      }
      std::string& transcript = transcripts[i];
      if (i < kAnswered) {
        client_send_all(fd, request_block(0.5));
        // Read the full response *before* reporting settled, so the drain
        // finds this session idle with its answer already delivered.
        char ch;
        while (transcript.size() < ref.size() && ::read(fd, &ch, 1) == 1) {
          transcript.push_back(ch);
        }
        settled.fetch_add(1);
      } else if (i < kAnswered + kParked) {
        // `layer 1,2` cannot parse, so the truncated block's answer is
        // unambiguously the parse error (a well-formed prefix would
        // default its missing fields and answer `ok`).
        client_send_all(fd, "sasynth-request v1\nlayer 1,2\n");
        settled.fetch_add(1);
      } else {
        client_send_all(fd, request_block(0.5));
        settled.fetch_add(1);
      }
      // No SHUT_WR: the session still looks open when the drain fires.
      transcript += read_to_eof(fd);
      ::close(fd);
    });
  }
  while (settled.load() < kClients) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(stop(), 0);  // SIGTERM path: clean bounded drain
  for (std::thread& t : clients) t.join();

  for (int i = 0; i < kClients; ++i) {
    if (i < kAnswered) {
      EXPECT_EQ(transcripts[i], ref) << "answered session " << i;
    } else if (i < kAnswered + kParked) {
      EXPECT_NE(transcripts[i].find("sasynth-response v1 error"),
                std::string::npos)
          << "parked session " << i << ": " << transcripts[i];
    } else {
      // Racing: depending on how far the loop had read this request when
      // the drain fired, the session sees the full byte-identical answer, a
      // parse error for a partially-read block, or nothing (bytes never
      // read). Never a partial response.
      EXPECT_TRUE(transcripts[i].empty() || transcripts[i] == ref ||
                  transcripts[i].find("sasynth-response v1 error") !=
                      std::string::npos)
          << "racing session " << i << ": " << transcripts[i];
    }
  }
  EXPECT_FALSE(server.stop_requested());  // drained, not shut down
  EXPECT_TRUE(server.draining());
}

TEST_F(EventLoopTest, PollFaultsAreAbsorbedWithoutChangingResponses) {
  SynthServer reference({});
  const std::string ref = reference.handle(request_block(0.5));

  fault::FaultSpec spec;
  spec.kind = fault::ErrorKind::kError;
  spec.after = 1;
  spec.count = 25;  // a burst of failing epoll_wait/poll calls
  fault::arm(fault::kSiteLoopPoll, spec);

  ServeOptions options;
  options.jobs = 1;
  SynthServer server(options);
  start(server);
  const std::string transcript = run_client(port(), request_block(0.5));
  EXPECT_EQ(stop(), 0);

  EXPECT_EQ(transcript, ref);
  EXPECT_GT(fault::site(fault::kSiteLoopPoll).injected(), 0);
}

TEST_F(EventLoopTest, LostWakeupsAreRecoveredByTheBoundedWaitTick) {
  SynthServer reference({});
  const std::string ref = reference.handle(request_block(0.5));

  fault::FaultSpec spec;
  spec.kind = fault::ErrorKind::kError;
  spec.after = 1;
  spec.count = -1;  // EVERY wakeup is lost for the whole session
  fault::arm(fault::kSiteLoopWakeup, spec);

  ServeOptions options;
  options.jobs = 1;
  SynthServer server(options);
  start(server);
  const std::string transcript = run_client(port(), request_block(0.5));

  EXPECT_EQ(transcript, ref);  // delayed by the <=250 ms tick, never dropped
  EXPECT_GT(fault::site(fault::kSiteLoopWakeup).injected(), 0);
  fault::disarm_all();  // let the drain's own wakeup through
  EXPECT_EQ(stop(), 0);
}

TEST_F(EventLoopTest, MaxConnectionsRejectsOverflowWithARetryResponse) {
  ServeOptions options;
  options.jobs = 1;
  SynthServer server(options);
  EventLoopOptions loop_options;
  loop_options.max_connections = 1;
  start(server, loop_options);

  const int held = connect_loopback(port());
  ASSERT_GE(held, 0);
  // Make sure the loop has accepted the held connection before overflowing.
  while (loop().open_connections() < 1) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  const std::string rejected = run_client(port(), "ping\n");
  EXPECT_NE(rejected.find("sasynth-response v1 retry"), std::string::npos)
      << rejected;
  EXPECT_NE(rejected.find("connection limit"), std::string::npos) << rejected;

  // The held session is unaffected and still works.
  ASSERT_TRUE(client_send_all(held, "ping\n"));
  ::shutdown(held, SHUT_WR);
  EXPECT_NE(read_to_eof(held).find("sasynth-pong v1"), std::string::npos);
  ::close(held);
  EXPECT_EQ(stop(), 0);
}

TEST_F(EventLoopTest, FailedCommandWriteClosesOnlyThatSession) {
  ServeOptions options;
  options.jobs = 1;
  SynthServer server(options);
  start(server);

  // One injected write failure, consumed by the server's response write.
  // The client writes with raw send(2) — write_all_fd fires the same fault
  // site and would eat the window client-side.
  fault::FaultSpec spec;
  spec.kind = fault::ErrorKind::kError;
  spec.after = 1;
  spec.count = 1;
  fault::arm(fault::kSiteTcpWrite, spec);

  // Two commands in one burst: the first response write fails and destroys
  // the connection while the second line is still buffered — the dispatch
  // loop must re-resolve the connection and stop, never touch the freed
  // state (the ASan regression for the process_inbuf use-after-free).
  const int fd = connect_loopback(port());
  ASSERT_GE(fd, 0);
  const std::string script = "ping\nping\n";
  ASSERT_EQ(::send(fd, script.data(), script.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(script.size()));
  EXPECT_EQ(read_to_eof(fd).find("sasynth-pong"), std::string::npos);
  ::close(fd);
  EXPECT_GT(fault::site(fault::kSiteTcpWrite).injected(), 0);

  // The fault window is spent; an unrelated session is served normally.
  fault::disarm_all();
  EXPECT_NE(run_client(port(), "ping\n").find("sasynth-pong v1"),
            std::string::npos);
  EXPECT_EQ(stop(), 0);
}

TEST_F(EventLoopTest, FailedWriteOfTheTrailingEofCommandIsContained) {
  ServeOptions options;
  options.jobs = 1;
  SynthServer server(options);
  start(server);

  fault::FaultSpec spec;
  spec.kind = fault::ErrorKind::kError;
  spec.after = 1;
  spec.count = 1;
  fault::arm(fault::kSiteTcpWrite, spec);

  // An unterminated trailing command delivered at clean EOF: its response
  // write fails and destroys the connection mid-handle_eof — ending input
  // afterwards must re-resolve, not touch the freed connection.
  const int fd = connect_loopback(port());
  ASSERT_GE(fd, 0);
  const std::string script = "ping";  // no newline: the EOF frames it
  ASSERT_EQ(::send(fd, script.data(), script.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(script.size()));
  ::shutdown(fd, SHUT_WR);
  EXPECT_EQ(read_to_eof(fd).find("sasynth-pong"), std::string::npos);
  ::close(fd);
  EXPECT_GT(fault::site(fault::kSiteTcpWrite).injected(), 0);

  fault::disarm_all();
  EXPECT_NE(run_client(port(), "ping\n").find("sasynth-pong v1"),
            std::string::npos);
  EXPECT_EQ(stop(), 0);
}

TEST_F(EventLoopTest, ExpiredAtAdmissionRequestDoesNotLeakItsFlight) {
  ServeOptions options;
  options.jobs = 1;
  SynthServer server(options);
  start(server);
  SynthServer reference({});
  const std::string ref = reference.handle(request_block(0.5));

  // deadline_ms 0: refused at admission on the loop thread. The flight it
  // opened is completed through a scheduler follow-up — if it leaked, the
  // identical request below would park forever as a follower of a leader
  // that will never complete.
  std::string expired = request_block(0.5);
  expired.insert(expired.rfind("end\n"), "deadline_ms 0\n");
  const std::string refused = run_client(port(), expired);
  EXPECT_NE(refused.find("deadline expired before admission"),
            std::string::npos)
      << refused;

  EXPECT_EQ(run_client(port(), request_block(0.5)), ref);
  EXPECT_EQ(stop(), 0);
}

TEST_F(EventLoopTest, SlowLorisSessionIsDroppedByTheIoTimeout) {
  ServeOptions options;
  options.jobs = 1;
  options.io_timeout_ms = 200;
  SynthServer server(options);
  start(server);

  obs::Counter& io_timeouts =
      obs::MetricsRegistry::global().counter("io_timeouts_total");
  const std::int64_t before = io_timeouts.value();

  const int fd = connect_loopback(port());
  ASSERT_GE(fd, 0);
  // Half a request, then silence: the read deadline must end the session
  // on its own — no shutdown, no EOF from the client.
  ASSERT_TRUE(client_send_all(fd, "sasynth-request v1\nlayer 1,2\n"));
  const auto stalled_at = std::chrono::steady_clock::now();
  const std::string transcript = read_to_eof(fd);
  const std::int64_t waited_ms =
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now() - stalled_at)
          .count();
  ::close(fd);
  // Fired after the configured idle budget, with scheduling slack.
  EXPECT_GE(waited_ms, 150);
  EXPECT_LT(waited_ms, 5000);

  // The partial block was submitted at timeout, so the one answer the
  // session got is the parse error for the truncated request.
  EXPECT_NE(transcript.find("sasynth-response v1 error"), std::string::npos)
      << transcript;
  EXPECT_GT(io_timeouts.value(), before);
  EXPECT_EQ(stop(), 0);
}

}  // namespace
}  // namespace sasynth
