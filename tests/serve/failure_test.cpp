// Failure-path tests for the serving stack (no fault injection here — these
// drive real kernel-level failures: disconnects, truncated streams, unlinked
// cache files). The injection-driven sweep lives in tests/faultinject/.
#include <gtest/gtest.h>

#include <fcntl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <filesystem>
#include <string>
#include <thread>

#include "serve/server.h"
#include "serve/tcp.h"
#include "support/loop_harness.h"
#include "util/strings.h"

namespace sasynth {
namespace {

const char* kRequestA =
    "sasynth-request v1\n"
    "layer 16,16,8,8,3\n"
    "device tiny\n"
    "option min_util 0.5\n"
    "end\n";

ServeOptions memory_options() {
  ServeOptions options;
  options.jobs = 1;
  options.cache_capacity = 16;
  return options;
}

std::string cache_dir(const char* tag) {
  const std::filesystem::path dir =
      std::filesystem::path(::testing::TempDir()) /
      (std::string("sasynth_failure_") + tag);
  std::filesystem::remove_all(dir);
  return dir.string();
}

/// Satellite (a): a client that vanishes mid-response must end the session
/// cleanly — no SIGPIPE, no hang, no work done for responses nobody reads.
TEST(ServeFailureTest, ClientDisconnectMidResponseEndsSessionCleanly) {
  SynthServer server(memory_options());
  LoopRunner runner(server);

  const int client = connect_loopback(runner.port());
  ASSERT_GE(client, 0);
  // Queue a burst of pings (plenty of response bytes to write), read only the
  // first response, then slam the connection shut. The server keeps writing
  // into a dead socket until the kernel reports the disconnect; with the
  // session fix that surfaces as a failed write, not a crash.
  std::string burst;
  for (int i = 0; i < 200; ++i) burst += "ping\n";
  ASSERT_TRUE(client_send_all(client, burst));
  char first[16];
  ASSERT_GT(::read(client, first, sizeof(first)), 0);
  // RST (via SO_LINGER 0) rather than FIN makes the very next server write
  // fail instead of silently buffering.
  struct linger hard = {1, 0};
  ::setsockopt(client, SOL_SOCKET, SO_LINGER, &hard, sizeof(hard));
  ::close(client);

  // If the loop closes the session, the path is clean (a hang here is the
  // ctest timeout).
  while (runner.loop().open_connections() > 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(runner.stop(), 0);
  // The session processed at most the pings it managed to write responses
  // for; the important part is that the process is still here.
  EXPECT_GT(server.counters().commands.load(), 0);
}

/// Satellite (b): EOF in the middle of a request block — the partial request
/// is dropped, the session terminates, and nothing is parsed as complete.
TEST(ServeFailureTest, HalfRequestAtEofIsDroppedNotParsed) {
  SynthServer server(memory_options());
  LoopRunner runner(server);

  // A request block cut off before `end` — and the last line cut off before
  // its newline.
  const std::string transcript = run_client(
      runner.port(), "sasynth-request v1\nlayer 16,16,8,8,3\ndevice ti");
  EXPECT_EQ(runner.stop(), 0);

  // The truncated block never reaches the DSE as a valid request; the parse
  // of the incomplete block yields an error response (missing device/end),
  // never an ok.
  EXPECT_EQ(transcript.find("sasynth-response v1 ok"), std::string::npos)
      << transcript;
  EXPECT_EQ(server.counters().dse_runs.load(), 0);
}

/// Satellite (b) continued: a read *error* (not EOF) mid-line must not
/// deliver the buffered prefix as a line — pre-fix, FdLineReader treated any
/// failed read like EOF and handed the truncated tail to the parser. A real
/// kernel error is forced by dup2-ing a directory fd over the reader's fd:
/// the next read(2) fails with EISDIR while "partial-fragment" sits in the
/// reader's buffer.
TEST(ServeFailureTest, ReadErrorDropsBufferedPartialLine) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  // One complete line, then an unterminated fragment — delivered in a single
  // chunk, so the reader's first read(2) buffers both.
  ASSERT_TRUE(client_send_all(fds[1], "complete\npartial-fragment"));

  FdLineReader reader(fds[0]);
  std::string line;
  ASSERT_TRUE(reader.read_line(&line));
  EXPECT_EQ(line, "complete");
  EXPECT_FALSE(reader.failed());

  const int dirfd = ::open(".", O_RDONLY | O_DIRECTORY);
  ASSERT_GE(dirfd, 0);
  ASSERT_GE(::dup2(dirfd, fds[0]), 0);  // next read on fds[0]: EISDIR
  ::close(dirfd);

  // The buffered "partial-fragment" must NOT come back as a line; the error
  // ends the stream and reports through failed().
  EXPECT_FALSE(reader.read_line(&line));
  EXPECT_TRUE(reader.failed());
  EXPECT_FALSE(reader.read_line(&line));  // stays ended
  ::close(fds[0]);
  ::close(fds[1]);
}

/// Satellite (c): garbage after a valid request gets its own error response;
/// the valid request before it is answered normally.
TEST(ServeFailureTest, GarbageAfterValidRequestGetsErrorResponse) {
  SynthServer server(memory_options());
  LoopRunner runner(server);

  const std::string transcript = run_client(
      runner.port(), std::string(kRequestA) + "\x01\x02 total garbage\n" +
                         "ping\nshutdown\n");
  EXPECT_EQ(runner.join(), 0);  // the session's shutdown ends the loop

  const std::size_t ok = transcript.find("sasynth-response v1 ok");
  const std::size_t err = transcript.find("sasynth-response v1 error");
  const std::size_t pong = transcript.find("sasynth-pong v1");
  const std::size_t bye = transcript.find("sasynth-bye v1");
  ASSERT_NE(ok, std::string::npos) << transcript;
  ASSERT_NE(err, std::string::npos) << transcript;
  ASSERT_NE(pong, std::string::npos) << transcript;
  ASSERT_NE(bye, std::string::npos) << transcript;
  EXPECT_LT(ok, err);    // responses stay in request order
  EXPECT_LT(err, pong);  // and the session survived the garbage
  EXPECT_LT(pong, bye);
}

/// Satellite (d): the cache file vanishing between requests (operator tidied
/// /var/cache, tmpwatch, ...) silently falls back to a fresh DSE with a
/// byte-identical response.
TEST(ServeFailureTest, UnlinkedCacheFileFallsBackToIdenticalResponse) {
  const std::string dir = cache_dir("unlink");
  ServeOptions options = memory_options();
  options.cache_dir = dir;

  std::string cold;
  {
    SynthServer server(options);
    cold = server.handle(kRequestA);
    ASSERT_TRUE(starts_with(cold, "sasynth-response v1 ok")) << cold;
  }
  ASSERT_FALSE(std::filesystem::is_empty(dir));
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    std::filesystem::remove(entry.path());
  }

  SynthServer server(options);  // fresh instance: memory tier is cold too
  const std::string warm = server.handle(kRequestA);
  EXPECT_EQ(warm, cold);
  EXPECT_EQ(server.counters().dse_runs.load(), 1);  // re-explored, not served stale
  EXPECT_EQ(server.cache().stats().disk_hits, 0);
}

}  // namespace
}  // namespace sasynth
