// sasynthd's default stdio mode end to end, through the real binary: a mixed
// script fed from a regular file and from a pipe must yield the transcript
// the same script gets over TCP from an in-process server with the same
// options, and SIGTERM with a request in flight must flush its response and
// exit 0. Tests are skipped when the binary is not where the build puts it
// (same convention as flag_strictness_test.cpp).
#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <csignal>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>

#include "serve/server.h"
#include "support/loop_harness.h"

namespace sasynth {
namespace {

const char* const kDaemonPath = "../tools/sasynthd";

/// Every kind of session frame: a request, a deploy, a malformed block, a
/// dead-on-arrival deadline, an unknown command, a bad stats argument, and a
/// block cut by EOF on an unterminated last line. No bare `stats` or
/// `health`: their counts and uptime are per process.
const char* const kScript =
    "sasynth-request v1\n"
    "layer 16,16,8,8,3\n"
    "device tiny\n"
    "option min_util 0.5\n"
    "end\n"
    "sasynth-deploy v1\n"
    "network tiny\n"
    "fleet 1\n"
    "device tiny\n"
    "option min_util 0.5\n"
    "end\n"
    "sasynth-request v1\n"
    "layer 1,2\n"
    "end\n"
    "sasynth-request v1\n"
    "layer 8,16,4,4,3\n"
    "device tiny\n"
    "deadline_ms 0\n"
    "end\n"
    "frobnicate\n"
    "stats --format=bogus\n"
    "sasynth-request v1\n"
    "layer 8,16,4,4,3\n"
    "device ti";

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

class StdioDaemonTest : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!std::ifstream(kDaemonPath).good()) {
      GTEST_SKIP() << "sasynthd binary not found";
    }
  }
};

TEST_F(StdioDaemonTest, TranscriptFromFileAndPipeMatchesTcp) {
  ServeOptions options;
  options.jobs = 2;
  SynthServer server(options);
  const std::string tcp = run_session(server, kScript);
  ASSERT_NE(tcp.find("sasynth-response v1 ok"), std::string::npos) << tcp;

  const std::string dir = ::testing::TempDir() + "/sasynth_stdio_" +
                          std::to_string(::getpid());
  const std::string script = dir + "_script.txt";
  const std::string out = dir + "_out.txt";
  std::ofstream(script) << kScript;
  const std::string daemon = std::string(kDaemonPath) + " --jobs 2";
  for (const std::string& command :
       {daemon + " < " + script + " > " + out,
        "cat " + script + " | " + daemon + " > " + out}) {
    const int status = std::system(command.c_str());
    ASSERT_TRUE(WIFEXITED(status)) << command;
    EXPECT_EQ(WEXITSTATUS(status), 0) << command;
    EXPECT_EQ(read_file(out), tcp) << command;
  }
  std::remove(script.c_str());
  std::remove(out.c_str());
}

TEST_F(StdioDaemonTest, SigtermFlushesTheInFlightResponseAndExitsZero) {
  int in[2];
  int out[2];
  ASSERT_EQ(::pipe(in), 0);
  ASSERT_EQ(::pipe(out), 0);
  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    ::dup2(in[0], STDIN_FILENO);
    ::dup2(out[1], STDOUT_FILENO);
    ::close(in[0]);
    ::close(in[1]);
    ::close(out[0]);
    ::close(out[1]);
    ::execl(kDaemonPath, kDaemonPath, "--jobs", "1", "--drain-timeout",
            "60000", static_cast<char*>(nullptr));
    ::_exit(127);
  }
  ::close(in[0]);
  ::close(out[1]);
  // A daemon that died early must fail the test, not SIGPIPE the runner.
  const auto old_sigpipe = std::signal(SIGPIPE, SIG_IGN);

  // One write: the pong proves the daemon is up (its signal handlers are
  // installed) and has framed the request behind it. bound_prune off keeps
  // the cold DSE busy for well over a second.
  const std::string script =
      "ping\n"
      "sasynth-request v1\n"
      "layer 48,128,13,13,3\n"
      "option bound_prune 0\n"
      "end\n";
  ASSERT_EQ(::write(in[1], script.data(), script.size()),
            static_cast<ssize_t>(script.size()));
  const std::string pong = "sasynth-pong v1\nend\n";
  std::string transcript;
  char chunk[4096];
  while (transcript.size() < pong.size()) {
    const ssize_t n = ::read(out[0], chunk, sizeof(chunk));
    if (n <= 0) break;
    transcript.append(chunk, static_cast<std::size_t>(n));
  }
  ASSERT_EQ(transcript, pong);
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  ASSERT_EQ(::kill(pid, SIGTERM), 0);

  // stdin stays open throughout: the drain, not EOF, must end the session.
  transcript += read_to_eof(out[0]);
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  ::close(in[1]);
  ::close(out[0]);
  std::signal(SIGPIPE, old_sigpipe);
  ASSERT_TRUE(WIFEXITED(status)) << transcript;
  EXPECT_EQ(WEXITSTATUS(status), 0) << transcript;
  EXPECT_NE(transcript.find("sasynth-response v1 ok"), std::string::npos)
      << transcript;
  EXPECT_EQ(transcript.substr(transcript.size() - 4), "end\n") << transcript;
}

}  // namespace
}  // namespace sasynth
