// Regression tests for the silent-atoi bug family: every numeric flag on
// both tools must reject non-numeric input, trailing garbage, overflow and
// out-of-range values with exit 2 and a message naming the flag and the
// value. The headline bug: `sasynthd --port abc` used to atoi to 0, pass
// the 0..65535 range check, and silently bind a kernel-chosen ephemeral
// port. Tests are skipped when the binaries are not where the build puts
// them (same convention as cli_test.cpp).
#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

namespace sasynth {
namespace {

const char* const kCliPath = "../tools/sasynth_cli";
const char* const kDaemonPath = "../tools/sasynthd";

bool tool_available(const char* path) {
  std::ifstream f(path);
  return f.good();
}

/// Runs `tool args`, captures stdout+stderr, returns the exit code (or -1
/// if the process did not exit normally).
int run_tool(const char* tool, const std::string& args, std::string* output) {
  static std::atomic<int> next_capture{0};
  const std::string out_file =
      ::testing::TempDir() + "/sasynth_flag_out_" + std::to_string(::getpid()) +
      "_" + std::to_string(next_capture.fetch_add(1)) + ".txt";
  const std::string command =
      std::string(tool) + " " + args + " > " + out_file + " 2>&1";
  const int status = std::system(command.c_str());
  {
    std::ifstream in(out_file);
    std::stringstream buffer;
    buffer << in.rdbuf();
    *output = buffer.str();
  }
  std::remove(out_file.c_str());
  if (!WIFEXITED(status)) return -1;
  return WEXITSTATUS(status);
}

class FlagStrictnessTest : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!tool_available(kCliPath) || !tool_available(kDaemonPath)) {
      GTEST_SKIP() << "tool binaries not found";
    }
  }

  /// Asserts the tool exits 2 and the diagnostic names both the flag and
  /// the offending value — "bad --queue" without the value is exactly the
  /// misleading-diagnostics bug this family fixed.
  void expect_rejected(const char* tool, const std::string& args,
                       const std::string& flag, const std::string& value) {
    std::string out;
    EXPECT_EQ(run_tool(tool, args, &out), 2) << args << "\n" << out;
    EXPECT_NE(out.find("bad " + flag + " value '" + value + "'"),
              std::string::npos)
        << args << "\n" << out;
  }
};

TEST_F(FlagStrictnessTest, DaemonRejectsNonNumericPort) {
  expect_rejected(kDaemonPath, "--port abc", "--port", "abc");
}

TEST_F(FlagStrictnessTest, DaemonRejectsTheSilentAtoiFamilyOnEveryIntFlag) {
  // flag, bad value pairs spanning the whole family: non-numeric, trailing
  // garbage, overflow, negative-where-positive, out of range.
  const struct {
    const char* args;
    const char* flag;
    const char* value;
  } kCases[] = {
      {"--port 8080x", "--port", "8080x"},
      {"--port 70000", "--port", "70000"},
      {"--port -1", "--port", "-1"},
      {"--port 99999999999999999999", "--port", "99999999999999999999"},
      {"--cache-capacity banana", "--cache-capacity", "banana"},
      {"--cache-capacity 0", "--cache-capacity", "0"},
      {"--cache-capacity -5", "--cache-capacity", "-5"},
      {"--sweep-cache-capacity -1", "--sweep-cache-capacity", "-1"},
      {"--jobs banana", "--jobs", "banana"},
      {"--jobs -2", "--jobs", "-2"},
      {"--queue banana", "--queue", "banana"},
      {"--queue 0", "--queue", "0"},
      {"--default-deadline 5s", "--default-deadline", "5s"},
      {"--io-timeout -1", "--io-timeout", "-1"},
      {"--shard-io-timeout abc", "--shard-io-timeout", "abc"},
      {"--max-connections 1.5", "--max-connections", "1.5"},
      {"--drain-timeout never", "--drain-timeout", "never"},
  };
  for (const auto& c : kCases) {
    expect_rejected(kDaemonPath, c.args, c.flag, c.value);
  }
}

TEST_F(FlagStrictnessTest, DaemonRejectsBadPeerList) {
  std::string out;
  EXPECT_EQ(run_tool(kDaemonPath, "--peers 127.0.0.1:abc", &out), 2) << out;
  EXPECT_NE(out.find("--peers"), std::string::npos) << out;
  EXPECT_EQ(run_tool(kDaemonPath, "--peers example.com:80", &out), 2) << out;
  // A leading space in the port is garbage, as in every other numeric flag
  // (strtoll alone would skip it). stdin is closed so an accepted value
  // cannot leave the daemon waiting on input.
  EXPECT_EQ(run_tool(kDaemonPath, "--peers '127.0.0.1: 9' < /dev/null", &out),
            2)
      << out;
}

TEST_F(FlagStrictnessTest, CliRejectsTheSilentAtoiFamilyOnEveryNumericFlag) {
  const std::string layer = "--layer 16,16,8,8,3 --device tiny ";
  const struct {
    const char* args;
    const char* flag;
    const char* value;
  } kCases[] = {
      {"--jobs banana", "--jobs", "banana"},
      {"--jobs 4x", "--jobs", "4x"},
      {"--jobs -1", "--jobs", "-1"},
      {"--top-k 0", "--top-k", "0"},
      {"--top-k twelve", "--top-k", "twelve"},
      {"--fleet 0", "--fleet", "0"},
      {"--fleet 2.5", "--fleet", "2.5"},
      {"--freq fast", "--freq", "fast"},
      {"--min-util half", "--min-util", "half"},
  };
  for (const auto& c : kCases) {
    expect_rejected(kCliPath, layer + c.args, c.flag, c.value);
  }
  // Doubles that parse but land outside the flag's range still exit 2 with
  // the flag's own range message.
  std::string out;
  EXPECT_EQ(run_tool(kCliPath, layer + "--freq -100", &out), 2);
  EXPECT_NE(out.find("--freq"), std::string::npos) << out;
  EXPECT_EQ(run_tool(kCliPath, layer + "--min-util 1.5", &out), 2);
  EXPECT_NE(out.find("--min-util"), std::string::npos) << out;
  EXPECT_EQ(run_tool(kCliPath, "--deploy alexnet:banana", &out), 2);
  EXPECT_NE(out.find("bad weight 'banana'"), std::string::npos) << out;
}

TEST_F(FlagStrictnessTest, DaemonEphemeralPortIsStillReported) {
  // `--port 0` is a legitimate value (bind ephemeral, print the choice) —
  // strictness must not have swallowed it. The daemon serves until
  // signalled, so bound its life with timeout(1).
  std::string out;
  run_tool("timeout", std::string("-s TERM 2 ") + kDaemonPath +
                          " --port 0 --drain-timeout 100 --log-level off",
           &out);
  const std::size_t at = out.find("sasynthd listening on 127.0.0.1:");
  ASSERT_NE(at, std::string::npos) << out;
  // The reported port is a real (nonzero) kernel choice.
  const std::string tail = out.substr(at + std::string("sasynthd listening on 127.0.0.1:").size());
  EXPECT_GT(std::atoi(tail.c_str()), 0) << out;
}

}  // namespace
}  // namespace sasynth
