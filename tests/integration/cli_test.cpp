// End-to-end tests of the sasynth_cli binary (run via the shell; tests are
// skipped if the binary is not where the build puts it).
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

bool cli_available() {
  std::ifstream f(kCliPath);
  return f.good();
}

/// Runs the CLI with `args`, captures stdout, returns the exit status.
int run_cli(const std::string& args, std::string* output) {
  // pid + counter keep the capture file unique per invocation: several test
  // binaries (and ctest -j shards) share TempDir, and a shared fixed name
  // races one process's read against another's truncation.
  static std::atomic<int> next_capture{0};
  const std::string out_file =
      ::testing::TempDir() + "/sasynth_cli_out_" + std::to_string(::getpid()) +
      "_" + std::to_string(next_capture.fetch_add(1)) + ".txt";
  const std::string command =
      std::string(kCliPath) + " " + args + " > " + out_file + " 2>&1";
  const int status = std::system(command.c_str());
  {
    std::ifstream in(out_file);
    std::stringstream buffer;
    buffer << in.rdbuf();
    *output = buffer.str();
  }
  std::remove(out_file.c_str());
  return status;
}

class CliTest : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!cli_available()) GTEST_SKIP() << "sasynth_cli binary not found";
  }
};

TEST_F(CliTest, LayerModeRunsDse) {
  std::string out;
  const int status =
      run_cli("--layer 16,16,8,8,3 --device tiny --min-util 0.5", &out);
  EXPECT_EQ(status, 0) << out;
  EXPECT_NE(out.find("design  :"), std::string::npos);
  EXPECT_NE(out.find("Gops"), std::string::npos);
}

TEST_F(CliTest, FileModeAndArtifacts) {
  const std::string dir = ::testing::TempDir();
  const std::string src_path = dir + "/cli_conv.c";
  {
    std::ofstream src(src_path);
    src << "#pragma sasynth systolic\n"
           "for (o = 0; o < 16; o++)\n"
           " for (i = 0; i < 16; i++)\n"
           "  for (c = 0; c < 8; c++)\n"
           "   for (r = 0; r < 8; r++)\n"
           "    for (p = 0; p < 3; p++)\n"
           "     for (q = 0; q < 3; q++)\n"
           "      OUT[o][r][c] += W[o][i][p][q] * IN[i][r + p][c + q];\n";
  }
  const std::string out_dir = dir + "/cli_artifacts";
  std::string out;
  const int status = run_cli("--device tiny --min-util 0.5 --out " + out_dir +
                                 " " + src_path,
                             &out);
  EXPECT_EQ(status, 0) << out;
  for (const char* artifact :
       {"params.h", "systolic_conv.cl", "addressing.h", "host.c",
        "report.md"}) {
    std::ifstream f(out_dir + "/" + artifact);
    EXPECT_TRUE(f.good()) << artifact;
  }
}

TEST_F(CliTest, IntegerLiteralBeyondInt64IsAParseError) {
  const std::string src_path = ::testing::TempDir() + "/cli_huge_bound.c";
  {
    std::ofstream src(src_path);
    src << "#pragma sasynth systolic\n"
           "for (o = 0; o < 99999999999999999999; o++)\n"
           " for (i = 0; i < 16; i++)\n"
           "  for (c = 0; c < 8; c++)\n"
           "   for (r = 0; r < 8; r++)\n"
           "    for (p = 0; p < 3; p++)\n"
           "     for (q = 0; q < 3; q++)\n"
           "      OUT[o][r][c] += W[o][i][p][q] * IN[i][r + p][c + q];\n";
  }
  std::string out;
  const int status = run_cli("--device tiny " + src_path, &out);
  // A parse error (exit 1), not an uncaught std::out_of_range (abort).
  ASSERT_TRUE(WIFEXITED(status)) << out;
  EXPECT_EQ(WEXITSTATUS(status), 1) << out;
  EXPECT_NE(out.find("line 2: number out of range"), std::string::npos) << out;
}

TEST_F(CliTest, DesignSaveLoadRoundTrip) {
  const std::string design_path = ::testing::TempDir() + "/cli_design.txt";
  std::string out1;
  ASSERT_EQ(run_cli("--layer 16,16,8,8,3 --device tiny --min-util 0.5 "
                    "--save-design " +
                        design_path,
                    &out1),
            0)
      << out1;
  std::string out2;
  ASSERT_EQ(run_cli("--layer 16,16,8,8,3 --device tiny --design " +
                        design_path,
                    &out2),
            0)
      << out2;
  // Same design line in both runs (the load bypasses the DSE).
  const std::size_t d1 = out1.find("design  :");
  const std::size_t d2 = out2.find("design  :");
  ASSERT_NE(d1, std::string::npos);
  ASSERT_NE(d2, std::string::npos);
  EXPECT_EQ(out1.substr(d1, out1.find('\n', d1) - d1),
            out2.substr(d2, out2.find('\n', d2) - d2));
}

TEST_F(CliTest, DesignCacheColdThenWarm) {
  const std::string cache_dir = ::testing::TempDir() + "/cli_design_cache";
  std::system(("rm -rf " + cache_dir).c_str());
  const std::string args =
      "--layer 16,16,8,8,3 --device tiny --min-util 0.5 --design-cache " +
      cache_dir;
  std::string cold;
  ASSERT_EQ(run_cli(args, &cold), 0) << cold;
  EXPECT_NE(cold.find("cache   : miss"), std::string::npos) << cold;

  std::string warm;
  ASSERT_EQ(run_cli(args, &warm), 0) << warm;
  EXPECT_NE(warm.find("cache   : hit"), std::string::npos) << warm;
  EXPECT_NE(warm.find("DSE skipped"), std::string::npos);
  // The cached run reports the same design and performance.
  for (const char* field : {"design  :", "perf    :", "resource:"}) {
    const std::size_t c = cold.find(field);
    const std::size_t w = warm.find(field);
    ASSERT_NE(c, std::string::npos) << field;
    ASSERT_NE(w, std::string::npos) << field;
    EXPECT_EQ(cold.substr(c, cold.find('\n', c) - c),
              warm.substr(w, warm.find('\n', w) - w))
        << field;
  }
  // The warm run's DSE counters stay at zero — the exploration never ran.
  EXPECT_NE(warm.find("0 work items"), std::string::npos) << warm;
}

TEST_F(CliTest, LogLevelFlagWarnsOnUnknownName) {
  std::string out;
  EXPECT_EQ(
      run_cli("--layer 16,16,8,8,3 --device tiny --min-util 0.5 "
              "--log-level bogus",
              &out),
      0)
      << out;
  EXPECT_NE(out.find("unrecognized log level 'bogus'"), std::string::npos)
      << out;
}

TEST_F(CliTest, BadArgumentsRejected) {
  std::string out;
  EXPECT_NE(run_cli("--layer 0,1,1,1,1 --device tiny", &out), 0);
  EXPECT_NE(run_cli("--device not_a_device --layer 4,4,4,4,1", &out), 0);
  EXPECT_NE(run_cli("", &out), 0);
}

TEST_F(CliTest, InfeasibleDesignRejected) {
  // A design saved for one mapping fails cleanly if hand-edited to an
  // infeasible one.
  const std::string design_path = ::testing::TempDir() + "/cli_bad_design.txt";
  {
    std::ofstream f(design_path);
    // row=c, col=r cannot both carry operand reuse (paper §2.3 example).
    f << "sasynth-design v1\n"
         "mapping row=2 col=3 vec=1\n"
         "shape 2 2 2\n"
         "middle 1 1 1 1 1 1\n";
  }
  std::string out;
  EXPECT_NE(run_cli("--layer 16,16,8,8,3 --device tiny --design " +
                        design_path,
                    &out),
            0);
  EXPECT_NE(out.find("not feasible"), std::string::npos);
}

}  // namespace
}  // namespace sasynth
