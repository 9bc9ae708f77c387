#include "frontend/parser.h"

#include <gtest/gtest.h>

#include "loopnest/conv_nest.h"
#include "util/rng.h"

namespace sasynth {
namespace {

const char* const kConvSource = R"(
#pragma sasynth systolic
for (o = 0; o < 128; o++)
 for (i = 0; i < 192; i++)
  for (c = 0; c < 13; c++)
   for (r = 0; r < 13; r++)
    for (p = 0; p < 3; p++)
     for (q = 0; q < 3; q++)
      OUT[o][r][c] += W[o][i][p][q] * IN[i][r + p][c + q];
)";

TEST(Parser, ParsesCode1) {
  const ParseResult result = parse_loop_nest(kConvSource);
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_EQ(result.nest.num_loops(), 6U);
  EXPECT_EQ(result.nest.loop(0).name, "o");
  EXPECT_EQ(result.nest.loop(0).trip, 128);
  EXPECT_EQ(result.nest.loop(5).name, "q");
  EXPECT_EQ(result.nest.num_accesses(), 3U);
  EXPECT_TRUE(result.has_pragma_word("systolic"));
  EXPECT_FALSE(result.has_pragma_word("winograd"));
}

TEST(Parser, AccessStructure) {
  const ParseResult result = parse_loop_nest(kConvSource);
  ASSERT_TRUE(result.ok);
  const LoopNest& nest = result.nest;
  const std::size_t out = nest.find_access("OUT");
  ASSERT_NE(out, LoopNest::npos);
  EXPECT_EQ(nest.accesses()[out].role, AccessRole::kReduce);
  EXPECT_EQ(nest.accesses()[out].access.rank(), 3U);
  const std::size_t in = nest.find_access("IN");
  ASSERT_NE(in, LoopNest::npos);
  // IN dim 1 is r + p.
  EXPECT_EQ(nest.accesses()[in].access.indices[1].coeff(3), 1);  // r
  EXPECT_EQ(nest.accesses()[in].access.indices[1].coeff(4), 1);  // p
}

TEST(Parser, IntDeclarationAndBraces) {
  const char* const src = R"(
for (int a = 0; a < 4; a++) {
  for (int b = 0; b < 5; b++) {
    O[a] += X[b] * Y[a][b];
  }
}
)";
  const ParseResult result = parse_loop_nest(src);
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_EQ(result.nest.num_loops(), 2U);
  EXPECT_EQ(result.nest.loop(1).trip, 5);
}

TEST(Parser, StridedAccess) {
  const char* const src = R"(
for (o = 0; o < 4; o++)
 for (i = 0; i < 4; i++)
  for (c = 0; c < 4; c++)
   for (r = 0; r < 4; r++)
    for (p = 0; p < 3; p++)
     for (q = 0; q < 3; q++)
      OUT[o][r][c] += W[o][i][p][q] * IN[i][2*r + p][2*c + q];
)";
  const ParseResult result = parse_loop_nest(src);
  ASSERT_TRUE(result.ok) << result.error;
  const LoopNest& nest = result.nest;
  const std::size_t in = nest.find_access("IN");
  EXPECT_EQ(nest.accesses()[in].access.indices[1].coeff(3), 2);
  // Reversed coefficient order also accepted: q*2.
  const char* const src2 = R"(
for (a = 0; a < 4; a++)
 for (b = 0; b < 4; b++)
  O[a] += X[a][b*2] * Y[b];
)";
  const ParseResult r2 = parse_loop_nest(src2);
  ASSERT_TRUE(r2.ok) << r2.error;
  EXPECT_EQ(r2.nest.accesses()[1].access.indices[1].coeff(1), 2);
}

TEST(Parser, MultiplePragmas) {
  const std::string src = std::string("#pragma one\n#pragma two three\n") +
                          "for (a = 0; a < 2; a++)\n O[a] += X[a] * Y[a];\n";
  const ParseResult result = parse_loop_nest(src);
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_EQ(result.pragmas.size(), 2U);
  EXPECT_TRUE(result.has_pragma_word("three"));
}

TEST(ParserFuzz, RandomTokenSoupNeverCrashes) {
  // Robustness: arbitrary token sequences must produce a clean error (or,
  // rarely, a valid parse), never a crash or hang.
  const std::vector<std::string> vocab{
      "for", "(", ")", "[", "]", "{", "}", ";", "<", "=", "+", "*", "++",
      "+=", "o", "i", "OUT", "W", "IN", "0", "1", "13", "int",
      "#pragma sasynth systolic\n"};
  Rng rng(4242);
  for (int trial = 0; trial < 400; ++trial) {
    std::string source;
    const std::int64_t len = rng.next_range(1, 40);
    for (std::int64_t t = 0; t < len; ++t) {
      source += vocab[rng.next_below(vocab.size())];
      source += " ";
    }
    const ParseResult result = parse_loop_nest(source);
    if (!result.ok) {
      EXPECT_FALSE(result.error.empty());
    }
  }
}

TEST(ParserFuzz, TruncatedConvPrefixesFailCleanly) {
  const std::string full = R"(#pragma sasynth systolic
for (o = 0; o < 8; o++)
 for (i = 0; i < 8; i++)
  OUT[o][i] += W[o][i] * IN[i][o];
)";
  for (std::size_t cut = 0; cut < full.size(); cut += 3) {
    const ParseResult result = parse_loop_nest(full.substr(0, cut));
    if (cut < full.size() - 2) {
      EXPECT_FALSE(result.ok) << "prefix length " << cut;
    }
  }
}

struct BadCase {
  const char* name;
  const char* source;
  const char* expect_in_error;
};

// Print the case by name: gtest's default dumps the struct's bytes, whose
// pointers change from run to run and so would change the listed test ID.
void PrintTo(const BadCase& c, std::ostream* os) { *os << c.name; }

class ParserErrorTest : public ::testing::TestWithParam<BadCase> {};

TEST_P(ParserErrorTest, Rejected) {
  const ParseResult result = parse_loop_nest(GetParam().source);
  EXPECT_FALSE(result.ok);
  EXPECT_NE(result.error.find(GetParam().expect_in_error), std::string::npos)
      << "actual error: " << result.error;
}

INSTANTIATE_TEST_SUITE_P(
    Cases, ParserErrorTest,
    ::testing::Values(
        BadCase{"nonzero_start",
                "for (a = 1; a < 4; a++)\n O[a] += X[a] * Y[a];", "start at 0"},
        BadCase{"wrong_cond_var",
                "for (a = 0; b < 4; a++)\n O[a] += X[a] * Y[a];",
                "condition"},
        BadCase{"wrong_inc_var",
                "for (a = 0; a < 4; b++)\n O[a] += X[a] * Y[a];",
                "increment"},
        BadCase{"shadowing",
                "for (a = 0; a < 4; a++)\n for (a = 0; a < 2; a++)\n  O[a] += "
                "X[a] * Y[a];",
                "shadows"},
        BadCase{"zero_bound",
                "for (a = 0; a < 0; a++)\n O[a] += X[a] * Y[a];", ">= 1"},
        BadCase{"unknown_iter",
                "for (a = 0; a < 4; a++)\n O[a] += X[z] * Y[a];",
                "not an enclosing loop"},
        BadCase{"no_subscript",
                "for (a = 0; a < 4; a++)\n O += X[a] * Y[a];", "expected '['"},
        BadCase{"trailing_tokens",
                "for (a = 0; a < 4; a++)\n O[a] += X[a] * Y[a]; extra",
                "trailing"},
        BadCase{"missing_semicolon",
                "for (a = 0; a < 4; a++)\n O[a] += X[a] * Y[a]", "';'"},
        BadCase{"not_mac",
                "for (a = 0; a < 4; a++)\n O[a] += X[a];", "'*'"}),
    [](const ::testing::TestParamInfo<BadCase>& info) {
      return info.param.name;
    });

}  // namespace
}  // namespace sasynth
