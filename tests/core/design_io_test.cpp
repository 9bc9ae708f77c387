#include "core/design_io.h"

#include <gtest/gtest.h>

#include "loopnest/conv_nest.h"
#include "nn/network.h"

namespace sasynth {
namespace {

class DesignIoTest : public ::testing::Test {
 protected:
  DesignIoTest() : nest_(build_conv_nest(alexnet_conv5())) {}

  DesignPoint sys1() const {
    return DesignPoint(
        nest_, SystolicMapping{ConvLoops::kO, ConvLoops::kC, ConvLoops::kI},
        ArrayShape{11, 13, 8}, {4, 4, 1, 13, 3, 3});
  }

  LoopNest nest_;
};

TEST_F(DesignIoTest, RoundTrip) {
  const DesignPoint original = sys1();
  const std::string text = save_design_text(original);
  const DesignLoadResult loaded = load_design_text(text, nest_);
  ASSERT_TRUE(loaded.ok) << loaded.error;
  EXPECT_EQ(loaded.design, original);
  EXPECT_EQ(loaded.design.signature(), original.signature());
}

TEST_F(DesignIoTest, FormatIsReadable) {
  const std::string text = save_design_text(sys1());
  EXPECT_NE(text.find("sasynth-design v1"), std::string::npos);
  EXPECT_NE(text.find("mapping row=0 col=2 vec=1"), std::string::npos);
  EXPECT_NE(text.find("shape 11 13 8"), std::string::npos);
  EXPECT_NE(text.find("middle 4 4 1 13 3 3"), std::string::npos);
}

TEST_F(DesignIoTest, ToleratesBlankLines) {
  std::string text = save_design_text(sys1());
  text = "\n\n" + text + "\n\n";
  EXPECT_TRUE(load_design_text(text, nest_).ok);
}

// Every byte-prefix of a valid blob either loads the complete design or
// fails cleanly — never a crash, never a partially-populated design.
TEST_F(DesignIoTest, TruncationSweepNeverYieldsPartialDesign) {
  const DesignPoint original = sys1();
  const std::string text = save_design_text(original);
  for (std::size_t len = 0; len <= text.size(); ++len) {
    const DesignLoadResult result = load_design_text(text.substr(0, len), nest_);
    if (result.ok) {
      EXPECT_EQ(result.design, original) << "prefix length " << len;
    } else {
      EXPECT_FALSE(result.error.empty()) << "prefix length " << len;
    }
  }
  // The full blob (and the full blob minus the trailing newline) round-trip.
  EXPECT_TRUE(load_design_text(text, nest_).ok);
  EXPECT_TRUE(load_design_text(text.substr(0, text.size() - 1), nest_).ok);
}

TEST_F(DesignIoTest, WrongFieldOrderRejected) {
  // Same lines as a valid blob, shape/mapping swapped.
  const std::string text =
      "sasynth-design v1\n"
      "shape 11 13 8\n"
      "mapping row=0 col=2 vec=1\n"
      "middle 4 4 1 13 3 3\n";
  const DesignLoadResult result = load_design_text(text, nest_);
  EXPECT_FALSE(result.ok);
  EXPECT_FALSE(result.error.empty());
}

TEST_F(DesignIoTest, ToleratesCarriageReturns) {
  std::string text = save_design_text(sys1());
  std::string crlf;
  for (char c : text) {
    if (c == '\n') crlf += '\r';
    crlf += c;
  }
  const DesignLoadResult result = load_design_text(crlf, nest_);
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_EQ(result.design, sys1());
}

struct BadInput {
  const char* name;
  const char* text;
  const char* expect;
};

// Print the case by name: gtest's default dumps the struct's bytes, whose
// pointers change from run to run and so would change the listed test ID.
void PrintTo(const BadInput& c, std::ostream* os) { *os << c.name; }

class DesignIoErrorTest : public ::testing::TestWithParam<BadInput> {};

TEST_P(DesignIoErrorTest, Rejected) {
  const LoopNest nest = build_conv_nest(alexnet_conv5());
  const DesignLoadResult result = load_design_text(GetParam().text, nest);
  EXPECT_FALSE(result.ok);
  EXPECT_NE(result.error.find(GetParam().expect), std::string::npos)
      << "actual: " << result.error;
}

INSTANTIATE_TEST_SUITE_P(
    Cases, DesignIoErrorTest,
    ::testing::Values(
        BadInput{"empty", "", "header"},
        BadInput{"bad_magic", "sasynth-design v9\n", "header"},
        BadInput{"missing_mapping", "sasynth-design v1\nshape 1 1 1\n",
                 "mapping"},
        BadInput{"mapping_oob",
                 "sasynth-design v1\nmapping row=9 col=2 vec=1\n"
                 "shape 2 2 2\nmiddle 1 1 1 1 1 1\n",
                 "out of range"},
        BadInput{"bad_shape",
                 "sasynth-design v1\nmapping row=0 col=2 vec=1\n"
                 "shape 0 2 2\nmiddle 1 1 1 1 1 1\n",
                 "shape"},
        BadInput{"middle_count",
                 "sasynth-design v1\nmapping row=0 col=2 vec=1\n"
                 "shape 2 2 2\nmiddle 1 1 1\n",
                 "count"},
        BadInput{"shape_garbage_token",
                 "sasynth-design v1\nmapping row=0 col=2 vec=1\n"
                 "shape 2x 2 2\nmiddle 1 1 1 1 1 1\n",
                 "integer"},
        BadInput{"shape_word",
                 "sasynth-design v1\nmapping row=0 col=2 vec=1\n"
                 "shape two 2 2\nmiddle 1 1 1 1 1 1\n",
                 "integer"},
        BadInput{"middle_garbage_token",
                 "sasynth-design v1\nmapping row=0 col=2 vec=1\n"
                 "shape 2 2 2\nmiddle 1 abc 1 1 1 1\n",
                 "integer"},
        BadInput{"middle_empty",
                 "sasynth-design v1\nmapping row=0 col=2 vec=1\n"
                 "shape 2 2 2\nmiddle\n",
                 "count"},
        BadInput{"mapping_garbage_role",
                 "sasynth-design v1\nmapping row=x col=2 vec=1\n"
                 "shape 2 2 2\nmiddle 1 1 1 1 1 1\n",
                 "mapping"},
        BadInput{"mapping_empty_role",
                 "sasynth-design v1\nmapping row= col=2 vec=1\n"
                 "shape 2 2 2\nmiddle 1 1 1 1 1 1\n",
                 "malformed mapping roles"},
        BadInput{"mapping_role_beyond_int64",
                 "sasynth-design v1\nmapping row=99999999999999999999 col=2 "
                 "vec=1\nshape 2 2 2\nmiddle 1 1 1 1 1 1\n",
                 "malformed mapping roles"},
        BadInput{"middle_zero",
                 "sasynth-design v1\nmapping row=0 col=2 vec=1\n"
                 "shape 2 2 2\nmiddle 1 0 1 1 1 1\n",
                 ">= 1"},
        BadInput{"oversized_block",
                 "sasynth-design v1\nmapping row=0 col=2 vec=1\n"
                 "shape 2 2 2\nmiddle 999 1 1 1 1 1\n",
                 "invalid design"}),
    [](const ::testing::TestParamInfo<BadInput>& info) {
      return info.param.name;
    });

}  // namespace
}  // namespace sasynth
