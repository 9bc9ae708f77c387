#include "serve/framing.h"

#include <gtest/gtest.h>

#include <string>

#include "util/strings.h"

namespace sasynth {
namespace {

TEST(LineFramerTest, HoldsThePartialLineUntilMoreBytesOrEof) {
  LineFramer lines;
  std::string line;
  lines.append("alpha\nbe", 8);
  ASSERT_TRUE(lines.next_line(&line));
  EXPECT_EQ(line, "alpha");
  EXPECT_FALSE(lines.next_line(&line));  // "be" is not a line yet

  const std::string more = "ta\n\ngam";
  lines.append(more.data(), more.size());
  ASSERT_TRUE(lines.next_line(&line));
  EXPECT_EQ(line, "beta");
  ASSERT_TRUE(lines.next_line(&line));
  EXPECT_EQ(line, "");
  EXPECT_FALSE(lines.next_line(&line));

  // Clean EOF hands out the unterminated tail exactly once; an error would
  // have dropped it instead.
  LineFramer failed = lines;
  ASSERT_TRUE(lines.take_trailing(&line));
  EXPECT_EQ(line, "gam");
  EXPECT_FALSE(lines.take_trailing(&line));
  EXPECT_EQ(failed.drop_partial(), 3u);
  EXPECT_FALSE(failed.take_trailing(&line));
}

TEST(FrameAssemblerTest, CommandsAreTrimmedAndBlankLinesFrameNothing) {
  FrameAssembler frames;
  SessionFrame frame;
  EXPECT_FALSE(frames.push("", &frame));
  EXPECT_FALSE(frames.push("   ", &frame));
  ASSERT_TRUE(frames.push("  ping  ", &frame));
  EXPECT_FALSE(frame.is_block);
  EXPECT_EQ(frame.text, "ping");
  EXPECT_FALSE(frames.finish(&frame));  // no block open
}

TEST(FrameAssemblerTest, MagicLineOpensABlockThatCollectsUpToEnd) {
  const struct {
    const char* magic;
    BlockKind kind;
  } cases[] = {
      {"sasynth-request v1 ", BlockKind::kSynth},
      {"sasynth-deploy v1", BlockKind::kDeploy},
      {" sasynth-shard v1", BlockKind::kShard},
  };
  for (const auto& c : cases) {
    SCOPED_TRACE(c.magic);
    FrameAssembler frames;
    SessionFrame frame;
    EXPECT_FALSE(frames.push(c.magic, &frame));
    EXPECT_TRUE(frames.in_block());
    EXPECT_FALSE(frames.push("network tiny", &frame));
    EXPECT_FALSE(frames.push("", &frame));  // kept verbatim inside a block
    ASSERT_TRUE(frames.push(" end", &frame));
    EXPECT_FALSE(frames.in_block());
    EXPECT_TRUE(frame.is_block);
    EXPECT_EQ(frame.kind, c.kind);
    // The magic line is trimmed; every other line stays as it arrived.
    EXPECT_EQ(frame.text, trim(c.magic) + "\nnetwork tiny\n\n end\n");
  }
}

TEST(FrameAssemblerTest, FinishSubmitsABlockCutOffBeforeEnd) {
  FrameAssembler frames;
  SessionFrame frame;
  EXPECT_FALSE(frames.push("sasynth-request v1", &frame));
  EXPECT_FALSE(frames.push("layer 1,2", &frame));
  ASSERT_TRUE(frames.finish(&frame));
  EXPECT_TRUE(frame.is_block);
  EXPECT_EQ(frame.kind, BlockKind::kSynth);
  EXPECT_EQ(frame.text, "sasynth-request v1\nlayer 1,2\n");
  EXPECT_FALSE(frames.in_block());
  EXPECT_FALSE(frames.finish(&frame));  // nothing left to submit

  // The assembler is reusable after a finish.
  ASSERT_TRUE(frames.push("health", &frame));
  EXPECT_EQ(frame.text, "health");
}

}  // namespace
}  // namespace sasynth
