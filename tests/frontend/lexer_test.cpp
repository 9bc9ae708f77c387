#include "frontend/lexer.h"

#include <gtest/gtest.h>

namespace sasynth {
namespace {

std::vector<Token> lex_ok(const std::string& src) {
  std::vector<Token> tokens;
  std::string error;
  EXPECT_TRUE(lex(src, &tokens, &error)) << error;
  return tokens;
}

TEST(Lexer, EmptyInput) {
  const std::vector<Token> tokens = lex_ok("");
  ASSERT_EQ(tokens.size(), 1U);
  EXPECT_EQ(tokens[0].kind, TokenKind::kEnd);
}

TEST(Lexer, IdentifiersAndNumbers) {
  const std::vector<Token> tokens = lex_ok("for o 128 _x1");
  ASSERT_EQ(tokens.size(), 5U);
  EXPECT_TRUE(tokens[0].is_ident("for"));
  EXPECT_TRUE(tokens[1].is_ident("o"));
  EXPECT_EQ(tokens[2].kind, TokenKind::kNumber);
  EXPECT_EQ(tokens[2].value, 128);
  EXPECT_TRUE(tokens[3].is_ident("_x1"));
}

TEST(Lexer, Digraphs) {
  const std::vector<Token> tokens = lex_ok("o++ x += +");
  EXPECT_TRUE(tokens[1].is_punct("++"));
  EXPECT_TRUE(tokens[3].is_punct("+="));
  EXPECT_TRUE(tokens[4].is_punct("+"));
}

TEST(Lexer, Punctuation) {
  const std::vector<Token> tokens = lex_ok("( ) [ ] { } ; < = *");
  for (std::size_t i = 0; i + 1 < tokens.size(); ++i) {
    EXPECT_EQ(tokens[i].kind, TokenKind::kPunct);
  }
}

TEST(Lexer, PragmaCapturesWholeLine) {
  const std::vector<Token> tokens = lex_ok("#pragma sasynth systolic\nfor");
  ASSERT_GE(tokens.size(), 2U);
  EXPECT_EQ(tokens[0].kind, TokenKind::kPragma);
  EXPECT_EQ(tokens[0].text, "pragma sasynth systolic");
  EXPECT_TRUE(tokens[1].is_ident("for"));
}

TEST(Lexer, LineCommentsSkipped) {
  const std::vector<Token> tokens = lex_ok("a // comment with * and ;\nb");
  ASSERT_EQ(tokens.size(), 3U);
  EXPECT_TRUE(tokens[0].is_ident("a"));
  EXPECT_TRUE(tokens[1].is_ident("b"));
}

TEST(Lexer, LineNumbersTracked) {
  const std::vector<Token> tokens = lex_ok("a\nb\n\nc");
  EXPECT_EQ(tokens[0].line, 1);
  EXPECT_EQ(tokens[1].line, 2);
  EXPECT_EQ(tokens[2].line, 4);
}

TEST(Lexer, MalformedNumberRejected) {
  std::vector<Token> tokens;
  std::string error;
  EXPECT_FALSE(lex("123abc", &tokens, &error));
  EXPECT_NE(error.find("line 1"), std::string::npos);
  // Beyond int64: a parse error, not an uncaught std::out_of_range.
  EXPECT_FALSE(lex("a\n99999999999999999999", &tokens, &error));
  EXPECT_EQ(error, "line 2: number out of range");
  ASSERT_TRUE(lex("9223372036854775807", &tokens, &error)) << error;
  EXPECT_EQ(tokens[0].value, 9223372036854775807LL);
}

TEST(Lexer, UnexpectedCharacterRejected) {
  std::vector<Token> tokens;
  std::string error;
  EXPECT_FALSE(lex("a $ b", &tokens, &error));
  EXPECT_NE(error.find("'$'"), std::string::npos);
}

}  // namespace
}  // namespace sasynth
