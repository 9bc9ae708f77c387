#include "frontend/lexer.h"

#include <cctype>

#include "util/strings.h"

namespace sasynth {

bool Token::is_ident(const char* s) const {
  return kind == TokenKind::kIdent && text == s;
}

bool Token::is_punct(const char* s) const {
  return kind == TokenKind::kPunct && text == s;
}

bool lex(const std::string& source, std::vector<Token>* tokens,
         std::string* error) {
  tokens->clear();
  int line = 1;
  std::size_t i = 0;
  const std::size_t n = source.size();

  auto fail = [&](const std::string& msg) {
    if (error != nullptr) *error = "line " + std::to_string(line) + ": " + msg;
    return false;
  };

  while (i < n) {
    const char c = source[i];
    if (c == '\n') {
      ++line;
      ++i;
      continue;
    }
    if (std::isspace(static_cast<unsigned char>(c))) {
      ++i;
      continue;
    }
    if (c == '/' && i + 1 < n && source[i + 1] == '/') {
      while (i < n && source[i] != '\n') ++i;
      continue;
    }
    if (c == '#') {
      // Whole-line pragma/preprocessor token.
      const std::size_t start = i + 1;
      std::size_t end = start;
      while (end < n && source[end] != '\n') ++end;
      Token t;
      t.kind = TokenKind::kPragma;
      t.text = trim(source.substr(start, end - start));
      t.line = line;
      tokens->push_back(std::move(t));
      i = end;
      continue;
    }
    if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
      const std::size_t start = i;
      while (i < n && (std::isalnum(static_cast<unsigned char>(source[i])) ||
                       source[i] == '_')) {
        ++i;
      }
      Token t;
      t.kind = TokenKind::kIdent;
      t.text = source.substr(start, i - start);
      t.line = line;
      tokens->push_back(std::move(t));
      continue;
    }
    if (std::isdigit(static_cast<unsigned char>(c))) {
      const std::size_t start = i;
      while (i < n && std::isdigit(static_cast<unsigned char>(source[i]))) ++i;
      if (i < n && (std::isalpha(static_cast<unsigned char>(source[i])) ||
                    source[i] == '_')) {
        return fail("malformed number");
      }
      Token t;
      t.kind = TokenKind::kNumber;
      t.text = source.substr(start, i - start);
      if (!parse_int64_strict(t.text, &t.value)) {
        return fail("number out of range");  // all digits: only overflow
      }
      t.line = line;
      tokens->push_back(std::move(t));
      continue;
    }
    // Punctuation, including the ++ and += digraphs.
    static const char* singles = "()[]{};<=+*";
    if (std::string(singles).find(c) != std::string::npos) {
      Token t;
      t.kind = TokenKind::kPunct;
      t.line = line;
      if (c == '+' && i + 1 < n && (source[i + 1] == '+' || source[i + 1] == '=')) {
        t.text = source.substr(i, 2);
        i += 2;
      } else {
        t.text = std::string(1, c);
        ++i;
      }
      tokens->push_back(std::move(t));
      continue;
    }
    return fail(std::string("unexpected character '") + c + "'");
  }
  Token end;
  end.kind = TokenKind::kEnd;
  end.line = line;
  tokens->push_back(std::move(end));
  return true;
}

}  // namespace sasynth
