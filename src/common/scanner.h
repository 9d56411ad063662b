#ifndef QTF_COMMON_SCANNER_H_
#define QTF_COMMON_SCANNER_H_

#include <cstddef>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/result.h"

namespace qtf {

/// The character-level core shared by the SQL lexer (src/sql/) and the rule
/// DSL lexer (src/ruledsl/): a cursor with 1-based line:column tracking,
/// whitespace and comment skipping, identifier scanning, positioned errors
/// and the tokenize loop. Each lexer keeps its own keywords, literals and
/// punctuation.
class Scanner {
 public:
  /// Every error reads "<error_prefix> error at <line>:<col>: <message>".
  Scanner(std::string_view input, const char* error_prefix)
      : input_(input), error_prefix_(error_prefix) {}

  bool AtEnd() const { return pos_ >= input_.size(); }
  /// The character `ahead` places on, or '\0' past the end.
  char Peek(size_t ahead = 0) const {
    return pos_ + ahead < input_.size() ? input_[pos_ + ahead] : '\0';
  }
  /// Consumes one character; requires !AtEnd().
  char Advance() {
    char c = input_[pos_++];
    if (c == '\n') {
      ++line_;
      col_ = 1;
    } else {
      ++col_;
    }
    return c;
  }

  /// kInvalidArgument naming the 1-based position.
  Status Error(int line, int col, const std::string& message) const;

  /// Skips whitespace (std::isspace), `--` line comments and `/* */` block
  /// comments. An unterminated block comment is an error at the position
  /// where it opens.
  Status SkipSpaceAndComments();

  /// ASCII character classes of identifiers and numbers.
  static bool IsIdentStart(char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_';
  }
  static bool IsDigit(char c) { return c >= '0' && c <= '9'; }
  static bool IsIdentChar(char c) { return IsIdentStart(c) || IsDigit(c); }

  /// Consumes the longest run of identifier characters here and returns
  /// its spelling.
  std::string_view ScanIdent();

  /// The tokenize loop: skips space and comments, stamps each token with
  /// the position of its first character, and lets `next(&token)` lex it.
  /// The returned vector always ends with a kEnd token.
  template <typename Token, typename NextFn>
  Result<std::vector<Token>> Tokenize(NextFn next) {
    std::vector<Token> tokens;
    while (true) {
      QTF_RETURN_NOT_OK(SkipSpaceAndComments());
      Token token;
      token.line = line_;
      token.col = col_;
      if (AtEnd()) {
        token.kind = decltype(token.kind)::kEnd;
        tokens.push_back(std::move(token));
        return tokens;
      }
      QTF_RETURN_NOT_OK(next(&token));
      tokens.push_back(std::move(token));
    }
  }

 private:
  std::string_view input_;
  const char* error_prefix_;
  size_t pos_ = 0;
  int line_ = 1;
  int col_ = 1;
};

}  // namespace qtf

#endif  // QTF_COMMON_SCANNER_H_
