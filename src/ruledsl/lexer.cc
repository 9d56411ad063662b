#include "ruledsl/lexer.h"

#include <cstdint>
#include <string>

#include "common/scanner.h"

namespace qtf {
namespace ruledsl {
namespace {

struct Keyword {
  const char* text;
  TokenKind kind;
};

// Structural keywords only; operator/guard names are plain identifiers
// resolved by the parser.
constexpr Keyword kKeywords[] = {
    {"rule", TokenKind::kRule},       {"match", TokenKind::kMatch},
    {"when", TokenKind::kWhen},       {"rewrite", TokenKind::kRewrite},
    {"or", TokenKind::kOr},
};

class Lexer {
 public:
  explicit Lexer(std::string_view text) : scan_(text, "rule DSL") {}

  Result<std::vector<Token>> Run() {
    return scan_.Tokenize<Token>([this](Token* token) { return Next(token); });
  }

 private:
  Status Next(Token* token) {
    const char c = scan_.Peek();
    if (Scanner::IsIdentStart(c)) {
      token->kind = TokenKind::kIdent;
      token->text = std::string(scan_.ScanIdent());
      for (const Keyword& keyword : kKeywords) {
        if (token->text == keyword.text) token->kind = keyword.kind;
      }
      return Status::OK();
    }
    if (c == '$') {
      scan_.Advance();
      if (!Scanner::IsIdentStart(scan_.Peek())) {
        return scan_.Error(token->line, token->col,
                           "expected identifier after '$'");
      }
      token->kind = TokenKind::kPlaceholder;
      token->text = std::string(scan_.ScanIdent());
      return Status::OK();
    }
    if (Scanner::IsDigit(c)) {
      std::string digits;
      while (Scanner::IsDigit(scan_.Peek())) digits.push_back(scan_.Advance());
      if (Scanner::IsIdentStart(scan_.Peek())) {
        return scan_.Error(token->line, token->col,
                           "malformed integer literal '" + digits + "'");
      }
      // Length cap keeps std::stoll in range; the DSL has no use for
      // integers this large anyway.
      if (digits.size() > 18) {
        return scan_.Error(token->line, token->col,
                           "integer literal too large '" + digits + "'");
      }
      token->kind = TokenKind::kIntLit;
      token->int_value = std::stoll(digits);
      token->text = std::move(digits);
      return Status::OK();
    }
    switch (c) {
      case '{':
        token->kind = TokenKind::kLBrace;
        break;
      case '}':
        token->kind = TokenKind::kRBrace;
        break;
      case '(':
        token->kind = TokenKind::kLParen;
        break;
      case ')':
        token->kind = TokenKind::kRParen;
        break;
      case ',':
        token->kind = TokenKind::kComma;
        break;
      case ':':
        token->kind = TokenKind::kColon;
        break;
      default:
        return scan_.Error(token->line, token->col,
                           std::string("unexpected character '") + c + "'");
    }
    scan_.Advance();
    return Status::OK();
  }

  Scanner scan_;
};

}  // namespace

const char* TokenKindToString(TokenKind kind) {
  switch (kind) {
    case TokenKind::kEnd:
      return "end of input";
    case TokenKind::kIdent:
      return "identifier";
    case TokenKind::kPlaceholder:
      return "placeholder";
    case TokenKind::kIntLit:
      return "integer";
    case TokenKind::kRule:
      return "'rule'";
    case TokenKind::kMatch:
      return "'match'";
    case TokenKind::kWhen:
      return "'when'";
    case TokenKind::kRewrite:
      return "'rewrite'";
    case TokenKind::kOr:
      return "'or'";
    case TokenKind::kLBrace:
      return "'{'";
    case TokenKind::kRBrace:
      return "'}'";
    case TokenKind::kLParen:
      return "'('";
    case TokenKind::kRParen:
      return "')'";
    case TokenKind::kComma:
      return "','";
    case TokenKind::kColon:
      return "':'";
  }
  return "unknown token";
}

Result<std::vector<Token>> LexRuleDsl(std::string_view text) {
  return Lexer(text).Run();
}

}  // namespace ruledsl
}  // namespace qtf
