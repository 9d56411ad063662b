#include "sql/lexer.h"

#include <cctype>
#include <cerrno>
#include <cstdlib>
#include <string>
#include <utility>

#include "common/scanner.h"

namespace qtf {
namespace sql {
namespace {

struct Keyword {
  const char* spelling;
  TokenKind kind;
};

constexpr Keyword kKeywords[] = {
    {"SELECT", TokenKind::kSelect}, {"DISTINCT", TokenKind::kDistinct},
    {"FROM", TokenKind::kFrom},     {"WHERE", TokenKind::kWhere},
    {"GROUP", TokenKind::kGroup},   {"BY", TokenKind::kBy},
    {"AS", TokenKind::kAs},         {"AND", TokenKind::kAnd},
    {"OR", TokenKind::kOr},         {"NOT", TokenKind::kNot},
    {"EXISTS", TokenKind::kExists}, {"IS", TokenKind::kIs},
    {"NULL", TokenKind::kNull},     {"TRUE", TokenKind::kTrue},
    {"FALSE", TokenKind::kFalse},   {"UNION", TokenKind::kUnion},
    {"ALL", TokenKind::kAll},       {"INNER", TokenKind::kInner},
    {"JOIN", TokenKind::kJoin},     {"LEFT", TokenKind::kLeft},
    {"OUTER", TokenKind::kOuter},   {"CROSS", TokenKind::kCross},
    {"ON", TokenKind::kOn},
};

std::string ToUpper(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) out.push_back(static_cast<char>(
      std::toupper(static_cast<unsigned char>(c))));
  return out;
}

class Lexer {
 public:
  explicit Lexer(std::string_view input) : scan_(input, "SQL lex") {}

  Result<std::vector<Token>> Run() {
    return scan_.Tokenize<Token>([this](Token* token) { return Next(token); });
  }

 private:
  Status Next(Token* token) {
    const char c = scan_.Peek();
    if (Scanner::IsIdentStart(c)) return LexIdent(token);
    if (Scanner::IsDigit(c)) return LexNumber(token);
    if (c == '\'') return LexString(token);
    return LexOperator(token);
  }

  Status LexIdent(Token* token) {
    std::string_view spelling = scan_.ScanIdent();
    const std::string upper = ToUpper(spelling);
    for (const Keyword& kw : kKeywords) {
      if (upper == kw.spelling) {
        token->kind = kw.kind;
        token->text = kw.spelling;
        return Status::OK();
      }
    }
    token->kind = TokenKind::kIdent;
    token->text = std::string(spelling);
    return Status::OK();
  }

  void ScanDigits(std::string* text) {
    while (Scanner::IsDigit(scan_.Peek())) text->push_back(scan_.Advance());
  }

  Status LexNumber(Token* token) {
    std::string text;
    ScanDigits(&text);
    bool is_double = false;
    if (scan_.Peek() == '.' && Scanner::IsDigit(scan_.Peek(1))) {
      is_double = true;
      text.push_back(scan_.Advance());
      ScanDigits(&text);
    }
    if (scan_.Peek() == 'e' || scan_.Peek() == 'E') {
      size_t ahead = 1;
      if (scan_.Peek(1) == '+' || scan_.Peek(1) == '-') ahead = 2;
      if (Scanner::IsDigit(scan_.Peek(ahead))) {
        is_double = true;
        while (ahead-- > 0) text.push_back(scan_.Advance());
        ScanDigits(&text);
      }
    }
    errno = 0;
    if (is_double) {
      token->kind = TokenKind::kDoubleLit;
      token->double_value = std::strtod(text.c_str(), nullptr);
      if (errno == ERANGE) {
        return scan_.Error(token->line, token->col,
                           "double literal out of range: " + text);
      }
    } else {
      token->kind = TokenKind::kIntLit;
      token->int_value = std::strtoll(text.c_str(), nullptr, 10);
      if (errno == ERANGE) {
        return scan_.Error(token->line, token->col,
                           "integer literal out of range: " + text);
      }
    }
    return Status::OK();
  }

  Status LexString(Token* token) {
    scan_.Advance();  // opening quote
    std::string value;
    while (true) {
      if (scan_.AtEnd()) {
        return scan_.Error(token->line, token->col,
                           "unterminated string literal");
      }
      char c = scan_.Advance();
      if (c == '\'') {
        if (scan_.Peek() == '\'') {
          value.push_back('\'');
          scan_.Advance();
        } else {
          break;
        }
      } else {
        value.push_back(c);
      }
    }
    token->kind = TokenKind::kStringLit;
    token->text = std::move(value);
    return Status::OK();
  }

  Status LexOperator(Token* token) {
    const char c = scan_.Advance();
    switch (c) {
      case '(': token->kind = TokenKind::kLParen; return Status::OK();
      case ')': token->kind = TokenKind::kRParen; return Status::OK();
      case ',': token->kind = TokenKind::kComma; return Status::OK();
      case '.': token->kind = TokenKind::kDot; return Status::OK();
      case '*': token->kind = TokenKind::kStar; return Status::OK();
      case '+': token->kind = TokenKind::kPlus; return Status::OK();
      case '-': token->kind = TokenKind::kMinus; return Status::OK();
      case '/': token->kind = TokenKind::kSlash; return Status::OK();
      case '=': token->kind = TokenKind::kEq; return Status::OK();
      case '<':
        if (scan_.Peek() == '>') {
          scan_.Advance();
          token->kind = TokenKind::kNe;
        } else if (scan_.Peek() == '=') {
          scan_.Advance();
          token->kind = TokenKind::kLe;
        } else {
          token->kind = TokenKind::kLt;
        }
        return Status::OK();
      case '>':
        if (scan_.Peek() == '=') {
          scan_.Advance();
          token->kind = TokenKind::kGe;
        } else {
          token->kind = TokenKind::kGt;
        }
        return Status::OK();
      case '!':
        if (scan_.Peek() == '=') {
          scan_.Advance();
          token->kind = TokenKind::kNe;
          return Status::OK();
        }
        return scan_.Error(token->line, token->col, "stray '!'");
      default:
        return scan_.Error(token->line, token->col,
                           std::string("unexpected character '") + c + "'");
    }
  }

  Scanner scan_;
};

}  // namespace

const char* TokenKindToString(TokenKind kind) {
  switch (kind) {
    case TokenKind::kEnd: return "end of input";
    case TokenKind::kIdent: return "identifier";
    case TokenKind::kIntLit: return "integer literal";
    case TokenKind::kDoubleLit: return "double literal";
    case TokenKind::kStringLit: return "string literal";
    case TokenKind::kSelect: return "SELECT";
    case TokenKind::kDistinct: return "DISTINCT";
    case TokenKind::kFrom: return "FROM";
    case TokenKind::kWhere: return "WHERE";
    case TokenKind::kGroup: return "GROUP";
    case TokenKind::kBy: return "BY";
    case TokenKind::kAs: return "AS";
    case TokenKind::kAnd: return "AND";
    case TokenKind::kOr: return "OR";
    case TokenKind::kNot: return "NOT";
    case TokenKind::kExists: return "EXISTS";
    case TokenKind::kIs: return "IS";
    case TokenKind::kNull: return "NULL";
    case TokenKind::kTrue: return "TRUE";
    case TokenKind::kFalse: return "FALSE";
    case TokenKind::kUnion: return "UNION";
    case TokenKind::kAll: return "ALL";
    case TokenKind::kInner: return "INNER";
    case TokenKind::kJoin: return "JOIN";
    case TokenKind::kLeft: return "LEFT";
    case TokenKind::kOuter: return "OUTER";
    case TokenKind::kCross: return "CROSS";
    case TokenKind::kOn: return "ON";
    case TokenKind::kLParen: return "'('";
    case TokenKind::kRParen: return "')'";
    case TokenKind::kComma: return "','";
    case TokenKind::kDot: return "'.'";
    case TokenKind::kStar: return "'*'";
    case TokenKind::kEq: return "'='";
    case TokenKind::kNe: return "'<>'";
    case TokenKind::kLt: return "'<'";
    case TokenKind::kLe: return "'<='";
    case TokenKind::kGt: return "'>'";
    case TokenKind::kGe: return "'>='";
    case TokenKind::kPlus: return "'+'";
    case TokenKind::kMinus: return "'-'";
    case TokenKind::kSlash: return "'/'";
  }
  return "?";
}

Result<std::vector<Token>> Tokenize(std::string_view input) {
  Lexer lexer(input);
  return lexer.Run();
}

}  // namespace sql
}  // namespace qtf
