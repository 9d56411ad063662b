#include "common/scanner.h"

#include <cctype>

namespace qtf {

Status Scanner::Error(int line, int col, const std::string& message) const {
  return Status::InvalidArgument(std::string(error_prefix_) + " error at " +
                                 std::to_string(line) + ":" +
                                 std::to_string(col) + ": " + message);
}

Status Scanner::SkipSpaceAndComments() {
  while (!AtEnd()) {
    const char c = Peek();
    if (std::isspace(static_cast<unsigned char>(c))) {
      Advance();
    } else if (c == '-' && Peek(1) == '-') {
      while (!AtEnd() && Peek() != '\n') Advance();
    } else if (c == '/' && Peek(1) == '*') {
      const int line = line_, col = col_;
      Advance();
      Advance();
      while (!(Peek() == '*' && Peek(1) == '/')) {
        if (AtEnd()) return Error(line, col, "unterminated block comment");
        Advance();
      }
      Advance();
      Advance();
    } else {
      break;
    }
  }
  return Status::OK();
}

std::string_view Scanner::ScanIdent() {
  const size_t start = pos_;
  while (!AtEnd() && IsIdentChar(Peek())) Advance();
  return input_.substr(start, pos_ - start);
}

}  // namespace qtf
