#ifndef QTF_RULEDSL_LEXER_H_
#define QTF_RULEDSL_LEXER_H_

#include <string_view>
#include <vector>

#include "common/result.h"
#include "ruledsl/token.h"

namespace qtf {
namespace ruledsl {

/// Tokenizes .qtr rule DSL text. Keywords are case-sensitive. Never
/// crashes on malformed input: every failure is kInvalidArgument carrying a
/// 1-based "rule DSL error at line:col" position. Whitespace, `--` line
/// comments and `/* */` block comments are skipped by the scanner the SQL
/// lexer shares (common/scanner.h); an unterminated block comment reports
/// the position where it was opened.
Result<std::vector<Token>> LexRuleDsl(std::string_view text);

}  // namespace ruledsl
}  // namespace qtf

#endif  // QTF_RULEDSL_LEXER_H_
