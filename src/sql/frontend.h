#ifndef QTF_SQL_FRONTEND_H_
#define QTF_SQL_FRONTEND_H_

#include <string_view>

#include "catalog/catalog.h"
#include "common/result.h"
#include "logical/interner.h"
#include "logical/query.h"
#include "obs/metrics.h"
#include "sql/binder.h"

namespace qtf {
namespace sql {

struct SqlFrontendOptions {
  /// Canonicalizes bound trees into the optimizer's hash-consed space.
  /// Borrowed; may be null (trees then stand alone).
  NodeInterner* interner = nullptr;
  /// Receives qtf.sql.{parsed,parse_errors,bind_errors}. Borrowed; may be
  /// null.
  obs::MetricsRegistry* metrics = nullptr;
};

/// SQL text → logical Query, closing the render→parse→bind loop: for every
/// tree t the generator produces, Parse(GenerateSql(t)) binds to a tree
/// with the same TreeFingerprint as t (tests/test_sql_roundtrip.cc proves
/// this over the full rule-edge corpus). Ordinary SELECT statements over
/// the catalog's tables bind too — see docs/sql.md for the grammar subset.
///
/// Thread-safe: Parse is const and every call works on its own parser and
/// registry state (the interner and metrics registry are themselves
/// thread-safe), so one frontend can serve concurrent service requests.
class SqlFrontend {
 public:
  SqlFrontend(const Catalog* catalog, const SqlFrontendOptions& options = {});
  SqlFrontend(const SqlFrontend&) = delete;
  SqlFrontend& operator=(const SqlFrontend&) = delete;

  /// Parses and binds one SQL statement. All failures are kInvalidArgument
  /// carrying a 1-based line:column; no input crashes the frontend.
  Result<Query> Parse(std::string_view input) const;

 private:
  const Catalog* catalog_;
  NodeInterner* interner_;
  // Resolved once from SqlFrontendOptions::metrics; all null without it.
  obs::Counter* parsed_ = nullptr;        // qtf.sql.parsed
  obs::Counter* parse_errors_ = nullptr;  // qtf.sql.parse_errors
  obs::Counter* bind_errors_ = nullptr;   // qtf.sql.bind_errors
};

}  // namespace sql
}  // namespace qtf

#endif  // QTF_SQL_FRONTEND_H_
