#include "sql/frontend.h"

#include <memory>
#include <utility>

#include "sql/ast.h"
#include "sql/parser.h"

namespace qtf {
namespace sql {
namespace {

void Bump(obs::Counter* counter) {
  if (counter != nullptr) counter->Increment();
}

}  // namespace

SqlFrontend::SqlFrontend(const Catalog* catalog,
                         const SqlFrontendOptions& options)
    : catalog_(catalog), interner_(options.interner) {
  QTF_CHECK(catalog_ != nullptr);
  if (options.metrics != nullptr) {
    parsed_ = options.metrics->counter("qtf.sql.parsed");
    parse_errors_ = options.metrics->counter("qtf.sql.parse_errors");
    bind_errors_ = options.metrics->counter("qtf.sql.bind_errors");
  }
}

Result<Query> SqlFrontend::Parse(std::string_view input) const {
  auto parsed = ParseSql(input);
  if (!parsed.ok()) {
    Bump(parse_errors_);
    return parsed.status();
  }
  BinderOptions binder_options;
  binder_options.interner = interner_;
  auto bound = BindSql(**parsed, *catalog_, binder_options);
  if (!bound.ok()) {
    Bump(bind_errors_);
    return bound.status();
  }
  Bump(parsed_);
  return std::move(bound).value();
}

}  // namespace sql
}  // namespace qtf
