#include "expr/aggregate.h"

#include "common/check.h"
#include "common/hash.h"
#include "expr/analysis.h"

namespace qtf {

const char* AggKindToSql(AggKind kind) {
  switch (kind) {
    case AggKind::kCountStar:
    case AggKind::kCount:
      return "COUNT";
    case AggKind::kSum:
      return "SUM";
    case AggKind::kMin:
      return "MIN";
    case AggKind::kMax:
      return "MAX";
    case AggKind::kAvg:
      return "AVG";
  }
  return "?";
}

ValueType AggregateCall::ResultType() const {
  switch (kind) {
    case AggKind::kCountStar:
    case AggKind::kCount:
      return ValueType::kInt64;
    case AggKind::kAvg:
      return ValueType::kDouble;
    case AggKind::kSum:
    case AggKind::kMin:
    case AggKind::kMax:
      QTF_CHECK(arg != nullptr);
      return arg->type();
  }
  return ValueType::kInt64;
}

std::string AggregateCall::ToString(const ColumnNameResolver* resolver) const {
  if (kind == AggKind::kCountStar) return "COUNT(*)";
  QTF_CHECK(arg != nullptr);
  return std::string(AggKindToSql(kind)) + "(" + arg->ToString(resolver) + ")";
}

bool AggregateCallEquals(const AggregateCall& a, const AggregateCall& b) {
  if (a.kind != b.kind) return false;
  if ((a.arg == nullptr) != (b.arg == nullptr)) return false;
  if (a.arg == nullptr) return true;
  return ExprEquals(*a.arg, *b.arg);
}

uint64_t StableAggregateCallHash(const AggregateCall& call) {
  uint64_t h = Mix64(static_cast<uint64_t>(call.kind) + 0xa66);
  if (call.arg != nullptr) h = HashCombine(h, StableExprHash(*call.arg));
  return h;
}

}  // namespace qtf
