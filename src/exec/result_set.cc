#include "exec/result_set.h"

#include <algorithm>
#include <cmath>

namespace qtf {
namespace {

constexpr double kRelTolerance = 1e-9;
constexpr double kAbsTolerance = 1e-9;

bool DoubleClose(double a, double b) {
  double diff = std::fabs(a - b);
  if (diff <= kAbsTolerance) return true;
  return diff <= kRelTolerance * std::max(std::fabs(a), std::fabs(b));
}

/// Tolerant value equality (exact for non-doubles).
bool ValueClose(const Value& a, const Value& b) {
  if (a.type() != b.type()) return false;
  if (a.is_null() || b.is_null()) return a.is_null() == b.is_null();
  if (a.type() == ValueType::kDouble) return DoubleClose(a.dbl(), b.dbl());
  return a.Compare(b) == 0;
}

bool RowClose(const Row& a, const Row& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (!ValueClose(a[i], b[i])) return false;
  }
  return true;
}

}  // namespace

bool ResultBagEquals(const ResultSet& a, const ResultSet& b) {
  if (a.columns != b.columns) return false;
  if (a.rows.size() != b.rows.size()) return false;
  std::vector<Row> sa = a.rows;
  std::vector<Row> sb = b.rows;
  auto less = [](const Row& x, const Row& y) { return CompareRows(x, y) < 0; };
  std::sort(sa.begin(), sa.end(), less);
  std::sort(sb.begin(), sb.end(), less);
  for (size_t i = 0; i < sa.size(); ++i) {
    if (!RowClose(sa[i], sb[i])) return false;
  }
  return true;
}

}  // namespace qtf
