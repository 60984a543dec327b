#include "storage/scan_predicate.h"

#include <algorithm>

namespace htg::storage {

namespace {

const char* OpSymbol(ScanOp op) {
  switch (op) {
    case ScanOp::kEq:
      return "=";
    case ScanOp::kLt:
      return "<";
    case ScanOp::kLe:
      return "<=";
    case ScanOp::kGt:
      return ">";
    case ScanOp::kGe:
      return ">=";
  }
  return "?";
}

}  // namespace

std::string ScanPredicate::ToString(const Schema& schema) const {
  std::string out;
  for (const ScanTerm& t : terms) {
    if (!out.empty()) out += " AND ";
    out += schema.column(t.column).name;
    out += ' ';
    out += OpSymbol(t.op);
    out += ' ';
    out += t.literal.IsStringKind() ? "'" + t.literal.ToString() + "'"
                                    : t.literal.ToString();
  }
  return out;
}

bool RangeExcludes(int64_t min, int64_t max, const ScanTerm& term) {
  const int lo = Value::Int64(min).Compare(term.literal);
  const int hi = Value::Int64(max).Compare(term.literal);
  switch (term.op) {
    case ScanOp::kEq:
      return lo > 0 || hi < 0;
    case ScanOp::kLt:
      return lo >= 0;
    case ScanOp::kLe:
      return lo > 0;
    case ScanOp::kGt:
      return hi <= 0;
    case ScanOp::kGe:
      return hi < 0;
  }
  return false;
}

IntRange IntegerBounds(const ScanPredicate& pred, int column) {
  constexpr int64_t kMin = std::numeric_limits<int64_t>::min();
  constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
  IntRange range;
  for (const ScanTerm& t : pred.terms) {
    if (t.column != column || !t.literal.IsIntegerKind()) continue;
    range.bounded = true;
    const int64_t v = t.literal.AsInt64();
    // Strict bounds step to the next integer; past the ends of int64
    // nothing qualifies.
    switch (t.op) {
      case ScanOp::kEq:
        range.lower = std::max(range.lower, v);
        range.upper = std::min(range.upper, v);
        break;
      case ScanOp::kGt:
        if (v == kMax) return IntRange{kMax, kMin, true};
        range.lower = std::max(range.lower, v + 1);
        break;
      case ScanOp::kGe:
        range.lower = std::max(range.lower, v);
        break;
      case ScanOp::kLt:
        if (v == kMin) return IntRange{kMax, kMin, true};
        range.upper = std::min(range.upper, v - 1);
        break;
      case ScanOp::kLe:
        range.upper = std::min(range.upper, v);
        break;
    }
  }
  return range;
}

}  // namespace htg::storage
