#pragma once

#include <atomic>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "types/schema.h"
#include "types/value.h"

namespace htg::storage {

// The comparison of one scan predicate term.
enum class ScanOp : uint8_t { kEq, kLt, kLe, kGt, kGe };

// `column op literal`: a schema column index and a non-NULL literal.
struct ScanTerm {
  int column = 0;
  ScanOp op = ScanOp::kEq;
  Value literal;
};

// A conjunction of `column op literal` terms, extracted from a statement's
// WHERE, that a scan uses to skip data it can prove holds no matching row:
// heap pages whose summaries exclude a term, clustered keys outside the
// range the leading key column's terms allow. Skipping only drops work —
// the Filter above the scan still evaluates the whole WHERE — so a term a
// scan cannot use (a string or DOUBLE column) is simply ignored.
struct ScanPredicate {
  std::vector<ScanTerm> terms;

  bool empty() const { return terms.empty(); }
  // "t_id = 5 AND t_seq = 'ACGT'", column names from `schema`.
  std::string ToString(const Schema& schema) const;
};

// True when no integer v in [min, max] satisfies `v op literal` under
// Value::Compare, the comparison BinaryExpr evaluates with. Compare is
// monotone in v for every literal kind (integers exactly, doubles through
// the rounding int64 -> double, strings after every number), so testing
// the range's ends is sound.
bool RangeExcludes(int64_t min, int64_t max, const ScanTerm& term);

// The inclusive range the predicate's integer-literal terms on `column`
// allow. `bounded` is false when no such term exists; the range is empty
// when lower > upper.
struct IntRange {
  int64_t lower = std::numeric_limits<int64_t>::min();
  int64_t upper = std::numeric_limits<int64_t>::max();
  bool bounded = false;
};
IntRange IntegerBounds(const ScanPredicate& pred, int column);

// Pages a heap scan read and skipped, summed over its morsels for EXPLAIN
// ANALYZE.
struct PageCounts {
  std::atomic<uint64_t> read{0};
  std::atomic<uint64_t> skipped{0};
};

}  // namespace htg::storage
