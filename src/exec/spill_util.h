#pragma once

#include <cstddef>
#include <vector>

#include "common/memory.h"
#include "common/string_util.h"
#include "types/value.h"

namespace htg::exec {

// Shared pieces of the hash operators (the one row hash and equality)
// and of the operators' spill machinery (external sort, hash aggregate /
// hash join partition spills).

// Hash of the key values [key, key + n), salted by `salt`. The final
// avalanche spreads every input bit over the word, so both a power-of-two
// slot mask (low bits) and "% partitions" see well-mixed bits.
inline size_t HashKey(const Value* key, size_t n, size_t salt = 0) {
  size_t h = 14695981039346656037ULL ^ (0x9e3779b97f4a7c15ULL * salt);
  for (size_t i = 0; i < n; ++i) {
    h ^= key[i].Hash();
    h *= 1099511628211ULL;
  }
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdULL;
  h ^= h >> 33;
  return h;
}

// Key equality under Value::Compare (so 1 = 1.0, NULL = NULL), with the
// common integer-integer case inline.
inline bool KeysEqual(const Value* a, const Value* b, size_t n) {
  for (size_t i = 0; i < n; ++i) {
    if (a[i].IsIntegerKind() && b[i].IsIntegerKind()) {
      if (a[i].AsInt64() != b[i].AsInt64()) return false;
    } else if (a[i].Compare(b[i]) != 0) {
      return false;
    }
  }
  return true;
}

// Hasher / equality for std containers keyed by a whole Row.
struct RowHash {
  size_t operator()(const Row& row) const {
    return HashKey(row.data(), row.size());
  }
};
struct RowEq {
  bool operator()(const Row& a, const Row& b) const {
    return a.size() == b.size() && KeysEqual(a.data(), b.data(), a.size());
  }
};

// Sub-partitioning at recursion depth > kMaxSpillDepth means the data is
// pathologically skewed (or the budget is absurdly small); the operator
// gives up with kResourceExhausted instead of looping.
inline constexpr int kMaxSpillDepth = 8;

// The row hash salted by spill recursion level: keys that collide into
// one partition at level N scatter across partitions at level N+1, and
// no level shares the unsalted hash that in-memory tables probe with.
inline size_t SpillRowHash(const Row& key, int level) {
  return HashKey(key.data(), key.size(), static_cast<size_t>(level) + 1);
}

// The error an over-budget operator raises when it cannot degrade.
inline Status SpillUnavailableError(const char* op, const MemoryContext& mem) {
  return Status::ResourceExhausted(StringPrintf(
      "%s: query memory budget exceeded (%zu bytes used, budget %zu) and "
      "spilling is unavailable (disabled or no tablespace); raise "
      "HTG_QUERY_MEM_MB or enable spilling",
      op, mem.used(), mem.budget()));
}

inline Status SpillDepthError(const char* op) {
  return Status::ResourceExhausted(StringPrintf(
      "%s: spill repartitioning exceeded depth %d (pathological key skew "
      "for this memory budget)",
      op, kMaxSpillDepth));
}

}  // namespace htg::exec
