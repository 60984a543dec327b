#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <memory>
#include <vector>

#include "common/memory.h"
#include "common/string_util.h"
#include "common/synchronization.h"
#include "exec/operator.h"
#include "storage/spill.h"
#include "types/value.h"

namespace htg::exec {

// Shared pieces of the hash operators (the one key hash and equality)
// and of the operators' spill machinery: the one hash-partition spill
// (PartitionSpill) and its recursion worklist (SpillWorklist) behind
// both the hash aggregate and the hash join, and the run accounting the
// external sort shares with them.

// The key hash in steps: start from KeyHashSeed(salt), fold in each
// value's Value::Hash() in key order, then finish. The final avalanche
// spreads every input bit over the word, so both a power-of-two slot
// mask (low bits) and "% partitions" see well-mixed bits.
inline size_t KeyHashSeed(size_t salt = 0) {
  return 14695981039346656037ULL ^ (0x9e3779b97f4a7c15ULL * salt);
}
inline size_t KeyHashStep(size_t h, size_t value_hash) {
  return (h ^ value_hash) * 1099511628211ULL;
}
inline size_t KeyHashFinish(size_t h) {
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdULL;
  h ^= h >> 33;
  return h;
}

// Keys held column by column: cols[k][row] is key k of a row, for the
// first n columns of `cols`.
using KeyCols = std::vector<std::vector<Value>>;

// The key hash of row `row`, salted by `salt`.
inline size_t HashKeyAt(const KeyCols& cols, size_t n, size_t row,
                        size_t salt = 0) {
  size_t h = KeyHashSeed(salt);
  for (size_t k = 0; k < n; ++k) h = KeyHashStep(h, cols[k][row].Hash());
  return KeyHashFinish(h);
}

// Key equality under Value::Compare (so 1 = 1.0, NULL = NULL), with the
// common integer-integer case inline.
inline bool KeyEqual(const Value& a, const Value& b) {
  if (a.IsIntegerKind() && b.IsIntegerKind()) {
    return a.AsInt64() == b.AsInt64();
  }
  return a.Compare(b) == 0;
}

// KeyEqual over the first n key columns of row i of `a` and row j of `b`.
inline bool KeysEqual(const KeyCols& a, size_t i, const KeyCols& b, size_t j,
                      size_t n) {
  for (size_t k = 0; k < n; ++k) {
    if (!KeyEqual(a[k][i], b[k][j])) return false;
  }
  return true;
}

// Fan-out of one partition-spill pass.
inline constexpr size_t kSpillPartitions = 16;

// Sub-partitioning at recursion depth > kMaxSpillDepth means the data is
// pathologically skewed (or the budget is absurdly small); the operator
// gives up with kResourceExhausted instead of looping.
inline constexpr int kMaxSpillDepth = 8;

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

// Credits one sealed spill run to the operator's EXPLAIN ANALYZE
// counters.
inline void CountSpillRun(OperatorStats* stats, const storage::SpillRun& run) {
  stats->spill_runs.fetch_add(1, std::memory_order_relaxed);
  stats->spill_bytes.fetch_add(run.bytes, std::memory_order_relaxed);
}

// One spilled partition awaiting its pass: the aggregate's input rows in
// runs[0], or a join's build rows in runs[0] and probe rows in runs[1].
// `level` is the recursion depth of that pass, whose own spill salts its
// hash with it.
struct SpillWork {
  storage::SpillFile* file;
  std::array<storage::SpillRun, 2> runs;
  int level;
};

// The partitions an operator still has to process, and the spill files
// holding them: the files (and so every reader of their runs) live as
// long as the worklist, and are deleted with it, even on error paths.
class SpillWorklist {
 public:
  bool empty() const { return work_.empty(); }

  // Pops the most recently queued partition, so sub-partitions drain
  // before their siblings; SpillDepthError past kMaxSpillDepth.
  Result<SpillWork> Pop(const char* op) {
    SpillWork work = std::move(work_.back());
    work_.pop_back();
    if (work.level > kMaxSpillDepth) return SpillDepthError(op);
    return work;
  }

 private:
  friend class PartitionSpill;

  std::vector<std::unique_ptr<storage::SpillFile>> files_;
  std::vector<SpillWork> work_;
};

// One pass's hash-partition spill: rows are routed by their key's hash,
// salted by the pass's recursion level, into kSpillPartitions runs per
// side on one spill file. The salt scatters keys that collided into one
// partition at level N across the partitions of level N+1, and no level
// shares the unsalted hash that in-memory tables probe with. Side 0
// takes aggregate input or join build rows, side 1 join probe rows.
// Thread-safe, and lazily engaged: the file and writers materialize on
// the first spilled row, so an operator that never spills pays one
// atomic load per check.
class PartitionSpill {
 public:
  PartitionSpill(ExecContext* ctx, OperatorStats* stats, const char* op,
                 int level, size_t sides = 1)
      : ctx_(ctx), stats_(stats), op_(op), level_(level), sides_(sides) {}

  bool engaged() const { return engaged_.load(std::memory_order_acquire); }

  // The salt of this pass's key hash.
  size_t salt() const { return static_cast<size_t>(level_) + 1; }

  // Appends row `row` of `columns` as one record to the partition on
  // `side` of `hash`, the row's key hash salted with salt(). The first
  // call creates the spill file, or fails with SpillUnavailableError
  // when the statement may not spill.
  Status Add(size_t side, size_t hash, const KeyCols& columns, size_t row) {
    MutexLock lock(&mu_);
    if (file_ == nullptr) {
      if (!ctx_->CanSpill()) return SpillUnavailableError(op_, *ctx_->mem);
      HTG_ASSIGN_OR_RETURN(file_,
                           storage::SpillFile::Create(ctx_->tablespace, "part"));
      writers_.reserve(sides_ * kSpillPartitions);
      for (size_t w = 0; w < sides_ * kSpillPartitions; ++w) {
        writers_.emplace_back(file_.get());
      }
      engaged_.store(true, std::memory_order_release);
    }
    return writers_[side * kSpillPartitions + hash % kSpillPartitions].Add(
        columns, row);
  }

  // Seals every partition, flushes the file so injected write faults
  // surface inside the statement, and hands the file and the partitions
  // to `worklist` for passes one level deeper. A partition with no rows
  // on its last side can yield nothing (no aggregate input, or no join
  // probe rows) and is dropped. Does nothing when no row spilled.
  Status Finish(SpillWorklist* worklist) {
    MutexLock lock(&mu_);
    if (file_ == nullptr) return Status::OK();
    std::vector<SpillWork> work(kSpillPartitions,
                                SpillWork{file_.get(), {}, level_ + 1});
    for (size_t w = 0; w < writers_.size(); ++w) {
      if (writers_[w].rows() == 0) continue;
      HTG_ASSIGN_OR_RETURN(storage::SpillRun run, writers_[w].Finish());
      CountSpillRun(stats_, run);
      work[w % kSpillPartitions].runs[w / kSpillPartitions] = std::move(run);
    }
    writers_.clear();
    HTG_RETURN_IF_ERROR(file_->Flush());
    for (SpillWork& w : work) {
      if (w.runs[sides_ - 1].rows > 0) worklist->work_.push_back(std::move(w));
    }
    worklist->files_.push_back(std::move(file_));
    return Status::OK();
  }

 private:
  ExecContext* ctx_;
  OperatorStats* stats_;
  const char* op_;
  int level_;
  size_t sides_;
  Mutex mu_{"PartitionSpill::mu_"};
  std::atomic<bool> engaged_{false};
  std::unique_ptr<storage::SpillFile> file_ HTG_GUARDED_BY(mu_);
  std::vector<storage::SpillRunWriter> writers_ HTG_GUARDED_BY(mu_);
};

}  // namespace htg::exec
