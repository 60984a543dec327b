#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/memory.h"
#include "common/result.h"
#include "storage/table.h"
#include "types/row_batch.h"

namespace htg::exec {

// Base class of the executor's batch operators. Subclasses implement
// ProduceBatch() only; NextBatch() forwards to it and ticks the
// exec.batch.* metrics so batch throughput shows up next to the morsel
// counters.
//
// Error contract matches storage::RowIterator: a false return means end
// of stream or error; status() distinguishes.
class BatchIterator : public storage::RowIterator {
 public:
  bool NextBatch(RowBatch* batch) final;

  Status status() const override { return status_; }

 protected:
  // Refills `batch` with up to its capacity of rows. Returns true iff at
  // least one live row was produced; on error, sets status_ and returns
  // false.
  virtual bool ProduceBatch(RowBatch* batch) = 0;

  Status status_;
};

// Rows held column by column: evaluated keys, then payload columns, so
// row i has the (keys ++ payload) layout of a spill-run record. The one
// buffer of the blocking operators other than the aggregate: the sort's
// input and the heads of its run merge, the hash join's build side, the
// merge join's current right key group and the nested-loop join's inner
// side.
class KeyedColumns {
 public:
  explicit KeyedColumns(size_t num_keys)
      : num_keys_(num_keys), cols_(num_keys) {}

  size_t rows() const { return rows_; }
  size_t num_keys() const { return num_keys_; }
  size_t num_columns() const { return cols_.size(); }
  std::vector<Value>& column(size_t c) { return cols_[c]; }
  const std::vector<Value>& column(size_t c) const { return cols_[c]; }
  // Every column, keys first.
  const std::vector<std::vector<Value>>& columns() const { return cols_; }

  // Moves live rows [begin, end) of `batch` into the columns: row j's
  // evaluated keys (*keys)[k][j], then its `payload` columns (every
  // column of the batch when null). Returns the values' footprint, for
  // the caller to charge.
  size_t Append(std::vector<std::vector<Value>>* keys, RowBatch* batch,
                const std::vector<int>* payload = nullptr, size_t begin = 0,
                size_t end = SIZE_MAX);

  // Drops every row, keeping the columns' capacity for the next rows.
  void Clear();

  // Drops every row and its memory, leaving `rows` NULL rows.
  void Reset(size_t rows);

 private:
  size_t num_keys_;
  std::vector<std::vector<Value>> cols_;
  size_t rows_ = 0;
};

// Iterator over pre-materialized batches: aggregate, constant scan and
// bulk import results. Holds the memory charge that accounts for the batches
// until the consumer is done with them.
class MaterializedBatchesIterator : public BatchIterator {
 public:
  explicit MaterializedBatchesIterator(std::vector<RowBatch> batches,
                                       MemoryCharge charge = MemoryCharge(
                                           nullptr))
      : batches_(std::move(batches)), charge_(std::move(charge)) {}

 protected:
  bool ProduceBatch(RowBatch* batch) override;

 private:
  std::vector<RowBatch> batches_;
  size_t next_ = 0;
  MemoryCharge charge_;
};

// Approximate resident bytes of a batch, every physical row included
// (ApproxRowBytes' unit, for charging held batches to a query budget).
size_t ApproxBatchBytes(const RowBatch& batch);

}  // namespace htg::exec
