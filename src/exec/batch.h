#pragma once

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

// Row cursor over a batch stream: the one way a row-at-a-time consumer
// (the joins, the stream aggregate, INSERT ... SELECT, provenance) reads
// an operator's output. Each live row is swapped out of the cursor's own
// batch into the caller's row; exec.batch.fillrow_rows counts the rows
// that cross back into row form.
class BatchReader {
 public:
  explicit BatchReader(storage::RowIterator* iter) : iter_(iter) {}
  ~BatchReader();

  BatchReader(const BatchReader&) = delete;
  BatchReader& operator=(const BatchReader&) = delete;

  // Produces the next row. Returns false at end of stream or on error
  // (check status() to distinguish).
  bool Next(Row* row);

  Status status() const { return iter_->status(); }

 private:
  storage::RowIterator* iter_;
  RowBatch batch_;
  size_t pos_ = 0;
  uint64_t uncounted_ = 0;  // rows read since the metric last ticked
};

// Iterator over pre-materialized batches: sort, aggregate and constant
// scan results. Holds the memory charge that accounts for the batches
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

// Moves `rows` into dense batches of RowBatch::kDefaultRows rows, freeing
// each row as it is consumed.
std::vector<RowBatch> RowsToBatches(std::vector<Row> rows);

// Approximate resident bytes of a batch, every physical row included
// (ApproxRowBytes' unit, for charging held batches to a query budget).
size_t ApproxBatchBytes(const RowBatch& batch);

}  // namespace htg::exec
