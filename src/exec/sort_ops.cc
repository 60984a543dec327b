#include "exec/sort_ops.h"

#include <algorithm>
#include <numeric>

#include "exec/batch.h"
#include "exec/parallel.h"
#include "exec/spill_util.h"
#include "storage/spill.h"

namespace htg::exec {

namespace {

std::string DescribeKeys(const std::vector<SortKey>& keys) {
  std::string out = "[";
  for (size_t i = 0; i < keys.size(); ++i) {
    if (i > 0) out += ", ";
    out += keys[i].expr->ToString();
    if (keys[i].descending) out += " DESC";
  }
  out += "]";
  return out;
}

// Rows below this count sort serially: chunked sorting + merge rounds
// have fixed overhead that only pays off on sizable inputs.
constexpr size_t kParallelSortMinRows = 4096;

// The sort's buffer: the evaluated sort keys, then the payload columns.
// The sort buffers its input in one; its run merge then keeps run r's
// head record at row r.
class SortColumns : public KeyedColumns {
 public:
  explicit SortColumns(const std::vector<SortKey>& keys)
      : KeyedColumns(keys.size()), descending_(keys.size()) {
    for (size_t k = 0; k < keys.size(); ++k) {
      descending_[k] = keys[k].descending;
    }
  }

  // The one key comparison of the sort: orders rows a and b by the keys,
  // each in its own direction, and equal keys by row index, so input
  // order (or, among run heads, run order) breaks ties.
  bool Less(uint32_t a, uint32_t b) const {
    for (size_t k = 0; k < descending_.size(); ++k) {
      const int cmp = column(k)[a].Compare(column(k)[b]);
      if (cmp != 0) return descending_[k] ? cmp > 0 : cmp < 0;
    }
    return a < b;
  }

 private:
  std::vector<bool> descending_;
};

// The positions of `cols`' rows in key order. Above kParallelSortMinRows
// the DOP workers sort one chunk each, then rounds of std::inplace_merge
// join neighbouring chunks, each round's merges on the workers. Ties
// order by position, so every chunking gives the serial order.
Result<std::vector<uint32_t>> SortPositions(const SortColumns& cols,
                                            ExecContext* ctx) {
  std::vector<uint32_t> order(cols.rows());
  std::iota(order.begin(), order.end(), 0u);
  const auto less = [&cols](uint32_t a, uint32_t b) {
    return cols.Less(a, b);
  };
  const size_t n = order.size();
  const size_t dop = ctx->pool != nullptr && ctx->dop > 1 &&
                             n >= kParallelSortMinRows
                         ? std::min<size_t>(ctx->dop, n / 1024)
                         : 1;
  if (dop <= 1) {
    std::sort(order.begin(), order.end(), less);
    return order;
  }
  const auto at = [&](size_t i) {
    return order.begin() + static_cast<ptrdiff_t>(std::min(i, n));
  };
  const size_t chunk = (n + dop - 1) / dop;
  HTG_RETURN_IF_ERROR(ParallelDrainMorsels(
      ctx->pool, static_cast<int>(dop), dop, [&](int, size_t c) -> Status {
        std::sort(at(c * chunk), at((c + 1) * chunk), less);
        return Status::OK();
      }));
  for (size_t width = chunk; width < n; width *= 2) {
    const size_t merges = (n + 2 * width - 1) / (2 * width);
    HTG_RETURN_IF_ERROR(ParallelDrainMorsels(
        ctx->pool, static_cast<int>(std::min(dop, merges)), merges,
        [&](int, size_t m) -> Status {
          const size_t lo = 2 * m * width;
          std::inplace_merge(at(lo), at(lo + width), at(lo + 2 * width),
                             less);
          return Status::OK();
        }));
  }
  return order;
}

// Streams the sorted rows into output batches, moving each payload value
// by position, so a consumer that stops early (TOP) moves only the rows
// it takes; for ROW_NUMBER it appends the 1-based rank. In memory,
// `rows_` is the buffer and `order_` its sorted positions. After a
// spill, row r of `rows_` is run r's head record, and `order_` a binary
// heap of the runs with records left, ordered by their heads: runs are
// written in arrival order and sorted with input-order ties, so ties
// going to the earlier run give the in-memory order.
class SortedIterator : public BatchIterator {
 public:
  SortedIterator(SortColumns rows, std::vector<uint32_t> order,
                 MemoryCharge charge, bool number_rows)
      : rows_(std::move(rows)),
        order_(std::move(order)),
        charge_(std::move(charge)),
        number_rows_(number_rows) {}

  SortedIterator(SortColumns heads, std::unique_ptr<storage::SpillFile> file,
                 std::vector<storage::SpillRun> runs, bool number_rows)
      : rows_(std::move(heads)),
        file_(std::move(file)),
        charge_(nullptr),
        number_rows_(number_rows) {
    rows_.Reset(runs.size());
    for (uint32_t r = 0; r < runs.size(); ++r) {
      readers_.push_back(std::make_unique<storage::SpillRunReader>(
          file_.get(), std::move(runs[r])));
      if (Advance(r)) order_.push_back(r);
    }
    std::make_heap(order_.begin(), order_.end(), After{&rows_});
  }

 protected:
  bool ProduceBatch(RowBatch* batch) override {
    const size_t keys = rows_.num_keys();
    const size_t width = rows_.num_columns() - keys;
    const bool merging = file_ != nullptr;
    batch->StartFill(width + (number_rows_ ? 1 : 0));
    size_t n = 0;
    for (; n < batch->capacity() && status_.ok(); ++n) {
      if (merging ? order_.empty() : next_ == order_.size()) break;
      if (merging) std::pop_heap(order_.begin(), order_.end(), After{&rows_});
      const uint32_t r = merging ? order_.back() : order_[next_++];
      for (size_t c = keys; c < rows_.num_columns(); ++c) {
        batch->Slot(c - keys, n) = std::move(rows_.column(c)[r]);
      }
      if (number_rows_) batch->Slot(width, n) = Value::Int64(++rank_);
      // The run's next record takes its place in the heap.
      if (merging && Advance(r)) {
        std::push_heap(order_.begin(), order_.end(), After{&rows_});
      } else if (merging) {
        order_.pop_back();
      }
    }
    batch->FinishFill(n);
    return n > 0 && status_.ok();
  }

 private:
  // Heap order: the top is the run whose head sorts first.
  struct After {
    const SortColumns* heads;
    bool operator()(uint32_t a, uint32_t b) const {
      return heads->Less(b, a);
    }
  };

  // Reads run r's next record into row r, through a one-row batch; false
  // at the run's end or on a read error (kept in status_).
  bool Advance(uint32_t r) {
    if (!readers_[r]->NextBatch(&record_)) {
      if (!readers_[r]->status().ok()) status_ = readers_[r]->status();
      return false;
    }
    for (size_t c = 0; c < record_.num_columns(); ++c) {
      swap(rows_.column(c)[r], record_.column(c)[0]);
    }
    return true;
  }

  SortColumns rows_;
  std::vector<uint32_t> order_;
  size_t next_ = 0;
  std::unique_ptr<storage::SpillFile> file_;
  std::vector<std::unique_ptr<storage::SpillRunReader>> readers_;
  RowBatch record_{1};
  MemoryCharge charge_;
  bool number_rows_;
  int64_t rank_ = 0;
};

}  // namespace

Result<std::unique_ptr<storage::RowIterator>> OpenSorted(
    Operator* child, const std::vector<SortKey>& keys, bool number_rows,
    ExecContext* ctx, OperatorStats* stats) {
  HTG_ASSIGN_OR_RETURN(std::unique_ptr<storage::RowIterator> iter,
                       child->Open(ctx));
  MemoryCharge charge(ctx->mem.get(), "Sort");
  SortColumns buffer(keys);
  std::unique_ptr<storage::SpillFile> spill;
  std::vector<storage::SpillRun> runs;

  // Writes the buffer out as one sorted run of (keys ++ payload) records,
  // then empties it and releases its charge.
  const auto flush_run = [&]() -> Status {
    if (spill == nullptr) {
      HTG_ASSIGN_OR_RETURN(
          spill, storage::SpillFile::Create(ctx->tablespace, "sort"));
    }
    HTG_ASSIGN_OR_RETURN(std::vector<uint32_t> order,
                         SortPositions(buffer, ctx));
    storage::SpillRunWriter writer(spill.get());
    for (uint32_t i : order) {
      HTG_RETURN_IF_ERROR(writer.Add(buffer.columns(), i));
    }
    HTG_ASSIGN_OR_RETURN(storage::SpillRun run, writer.Finish());
    HTG_RETURN_IF_ERROR(spill->Flush());
    CountSpillRun(stats, run);
    runs.push_back(std::move(run));
    buffer.Reset(0);
    charge.ReleaseAll();
    return Status::OK();
  };

  // Buffers each input batch after its keys, evaluated by the batch
  // kernels; the budget is charged once per batch, and a refused charge
  // writes the buffer out as a run.
  RowBatch batch;
  std::vector<std::vector<Value>> key_cols(keys.size());
  while (iter->NextBatch(&batch)) {
    for (size_t k = 0; k < keys.size(); ++k) {
      HTG_RETURN_IF_ERROR(keys[k].expr->EvalBatch(
          &ctx->eval, batch, batch.selection_data(), batch.ActiveRows(),
          &key_cols[k]));
    }
    // A sort position per row besides the values.
    const size_t positions = batch.ActiveRows() * sizeof(uint32_t);
    const Status charged =
        charge.Add(buffer.Append(&key_cols, &batch) + positions);
    if (charged.ok()) continue;
    if (!charged.IsResourceExhausted()) return charged;
    if (!ctx->CanSpill()) return SpillUnavailableError("Sort", *ctx->mem);
    HTG_RETURN_IF_ERROR(flush_run());
  }
  HTG_RETURN_IF_ERROR(iter->status());
  if (!runs.empty() && buffer.rows() > 0) HTG_RETURN_IF_ERROR(flush_run());
  if (stats != nullptr) RecordPeakMem(stats, charge.peak());
  if (!runs.empty()) {
    return {std::make_unique<SortedIterator>(
        std::move(buffer), std::move(spill), std::move(runs), number_rows)};
  }
  HTG_ASSIGN_OR_RETURN(std::vector<uint32_t> order,
                       SortPositions(buffer, ctx));
  return {std::make_unique<SortedIterator>(
      std::move(buffer), std::move(order), std::move(charge), number_rows)};
}

Result<std::unique_ptr<storage::RowIterator>> SortOp::OpenImpl(
    ExecContext* ctx) {
  return OpenSorted(child_.get(), keys_, /*number_rows=*/false, ctx,
                    mutable_stats());
}

std::string SortOp::Describe() const { return "Sort " + DescribeKeys(keys_); }

RowNumberOp::RowNumberOp(OperatorPtr child, std::vector<SortKey> keys,
                         std::string column_name)
    : child_(std::move(child)), keys_(std::move(keys)) {
  schema_ = child_->output_schema();
  Column col;
  col.name = std::move(column_name);
  col.type = DataType::kInt64;
  schema_.AddColumn(col);
}

Result<std::unique_ptr<storage::RowIterator>> RowNumberOp::OpenImpl(
    ExecContext* ctx) {
  return OpenSorted(child_.get(), keys_, /*number_rows=*/true, ctx,
                    mutable_stats());
}

std::string RowNumberOp::Describe() const {
  return "Sequence Project (ROW_NUMBER) over Sort " + DescribeKeys(keys_);
}

}  // namespace htg::exec
