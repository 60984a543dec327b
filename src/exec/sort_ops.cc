#include "exec/sort_ops.h"

#include <algorithm>
#include <iterator>

#include "common/string_util.h"
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

// Rows below this count sort serially: chunked sorting + k-way merge has
// fixed overhead that only pays off on sizable inputs.
constexpr size_t kParallelSortMinRows = 4096;

// K-way merge over sorted spill runs. Records are (key values ++ payload
// row); the comparator orders by the key prefix with per-key direction,
// breaking ties by run index — runs are written in arrival order and
// sorted stably, so the merged order equals the in-memory stable sort.
class SortRunMergeIterator : public storage::RowSource {
 public:
  SortRunMergeIterator(std::unique_ptr<storage::SpillFile> file,
                       std::vector<storage::SpillRun> runs, size_t nkeys,
                       std::vector<bool> descending)
      : file_(std::move(file)),
        nkeys_(nkeys),
        descending_(std::move(descending)) {
    readers_.reserve(runs.size());
    // One head row per run: bounded by the merge fan-in, not the data.
    heads_.resize(runs.size());  // NOLINT(htg-exec-untracked-reserve)
    alive_.assign(runs.size(), false);
    for (auto& run : runs) {
      readers_.push_back(
          std::make_unique<storage::SpillRunReader>(file_.get(),
                                                    std::move(run)));
    }
    for (size_t i = 0; i < readers_.size(); ++i) Advance(i);
  }

  bool Next(Row* row) override {
    if (!status_.ok()) return false;
    size_t best = readers_.size();
    for (size_t i = 0; i < readers_.size(); ++i) {
      if (!alive_[i]) continue;
      if (best == readers_.size() || KeyLess(heads_[i], heads_[best])) {
        best = i;
      }
    }
    if (best == readers_.size()) return false;
    Row& head = heads_[best];
    row->assign(std::make_move_iterator(head.begin() +
                                        static_cast<ptrdiff_t>(nkeys_)),
                std::make_move_iterator(head.end()));
    Advance(best);
    return status_.ok();
  }

  Status status() const override { return status_; }

 private:
  bool KeyLess(const Row& a, const Row& b) const {
    for (size_t k = 0; k < nkeys_; ++k) {
      const int cmp = a[k].Compare(b[k]);
      if (cmp != 0) return descending_[k] ? cmp > 0 : cmp < 0;
    }
    return false;  // equal keys: the lower run index (earlier run) wins
  }

  void Advance(size_t i) {
    alive_[i] = readers_[i]->Next(&heads_[i]);
    if (!alive_[i] && !readers_[i]->status().ok()) {
      status_ = readers_[i]->status();
    }
  }

  std::unique_ptr<storage::SpillFile> file_;
  size_t nkeys_;
  std::vector<bool> descending_;
  std::vector<std::unique_ptr<storage::SpillRunReader>> readers_;
  std::vector<Row> heads_;
  std::vector<bool> alive_;
  Status status_;
};

// Sorts `order` (indices into rows/sort_keys) by the key columns,
// breaking ties by original index so the result matches a stable sort.
void SortOrder(std::vector<size_t>* order, const std::vector<Row>& sort_keys,
               const std::vector<SortKey>& keys) {
  std::sort(order->begin(), order->end(), [&](size_t a, size_t b) {
    for (size_t k = 0; k < keys.size(); ++k) {
      const int cmp = sort_keys[a][k].Compare(sort_keys[b][k]);
      if (cmp != 0) return keys[k].descending ? cmp > 0 : cmp < 0;
    }
    return a < b;
  });
}

}  // namespace

Result<std::unique_ptr<storage::RowIterator>> OpenSorted(
    Operator* child, const std::vector<SortKey>& keys, ExecContext* ctx,
    OperatorStats* stats) {
  HTG_ASSIGN_OR_RETURN(std::unique_ptr<storage::RowIterator> iter,
                       child->Open(ctx));
  MemoryCharge charge(ctx->mem.get(), "Sort");
  std::vector<Row> rows;
  std::vector<Row> sort_keys;
  std::unique_ptr<storage::SpillFile> spill;
  std::vector<storage::SpillRun> runs;

  // Sorts the buffered rows and writes them out as one external run
  // (key columns ++ payload), releasing their memory charge.
  const auto flush_run = [&]() -> Status {
    if (spill == nullptr) {
      HTG_ASSIGN_OR_RETURN(spill,
                           storage::SpillFile::Create(ctx->tablespace,
                                                      "sort"));
    }
    std::vector<size_t> order(rows.size());
    for (size_t i = 0; i < order.size(); ++i) order[i] = i;
    SortOrder(&order, sort_keys, keys);
    storage::SpillRunWriter writer(spill.get());
    Row record;
    for (size_t i : order) {
      record.clear();
      record.reserve(sort_keys[i].size() + rows[i].size());
      for (Value& v : sort_keys[i]) record.push_back(std::move(v));
      for (Value& v : rows[i]) record.push_back(std::move(v));
      HTG_RETURN_IF_ERROR(writer.Add(record));
    }
    HTG_ASSIGN_OR_RETURN(storage::SpillRun run, writer.Finish());
    HTG_RETURN_IF_ERROR(spill->Flush());
    CountSpillRun(stats, run);
    runs.push_back(std::move(run));
    rows.clear();
    sort_keys.clear();
    charge.ReleaseAll();
    return Status::OK();
  };

  // Buffers one row + its precomputed sort key, charging the budget and
  // degrading to an external run when the charge is rejected.
  const auto append_row = [&](Row row, Row key) -> Status {
    const size_t bytes = ApproxRowBytes(row) + ApproxRowBytes(key);
    rows.push_back(std::move(row));
    sort_keys.push_back(std::move(key));
    Status charged = charge.Add(bytes);
    if (charged.ok()) return Status::OK();
    if (!charged.IsResourceExhausted()) return charged;
    if (!ctx->CanSpill()) return SpillUnavailableError("Sort", *ctx->mem);
    return flush_run();
  };

  // Extract sort keys with batch kernels while the input drains,
  // materializing rows by moving values out of each batch.
  RowBatch batch;
  std::vector<std::vector<Value>> key_cols(keys.size());
  while (iter->NextBatch(&batch)) {
    const size_t n = batch.ActiveRows();
    const uint32_t* sel = batch.selection_data();
    for (size_t k = 0; k < keys.size(); ++k) {
      HTG_RETURN_IF_ERROR(
          keys[k].expr->EvalBatch(&ctx->eval, batch, sel, n, &key_cols[k]));
    }
    for (size_t j = 0; j < n; ++j) {
      Row key;
      key.reserve(keys.size());
      for (size_t k = 0; k < keys.size(); ++k) {
        key.push_back(std::move(key_cols[k][j]));
      }
      const size_t r = batch.ActiveIndex(j);
      Row row;
      row.reserve(batch.num_columns());
      for (size_t c = 0; c < batch.num_columns(); ++c) {
        row.push_back(std::move(batch.column(c)[r]));
      }
      HTG_RETURN_IF_ERROR(append_row(std::move(row), std::move(key)));
    }
  }
  HTG_RETURN_IF_ERROR(iter->status());

  if (!runs.empty()) {
    // External path: the tail buffer becomes the final run, then a k-way
    // merge streams the total order back from disk.
    if (!rows.empty()) HTG_RETURN_IF_ERROR(flush_run());
    if (stats != nullptr) RecordPeakMem(stats, charge.peak());
    std::vector<bool> descending(keys.size());
    for (size_t k = 0; k < keys.size(); ++k) {
      descending[k] = keys[k].descending;
    }
    return {std::make_unique<SortRunMergeIterator>(
        std::move(spill), std::move(runs), keys.size(),
        std::move(descending))};
  }

  // In-memory path. Keys are already materialized, so parallelism is a
  // pure chunk-sort + k-way merge over index ranges.
  const auto less = [&](size_t a, size_t b) {
    for (size_t k = 0; k < keys.size(); ++k) {
      const int cmp = sort_keys[a][k].Compare(sort_keys[b][k]);
      if (cmp != 0) return keys[k].descending ? cmp > 0 : cmp < 0;
    }
    return a < b;
  };

  std::vector<size_t> order(rows.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;

  const int dop = ctx->pool != nullptr && ctx->dop > 1 &&
                          rows.size() >= kParallelSortMinRows
                      ? std::min<int>(ctx->dop,
                                      static_cast<int>(rows.size() / 1024))
                      : 1;
  if (dop <= 1) {
    std::sort(order.begin(), order.end(), less);
  } else {
    // Parallel sort: per-worker chunk sort, then a k-way merge. Ties
    // resolve to input order (see `less`), so the result is identical to
    // a serial stable sort no matter how the rows are chunked.
    const size_t nchunks = static_cast<size_t>(dop);
    const size_t chunk = (rows.size() + nchunks - 1) / nchunks;
    HTG_RETURN_IF_ERROR(ParallelDrainMorsels(
        ctx->pool, dop, nchunks, [&](int, size_t c) -> Status {
          const size_t lo = c * chunk;
          const size_t hi = std::min(lo + chunk, rows.size());
          if (lo < hi) std::sort(order.begin() + lo, order.begin() + hi, less);
          return Status::OK();
        }));
    std::vector<size_t> merged;
    merged.reserve(order.size());
    std::vector<size_t> head(nchunks);
    for (size_t c = 0; c < nchunks; ++c) head[c] = c * chunk;
    for (size_t produced = 0; produced < order.size(); ++produced) {
      size_t best = nchunks;
      for (size_t c = 0; c < nchunks; ++c) {
        const size_t end = std::min((c + 1) * chunk, order.size());
        if (head[c] >= end) continue;
        if (best == nchunks || less(order[head[c]], order[head[best]])) {
          best = c;
        }
      }
      merged.push_back(order[head[best]++]);
    }
    order = std::move(merged);
  }

  std::vector<Row> sorted;
  sorted.reserve(rows.size());
  for (size_t i : order) sorted.push_back(std::move(rows[i]));
  if (stats != nullptr) RecordPeakMem(stats, charge.peak());
  return {std::make_unique<MaterializedBatchesIterator>(
      RowsToBatches(std::move(sorted)), std::move(charge))};
}

Result<std::unique_ptr<storage::RowIterator>> SortOp::OpenImpl(
    ExecContext* ctx) {
  return OpenSorted(child_.get(), keys_, ctx, mutable_stats());
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

namespace {

// Streams the sorted input, appending the 1-based rank column to each
// batch — no extra materialization on top of the sort.
class RowNumberIterator : public BatchIterator {
 public:
  explicit RowNumberIterator(std::unique_ptr<storage::RowIterator> input)
      : input_(std::move(input)) {}

 protected:
  bool ProduceBatch(RowBatch* batch) override {
    if (!input_->NextBatch(batch)) {
      status_ = input_->status();
      return false;
    }
    // The rank column is dense over the physical rows; rows outside the
    // selection keep a NULL rank nobody reads.
    std::vector<Value>& ranks = batch->AddColumn();
    for (size_t i = 0; i < batch->ActiveRows(); ++i) {
      ranks[batch->ActiveIndex(i)] =
          Value::Int64(static_cast<int64_t>(++rank_));
    }
    return true;
  }

 private:
  std::unique_ptr<storage::RowIterator> input_;
  uint64_t rank_ = 0;
};

}  // namespace

Result<std::unique_ptr<storage::RowIterator>> RowNumberOp::OpenImpl(
    ExecContext* ctx) {
  HTG_ASSIGN_OR_RETURN(std::unique_ptr<storage::RowIterator> sorted,
                       OpenSorted(child_.get(), keys_, ctx, mutable_stats()));
  return {std::make_unique<RowNumberIterator>(std::move(sorted))};
}

std::string RowNumberOp::Describe() const {
  return "Sequence Project (ROW_NUMBER) over Sort " + DescribeKeys(keys_);
}

}  // namespace htg::exec
