#include "exec/batch.h"

#include <algorithm>

#include "common/metrics.h"

namespace htg::exec {

bool BatchIterator::NextBatch(RowBatch* batch) {
  if (!ProduceBatch(batch)) return false;
  HTG_METRIC_COUNTER("exec.batch.batches")->Add(1);
  HTG_METRIC_COUNTER("exec.batch.rows")->Add(batch->ActiveRows());
  return true;
}

BatchReader::~BatchReader() {
  HTG_METRIC_COUNTER("exec.batch.fillrow_rows")->Add(uncounted_);
}

bool BatchReader::Next(Row* row) {
  while (pos_ >= batch_.ActiveRows()) {
    // The metric ticks once per batch rather than once per row.
    HTG_METRIC_COUNTER("exec.batch.fillrow_rows")->Add(uncounted_);
    uncounted_ = 0;
    if (!iter_->NextBatch(&batch_)) return false;
    pos_ = 0;
  }
  // Selection vectors never repeat a physical row, so each value is
  // taken exactly once; the row's previous value goes back into the
  // batch, to be overwritten by its next refill.
  const size_t r = batch_.ActiveIndex(pos_++);
  row->resize(batch_.num_columns());
  for (size_t c = 0; c < batch_.num_columns(); ++c) {
    swap((*row)[c], batch_.column(c)[r]);
  }
  ++uncounted_;
  return true;
}

bool MaterializedBatchesIterator::ProduceBatch(RowBatch* batch) {
  while (next_ < batches_.size()) {
    *batch = std::move(batches_[next_++]);
    if (batch->ActiveRows() > 0) return true;
  }
  return false;
}

std::vector<RowBatch> RowsToBatches(std::vector<Row> rows) {
  std::vector<RowBatch> batches;
  for (size_t begin = 0; begin < rows.size();
       begin += RowBatch::kDefaultRows) {
    const size_t end = std::min(rows.size(), begin + RowBatch::kDefaultRows);
    RowBatch& batch = batches.emplace_back();
    batch.ResetColumns(rows[begin].size());
    for (size_t c = 0; c < batch.num_columns(); ++c) {
      batch.column(c).reserve(end - begin);
    }
    for (size_t r = begin; r < end; ++r) {
      for (size_t c = 0; c < batch.num_columns(); ++c) {
        batch.column(c).push_back(std::move(rows[r][c]));
      }
      Row().swap(rows[r]);
    }
    batch.set_num_rows(end - begin);
  }
  return batches;
}

size_t ApproxBatchBytes(const RowBatch& batch) {
  size_t bytes =
      sizeof(RowBatch) + batch.selection().capacity() * sizeof(uint32_t);
  for (size_t c = 0; c < batch.num_columns(); ++c) {
    const std::vector<Value>& column = batch.column(c);
    bytes += (column.capacity() - column.size()) * sizeof(Value);
    for (const Value& v : column) bytes += v.ApproxBytes();
  }
  return bytes;
}

}  // namespace htg::exec
