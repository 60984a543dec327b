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

size_t KeyedColumns::Append(std::vector<std::vector<Value>>* keys,
                            RowBatch* batch, const std::vector<int>* payload,
                            size_t begin, size_t end) {
  end = std::min(end, batch->ActiveRows());
  const size_t width =
      payload != nullptr ? payload->size() : batch->num_columns();
  if (rows_ == 0) cols_.resize(num_keys_ + width);
  size_t bytes = 0;
  const auto take = [&bytes](Value& v, std::vector<Value>& col) {
    bytes += v.ApproxBytes();
    col.push_back(std::move(v));
  };
  for (size_t k = 0; k < num_keys_; ++k) {
    for (size_t j = begin; j < end; ++j) take((*keys)[k][j], cols_[k]);
  }
  for (size_t p = 0; p < width; ++p) {
    std::vector<Value>& from =
        batch->column(payload != nullptr ? (*payload)[p] : p);
    for (size_t j = begin; j < end; ++j) {
      take(from[batch->ActiveIndex(j)], cols_[num_keys_ + p]);
    }
  }
  if (end > begin) rows_ += end - begin;
  return bytes;
}

void KeyedColumns::Clear() {
  for (std::vector<Value>& col : cols_) col.clear();
  rows_ = 0;
}

void KeyedColumns::Reset(size_t rows) {
  for (std::vector<Value>& col : cols_) col = std::vector<Value>(rows);
  rows_ = rows;
}

bool MaterializedBatchesIterator::ProduceBatch(RowBatch* batch) {
  while (next_ < batches_.size()) {
    *batch = std::move(batches_[next_++]);
    if (batch->ActiveRows() > 0) return true;
  }
  return false;
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
