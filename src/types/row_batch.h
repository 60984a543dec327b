#pragma once

#include <cstdint>
#include <cstddef>
#include <utility>
#include <vector>

#include "types/value.h"

namespace htg {

// A batch of rows in columnar layout: one Value vector per output column,
// plus an optional selection vector naming the live physical rows. This is
// the unit of the executor's vectorized (batch-at-a-time) pull path —
// operators exchange ~1024 rows per virtual call instead of one, so the
// per-row costs that dominated the Volcano path (virtual Next() dispatch,
// Row re-allocation, expression-tree walks) amortize across the batch.
//
// Layout invariants:
//   * Every column vector holds exactly num_rows() values.
//   * When has_selection(), only rows whose physical index appears in
//     selection() (in listed order) are live; otherwise all rows are.
//   * Filters narrow a batch by replacing the selection vector; they never
//     move column data. Projections emit dense (selection-free) batches.
//
// Rows cross into and out of row-at-a-time form only through the row
// seams below (AppendRow, SwapRow, FillRow) — where row producers such as
// the TVF iterators (the paper's §5.2 boundary) meet the batch path.
class RowBatch {
 public:
  // Rows per batch everywhere in the executor.
  static constexpr size_t kDefaultRows = 1024;

  RowBatch() : capacity_(kDefaultRows) {}
  explicit RowBatch(size_t capacity)
      : capacity_(capacity == 0 ? 1 : capacity) {}

  size_t capacity() const { return capacity_; }
  size_t num_columns() const { return columns_.size(); }

  // Physical rows present (before selection).
  size_t num_rows() const { return num_rows_; }
  bool full() const { return num_rows_ >= capacity_; }

  std::vector<Value>& column(size_t c) { return columns_[c]; }
  const std::vector<Value>& column(size_t c) const { return columns_[c]; }
  const std::vector<std::vector<Value>>& columns() const { return columns_; }

  bool has_selection() const { return has_selection_; }
  const std::vector<uint32_t>& selection() const { return selection_; }

  // Replaces the selection vector (indexes must be < num_rows(), in the
  // order rows should be observed).
  void SetSelection(std::vector<uint32_t> sel) {
    selection_ = std::move(sel);
    has_selection_ = true;
  }
  void ClearSelection() {
    has_selection_ = false;
    selection_.clear();
  }

  // Live rows, and the physical index of the i-th live row.
  size_t ActiveRows() const {
    return has_selection_ ? selection_.size() : num_rows_;
  }
  size_t ActiveIndex(size_t i) const {
    return has_selection_ ? selection_[i] : i;
  }

  // Dense view of the selection for kernel calls: nullptr means rows
  // [0, count) are live.
  const uint32_t* selection_data() const {
    return has_selection_ ? selection_.data() : nullptr;
  }

  // Drops all rows and the selection; keeps column shape and capacity so
  // refills reuse the vectors' memory.
  void Clear() {
    for (std::vector<Value>& col : columns_) col.clear();
    num_rows_ = 0;
    ClearSelection();
  }

  // Reshapes to `num_columns` empty columns (also clears).
  void ResetColumns(size_t num_columns) {
    columns_.resize(num_columns);
    Clear();
  }

  // Appends a column of num_rows() NULLs for a kernel to fill.
  std::vector<Value>& AddColumn() {
    columns_.emplace_back(num_rows_);
    return columns_.back();
  }

  // Declares the row count after columns were written directly by a batch
  // kernel. Every column must hold exactly `n` values.
  void set_num_rows(size_t n) { num_rows_ = n; }

  // Row seam: appends one row, moving its values into the columns. The
  // first append after Clear() reshapes the batch if the arity changed,
  // so a recycled batch can move between producers safely.
  void AppendRow(Row&& row) {
    if (num_rows_ == 0 && columns_.size() != row.size()) {
      columns_.resize(row.size());
    }
    for (size_t c = 0; c < columns_.size(); ++c) {
      columns_[c].push_back(c < row.size() ? std::move(row[c]) : Value::Null());
    }
    ++num_rows_;
  }

  // Retained-slot fill, the refill path of row producers. A fill writes
  // rows 0, 1, ... in order through Slot()/SwapRow() and ends with
  // FinishFill(n). Values the previous fill left stay in place until they
  // are overwritten, so their string buffers are reused instead of freed
  // and reallocated.
  //
  // The value slot of column `c` for row `r` of the fill in progress;
  // rows must be written in order (r <= the column's size).
  Value& Slot(size_t c, size_t r) {
    std::vector<Value>& col = columns_[c];
    if (r == col.size()) col.emplace_back();
    return col[r];
  }

  // Starts a fill of `num_columns`-wide rows: drops the selection and
  // reshapes if the arity changed, keeping every retained value.
  void StartFill(size_t num_columns) {
    if (columns_.size() != num_columns) columns_.resize(num_columns);
    num_rows_ = 0;
    ClearSelection();
  }

  // Writes `row` as row `r` of the fill in progress by swapping values:
  // the slot's previous value comes back in `row`, where the producer's
  // next copy-assignment reuses its buffer. Row 0 reshapes the batch to
  // the row's arity, so a recycled batch can move between producers.
  void SwapRow(size_t r, Row* row) {
    if (r == 0 && columns_.size() != row->size()) {
      columns_.resize(row->size());
    }
    for (size_t c = 0; c < columns_.size(); ++c) swap(Slot(c, r), (*row)[c]);
  }

  // Ends a fill of `n` rows, trimming the values left beyond them.
  void FinishFill(size_t n) {
    for (std::vector<Value>& col : columns_) col.resize(n);
    num_rows_ = n;
  }

  // Row seam: copies the i-th *live* row into `row` (cleared first).
  void FillRow(size_t active_i, Row* row) const {
    FillRowAt(ActiveIndex(active_i), row);
  }

  // Row seam: copies the physical row `r` into `row` (cleared first).
  void FillRowAt(size_t r, Row* row) const {
    row->clear();
    row->reserve(columns_.size());
    for (const std::vector<Value>& col : columns_) row->push_back(col[r]);
  }

 private:
  std::vector<std::vector<Value>> columns_;
  std::vector<uint32_t> selection_;
  size_t num_rows_ = 0;
  size_t capacity_;
  bool has_selection_ = false;
};

}  // namespace htg
