#pragma once

#include <memory>
#include <string>
#include <vector>

#include "exec/operator.h"

namespace htg::exec {

struct SortKey {
  ExprPtr expr;
  bool descending = false;
};

// ORDER BY (blocking): sorts in memory, or merges sorted spill runs when
// the input outgrows the query budget.
class SortOp : public Operator {
 public:
  SortOp(OperatorPtr child, std::vector<SortKey> keys)
      : child_(std::move(child)), keys_(std::move(keys)) {}

  const Schema& output_schema() const override {
    return child_->output_schema();
  }
  Result<std::unique_ptr<storage::RowIterator>> OpenImpl(ExecContext* ctx) override;
  std::string Describe() const override;
  std::vector<const Operator*> children() const override {
    return {child_.get()};
  }
  int64_t EstimateRows() const override { return child_->EstimateRows(); }

 private:
  OperatorPtr child_;
  std::vector<SortKey> keys_;
};

// ROW_NUMBER() OVER (ORDER BY keys): sorts the input and appends a BIGINT
// rank column ("Sequence Project" in SQL Server plans).
class RowNumberOp : public Operator {
 public:
  RowNumberOp(OperatorPtr child, std::vector<SortKey> keys,
              std::string column_name);

  const Schema& output_schema() const override { return schema_; }
  Result<std::unique_ptr<storage::RowIterator>> OpenImpl(ExecContext* ctx) override;
  std::string Describe() const override;
  std::vector<const Operator*> children() const override {
    return {child_.get()};
  }
  int64_t EstimateRows() const override { return child_->EstimateRows(); }

 private:
  OperatorPtr child_;
  std::vector<SortKey> keys_;
  Schema schema_;
};

// Shared helper: drains `child` and returns its rows sorted by `keys`,
// each with its 1-based BIGINT rank appended when `number_rows`.
// Charges the buffered working set against ctx->mem and degrades to an
// external merge sort (runs through the tablespace) when the budget is
// exceeded; with spilling unavailable it fails with kResourceExhausted.
// Peak memory and spill activity are recorded into `stats`.
Result<std::unique_ptr<storage::RowIterator>> OpenSorted(
    Operator* child, const std::vector<SortKey>& keys, bool number_rows,
    ExecContext* ctx, OperatorStats* stats);

}  // namespace htg::exec

