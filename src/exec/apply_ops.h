#pragma once

#include <memory>
#include <string>
#include <vector>

#include "exec/operator.h"
#include "udf/function.h"

namespace htg::exec {

// FROM-clause invocation of a table-valued function: arguments are
// constants (evaluated once at Open), the TVF's iterator streams rows.
class TvfScanOp : public Operator {
 public:
  TvfScanOp(const udf::TableFunction* fn, std::vector<ExprPtr> args,
            Schema schema)
      : fn_(fn), args_(std::move(args)), schema_(std::move(schema)) {}

  const Schema& output_schema() const override { return schema_; }
  Result<std::unique_ptr<storage::RowIterator>> OpenImpl(ExecContext* ctx) override;
  std::string Describe() const override;

 private:
  const udf::TableFunction* fn_;
  std::vector<ExprPtr> args_;
  Schema schema_;
};

// CROSS APPLY tvf(args): for each input row, evaluates the arguments
// against that row, opens the TVF, and emits input ⨯ tvf rows. Each output
// row carries the input's `outer_columns` (indexes into the input row, the
// ones the plan uses above the apply) followed by the TVF row. The pivot
// step of the paper's Query 3 (PivotAlignment) runs through this operator.
class CrossApplyOp : public Operator {
 public:
  CrossApplyOp(OperatorPtr child, const udf::TableFunction* fn,
               std::vector<ExprPtr> args, Schema fn_schema,
               std::vector<int> outer_columns);

  const Schema& output_schema() const override { return schema_; }
  Result<std::unique_ptr<storage::RowIterator>> OpenImpl(ExecContext* ctx) override;
  std::string Describe() const override;
  std::vector<const Operator*> children() const override {
    return {child_.get()};
  }

 private:
  OperatorPtr child_;
  const udf::TableFunction* fn_;
  std::vector<ExprPtr> args_;
  Schema fn_schema_;
  std::vector<int> outer_columns_;
  Schema schema_;
};

}  // namespace htg::exec

