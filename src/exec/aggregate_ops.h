#pragma once

#include <memory>
#include <string>
#include <vector>

#include "catalog/table_def.h"
#include "exec/operator.h"
#include "udf/function.h"

namespace htg::exec {

// One aggregate call inside a GROUP BY plan.
struct AggSpec {
  const udf::AggregateFunction* fn = nullptr;
  std::vector<ExprPtr> args;
  // Output column name, e.g. "COUNT(*)" or a user alias.
  std::string display;
  // COUNT(DISTINCT x): deduplicate argument tuples before accumulation.
  bool distinct = false;

  DataType result_type() const;
};

// Builds the aggregate output schema: group columns then aggregates.
Schema MakeAggregateSchema(const std::vector<ExprPtr>& group_exprs,
                           const std::vector<std::string>& group_names,
                           const std::vector<AggSpec>& aggs);

// Hash-based grouping ("Hash Match (Aggregate)"). Blocking: the hash table
// is built fully before the first output row.
class HashAggregateOp : public Operator {
 public:
  HashAggregateOp(OperatorPtr child, std::vector<ExprPtr> group_exprs,
                  std::vector<std::string> group_names,
                  std::vector<AggSpec> aggs);

  const Schema& output_schema() const override { return schema_; }
  Result<std::unique_ptr<storage::RowIterator>> OpenImpl(ExecContext* ctx) override;
  std::string Describe() const override;
  std::vector<const Operator*> children() const override {
    return {child_.get()};
  }
  int64_t EstimateRows() const override {
    return group_exprs_.empty() ? 1 : -1;
  }

 private:
  OperatorPtr child_;
  std::vector<ExprPtr> group_exprs_;
  std::vector<AggSpec> aggs_;
  Schema schema_;
};

// Parallel partial→final aggregation, the shape of the paper's Fig. 9
// plan, scheduled at morsel granularity: workers steal page-range morsels
// of `heap` from a shared counter, open `child` (the bound scan / CROSS
// APPLY / filter subtree over that heap) once per morsel, and accumulate
// into thread-local partial group tables. The final merge is itself
// parallel — groups are partitioned by hash and each partition
// merges/finalizes on its own worker — and results stream out of the
// gather. Requires every aggregate to SupportsMerge().
class ParallelAggregateOp : public Operator {
 public:
  ParallelAggregateOp(OperatorPtr child, catalog::TableDef* heap,
                      std::vector<ExprPtr> group_exprs,
                      std::vector<std::string> group_names,
                      std::vector<AggSpec> aggs, int dop, size_t morsel_pages);

  const Schema& output_schema() const override { return schema_; }
  Result<std::unique_ptr<storage::RowIterator>> OpenImpl(ExecContext* ctx) override;
  std::string Describe() const override;
  std::vector<const Operator*> children() const override {
    return {child_.get()};
  }
  int64_t EstimateRows() const override {
    return group_exprs_.empty() ? 1 : -1;
  }

 private:
  OperatorPtr child_;
  catalog::TableDef* heap_;
  std::vector<ExprPtr> group_exprs_;
  std::vector<AggSpec> aggs_;
  int dop_;
  size_t morsel_pages_;
  Schema schema_;
};

}  // namespace htg::exec

