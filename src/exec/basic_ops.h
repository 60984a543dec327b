#pragma once

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "catalog/table_def.h"
#include "exec/operator.h"
#include "storage/heap_table.h"

namespace htg::exec {

// Scan of a base table through the context's snapshot: a heap scan reads
// the snapshot's visible row prefix, a clustered scan streams the
// entries the snapshot sees in key order. Under an exchange, a heap scan
// reads the worker's morsel (ExecContext::morsel) instead: the exchange
// cuts the statement's visible prefix into morsels once, see
// MorselDriver. The scan decodes and emits only the schema columns in
// its column list (ascending indexes), the columns its plan uses.
//
// A scan predicate (the sargable terms of the statement's WHERE) lets the
// scan skip data: a heap scan skips pages whose zone maps exclude a term,
// and a clustered scan with integer terms on its leading key column seeks
// to the range's start and stops past its end. The Filter above the scan
// stays, so the predicate only ever drops work.
class TableScanOp : public Operator {
 public:
  TableScanOp(catalog::TableDef* table, std::vector<int> columns);

  // Every column.
  explicit TableScanOp(catalog::TableDef* table);

  const Schema& output_schema() const override { return schema_; }
  Result<std::unique_ptr<storage::RowIterator>> OpenImpl(ExecContext* ctx) override;
  std::string Describe() const override;
  int64_t EstimateRows() const override;

  catalog::TableDef* table() const { return table_; }
  // Schema column index of each output column.
  const std::vector<int>& columns() const { return columns_; }

  void set_predicate(storage::ScanPredicate predicate);

  // Set by Distribute Streams over a heap scan: EXPLAIN shows the page
  // range the exchange cuts into morsels.
  void set_distributed() { distributed_ = true; }

 private:
  catalog::TableDef* table_;
  std::vector<int> columns_;
  Schema schema_;  // the table's schema projected onto columns_
  bool distributed_ = false;
  storage::ScanPredicate predicate_;
  // Clustered scans: the leading key range to seek (bounded = seek).
  storage::IntRange seek_;
};

// The heap rows of `table` visible to ctx's snapshot, as one page range.
// Fails if `table` is not a heap.
Result<storage::HeapTable::PageRange> PlanVisibleHeap(
    catalog::TableDef* table, const ExecContext& ctx);

// Literal rows (INSERT ... VALUES and tests).
class ValuesOp : public Operator {
 public:
  ValuesOp(Schema schema, std::vector<std::vector<ExprPtr>> rows)
      : schema_(std::move(schema)), rows_(std::move(rows)) {}

  const Schema& output_schema() const override { return schema_; }
  Result<std::unique_ptr<storage::RowIterator>> OpenImpl(ExecContext* ctx) override;
  std::string Describe() const override;
  int64_t EstimateRows() const override {
    return static_cast<int64_t>(rows_.size());
  }

 private:
  Schema schema_;
  std::vector<std::vector<ExprPtr>> rows_;
};

// OPENROWSET(BULK '<path>', SINGLE_BLOB): one row with one BLOB column
// named BulkColumn holding the file's bytes.
class OpenRowsetOp : public Operator {
 public:
  explicit OpenRowsetOp(std::string path);

  const Schema& output_schema() const override { return schema_; }
  Result<std::unique_ptr<storage::RowIterator>> OpenImpl(ExecContext* ctx) override;
  std::string Describe() const override;
  int64_t EstimateRows() const override { return 1; }

 private:
  std::string path_;
  Schema schema_;
};

class FilterOp : public Operator {
 public:
  FilterOp(OperatorPtr child, ExprPtr predicate)
      : child_(std::move(child)), predicate_(std::move(predicate)) {}

  const Schema& output_schema() const override {
    return child_->output_schema();
  }
  Result<std::unique_ptr<storage::RowIterator>> OpenImpl(ExecContext* ctx) override;
  std::string Describe() const override;
  std::vector<const Operator*> children() const override {
    return {child_.get()};
  }
  // Textbook default selectivity of 1/3 — no predicate statistics yet.
  int64_t EstimateRows() const override {
    const int64_t child = child_->EstimateRows();
    return child < 0 ? -1 : child / 3;
  }

 private:
  OperatorPtr child_;
  ExprPtr predicate_;
};

// Computes scalar expressions per input row ("Compute Scalar").
class ProjectOp : public Operator {
 public:
  ProjectOp(OperatorPtr child, std::vector<ExprPtr> exprs,
            std::vector<std::string> names);

  const Schema& output_schema() const override { return schema_; }
  Result<std::unique_ptr<storage::RowIterator>> OpenImpl(ExecContext* ctx) override;
  std::string Describe() const override;
  std::vector<const Operator*> children() const override {
    return {child_.get()};
  }
  int64_t EstimateRows() const override { return child_->EstimateRows(); }

 private:
  OperatorPtr child_;
  std::vector<ExprPtr> exprs_;
  Schema schema_;
};

// SELECT TOP n.
class TopOp : public Operator {
 public:
  TopOp(OperatorPtr child, int64_t limit)
      : child_(std::move(child)), limit_(limit) {}

  const Schema& output_schema() const override {
    return child_->output_schema();
  }
  Result<std::unique_ptr<storage::RowIterator>> OpenImpl(ExecContext* ctx) override;
  std::string Describe() const override;
  std::vector<const Operator*> children() const override {
    return {child_.get()};
  }
  int64_t EstimateRows() const override {
    const int64_t child = child_->EstimateRows();
    return child < 0 ? limit_ : std::min(limit_, child);
  }

 private:
  OperatorPtr child_;
  int64_t limit_;
};

}  // namespace htg::exec

