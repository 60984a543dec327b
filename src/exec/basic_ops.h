#pragma once

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "catalog/table_def.h"
#include "exec/operator.h"

namespace htg::exec {

// Scan of a base table. Heap scans can be restricted to a page range (the
// partition unit of parallel plans); clustered scans can seek to a key
// prefix and stream in key order.
class TableScanOp : public Operator {
 public:
  explicit TableScanOp(catalog::TableDef* table);

  // Heap page-range partition scan.
  TableScanOp(catalog::TableDef* table, size_t first_page, size_t end_page);

  // Clustered-index range scan from `seek_prefix`.
  TableScanOp(catalog::TableDef* table, Row seek_prefix);

  const Schema& output_schema() const override { return table_->schema; }
  Result<std::unique_ptr<storage::RowIterator>> OpenImpl(ExecContext* ctx) override;
  std::string Describe() const override;
  int64_t EstimateRows() const override;

  catalog::TableDef* table() const { return table_; }

 private:
  catalog::TableDef* table_;
  bool has_range_ = false;
  size_t first_page_ = 0;
  size_t end_page_ = 0;
  bool has_seek_ = false;
  Row seek_prefix_;
};

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

