#pragma once

#include <memory>
#include <string>
#include <vector>

#include "exec/operator.h"

namespace htg::exec {

// A join's output column list: ascending indexes into the concatenated
// left ++ right row, split into each side's own indexes. Every join emits
// only the columns its list names.
struct JoinColumns {
  JoinColumns(const std::vector<int>& columns, int left_width);

  std::vector<int> left;
  std::vector<int> right;
};

// Equi-join via a hash table on the right input ("Hash Match (Inner
// Join)" / "Hash Match (Left Outer Join)"). Blocking on the build side.
// Left-outer emits unmatched left rows padded with NULLs.
class HashJoinOp : public Operator {
 public:
  HashJoinOp(OperatorPtr left, OperatorPtr right,
             std::vector<ExprPtr> left_keys, std::vector<ExprPtr> right_keys,
             const std::vector<int>& columns, bool left_outer = false);

  const Schema& output_schema() const override { return schema_; }
  Result<std::unique_ptr<storage::RowIterator>> OpenImpl(ExecContext* ctx) override;
  std::string Describe() const override;
  std::vector<const Operator*> children() const override {
    return {left_.get(), right_.get()};
  }

 private:
  OperatorPtr left_;
  OperatorPtr right_;
  std::vector<ExprPtr> left_keys_;
  std::vector<ExprPtr> right_keys_;
  bool left_outer_;
  JoinColumns columns_;
  Schema schema_;
};

// Inner equi-join over inputs ordered ascending on their join keys ("Merge
// Join (Inner Join)"): non-blocking, streams both sides once, buffering
// only the current right-side key group. This is the plan the paper's
// Fig. 10 shows for Alignment ⋈ Read over clustered indexes.
class MergeJoinOp : public Operator {
 public:
  MergeJoinOp(OperatorPtr left, OperatorPtr right,
              std::vector<ExprPtr> left_keys, std::vector<ExprPtr> right_keys,
              const std::vector<int>& columns);

  const Schema& output_schema() const override { return schema_; }
  Result<std::unique_ptr<storage::RowIterator>> OpenImpl(ExecContext* ctx) override;
  std::string Describe() const override;
  std::vector<const Operator*> children() const override {
    return {left_.get(), right_.get()};
  }

 private:
  OperatorPtr left_;
  OperatorPtr right_;
  std::vector<ExprPtr> left_keys_;
  std::vector<ExprPtr> right_keys_;
  JoinColumns columns_;
  Schema schema_;
};

// Inner join with an arbitrary residual predicate; materializes the right
// input ("Nested Loops (Inner Join)"). The fallback for non-equi joins.
// The predicate sees the join's output row.
class NestedLoopJoinOp : public Operator {
 public:
  NestedLoopJoinOp(OperatorPtr left, OperatorPtr right, ExprPtr predicate,
                   const std::vector<int>& columns);

  const Schema& output_schema() const override { return schema_; }
  Result<std::unique_ptr<storage::RowIterator>> OpenImpl(ExecContext* ctx) override;
  std::string Describe() const override;
  std::vector<const Operator*> children() const override {
    return {left_.get(), right_.get()};
  }

 private:
  OperatorPtr left_;
  OperatorPtr right_;
  ExprPtr predicate_;
  JoinColumns columns_;
  Schema schema_;
};

// Concatenates the schemas of two join inputs.
Schema ConcatSchemas(const Schema& left, const Schema& right);

}  // namespace htg::exec

