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

// What a join's iterators read of their operator: each side's equi-join
// keys (none for the nested loop) and the output columns.
struct JoinSpec {
  std::vector<ExprPtr> keys[2];  // by side: left, right
  JoinColumns columns;
};

// What every join holds: its two inputs, its JoinSpec and its output
// schema (see ConcatSchemas for `right_nullable`).
class JoinOp : public Operator {
 public:
  const Schema& output_schema() const override { return schema_; }
  std::vector<const Operator*> children() const override {
    return {left_.get(), right_.get()};
  }

 protected:
  JoinOp(OperatorPtr left, OperatorPtr right, std::vector<ExprPtr> left_keys,
         std::vector<ExprPtr> right_keys, const std::vector<int>& columns,
         bool right_nullable = false);

  // `label`, "[l1 = r1 AND ...]" and the output columns, for Describe().
  std::string DescribeKeys(const char* label) const;

  OperatorPtr left_;
  OperatorPtr right_;
  JoinSpec spec_;
  Schema schema_;
};

// Equi-join via a hash table on the right input ("Hash Match (Inner
// Join)" / "Hash Match (Left Outer Join)"). Blocking on the build side.
// Left-outer emits unmatched left rows padded with NULLs.
class HashJoinOp : public JoinOp {
 public:
  HashJoinOp(OperatorPtr left, OperatorPtr right,
             std::vector<ExprPtr> left_keys, std::vector<ExprPtr> right_keys,
             const std::vector<int>& columns, bool left_outer = false);

  Result<std::unique_ptr<storage::RowIterator>> OpenImpl(ExecContext* ctx) override;
  std::string Describe() const override;

 private:
  bool left_outer_;
};

// Inner equi-join over inputs ordered ascending on their join keys ("Merge
// Join (Inner Join)"): non-blocking, streams both sides once, buffering
// only the current right-side key group. This is the plan the paper's
// Fig. 10 shows for Alignment ⋈ Read over clustered indexes.
class MergeJoinOp : public JoinOp {
 public:
  MergeJoinOp(OperatorPtr left, OperatorPtr right,
              std::vector<ExprPtr> left_keys, std::vector<ExprPtr> right_keys,
              const std::vector<int>& columns);

  Result<std::unique_ptr<storage::RowIterator>> OpenImpl(ExecContext* ctx) override;
  std::string Describe() const override;

 protected:
  // The nested loop: a merge join over no keys, whose one key group is
  // the whole right input, narrowed by `predicate`.
  MergeJoinOp(OperatorPtr left, OperatorPtr right, ExprPtr predicate,
              const std::vector<int>& columns);

  ExprPtr predicate_;  // over the output row; null keeps every pair
};

// Inner join with an arbitrary residual predicate; materializes the right
// input ("Nested Loops (Inner Join)"). The fallback for non-equi joins.
// The predicate sees the join's output row.
class NestedLoopJoinOp : public MergeJoinOp {
 public:
  NestedLoopJoinOp(OperatorPtr left, OperatorPtr right, ExprPtr predicate,
                   const std::vector<int>& columns)
      : MergeJoinOp(std::move(left), std::move(right), std::move(predicate),
                    columns) {}

  std::string Describe() const override;
};

// Concatenates the schemas of two join inputs, marking the right
// columns nullable when `right_nullable` (left-outer padding).
Schema ConcatSchemas(const Schema& left, const Schema& right,
                     bool right_nullable = false);

}  // namespace htg::exec
