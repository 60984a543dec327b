#pragma once

#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "types/row_batch.h"
#include "types/value.h"
#include "udf/function.h"

namespace htg::exec {

class Expr;
using ExprPtr = std::unique_ptr<Expr>;

// A bound (physical) expression evaluated against a row. Expressions are
// immutable after construction and safe to evaluate from multiple threads,
// which is what lets parallel plans share filter/projection trees.
class Expr {
 public:
  virtual ~Expr() = default;

  virtual Result<Value> Eval(udf::EvalContext* ctx, const Row& row) const = 0;

  // Vectorized evaluation: computes the expression for `count` live rows
  // of `batch` — row j reads physical row sel[j], or j when sel is null —
  // and stores the results densely into out[0..count) (resized here).
  // Kernels loop over plain Value vectors instead of re-walking the tree
  // per row; the base implementation falls back to per-row Eval() via
  // RowBatch::FillRowAt, so every expression works under batch execution.
  // Scalar UDF calls stay per-row inside FnCallExpr's kernel — the §5.2
  // seam — so udf.scalar.calls still counts individual invocations.
  virtual Status EvalBatch(udf::EvalContext* ctx, const RowBatch& batch,
                           const uint32_t* sel, size_t count,
                           std::vector<Value>* out) const;

  virtual DataType result_type() const = 0;
  virtual std::string ToString() const = 0;

  // Structural equality (GROUP BY matching in the binder).
  bool Equals(const Expr& other) const { return ToString() == other.ToString(); }
};

enum class BinaryOp {
  kAdd,
  kSub,
  kMul,
  kDiv,
  kMod,
  kEq,
  kNe,
  kLt,
  kLe,
  kGt,
  kGe,
  kAnd,
  kOr,
};

std::string_view BinaryOpName(BinaryOp op);

// Reference to a column of the input row.
class ColumnRefExpr : public Expr {
 public:
  ColumnRefExpr(int index, std::string name, DataType type)
      : index_(index), name_(std::move(name)), type_(type) {}

  Result<Value> Eval(udf::EvalContext*, const Row& row) const override {
    if (index_ >= static_cast<int>(row.size())) {
      return Status::Internal("column index out of range: " + name_);
    }
    return row[index_];
  }
  Status EvalBatch(udf::EvalContext* ctx, const RowBatch& batch,
                   const uint32_t* sel, size_t count,
                   std::vector<Value>* out) const override;
  DataType result_type() const override { return type_; }
  std::string ToString() const override;
  int index() const { return index_; }
  const std::string& name() const { return name_; }

 private:
  int index_;
  std::string name_;
  DataType type_;
};

class LiteralExpr : public Expr {
 public:
  explicit LiteralExpr(Value value) : value_(std::move(value)) {}

  Result<Value> Eval(udf::EvalContext*, const Row&) const override {
    return value_;
  }
  Status EvalBatch(udf::EvalContext* ctx, const RowBatch& batch,
                   const uint32_t* sel, size_t count,
                   std::vector<Value>* out) const override;
  DataType result_type() const override { return value_.type(); }
  std::string ToString() const override;
  const Value& value() const { return value_; }

 private:
  Value value_;
};

// Arithmetic / comparison / logical binary operator with SQL
// three-valued-logic NULL semantics.
class BinaryExpr : public Expr {
 public:
  BinaryExpr(BinaryOp op, ExprPtr left, ExprPtr right)
      : op_(op), left_(std::move(left)), right_(std::move(right)) {}

  Result<Value> Eval(udf::EvalContext* ctx, const Row& row) const override;
  Status EvalBatch(udf::EvalContext* ctx, const RowBatch& batch,
                   const uint32_t* sel, size_t count,
                   std::vector<Value>* out) const override;
  DataType result_type() const override;
  std::string ToString() const override;
  BinaryOp op() const { return op_; }
  const Expr* left() const { return left_.get(); }
  const Expr* right() const { return right_.get(); }

 private:
  BinaryOp op_;
  ExprPtr left_;
  ExprPtr right_;
};

// Unary minus / NOT.
class UnaryExpr : public Expr {
 public:
  enum class Op { kNegate, kNot };

  UnaryExpr(Op op, ExprPtr operand) : op_(op), operand_(std::move(operand)) {}

  Result<Value> Eval(udf::EvalContext* ctx, const Row& row) const override;
  Status EvalBatch(udf::EvalContext* ctx, const RowBatch& batch,
                   const uint32_t* sel, size_t count,
                   std::vector<Value>* out) const override;
  DataType result_type() const override {
    return op_ == Op::kNot ? DataType::kBool : operand_->result_type();
  }
  std::string ToString() const override;

 private:
  Op op_;
  ExprPtr operand_;
};

// Scalar function invocation.
class FnCallExpr : public Expr {
 public:
  FnCallExpr(const udf::ScalarFunction* fn, std::vector<ExprPtr> args)
      : fn_(fn), args_(std::move(args)) {
    std::vector<DataType> types;
    types.reserve(args_.size());
    for (const ExprPtr& a : args_) types.push_back(a->result_type());
    type_ = fn_->result_type(types);
  }

  Result<Value> Eval(udf::EvalContext* ctx, const Row& row) const override;
  // Batch kernel: argument subtrees evaluate vectorized, but the function
  // itself is invoked once per row — the deliberate UDF seam.
  Status EvalBatch(udf::EvalContext* ctx, const RowBatch& batch,
                   const uint32_t* sel, size_t count,
                   std::vector<Value>* out) const override;
  DataType result_type() const override { return type_; }
  std::string ToString() const override;

 private:
  const udf::ScalarFunction* fn_;
  std::vector<ExprPtr> args_;
  DataType type_;
};

class CastExpr : public Expr {
 public:
  CastExpr(ExprPtr operand, DataType target)
      : operand_(std::move(operand)), target_(target) {}

  Result<Value> Eval(udf::EvalContext* ctx, const Row& row) const override {
    HTG_ASSIGN_OR_RETURN(Value v, operand_->Eval(ctx, row));
    return v.CastTo(target_);
  }
  Status EvalBatch(udf::EvalContext* ctx, const RowBatch& batch,
                   const uint32_t* sel, size_t count,
                   std::vector<Value>* out) const override;
  DataType result_type() const override { return target_; }
  std::string ToString() const override;

 private:
  ExprPtr operand_;
  DataType target_;
};

// expr IS [NOT] NULL.
class IsNullExpr : public Expr {
 public:
  IsNullExpr(ExprPtr operand, bool negated)
      : operand_(std::move(operand)), negated_(negated) {}

  Result<Value> Eval(udf::EvalContext* ctx, const Row& row) const override {
    HTG_ASSIGN_OR_RETURN(Value v, operand_->Eval(ctx, row));
    return Value::Bool(v.is_null() != negated_);
  }
  Status EvalBatch(udf::EvalContext* ctx, const RowBatch& batch,
                   const uint32_t* sel, size_t count,
                   std::vector<Value>* out) const override;
  DataType result_type() const override { return DataType::kBool; }
  std::string ToString() const override;

 private:
  ExprPtr operand_;
  bool negated_;
};

// CASE WHEN c1 THEN v1 [WHEN ...] [ELSE e] END.
class CaseExpr : public Expr {
 public:
  CaseExpr(std::vector<std::pair<ExprPtr, ExprPtr>> branches, ExprPtr else_expr)
      : branches_(std::move(branches)), else_(std::move(else_expr)) {}

  Result<Value> Eval(udf::EvalContext* ctx, const Row& row) const override;
  DataType result_type() const override {
    return branches_.empty() ? DataType::kString
                             : branches_[0].second->result_type();
  }
  std::string ToString() const override;

 private:
  std::vector<std::pair<ExprPtr, ExprPtr>> branches_;
  ExprPtr else_;
};

// expr [NOT] LIKE 'pattern' with the SQL wildcards % (any run) and _
// (any single character).
class LikeExpr : public Expr {
 public:
  LikeExpr(ExprPtr operand, std::string pattern, bool negated)
      : operand_(std::move(operand)),
        pattern_(std::move(pattern)),
        negated_(negated) {}

  Result<Value> Eval(udf::EvalContext* ctx, const Row& row) const override;
  Status EvalBatch(udf::EvalContext* ctx, const RowBatch& batch,
                   const uint32_t* sel, size_t count,
                   std::vector<Value>* out) const override;
  DataType result_type() const override { return DataType::kBool; }
  std::string ToString() const override;
  // Exposed for direct testing of the matcher.
  static bool Match(std::string_view text, std::string_view pattern);

 private:
  ExprPtr operand_;
  std::string pattern_;
  bool negated_;
};

// Evaluates a predicate for filtering: NULL counts as false.
Result<bool> EvalPredicate(const Expr& expr, udf::EvalContext* ctx,
                           const Row& row);

// Vectorized filtering: evaluates `expr` over the batch's live rows and
// replaces the batch's selection vector with the surviving physical row
// indexes (NULL and false both drop, as in EvalPredicate). `scratch`
// holds the predicate values between calls so the buffer is reused.
Status FilterBatch(const Expr& expr, udf::EvalContext* ctx, RowBatch* batch,
                   std::vector<Value>* scratch);

}  // namespace htg::exec

