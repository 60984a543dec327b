#include "exec/expression.h"

#include <cmath>
#include <limits>

#include "common/metrics.h"
#include "common/string_util.h"

namespace htg::exec {

std::string_view BinaryOpName(BinaryOp op) {
  switch (op) {
    case BinaryOp::kAdd:
      return "+";
    case BinaryOp::kSub:
      return "-";
    case BinaryOp::kMul:
      return "*";
    case BinaryOp::kDiv:
      return "/";
    case BinaryOp::kMod:
      return "%";
    case BinaryOp::kEq:
      return "=";
    case BinaryOp::kNe:
      return "<>";
    case BinaryOp::kLt:
      return "<";
    case BinaryOp::kLe:
      return "<=";
    case BinaryOp::kGt:
      return ">";
    case BinaryOp::kGe:
      return ">=";
    case BinaryOp::kAnd:
      return "AND";
    case BinaryOp::kOr:
      return "OR";
  }
  return "?";
}

std::string ColumnRefExpr::ToString() const {
  return StringPrintf("%s#%d", name_.c_str(), index_);
}

std::string LiteralExpr::ToString() const {
  if (value_.is_null()) return "NULL";
  if (value_.IsStringKind()) return "'" + value_.ToString() + "'";
  return value_.ToString();
}

namespace {

Status ArithmeticOverflow(std::string_view op) {
  return Status::OutOfRange(std::string(op) + ": arithmetic overflow");
}

Result<Value> EvalArithmetic(BinaryOp op, const Value& l, const Value& r) {
  // String '+' is concatenation (T-SQL).
  if (op == BinaryOp::kAdd && l.IsStringKind() && r.IsStringKind()) {
    return Value::String(l.AsString() + r.AsString());
  }
  if (l.IsStringKind() || r.IsStringKind()) {
    return Status::ExecError("arithmetic on non-numeric operands");
  }
  const bool use_double = l.IsDoubleKind() || r.IsDoubleKind();
  const std::string_view name = BinaryOpName(op);
  if (use_double) {
    const double a = l.AsDouble();
    const double b = r.AsDouble();
    switch (op) {
      case BinaryOp::kAdd:
        return FiniteDouble(name, a + b, a, b);
      case BinaryOp::kSub:
        return FiniteDouble(name, a - b, a, b);
      case BinaryOp::kMul:
        return FiniteDouble(name, a * b, a, b);
      case BinaryOp::kDiv:
        if (b == 0.0) return Status::ExecError("division by zero");
        return FiniteDouble(name, a / b, a, b);
      case BinaryOp::kMod:
        if (b == 0.0) return Status::ExecError("division by zero");
        return FiniteDouble(name, std::fmod(a, b), a, b);
      default:
        break;
    }
  }
  // Integer results that leave int64 (INT64_MIN / -1 and % -1 among
  // them, which would trap) are typed errors.
  const int64_t a = l.AsInt64();
  const int64_t b = r.AsInt64();
  int64_t out = 0;
  bool overflow = false;
  switch (op) {
    case BinaryOp::kAdd:
      overflow = __builtin_add_overflow(a, b, &out);
      break;
    case BinaryOp::kSub:
      overflow = __builtin_sub_overflow(a, b, &out);
      break;
    case BinaryOp::kMul:
      overflow = __builtin_mul_overflow(a, b, &out);
      break;
    case BinaryOp::kDiv:
    case BinaryOp::kMod:
      if (b == 0) return Status::ExecError("division by zero");
      overflow = a == std::numeric_limits<int64_t>::min() && b == -1;
      if (!overflow) out = op == BinaryOp::kDiv ? a / b : a % b;
      break;
    default:
      return Status::Internal("bad arithmetic operator");
  }
  if (overflow) return ArithmeticOverflow(name);
  return Value::Int64(out);
}

// Unary minus; negating INT64_MIN is a typed error.
Result<Value> Negate(const Value& v) {
  if (v.IsDoubleKind()) return Value::Double(-v.AsDouble());
  int64_t out = 0;
  if (__builtin_sub_overflow(int64_t{0}, v.AsInt64(), &out)) {
    return ArithmeticOverflow("-");
  }
  return Value::Int64(out);
}

}  // namespace

Result<Value> BinaryExpr::Eval(udf::EvalContext* ctx, const Row& row) const {
  // AND/OR use three-valued logic with short-circuiting.
  if (op_ == BinaryOp::kAnd || op_ == BinaryOp::kOr) {
    HTG_ASSIGN_OR_RETURN(Value l, left_->Eval(ctx, row));
    const bool l_null = l.is_null();
    const bool l_true = !l_null && l.AsBool();
    if (op_ == BinaryOp::kAnd && !l_null && !l_true) {
      return Value::Bool(false);
    }
    if (op_ == BinaryOp::kOr && l_true) return Value::Bool(true);
    HTG_ASSIGN_OR_RETURN(Value r, right_->Eval(ctx, row));
    const bool r_null = r.is_null();
    const bool r_true = !r_null && r.AsBool();
    if (op_ == BinaryOp::kAnd) {
      if (!r_null && !r_true) return Value::Bool(false);
      if (l_null || r_null) return Value::Null();
      return Value::Bool(true);
    }
    if (r_true) return Value::Bool(true);
    if (l_null || r_null) return Value::Null();
    return Value::Bool(false);
  }

  HTG_ASSIGN_OR_RETURN(Value l, left_->Eval(ctx, row));
  HTG_ASSIGN_OR_RETURN(Value r, right_->Eval(ctx, row));
  if (l.is_null() || r.is_null()) return Value::Null();

  switch (op_) {
    case BinaryOp::kEq:
      return Value::Bool(l.Compare(r) == 0);
    case BinaryOp::kNe:
      return Value::Bool(l.Compare(r) != 0);
    case BinaryOp::kLt:
      return Value::Bool(l.Compare(r) < 0);
    case BinaryOp::kLe:
      return Value::Bool(l.Compare(r) <= 0);
    case BinaryOp::kGt:
      return Value::Bool(l.Compare(r) > 0);
    case BinaryOp::kGe:
      return Value::Bool(l.Compare(r) >= 0);
    default:
      return EvalArithmetic(op_, l, r);
  }
}

DataType BinaryExpr::result_type() const {
  switch (op_) {
    case BinaryOp::kEq:
    case BinaryOp::kNe:
    case BinaryOp::kLt:
    case BinaryOp::kLe:
    case BinaryOp::kGt:
    case BinaryOp::kGe:
    case BinaryOp::kAnd:
    case BinaryOp::kOr:
      return DataType::kBool;
    default: {
      // Compute each child's type exactly once: result_type() recurses,
      // and re-evaluating children would make deeply nested expressions
      // exponential.
      const DataType left = left_->result_type();
      const DataType right = right_->result_type();
      if (left == DataType::kString) return DataType::kString;
      if (left == DataType::kDouble || right == DataType::kDouble) {
        return DataType::kDouble;
      }
      return DataType::kInt64;
    }
  }
}

std::string BinaryExpr::ToString() const {
  return "(" + left_->ToString() + " " + std::string(BinaryOpName(op_)) + " " +
         right_->ToString() + ")";
}

Result<Value> UnaryExpr::Eval(udf::EvalContext* ctx, const Row& row) const {
  HTG_ASSIGN_OR_RETURN(Value v, operand_->Eval(ctx, row));
  if (v.is_null()) return Value::Null();
  if (op_ == Op::kNot) return Value::Bool(!v.AsBool());
  return Negate(v);
}

std::string UnaryExpr::ToString() const {
  return std::string(op_ == Op::kNot ? "NOT " : "-") + operand_->ToString();
}

Result<Value> FnCallExpr::Eval(udf::EvalContext* ctx, const Row& row) const {
  std::vector<Value> args;
  args.reserve(args_.size());
  bool any_null = false;
  for (const ExprPtr& a : args_) {
    HTG_ASSIGN_OR_RETURN(Value v, a->Eval(ctx, row));
    any_null = any_null || v.is_null();
    args.push_back(std::move(v));
  }
  if (any_null && !fn_->null_tolerant) return Value::Null();
  HTG_METRIC_COUNTER("udf.scalar.calls")->Add(1);
  return fn_->eval(ctx, args);
}

std::string FnCallExpr::ToString() const {
  std::string out(fn_->name);
  out += '(';
  for (size_t i = 0; i < args_.size(); ++i) {
    if (i > 0) out += ", ";
    out += args_[i]->ToString();
  }
  out += ')';
  return out;
}

std::string CastExpr::ToString() const {
  return "CAST(" + operand_->ToString() + " AS " +
         std::string(DataTypeName(target_)) + ")";
}

std::string IsNullExpr::ToString() const {
  return operand_->ToString() + (negated_ ? " IS NOT NULL" : " IS NULL");
}

Result<Value> CaseExpr::Eval(udf::EvalContext* ctx, const Row& row) const {
  for (const auto& [cond, result] : branches_) {
    HTG_ASSIGN_OR_RETURN(Value c, cond->Eval(ctx, row));
    if (!c.is_null() && c.AsBool()) return result->Eval(ctx, row);
  }
  if (else_ != nullptr) return else_->Eval(ctx, row);
  return Value::Null();
}

std::string CaseExpr::ToString() const {
  std::string out = "CASE";
  for (const auto& [cond, result] : branches_) {
    out += " WHEN " + cond->ToString() + " THEN " + result->ToString();
  }
  if (else_ != nullptr) out += " ELSE " + else_->ToString();
  out += " END";
  return out;
}

bool LikeExpr::Match(std::string_view text, std::string_view pattern) {
  // Iterative wildcard matcher with backtracking over the last '%'.
  size_t t = 0;
  size_t p = 0;
  size_t star_p = std::string_view::npos;
  size_t star_t = 0;
  while (t < text.size()) {
    if (p < pattern.size() &&
        (pattern[p] == '_' || pattern[p] == text[t])) {
      ++t;
      ++p;
    } else if (p < pattern.size() && pattern[p] == '%') {
      star_p = p++;
      star_t = t;
    } else if (star_p != std::string_view::npos) {
      p = star_p + 1;
      t = ++star_t;
    } else {
      return false;
    }
  }
  while (p < pattern.size() && pattern[p] == '%') ++p;
  return p == pattern.size();
}

Result<Value> LikeExpr::Eval(udf::EvalContext* ctx, const Row& row) const {
  HTG_ASSIGN_OR_RETURN(Value v, operand_->Eval(ctx, row));
  if (v.is_null()) return Value::Null();
  const bool matched = Match(v.AsString(), pattern_);
  return Value::Bool(matched != negated_);
}

std::string LikeExpr::ToString() const {
  return operand_->ToString() + (negated_ ? " NOT LIKE '" : " LIKE '") +
         pattern_ + "'";
}

Result<bool> EvalPredicate(const Expr& expr, udf::EvalContext* ctx,
                           const Row& row) {
  HTG_ASSIGN_OR_RETURN(Value v, expr.Eval(ctx, row));
  return !v.is_null() && v.AsBool();
}

// --- Batch kernels ------------------------------------------------------
//
// Each kernel loops over plain Value vectors with the tree walk hoisted
// out of the per-row path. Expressions without a kernel fall back to the
// base implementation below, so batch execution never loses coverage —
// it only loses the vectorized speedup for that node.

Status Expr::EvalBatch(udf::EvalContext* ctx, const RowBatch& batch,
                       const uint32_t* sel, size_t count,
                       std::vector<Value>* out) const {
  out->resize(count);
  Row row;
  for (size_t j = 0; j < count; ++j) {
    batch.FillRowAt(sel != nullptr ? sel[j] : j, &row);
    HTG_ASSIGN_OR_RETURN((*out)[j], Eval(ctx, row));
  }
  return Status::OK();
}

Status ColumnRefExpr::EvalBatch(udf::EvalContext*, const RowBatch& batch,
                                const uint32_t* sel, size_t count,
                                std::vector<Value>* out) const {
  if (count == 0) {
    out->clear();
    return Status::OK();
  }
  if (index_ < 0 || index_ >= static_cast<int>(batch.num_columns())) {
    return Status::Internal("column index out of range: " + name_);
  }
  const std::vector<Value>& col = batch.column(static_cast<size_t>(index_));
  out->resize(count);
  for (size_t j = 0; j < count; ++j) {
    (*out)[j] = col[sel != nullptr ? sel[j] : j];
  }
  return Status::OK();
}

Status LiteralExpr::EvalBatch(udf::EvalContext*, const RowBatch&,
                              const uint32_t*, size_t count,
                              std::vector<Value>* out) const {
  out->assign(count, value_);
  return Status::OK();
}

Status BinaryExpr::EvalBatch(udf::EvalContext* ctx, const RowBatch& batch,
                             const uint32_t* sel, size_t count,
                             std::vector<Value>* out) const {
  if (op_ == BinaryOp::kAnd || op_ == BinaryOp::kOr) {
    // Short-circuit vectorized: evaluate the left side everywhere, then
    // the right side only over the sub-selection of rows the left side
    // did not decide. This keeps row-path semantics — e.g. in
    // `x <> 0 AND 100 / x > 1` the division never sees x = 0.
    HTG_RETURN_IF_ERROR(left_->EvalBatch(ctx, batch, sel, count, out));
    std::vector<uint32_t> need_phys;
    std::vector<uint32_t> need_pos;
    for (size_t j = 0; j < count; ++j) {
      const Value& l = (*out)[j];
      const bool l_null = l.is_null();
      const bool l_true = !l_null && l.AsBool();
      if (op_ == BinaryOp::kAnd && !l_null && !l_true) {
        (*out)[j] = Value::Bool(false);
        continue;
      }
      if (op_ == BinaryOp::kOr && l_true) {
        (*out)[j] = Value::Bool(true);
        continue;
      }
      need_phys.push_back(sel != nullptr ? sel[j] : static_cast<uint32_t>(j));
      need_pos.push_back(static_cast<uint32_t>(j));
    }
    if (need_phys.empty()) return Status::OK();
    std::vector<Value> right;
    HTG_RETURN_IF_ERROR(right_->EvalBatch(ctx, batch, need_phys.data(),
                                          need_phys.size(), &right));
    for (size_t k = 0; k < need_pos.size(); ++k) {
      Value& slot = (*out)[need_pos[k]];
      const bool l_null = slot.is_null();
      const Value& r = right[k];
      const bool r_null = r.is_null();
      const bool r_true = !r_null && r.AsBool();
      if (op_ == BinaryOp::kAnd) {
        if (!r_null && !r_true) {
          slot = Value::Bool(false);
        } else if (l_null || r_null) {
          slot = Value::Null();
        } else {
          slot = Value::Bool(true);
        }
      } else {
        if (r_true) {
          slot = Value::Bool(true);
        } else if (l_null || r_null) {
          slot = Value::Null();
        } else {
          slot = Value::Bool(false);
        }
      }
    }
    return Status::OK();
  }

  std::vector<Value> lhs;
  std::vector<Value> rhs;
  HTG_RETURN_IF_ERROR(left_->EvalBatch(ctx, batch, sel, count, &lhs));
  HTG_RETURN_IF_ERROR(right_->EvalBatch(ctx, batch, sel, count, &rhs));
  out->resize(count);
  for (size_t j = 0; j < count; ++j) {
    const Value& l = lhs[j];
    const Value& r = rhs[j];
    if (l.is_null() || r.is_null()) {
      (*out)[j] = Value::Null();
      continue;
    }
    switch (op_) {
      case BinaryOp::kEq:
        (*out)[j] = Value::Bool(l.Compare(r) == 0);
        break;
      case BinaryOp::kNe:
        (*out)[j] = Value::Bool(l.Compare(r) != 0);
        break;
      case BinaryOp::kLt:
        (*out)[j] = Value::Bool(l.Compare(r) < 0);
        break;
      case BinaryOp::kLe:
        (*out)[j] = Value::Bool(l.Compare(r) <= 0);
        break;
      case BinaryOp::kGt:
        (*out)[j] = Value::Bool(l.Compare(r) > 0);
        break;
      case BinaryOp::kGe:
        (*out)[j] = Value::Bool(l.Compare(r) >= 0);
        break;
      default:
        HTG_ASSIGN_OR_RETURN((*out)[j], EvalArithmetic(op_, l, r));
        break;
    }
  }
  return Status::OK();
}

Status UnaryExpr::EvalBatch(udf::EvalContext* ctx, const RowBatch& batch,
                            const uint32_t* sel, size_t count,
                            std::vector<Value>* out) const {
  HTG_RETURN_IF_ERROR(operand_->EvalBatch(ctx, batch, sel, count, out));
  for (size_t j = 0; j < count; ++j) {
    Value& v = (*out)[j];
    if (v.is_null()) continue;
    if (op_ == Op::kNot) {
      v = Value::Bool(!v.AsBool());
    } else {
      HTG_ASSIGN_OR_RETURN(v, Negate(v));
    }
  }
  return Status::OK();
}

Status FnCallExpr::EvalBatch(udf::EvalContext* ctx, const RowBatch& batch,
                             const uint32_t* sel, size_t count,
                             std::vector<Value>* out) const {
  // Arguments vectorize; the function call itself stays per-row. This is
  // the measured UDF boundary of the paper's §5.2 — udf.scalar.calls must
  // keep counting individual invocations.
  std::vector<std::vector<Value>> arg_cols(args_.size());
  for (size_t a = 0; a < args_.size(); ++a) {
    HTG_RETURN_IF_ERROR(
        args_[a]->EvalBatch(ctx, batch, sel, count, &arg_cols[a]));
  }
  out->resize(count);
  std::vector<Value> args(args_.size());
  for (size_t j = 0; j < count; ++j) {
    bool any_null = false;
    for (size_t a = 0; a < args_.size(); ++a) {
      args[a] = std::move(arg_cols[a][j]);
      any_null = any_null || args[a].is_null();
    }
    if (any_null && !fn_->null_tolerant) {
      (*out)[j] = Value::Null();
      continue;
    }
    HTG_METRIC_COUNTER("udf.scalar.calls")->Add(1);
    HTG_ASSIGN_OR_RETURN((*out)[j], fn_->eval(ctx, args));
  }
  return Status::OK();
}

Status CastExpr::EvalBatch(udf::EvalContext* ctx, const RowBatch& batch,
                           const uint32_t* sel, size_t count,
                           std::vector<Value>* out) const {
  HTG_RETURN_IF_ERROR(operand_->EvalBatch(ctx, batch, sel, count, out));
  for (size_t j = 0; j < count; ++j) {
    HTG_ASSIGN_OR_RETURN((*out)[j], (*out)[j].CastTo(target_));
  }
  return Status::OK();
}

Status IsNullExpr::EvalBatch(udf::EvalContext* ctx, const RowBatch& batch,
                             const uint32_t* sel, size_t count,
                             std::vector<Value>* out) const {
  HTG_RETURN_IF_ERROR(operand_->EvalBatch(ctx, batch, sel, count, out));
  for (size_t j = 0; j < count; ++j) {
    (*out)[j] = Value::Bool((*out)[j].is_null() != negated_);
  }
  return Status::OK();
}

Status LikeExpr::EvalBatch(udf::EvalContext* ctx, const RowBatch& batch,
                           const uint32_t* sel, size_t count,
                           std::vector<Value>* out) const {
  HTG_RETURN_IF_ERROR(operand_->EvalBatch(ctx, batch, sel, count, out));
  for (size_t j = 0; j < count; ++j) {
    Value& v = (*out)[j];
    if (v.is_null()) continue;
    v = Value::Bool(Match(v.AsString(), pattern_) != negated_);
  }
  return Status::OK();
}

Status FilterBatch(const Expr& expr, udf::EvalContext* ctx, RowBatch* batch,
                   std::vector<Value>* scratch) {
  const size_t n = batch->ActiveRows();
  if (n == 0) {
    batch->SetSelection({});
    return Status::OK();
  }
  HTG_RETURN_IF_ERROR(
      expr.EvalBatch(ctx, *batch, batch->selection_data(), n, scratch));
  std::vector<uint32_t> keep;
  keep.reserve(n);
  for (size_t j = 0; j < n; ++j) {
    const Value& v = (*scratch)[j];
    if (!v.is_null() && v.AsBool()) {
      keep.push_back(static_cast<uint32_t>(batch->ActiveIndex(j)));
    }
  }
  batch->SetSelection(std::move(keep));
  return Status::OK();
}

}  // namespace htg::exec
