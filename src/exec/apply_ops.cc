#include "exec/apply_ops.h"

#include <algorithm>

#include "common/metrics.h"
#include "exec/join_ops.h"

namespace htg::exec {

namespace {

class CrossApplyIterator : public storage::RowIterator {
 public:
  CrossApplyIterator(std::unique_ptr<storage::RowIterator> child,
                     const udf::TableFunction* fn,
                     const std::vector<ExprPtr>* args, Database* db,
                     udf::EvalContext* eval)
      : child_(std::move(child)), fn_(fn), args_(args), db_(db), eval_(eval) {}

  // Copy-assigns the outer and inner values into the caller's row, so a
  // caller that reuses its row reuses its string buffers too.
  bool Next(Row* row) override {
    for (;;) {
      if (inner_ != nullptr) {
        if (inner_->Next(&inner_row_)) {
          const size_t outer = outer_row_.size();
          row->resize(outer + inner_row_.size());
          std::copy(outer_row_.begin(), outer_row_.end(), row->begin());
          std::copy(inner_row_.begin(), inner_row_.end(),
                    row->begin() + static_cast<ptrdiff_t>(outer));
          return true;
        }
        status_ = inner_->status();
        if (!status_.ok()) return false;
        inner_ = nullptr;
      }
      if (!child_->Next(&outer_row_)) {
        status_ = child_->status();
        return false;
      }
      arg_values_.resize(args_->size());
      for (size_t a = 0; a < args_->size(); ++a) {
        Result<Value> v = (*args_)[a]->Eval(eval_, outer_row_);
        if (!v.ok()) {
          status_ = v.status();
          return false;
        }
        arg_values_[a] = std::move(*v);
      }
      HTG_METRIC_COUNTER("udf.tvf.opens")->Add(1);
      Result<std::unique_ptr<storage::RowIterator>> inner =
          fn_->Open(arg_values_, db_);
      if (!inner.ok()) {
        status_ = inner.status();
        return false;
      }
      inner_ = std::move(*inner);
    }
  }

  Status status() const override { return status_; }

 private:
  std::unique_ptr<storage::RowIterator> child_;
  const udf::TableFunction* fn_;
  const std::vector<ExprPtr>* args_;
  Database* db_;
  udf::EvalContext* eval_;
  Row outer_row_;
  Row inner_row_;
  std::vector<Value> arg_values_;
  std::unique_ptr<storage::RowIterator> inner_;
  Status status_;
};

}  // namespace

Result<std::unique_ptr<storage::RowIterator>> TvfScanOp::OpenImpl(
    ExecContext* ctx) {
  std::vector<Value> args;
  args.reserve(args_.size());
  for (const ExprPtr& a : args_) {
    HTG_ASSIGN_OR_RETURN(Value v, a->Eval(&ctx->eval, Row{}));
    args.push_back(std::move(v));
  }
  HTG_METRIC_COUNTER("udf.tvf.opens")->Add(1);
  return fn_->Open(args, ctx->db);
}

std::string TvfScanOp::Describe() const {
  std::string out = "Table Valued Function [" + std::string(fn_->name()) + "(";
  for (size_t i = 0; i < args_.size(); ++i) {
    if (i > 0) out += ", ";
    out += args_[i]->ToString();
  }
  out += ")]";
  return out;
}

CrossApplyOp::CrossApplyOp(OperatorPtr child, const udf::TableFunction* fn,
                           std::vector<ExprPtr> args, Schema fn_schema)
    : child_(std::move(child)),
      fn_(fn),
      args_(std::move(args)),
      fn_schema_(std::move(fn_schema)),
      schema_(ConcatSchemas(child_->output_schema(), fn_schema_)) {}

Result<std::unique_ptr<storage::RowIterator>> CrossApplyOp::OpenImpl(
    ExecContext* ctx) {
  HTG_ASSIGN_OR_RETURN(std::unique_ptr<storage::RowIterator> child,
                       child_->Open(ctx));
  return {std::make_unique<CrossApplyIterator>(std::move(child), fn_, &args_,
                                               ctx->db, &ctx->eval)};
}

std::string CrossApplyOp::Describe() const {
  return "Nested Loops (Cross Apply) [" + std::string(fn_->name()) + "]";
}

}  // namespace htg::exec
