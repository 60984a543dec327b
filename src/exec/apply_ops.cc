#include "exec/apply_ops.h"

#include "common/metrics.h"
#include "exec/batch.h"
#include "exec/join_ops.h"

namespace htg::exec {

namespace {

// CROSS APPLY as a batch producer. The TVF arguments evaluate as batch
// kernels over each outer batch; then, per outer row, the TVF opens and
// its rows are pulled one at a time through Next() (the paper's §5.2
// seam). The kept outer values and inner rows are copy-assigned straight
// into the output batch's retained value slots, so each pivoted value is
// copied once and a recycled output batch reuses its string buffers.
class CrossApplyIterator : public BatchIterator {
 public:
  CrossApplyIterator(std::unique_ptr<storage::RowIterator> child,
                     const udf::TableFunction* fn,
                     const std::vector<ExprPtr>* args, Database* db,
                     udf::EvalContext* eval,
                     const std::vector<int>* outer_columns,
                     size_t inner_width)
      : child_(std::move(child)),
        fn_(fn),
        args_(args),
        db_(db),
        eval_(eval),
        outer_columns_(outer_columns),
        outer_width_(outer_columns->size()),
        inner_width_(inner_width),
        arg_cols_(args->size()),
        arg_values_(args->size()) {}

 protected:
  bool ProduceBatch(RowBatch* out) override {
    out->StartFill(outer_width_ + inner_width_);
    const size_t n = Fill(out);
    out->FinishFill(n);
    return n > 0 && status_.ok();
  }

 private:
  // Writes output rows until the batch is full or the input ends; returns
  // how many. On error, sets status_.
  size_t Fill(RowBatch* out) {
    size_t n = 0;
    for (;;) {
      if (inner_ != nullptr) {
        while (n < out->capacity() && inner_->Next(&inner_row_)) {
          for (size_t c = 0; c < outer_width_; ++c) {
            out->Slot(c, n) = outer_.column((*outer_columns_)[c])[outer_row_];
          }
          for (size_t k = 0; k < inner_width_; ++k) {
            out->Slot(outer_width_ + k, n) =
                k < inner_row_.size() ? inner_row_[k] : Value::Null();
          }
          ++n;
        }
        if (n == out->capacity()) return n;
        status_ = inner_->status();
        if (!status_.ok()) return n;
        inner_ = nullptr;
      }
      if (next_outer_ >= outer_.ActiveRows() && !NextOuterBatch()) return n;
      for (size_t a = 0; a < args_->size(); ++a) {
        arg_values_[a] = arg_cols_[a][next_outer_];
      }
      outer_row_ = outer_.ActiveIndex(next_outer_++);
      HTG_METRIC_COUNTER("udf.tvf.opens")->Add(1);
      Result<std::unique_ptr<udf::RowSource>> inner =
          fn_->Open(arg_values_, db_);
      if (!inner.ok()) {
        status_ = inner.status();
        return n;
      }
      inner_ = std::move(*inner);
    }
  }

  // Pulls the next outer batch and evaluates the TVF arguments over its
  // live rows. False at end of input or on error (status_ says which).
  bool NextOuterBatch() {
    if (!child_->NextBatch(&outer_)) {
      status_ = child_->status();
      return false;
    }
    next_outer_ = 0;
    for (size_t a = 0; a < args_->size(); ++a) {
      status_ = (*args_)[a]->EvalBatch(eval_, outer_, outer_.selection_data(),
                                       outer_.ActiveRows(), &arg_cols_[a]);
      if (!status_.ok()) return false;
    }
    return true;
  }

  std::unique_ptr<storage::RowIterator> child_;
  const udf::TableFunction* fn_;
  const std::vector<ExprPtr>* args_;
  Database* db_;
  udf::EvalContext* eval_;
  const std::vector<int>* outer_columns_;  // input columns carried out
  size_t outer_width_;
  size_t inner_width_;
  RowBatch outer_;
  size_t next_outer_ = 0;  // live index of the next outer row to apply
  size_t outer_row_ = 0;   // physical row of the outer row being applied
  std::vector<std::vector<Value>> arg_cols_;  // per argument, per live row
  std::vector<Value> arg_values_;
  Row inner_row_;
  std::unique_ptr<udf::RowSource> inner_;
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
  HTG_ASSIGN_OR_RETURN(std::unique_ptr<udf::RowSource> source,
                       fn_->Open(args, ctx->db));
  return {std::move(source)};
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
                           std::vector<ExprPtr> args, Schema fn_schema,
                           std::vector<int> outer_columns)
    : child_(std::move(child)),
      fn_(fn),
      args_(std::move(args)),
      fn_schema_(std::move(fn_schema)),
      outer_columns_(std::move(outer_columns)),
      schema_(ConcatSchemas(child_->output_schema().Project(outer_columns_),
                            fn_schema_)) {}

Result<std::unique_ptr<storage::RowIterator>> CrossApplyOp::OpenImpl(
    ExecContext* ctx) {
  HTG_ASSIGN_OR_RETURN(std::unique_ptr<storage::RowIterator> child,
                       child_->Open(ctx));
  return {std::make_unique<CrossApplyIterator>(
      std::move(child), fn_, &args_, ctx->db, &ctx->eval, &outer_columns_,
      fn_schema_.num_columns())};
}

std::string CrossApplyOp::Describe() const {
  return "Nested Loops (Cross Apply) [" + std::string(fn_->name()) + "]" +
         DescribeColumns(schema_);
}

}  // namespace htg::exec
