#include "exec/basic_ops.h"

#include "common/string_util.h"
#include "exec/batch.h"
#include "exec/spill_util.h"
#include "storage/clustered_table.h"
#include "storage/heap_table.h"

namespace htg::exec {

namespace {

// Filter: pulls child batches and narrows each one's selection vector in
// place (no row copying) until at least one row survives.
class FilterBatchIterator : public BatchIterator {
 public:
  FilterBatchIterator(std::unique_ptr<storage::RowIterator> child,
                      const Expr* predicate, udf::EvalContext* eval)
      : child_(std::move(child)), predicate_(predicate), eval_(eval) {}

 protected:
  bool ProduceBatch(RowBatch* batch) override {
    for (;;) {
      if (!child_->NextBatch(batch)) {
        status_ = child_->status();
        return false;
      }
      const Status s = FilterBatch(*predicate_, eval_, batch, &scratch_);
      if (!s.ok()) {
        status_ = s;
        return false;
      }
      if (batch->ActiveRows() > 0) return true;
    }
  }

 private:
  std::unique_ptr<storage::RowIterator> child_;
  const Expr* predicate_;
  udf::EvalContext* eval_;
  std::vector<Value> scratch_;
};

// Compute Scalar: evaluates each projection expression over the whole
// input batch (kernel loop over the selection vector), writing straight
// into the output batch's dense columns.
class ProjectBatchIterator : public BatchIterator {
 public:
  ProjectBatchIterator(std::unique_ptr<storage::RowIterator> child,
                       const std::vector<ExprPtr>* exprs,
                       udf::EvalContext* eval)
      : child_(std::move(child)), exprs_(exprs), eval_(eval) {}

 protected:
  bool ProduceBatch(RowBatch* batch) override {
    if (!child_->NextBatch(&input_)) {
      status_ = child_->status();
      return false;
    }
    const size_t n = input_.ActiveRows();
    // Each kernel assigns into the column's retained value slots.
    batch->StartFill(exprs_->size());
    for (size_t e = 0; e < exprs_->size(); ++e) {
      const Status s = (*exprs_)[e]->EvalBatch(
          eval_, input_, input_.selection_data(), n, &batch->column(e));
      if (!s.ok()) {
        status_ = s;
        return false;
      }
    }
    batch->set_num_rows(n);
    return n > 0;
  }

 private:
  std::unique_ptr<storage::RowIterator> child_;
  const std::vector<ExprPtr>* exprs_;
  udf::EvalContext* eval_;
  RowBatch input_;
};

// Top: passes batches through, truncating the final batch's selection to
// the remaining row budget.
class TopBatchIterator : public BatchIterator {
 public:
  TopBatchIterator(std::unique_ptr<storage::RowIterator> child, int64_t limit,
                   MemoryContext* mem)
      : child_(std::move(child)), remaining_(limit), charge_(mem, "Top") {
    // The pass-through batch is bounded scratch (one batch of values);
    // account it for an honest peak without gating the statement on it.
    charge_.AddUnchecked(RowBatch::kDefaultRows * sizeof(Value));
  }

 protected:
  bool ProduceBatch(RowBatch* batch) override {
    if (remaining_ <= 0) return false;
    if (!child_->NextBatch(batch)) {
      status_ = child_->status();
      return false;
    }
    const int64_t n = static_cast<int64_t>(batch->ActiveRows());
    if (n <= remaining_) {
      remaining_ -= n;
      return true;
    }
    std::vector<uint32_t> keep;
    keep.reserve(static_cast<size_t>(remaining_));
    for (int64_t i = 0; i < remaining_; ++i) {
      keep.push_back(static_cast<uint32_t>(
          batch->ActiveIndex(static_cast<size_t>(i))));
    }
    batch->SetSelection(std::move(keep));
    remaining_ = 0;
    return true;
  }

 private:
  std::unique_ptr<storage::RowIterator> child_;
  int64_t remaining_;
  MemoryCharge charge_;
};

}  // namespace

TableScanOp::TableScanOp(catalog::TableDef* table, std::vector<int> columns)
    : table_(table),
      columns_(std::move(columns)),
      schema_(table->schema.Project(columns_)) {}

TableScanOp::TableScanOp(catalog::TableDef* table)
    : TableScanOp(table, storage::AllColumns(table->schema)) {}

void TableScanOp::set_predicate(storage::ScanPredicate predicate) {
  predicate_ = std::move(predicate);
  seek_ = storage::IntRange();
  // Only integer literals on an integer leading key seek.
  if (!table_->clustered_key.empty()) {
    const int lead = table_->clustered_key[0];
    const DataType type = table_->schema.column(lead).type;
    if (type == DataType::kInt32 || type == DataType::kInt64) {
      seek_ = storage::IntegerBounds(predicate_, lead);
    }
  }
}

Result<storage::HeapTable::PageRange> PlanVisibleHeap(
    catalog::TableDef* table, const ExecContext& ctx) {
  auto* heap = dynamic_cast<storage::HeapTable*>(table->table.get());
  if (heap == nullptr) {
    return Status::Internal("page-range scan on non-heap table " +
                            table->name);
  }
  return heap->PlanVisiblePrefix(
      table->mvcc->VisibleRows(*ctx.snapshot, ctx.txn_id, heap->num_rows()));
}

// The executor's one MVCC seam: every table scan, serial or under an
// exchange, opens here through the context's snapshot.
Result<std::unique_ptr<storage::RowIterator>> TableScanOp::OpenImpl(
    ExecContext* ctx) {
  if (auto* clustered =
          dynamic_cast<storage::ClusteredTable*>(table_->table.get())) {
    if (!seek_.bounded) {
      return {clustered->NewSnapshotScan(*ctx->snapshot, ctx->txn_id,
                                         columns_)};
    }
    if (ctx->collect_stats) {
      mutable_stats()->seeks.fetch_add(1, std::memory_order_relaxed);
    }
    // NULL keys sort first, so the seek also skips them: a NULL matches
    // no term.
    return clustered->NewSnapshotScanFrom(
        Row{Value::Int64(seek_.lower)}, *ctx->snapshot, ctx->txn_id, columns_,
        Value::Int64(seek_.upper));
  }
  storage::HeapTable::PageRange range;
  if (ctx->morsel != nullptr) {
    range = *ctx->morsel;
  } else {
    HTG_ASSIGN_OR_RETURN(range, PlanVisibleHeap(table_, *ctx));
  }
  return {static_cast<storage::HeapTable*>(table_->table.get())
              ->NewScanRange(range, columns_, predicate_,
                             ctx->collect_stats ? &mutable_stats()->pages
                                                : nullptr)};
}

int64_t TableScanOp::EstimateRows() const {
  return static_cast<int64_t>(table_->table->num_rows());
}

std::string TableScanOp::Describe() const {
  std::string kind = table_->clustered_key.empty()
                         ? "Table Scan"
                         : "Clustered Index Scan";
  std::string out = kind + " [" + table_->name + "]";
  if (distributed_) {
    const auto* heap =
        dynamic_cast<const storage::HeapTable*>(table_->table.get());
    out += StringPrintf(" pages [0, %zu)",
                        heap != nullptr ? heap->num_pages() : 0);
  }
  if (!predicate_.empty()) {
    out += " predicate (" + predicate_.ToString(table_->schema) + ")";
  }
  return out + DescribeColumns(schema_);
}

Result<std::unique_ptr<storage::RowIterator>> ValuesOp::OpenImpl(
    ExecContext* ctx) {
  std::vector<RowBatch> batches(1);
  RowBatch& batch = batches[0];
  batch.StartFill(rows_.empty() ? 0 : rows_[0].size());
  for (size_t r = 0; r < rows_.size(); ++r) {
    for (size_t c = 0; c < rows_[r].size(); ++c) {
      HTG_ASSIGN_OR_RETURN(batch.Slot(c, r),
                           rows_[r][c]->Eval(&ctx->eval, Row{}));
    }
  }
  batch.FinishFill(rows_.size());
  MemoryCharge charge(ctx->mem.get(), "Constant Scan");
  HTG_RETURN_IF_ERROR(charge.Add(ApproxBatchBytes(batch)));
  RecordPeakMem(mutable_stats(), charge.peak());
  return {std::make_unique<MaterializedBatchesIterator>(std::move(batches),
                                                        std::move(charge))};
}

std::string ValuesOp::Describe() const {
  return StringPrintf("Constant Scan [%zu rows]", rows_.size());
}

OpenRowsetOp::OpenRowsetOp(std::string path) : path_(std::move(path)) {
  Column col;
  col.name = "BulkColumn";
  col.type = DataType::kBlob;
  schema_.AddColumn(col);
}

Result<std::unique_ptr<storage::RowIterator>> OpenRowsetOp::OpenImpl(
    ExecContext* ctx) {
  if (ctx->db == nullptr) {
    return Status::ExecError("OPENROWSET requires a database");
  }
  // Read the external file directly (it need not live in the store);
  // the Vfs seam keeps even ad-hoc imports fault-injectable.
  Result<std::string> read = storage::Vfs::Default()->ReadFileToString(path_);
  if (!read.ok()) {
    return Status::NotFound("OPENROWSET(BULK): cannot open " + path_ + ": " +
                            read.status().message());
  }
  std::vector<RowBatch> batches(1);
  batches[0].StartFill(1);
  batches[0].Slot(0, 0) = Value::Blob(std::move(*read));
  batches[0].FinishFill(1);
  // The whole import is held in memory as one blob row; charge it.
  MemoryCharge charge(ctx->mem.get(), "Bulk Import");
  HTG_RETURN_IF_ERROR(charge.Add(ApproxBatchBytes(batches[0])));
  RecordPeakMem(mutable_stats(), charge.peak());
  return {std::make_unique<MaterializedBatchesIterator>(std::move(batches),
                                                        std::move(charge))};
}

std::string OpenRowsetOp::Describe() const {
  return "Bulk Import [" + path_ + "]";
}

Result<std::unique_ptr<storage::RowIterator>> FilterOp::OpenImpl(
    ExecContext* ctx) {
  HTG_ASSIGN_OR_RETURN(std::unique_ptr<storage::RowIterator> child,
                       child_->Open(ctx));
  return {std::make_unique<FilterBatchIterator>(std::move(child),
                                               predicate_.get(), &ctx->eval)};
}

std::string FilterOp::Describe() const {
  return "Filter [" + predicate_->ToString() + "]";
}

ProjectOp::ProjectOp(OperatorPtr child, std::vector<ExprPtr> exprs,
                     std::vector<std::string> names)
    : child_(std::move(child)), exprs_(std::move(exprs)) {
  for (size_t i = 0; i < exprs_.size(); ++i) {
    Column col;
    col.name = i < names.size() ? names[i] : StringPrintf("col%zu", i);
    col.type = exprs_[i]->result_type();
    schema_.AddColumn(col);
  }
}

Result<std::unique_ptr<storage::RowIterator>> ProjectOp::OpenImpl(
    ExecContext* ctx) {
  HTG_ASSIGN_OR_RETURN(std::unique_ptr<storage::RowIterator> child,
                       child_->Open(ctx));
  return {std::make_unique<ProjectBatchIterator>(std::move(child), &exprs_,
                                                 &ctx->eval)};
}

std::string ProjectOp::Describe() const {
  std::string out = "Compute Scalar [";
  for (size_t i = 0; i < exprs_.size(); ++i) {
    if (i > 0) out += ", ";
    out += exprs_[i]->ToString();
  }
  out += "]";
  return out;
}

Result<std::unique_ptr<storage::RowIterator>> TopOp::OpenImpl(ExecContext* ctx) {
  HTG_ASSIGN_OR_RETURN(std::unique_ptr<storage::RowIterator> child,
                       child_->Open(ctx));
  return {std::make_unique<TopBatchIterator>(std::move(child), limit_,
                                             ctx->mem.get())};
}

std::string TopOp::Describe() const {
  return StringPrintf("Top [%lld]", static_cast<long long>(limit_));
}

}  // namespace htg::exec
