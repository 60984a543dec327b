#include "exec/parallel.h"

#include <algorithm>
#include <atomic>

#include "common/metrics.h"
#include "common/string_util.h"
#include "common/synchronization.h"
#include "exec/apply_ops.h"
#include "exec/basic_ops.h"
#include "exec/batch.h"
#include "exec/join_ops.h"
#include "storage/heap_table.h"

namespace htg::exec {

std::vector<Morsel> MakeMorsels(size_t num_pages, size_t morsel_pages) {
  std::vector<Morsel> morsels;
  if (morsel_pages == 0) morsel_pages = 1;
  morsels.reserve(num_pages / morsel_pages + 1);
  for (size_t p = 0; p < num_pages; p += morsel_pages) {
    morsels.push_back({p, std::min(p + morsel_pages, num_pages)});
  }
  return morsels;
}

Result<std::vector<Morsel>> PlanHeapMorsels(catalog::TableDef* table,
                                            const ExecContext& ctx,
                                            size_t morsel_pages) {
  HTG_ASSIGN_OR_RETURN(const Morsel visible, PlanVisibleHeap(table, ctx));
  std::vector<Morsel> morsels = MakeMorsels(visible.end_page, morsel_pages);
  if (!morsels.empty()) morsels.back().tail_rows = visible.tail_rows;
  return morsels;
}

size_t ChooseMorselPages(size_t num_pages, int dop, size_t max_pages) {
  if (max_pages == 0) max_pages = kDefaultMorselPages;
  if (dop < 1) dop = 1;
  // Aim for ~4 morsels per worker so the shared counter can rebalance
  // skew, but never below one page per morsel.
  const size_t target = num_pages / (4 * static_cast<size_t>(dop));
  return std::max<size_t>(1, std::min(max_pages, std::max<size_t>(1, target)));
}

Status ParallelDrainMorsels(ThreadPool* pool, int dop, size_t num_morsels,
                            const std::function<Status(int, size_t)>& fn) {
  if (num_morsels == 0) return Status::OK();
  HTG_METRIC_COUNTER("exec.morsels.dispatched")->Add(num_morsels);
  if (dop < 1) dop = 1;
  dop = std::min<size_t>(dop, num_morsels);
  if (dop == 1 || pool == nullptr) {
    for (size_t i = 0; i < num_morsels; ++i) {
      HTG_RETURN_IF_ERROR(fn(0, i));
    }
    return Status::OK();
  }
  // Shared-counter work stealing. As in ThreadPool::ParallelFor, the
  // caller drains morsels itself (as worker 0), so completion never
  // depends on the helper tasks being scheduled — helpers that start late
  // find the counter exhausted and return. The state is shared-owned
  // because such helpers can outlive this call. After a failure, workers
  // keep claiming (so the completed count still reaches num_morsels) but
  // skip the actual work.
  struct State {
    std::atomic<size_t> next{0};
    std::atomic<int> next_worker{1};  // 0 is the caller
    std::atomic<bool> failed{false};
    size_t n = 0;
    int dop = 0;
    std::function<Status(int, size_t)> fn;
    // Per-worker slots: worker w writes statuses[w] only; the caller
    // reads them after the completion barrier below (the cv handshake
    // publishes the writes).
    std::vector<Status> statuses;
    Mutex mu{"ParallelDrainMorsels::mu"};
    CondVar cv;
    size_t completed HTG_GUARDED_BY(mu) = 0;
  };
  auto state = std::make_shared<State>();
  state->n = num_morsels;
  state->dop = dop;
  state->fn = fn;
  state->statuses.assign(dop, Status::OK());
  auto drain = [](const std::shared_ptr<State>& s, int worker) {
    for (size_t i = s->next.fetch_add(1); i < s->n;
         i = s->next.fetch_add(1)) {
      // A morsel drained by a helper rather than the caller was "stolen"
      // off the shared counter — the steal rate is the load-balance signal.
      if (worker != 0) HTG_METRIC_COUNTER("exec.morsels.stolen")->Add(1);
      if (!s->failed.load(std::memory_order_acquire)) {
        Status status = s->fn(worker, i);
        if (!status.ok()) {
          s->statuses[worker] = std::move(status);
          s->failed.store(true, std::memory_order_release);
        }
      }
      bool all_done = false;
      {
        MutexLock lock(&s->mu);
        all_done = ++s->completed == s->n;
      }
      if (all_done) s->cv.NotifyAll();
    }
  };
  for (int w = 1; w < dop; ++w) {
    pool->Submit([state, drain] {
      const int worker = state->next_worker.fetch_add(1);
      if (worker < state->dop) drain(state, worker);
    });
  }
  drain(state, 0);
  {
    MutexLock lock(&state->mu);
    while (state->completed != state->n) state->cv.Wait(&state->mu);
  }
  for (Status& s : state->statuses) {
    HTG_RETURN_IF_ERROR(std::move(s));
  }
  return Status::OK();
}

// --------------------------------------------------------------------------
// Pipeline stages.
// --------------------------------------------------------------------------

ParallelStage ParallelStage::Clone() const {
  ParallelStage copy;
  copy.kind = kind;
  if (predicate != nullptr) copy.predicate = predicate->Clone();
  copy.exprs.reserve(exprs.size());
  for (const ExprPtr& e : exprs) copy.exprs.push_back(e->Clone());
  copy.names = names;
  copy.fn = fn;
  copy.args.reserve(args.size());
  for (const ExprPtr& a : args) copy.args.push_back(a->Clone());
  copy.fn_schema = fn_schema;
  copy.outer_columns = outer_columns;
  return copy;
}

ParallelStage ParallelStage::Filter(ExprPtr predicate) {
  ParallelStage stage;
  stage.kind = Kind::kFilter;
  stage.predicate = std::move(predicate);
  return stage;
}

ParallelStage ParallelStage::Project(std::vector<ExprPtr> exprs,
                                     std::vector<std::string> names) {
  ParallelStage stage;
  stage.kind = Kind::kProject;
  stage.exprs = std::move(exprs);
  stage.names = std::move(names);
  return stage;
}

ParallelStage ParallelStage::Apply(const udf::TableFunction* fn,
                                   std::vector<ExprPtr> args,
                                   Schema fn_schema,
                                   std::vector<int> outer_columns) {
  ParallelStage stage;
  stage.kind = Kind::kApply;
  stage.fn = fn;
  stage.args = std::move(args);
  stage.fn_schema = std::move(fn_schema);
  stage.outer_columns = std::move(outer_columns);
  return stage;
}

std::vector<ParallelStage> CloneStages(const std::vector<ParallelStage>& s) {
  std::vector<ParallelStage> out;
  out.reserve(s.size());
  for (const ParallelStage& stage : s) out.push_back(stage.Clone());
  return out;
}

namespace {

OperatorPtr ApplyStages(OperatorPtr op,
                        const std::vector<ParallelStage>& stages) {
  for (const ParallelStage& stage : stages) {
    switch (stage.kind) {
      case ParallelStage::Kind::kFilter:
        op = std::make_unique<FilterOp>(std::move(op),
                                        stage.predicate->Clone());
        break;
      case ParallelStage::Kind::kProject: {
        std::vector<ExprPtr> exprs;
        exprs.reserve(stage.exprs.size());
        for (const ExprPtr& e : stage.exprs) exprs.push_back(e->Clone());
        op = std::make_unique<ProjectOp>(std::move(op), std::move(exprs),
                                         stage.names);
        break;
      }
      case ParallelStage::Kind::kApply: {
        std::vector<ExprPtr> args;
        args.reserve(stage.args.size());
        for (const ExprPtr& a : stage.args) args.push_back(a->Clone());
        op = std::make_unique<CrossApplyOp>(std::move(op), stage.fn,
                                            std::move(args), stage.fn_schema,
                                            stage.outer_columns);
        break;
      }
    }
  }
  return op;
}

}  // namespace

OperatorPtr BuildMorselPipeline(catalog::TableDef* table,
                                const std::vector<int>& columns,
                                const storage::ScanPredicate& predicate,
                                const Morsel& morsel,
                                const std::vector<ParallelStage>& stages) {
  OperatorPtr op =
      std::make_unique<TableScanOp>(table, columns, morsel, predicate);
  return ApplyStages(std::move(op), stages);
}

// --------------------------------------------------------------------------
// DistributeStreamsOp.
// --------------------------------------------------------------------------

DistributeStreamsOp::DistributeStreamsOp(OperatorPtr child, int dop,
                                         size_t morsel_pages)
    : child_(std::move(child)),
      dop_(dop < 1 ? 1 : dop),
      morsel_pages_(morsel_pages) {}

Result<std::unique_ptr<storage::RowIterator>> DistributeStreamsOp::OpenImpl(
    ExecContext*) {
  return Status::Internal(
      "Distribute Streams is an EXPLAIN marker; exchange operators open "
      "their morsel pipelines directly");
}

std::string DistributeStreamsOp::Describe() const {
  return StringPrintf(
      "Parallelism (Distribute Streams) [DOP=%d, morsels of %zu pages]", dop_,
      morsel_pages_);
}

OperatorPtr BuildExplainPipeline(catalog::TableDef* table,
                                 const std::vector<int>& columns,
                                 const storage::ScanPredicate& predicate,
                                 const std::vector<ParallelStage>& stages,
                                 int dop, size_t morsel_pages) {
  auto* heap = dynamic_cast<storage::HeapTable*>(table->table.get());
  const size_t npages = heap != nullptr ? heap->num_pages() : 0;
  OperatorPtr op = std::make_unique<TableScanOp>(
      table, columns, Morsel{0, npages, 0}, predicate);
  op = std::make_unique<DistributeStreamsOp>(std::move(op), dop, morsel_pages);
  return ApplyStages(std::move(op), stages);
}

void LinkPipelineStats(const Operator* pipeline, const Operator* repr) {
  while (pipeline != nullptr && repr != nullptr) {
    if (dynamic_cast<const DistributeStreamsOp*>(repr) != nullptr) {
      const std::vector<const Operator*> kids = repr->children();
      repr = kids.empty() ? nullptr : kids[0];
      continue;
    }
    pipeline->SetStatsSink(repr->mutable_stats());
    const std::vector<const Operator*> pkids = pipeline->children();
    const std::vector<const Operator*> rkids = repr->children();
    pipeline = pkids.empty() ? nullptr : pkids[0];
    repr = rkids.empty() ? nullptr : rkids[0];
  }
}

// --------------------------------------------------------------------------
// ParallelMapOp.
// --------------------------------------------------------------------------

ParallelMapOp::ParallelMapOp(catalog::TableDef* table, std::vector<int> columns,
                             std::vector<ParallelStage> stages, int dop,
                             size_t morsel_pages, bool preserve_order,
                             storage::ScanPredicate predicate)
    : table_(table),
      columns_(std::move(columns)),
      predicate_(std::move(predicate)),
      stages_(std::move(stages)),
      dop_(dop < 1 ? 1 : dop),
      morsel_pages_(morsel_pages == 0 ? kDefaultMorselPages : morsel_pages),
      preserve_order_(preserve_order),
      repr_(BuildExplainPipeline(table_, columns_, predicate_, stages_, dop_,
                                 morsel_pages_)) {}

int64_t ParallelMapOp::EstimateRows() const {
  // Scan cardinality; filter/apply stages make the true fan-out unknown,
  // so only a bare pipeline keeps the estimate.
  return stages_.empty() ? static_cast<int64_t>(table_->table->num_rows())
                         : -1;
}

Result<std::unique_ptr<storage::RowIterator>> ParallelMapOp::OpenImpl(
    ExecContext* ctx) {
  HTG_ASSIGN_OR_RETURN(const std::vector<Morsel> morsels,
                       PlanHeapMorsels(table_, *ctx, morsel_pages_));
  const int dop = std::min<size_t>(dop_, std::max<size_t>(1, morsels.size()));

  OperatorStats* stats = mutable_stats();
  if (ctx->collect_stats) {
    stats->worker_rows.assign(dop, 0);
    stats->worker_morsels.assign(dop, 0);
    stats->worker_batches.assign(dop, 0);
  }

  // Workers drain morsels into per-morsel batch buffers; each worker
  // evaluates expressions through its own EvalContext copy. Rows cross
  // the exchange as RowBatches and are never converted to row form.
  std::vector<ExecContext> worker_ctx(dop, *ctx);
  std::vector<std::vector<RowBatch>> buffers(morsels.size());
  std::vector<size_t> done_order;  // completion order of morsel indexes
  Mutex done_mu;  // guards done_order until the drain barrier; the
                  // gather loop below reads it quiescently afterwards
  done_order.reserve(morsels.size());
  HTG_RETURN_IF_ERROR(ParallelDrainMorsels(
      ctx->pool, dop, morsels.size(), [&](int worker, size_t m) -> Status {
        OperatorPtr pipeline = BuildMorselPipeline(
            table_, columns_, predicate_, morsels[m], stages_);
        if (ctx->collect_stats) {
          LinkPipelineStats(pipeline.get(), repr_.get());
        }
        HTG_ASSIGN_OR_RETURN(std::unique_ptr<storage::RowIterator> iter,
                             pipeline->Open(&worker_ctx[worker]));
        uint64_t morsel_rows = 0;
        HTG_RETURN_IF_ERROR(DrainBatches(iter.get(), &buffers[m],
                                         &morsel_rows));
        if (ctx->collect_stats) {
          stats->worker_rows[worker] += morsel_rows;
          stats->worker_batches[worker] += buffers[m].size();
          ++stats->worker_morsels[worker];
        }
        if (!preserve_order_) {
          MutexLock lock(&done_mu);
          done_order.push_back(m);
        }
        return Status::OK();
      }));

  size_t total = 0;
  for (const std::vector<RowBatch>& b : buffers) total += b.size();
  std::vector<RowBatch> batches;
  batches.reserve(total);
  if (preserve_order_) {
    // Gather in morsel order: output matches the serial heap scan order.
    for (std::vector<RowBatch>& b : buffers) {
      for (RowBatch& batch : b) batches.push_back(std::move(batch));
      b.clear();
    }
  } else {
    for (size_t m : done_order) {
      for (RowBatch& batch : buffers[m]) batches.push_back(std::move(batch));
      buffers[m].clear();
    }
  }
  return {std::make_unique<MaterializedBatchesIterator>(std::move(batches))};
}

std::string ParallelMapOp::Describe() const {
  return StringPrintf("Parallelism (Gather Streams) [DOP=%d%s]", dop_,
                      preserve_order_ ? ", order preserving" : "");
}

}  // namespace htg::exec
