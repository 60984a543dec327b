#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "catalog/table_def.h"
#include "exec/basic_ops.h"
#include "exec/operator.h"
#include "storage/heap_table.h"

namespace htg::exec {

// ---------------------------------------------------------------------------
// Morsel-driven scheduling (the paper's intra-query parallelism, Fig. 9,
// generalized). A morsel is a contiguous page range of a heap scan — small
// enough (~tens of pages) that workers draining a shared counter balance
// load even under skewed predicates, where the old static page-range
// partitioning stalled on the unlucky partition.
// ---------------------------------------------------------------------------

// One unit of parallel work: pages [first_page, end_page) of a heap table,
// the last morsel of a statement capped at its visible prefix's tail_rows.
using Morsel = storage::HeapTable::PageRange;

// Default morsel size. Chosen so a morsel is a few hundred KB of pages:
// big enough to amortize per-morsel pipeline setup, small enough that
// DOP workers stay busy until the very end of the scan.
inline constexpr size_t kDefaultMorselPages = 32;

// Splits [0, num_pages) into morsels of `morsel_pages` pages (last one
// may be short). Empty input yields no morsels.
std::vector<Morsel> MakeMorsels(size_t num_pages, size_t morsel_pages);

// Picks a morsel size for a table of `num_pages` pages: at most
// kDefaultMorselPages, shrunk so that `dop` workers see several morsels
// each (work stealing needs slack to balance).
size_t ChooseMorselPages(size_t num_pages, int dop);

// Runs fn(worker, morsel) for every morsel index in [0, num_morsels),
// drained from a shared counter by `dop` workers. Worker ids are dense in
// [0, dop) so callers can keep per-worker state (partial aggregates, eval
// contexts). The calling thread participates as one of the workers, which
// makes nested use from inside a pool task deadlock-free. After the first
// error, remaining morsels are claimed but skipped; the first error (by
// worker index) is returned.
Status ParallelDrainMorsels(ThreadPool* pool, int dop, size_t num_morsels,
                            const std::function<Status(int, size_t)>& fn);

// ---------------------------------------------------------------------------
// Exchanges. The binder builds one operator tree; an exchange opens its
// subtree once per morsel, on a worker ExecContext whose `morsel` names
// that morsel, and the heap scan at the bottom of the subtree reads it.
// Operators are immutable after binding (per-execution state lives in
// iterators), so the workers share the subtree and its stats.
// ---------------------------------------------------------------------------

// The worker side shared by both exchanges: the statement's morsels of a
// heap, the effective DOP (clamped to the morsel count) and one
// ExecContext per worker.
class MorselDriver {
 public:
  // Plans the statement's morsels: the rows of `heap` visible to ctx's
  // snapshot (PlanVisibleHeap, planned once), cut into morsels of
  // `morsel_pages` pages, the last one carrying the prefix's mid-page
  // cap. `child` is the subtree opened per morsel. When ctx collects
  // stats, sizes the per-worker slots in `stats`.
  static Result<MorselDriver> Plan(Operator* child, catalog::TableDef* heap,
                                   int dop, size_t morsel_pages,
                                   const ExecContext& ctx,
                                   OperatorStats* stats);

  int dop() const { return static_cast<int>(workers_.size()); }
  size_t num_morsels() const { return morsels_.size(); }
  ThreadPool* pool() const { return pool_; }
  ExecContext* worker_context(int worker) { return &workers_[worker]; }

  // Opens the child over morsel `m` on the worker's context. The rows,
  // batches and morsels each worker consumes count into the stats.
  Result<std::unique_ptr<storage::RowIterator>> OpenMorsel(int worker,
                                                           size_t m);

  // Runs every morsel on the DOP workers (ParallelDrainMorsels) and
  // hands each morsel's stream to consume(worker, rows).
  Status Run(
      const std::function<Status(int, storage::RowIterator*)>& consume);

 private:
  MorselDriver(Operator* child, std::vector<Morsel> morsels, int dop,
               const ExecContext& ctx, OperatorStats* stats);

  Operator* child_;
  std::vector<Morsel> morsels_;
  std::vector<ExecContext> workers_;
  ThreadPool* pool_;
  OperatorStats* stats_;  // null unless ctx collects stats
};

// "Parallelism (Distribute Streams)": the worker side of an exchange,
// directly above the heap scan whose page range the exchange cuts into
// morsels, mirroring the SQL Server showplan the paper reproduces. Passes
// its child's stream through. `dop` is the effective degree (already
// clamped to the morsel count at plan time), so EXPLAIN output is
// deterministic and golden-testable.
class DistributeStreamsOp : public Operator {
 public:
  DistributeStreamsOp(std::unique_ptr<TableScanOp> scan, int dop,
                      size_t morsel_pages);

  const Schema& output_schema() const override {
    return child_->output_schema();
  }
  Result<std::unique_ptr<storage::RowIterator>> OpenImpl(ExecContext* ctx) override;
  std::string Describe() const override;
  std::vector<const Operator*> children() const override {
    return {child_.get()};
  }
  int64_t EstimateRows() const override { return child_->EstimateRows(); }

 private:
  OperatorPtr child_;
  int dop_;
  size_t morsel_pages_;
};

// ParallelMapOp ("Parallelism (Gather Streams)" over a stateless
// subtree): runs `child` per morsel of `heap` on DOP workers and streams
// the result batches out in morsel (i.e. heap) order, so the output
// matches the serial plan's. This is what parallelizes the CROSS APPLY
// read-alignment pipelines end to end. Workers run at most DOP morsels
// ahead of the consumer, and park output only within half the query's
// memory budget; parked batches stay charged until the consumer takes
// them.
class ParallelMapOp : public Operator {
 public:
  ParallelMapOp(OperatorPtr child, catalog::TableDef* heap, int dop,
                size_t morsel_pages);

  const Schema& output_schema() const override {
    return child_->output_schema();
  }
  Result<std::unique_ptr<storage::RowIterator>> OpenImpl(ExecContext* ctx) override;
  std::string Describe() const override;
  std::vector<const Operator*> children() const override {
    return {child_.get()};
  }
  int64_t EstimateRows() const override { return child_->EstimateRows(); }

 private:
  OperatorPtr child_;
  catalog::TableDef* heap_;
  int dop_;
  size_t morsel_pages_;
};

}  // namespace htg::exec
