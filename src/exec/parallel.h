#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "catalog/table_def.h"
#include "exec/operator.h"
#include "storage/heap_table.h"
#include "udf/function.h"

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

// The statement's morsels: the heap rows of `table` visible to ctx's
// snapshot (PlanVisibleHeap, planned once), cut into morsels of
// `morsel_pages` pages. The last morsel carries the prefix's mid-page cap.
Result<std::vector<Morsel>> PlanHeapMorsels(catalog::TableDef* table,
                                            const ExecContext& ctx,
                                            size_t morsel_pages);

// Picks a morsel size for a table of `num_pages` pages: the configured
// `max_pages` cap, shrunk so that `dop` workers see several morsels each
// (work stealing needs slack to balance).
size_t ChooseMorselPages(size_t num_pages, int dop, size_t max_pages);

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
// Morsel pipelines: a restricted, cloneable description of the
// scan→filter→project→CROSS APPLY operator chains that exchange operators
// replay once per morsel.
// ---------------------------------------------------------------------------

struct ParallelStage {
  enum class Kind { kFilter, kProject, kApply };

  Kind kind = Kind::kFilter;
  // kFilter.
  ExprPtr predicate;
  // kProject.
  std::vector<ExprPtr> exprs;
  std::vector<std::string> names;
  // kApply.
  const udf::TableFunction* fn = nullptr;
  std::vector<ExprPtr> args;
  Schema fn_schema;
  std::vector<int> outer_columns;  // input columns carried past the apply

  ParallelStage Clone() const;

  static ParallelStage Filter(ExprPtr predicate);
  static ParallelStage Project(std::vector<ExprPtr> exprs,
                               std::vector<std::string> names);
  static ParallelStage Apply(const udf::TableFunction* fn,
                             std::vector<ExprPtr> args, Schema fn_schema,
                             std::vector<int> outer_columns);
};

std::vector<ParallelStage> CloneStages(const std::vector<ParallelStage>& s);

// Builds the per-morsel operator chain: a morsel scan of `columns` of
// `table` under `predicate`, wrapped by each stage in order.
OperatorPtr BuildMorselPipeline(catalog::TableDef* table,
                                const std::vector<int>& columns,
                                const storage::ScanPredicate& predicate,
                                const Morsel& morsel,
                                const std::vector<ParallelStage>& stages);

// EXPLAIN-only marker for the worker side of an exchange: prints
// "Parallelism (Distribute Streams)" above the scan it wraps, mirroring
// the SQL Server showplan the paper reproduces. Never opened at runtime.
// `dop` is the effective degree (already clamped to the morsel count at
// plan time), so EXPLAIN output is deterministic and golden-testable.
class DistributeStreamsOp : public Operator {
 public:
  DistributeStreamsOp(OperatorPtr child, int dop, size_t morsel_pages);

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

// Points each operator of a morsel pipeline at the stats sink of its
// counterpart in the EXPLAIN representative tree, so every morsel replay
// accumulates into the single tree EXPLAIN ANALYZE renders. The repr tree
// differs only by the Distribute Streams marker, which is skipped.
void LinkPipelineStats(const Operator* pipeline, const Operator* repr);

// ---------------------------------------------------------------------------
// ParallelMapOp ("Parallelism (Gather Streams)" over a stateless pipeline):
// runs the stage pipeline per-morsel on DOP workers and gathers the result
// rows — in morsel (i.e. heap) order when `preserve_order` is set, in
// completion order otherwise. This is what parallelizes the CROSS APPLY
// read-alignment pipelines end to end.
// ---------------------------------------------------------------------------
class ParallelMapOp : public Operator {
 public:
  // The pipeline scans `columns` of `table` (ascending schema indexes)
  // under `predicate`.
  ParallelMapOp(catalog::TableDef* table, std::vector<int> columns,
                std::vector<ParallelStage> stages, int dop,
                size_t morsel_pages, bool preserve_order,
                storage::ScanPredicate predicate = {});

  // The pipeline's output: the representative subtree's.
  const Schema& output_schema() const override {
    return repr_->output_schema();
  }
  Result<std::unique_ptr<storage::RowIterator>> OpenImpl(ExecContext* ctx) override;
  std::string Describe() const override;
  std::vector<const Operator*> children() const override {
    return {repr_.get()};
  }
  int64_t EstimateRows() const override;

 private:
  catalog::TableDef* table_;
  std::vector<int> columns_;
  storage::ScanPredicate predicate_;
  std::vector<ParallelStage> stages_;
  int dop_;
  size_t morsel_pages_;
  bool preserve_order_;
  OperatorPtr repr_;  // representative subtree for EXPLAIN
};

// Builds the EXPLAIN subtree shared by the exchange operators: the stage
// chain over a Distribute Streams marker over a full-range scan of
// `columns` under `predicate`.
OperatorPtr BuildExplainPipeline(catalog::TableDef* table,
                                 const std::vector<int>& columns,
                                 const storage::ScanPredicate& predicate,
                                 const std::vector<ParallelStage>& stages,
                                 int dop, size_t morsel_pages);

}  // namespace htg::exec

