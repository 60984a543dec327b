#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "storage/table.h"
#include "types/schema.h"
#include "types/value.h"

namespace htg {
class Database;  // from catalog/database.h; passed through opaquely
}

namespace htg::udf {

// Evaluation-time services available to scalar functions (FileStream size
// lookups, NEWID, ...). A thin view over the Database; the filestream_size
// hook is installed by the Database so DATALENGTH can report the external
// file size of a FILESTREAM reference without udf depending on catalog.
struct EvalContext {
  Database* db = nullptr;
  std::function<Result<uint64_t>(const std::string&)> filestream_size;
};

// A scalar user-defined (or built-in) function: the engine-side analogue of
// a CLR scalar UDF (paper §2.3.2). Stateless; eval may be called from
// multiple threads concurrently.
struct ScalarFunction {
  std::string name;
  int min_args = 0;
  int max_args = 0;  // inclusive; use kVarArgs for unbounded
  static constexpr int kVarArgs = 1 << 20;
  // Result type given argument types.
  std::function<DataType(const std::vector<DataType>&)> result_type;
  std::function<Result<Value>(EvalContext*, const std::vector<Value>&)> eval;
  bool deterministic = true;
  // When false (the default) the evaluator short-circuits a NULL argument
  // to a NULL result without calling eval (T-SQL NULL propagation).
  bool null_tolerant = false;
};

// The row stream a TableFunction opens: the paper's §5.2 seam, and the
// engine's only row-at-a-time producer. Subclasses implement Next();
// NextBatch() fills the batch from it through one reused row whose values
// are swapped into the batch's retained value slots, so each value is
// copied once (by Next) and string buffers circulate instead of being
// reallocated.
class RowSource : public storage::RowIterator {
 public:
  // Produces the next row. Returns false at end of stream or on error
  // (check status() to distinguish). `row` holds stale values from
  // earlier rows: implementations overwrite every value, assigning into
  // the existing ones rather than rebuilding the row, so their buffers
  // are reused.
  virtual bool Next(Row* row) = 0;

  bool NextBatch(RowBatch* batch) final {
    batch->StartFill(batch->num_columns());
    size_t n = 0;
    while (n < batch->capacity() && Next(&row_)) batch->SwapRow(n++, &row_);
    batch->FinishFill(n);
    return n > 0;
  }

 private:
  Row row_;
};

// A table-valued function (paper §2.3.2 / Fig. 5): binds an output schema
// from constant arguments, then opens a pull-based row source. The source
// owns all file access and parsing; the engine pulls one row at a time
// through Next() (CROSS APPLY writes each row straight into its output
// batch), so results stream instead of materializing.
//
// Concurrency contract: the parallel executor calls Open() from multiple
// worker threads at once (one CROSS APPLY invocation per input row per
// morsel), so Open() and BindSchema() must be thread-safe — any shared
// mutable state behind them (caches, pools) needs its own lock. Each
// *returned iterator* is only ever pulled by the worker that opened it,
// so iterator state needs no synchronization.
class TableFunction {
 public:
  virtual ~TableFunction() = default;

  virtual std::string_view name() const = 0;

  // Output schema. `args` are the call's constant-foldable arguments
  // (non-constant arguments arrive as NULL placeholders).
  virtual Result<Schema> BindSchema(const std::vector<Value>& args) const = 0;

  // Opens the row stream for one invocation.
  virtual Result<std::unique_ptr<RowSource>> Open(
      const std::vector<Value>& args, Database* db) const = 0;
};

// An aggregate function, built in or user defined: the engine-side
// analogue of a CLR user-defined aggregate (paper §2.3.4), whose
// Init / Accumulate / Merge / Terminate contract it keeps. The function
// object is stateless; each group's running state is state_size() bytes
// at state_align() (at most alignof(std::max_align_t)) of memory the
// engine owns. The group table keeps every group's states inline next to
// its key, so a group costs no allocation of its own. The engine calls
// Init on raw memory before any other call on a state, and Destroy
// exactly once when it is done with it.
//
// Concurrency contract: a state is owned by exactly one worker during the
// parallel partial phase; Merge() runs in the final phase where the
// merging worker exclusively owns both states. States therefore never
// need internal locking, but must not share mutable state without it.
class AggregateFunction {
 public:
  virtual ~AggregateFunction() = default;

  virtual std::string_view name() const = 0;
  // Number of arguments; COUNT(*) is the 0-arg form of COUNT.
  virtual int min_args() const = 0;
  virtual int max_args() const = 0;
  virtual DataType result_type(const std::vector<DataType>& args) const = 0;
  // Rejects argument types the aggregate cannot accumulate (a BindError);
  // the binder calls it with the arguments' declared types.
  virtual Status CheckArgTypes(const std::vector<DataType>&) const {
    return Status::OK();
  }
  // False disables parallel plans over this aggregate (no partial/final).
  virtual bool SupportsMerge() const { return true; }

  virtual size_t state_size() const = 0;
  virtual size_t state_align() const = 0;
  virtual void Init(void* state) const = 0;
  virtual Status Accumulate(void* state,
                            const std::vector<Value>& args) const = 0;
  // Accumulates n inputs: input k goes into states[k], and its i-th
  // argument is (*args[i])[rows[k]]. Several inputs may share a state.
  // The default is the per-row loop over Accumulate.
  virtual Status AccumulateBatch(
      void* const* states, const std::vector<const std::vector<Value>*>& args,
      const uint32_t* rows, size_t n) const {
    std::vector<Value> row(args.size());
    for (size_t k = 0; k < n; ++k) {
      for (size_t i = 0; i < args.size(); ++i) row[i] = (*args[i])[rows[k]];
      HTG_RETURN_IF_ERROR(Accumulate(states[k], row));
    }
    return Status::OK();
  }
  // Folds `other`'s partial state into `state`. Required for parallel
  // (partial → final) aggregation, exactly like SQL Server's built-in
  // parallelizable aggregates. `other` is consumed: it is still
  // destroyed, but what it holds afterwards is unspecified.
  virtual Status Merge(void* state, void* other) const = 0;
  virtual Result<Value> Terminate(void* state) const = 0;
  virtual void Destroy(void* state) const = 0;

  // A state that grows on the heap (a DISTINCT set, a buffered sequence)
  // says so here, and reports the bytes it holds beyond state_size(); the
  // group table charges that growth against the query's memory budget.
  virtual bool HoldsHeap() const { return false; }
  virtual size_t HeapBytes(const void*) const { return 0; }
};

// One input row of a batch, as TypedAggregate hands it to a state's
// Accumulate: indexable like the row's argument vector.
class BatchArgs {
 public:
  BatchArgs(const std::vector<const std::vector<Value>*>* columns, size_t row)
      : columns_(columns), row_(row) {}
  size_t size() const { return columns_->size(); }
  const Value& operator[](size_t i) const { return (*(*columns_)[i])[row_]; }

 private:
  const std::vector<const std::vector<Value>*>* columns_;
  size_t row_;
};

// Writes an aggregate as a State type. `State()` is the initial state,
// its destructor runs at Destroy, and it provides
//   template <class Args> Status Accumulate(const Args& args);
//       `args.size()` and `args[i]` (a const Value&): called with a row's
//       argument vector, or with a BatchArgs view from AccumulateBatch,
//       which so makes no virtual call per row;
//   Status Merge(State& other);  // may consume `other`
//   Result<Value> Terminate();
// and, when it grows on the heap, `size_t HeapBytes() const`.
template <class State>
class TypedAggregate : public AggregateFunction {
 public:
  static_assert(alignof(State) <= alignof(std::max_align_t));

  size_t state_size() const final { return sizeof(State); }
  size_t state_align() const final { return alignof(State); }
  void Init(void* state) const override { new (state) State(); }
  Status Accumulate(void* state,
                    const std::vector<Value>& args) const final {
    return Get(state).Accumulate(args);
  }
  Status AccumulateBatch(void* const* states,
                         const std::vector<const std::vector<Value>*>& args,
                         const uint32_t* rows, size_t n) const final {
    for (size_t k = 0; k < n; ++k) {
      HTG_RETURN_IF_ERROR(Get(states[k]).Accumulate(BatchArgs(&args, rows[k])));
    }
    return Status::OK();
  }
  Status Merge(void* state, void* other) const final {
    return Get(state).Merge(Get(other));
  }
  Result<Value> Terminate(void* state) const final {
    return Get(state).Terminate();
  }
  void Destroy(void* state) const final { Get(state).~State(); }
  bool HoldsHeap() const final { return kHoldsHeap; }
  size_t HeapBytes(const void* state) const final {
    if constexpr (kHoldsHeap) {
      return std::launder(static_cast<const State*>(state))->HeapBytes();
    }
    return 0;
  }

 private:
  static constexpr bool kHoldsHeap =
      requires(const State& s) { s.HeapBytes(); };

  static State& Get(void* state) {
    return *std::launder(static_cast<State*>(state));
  }
};

// Owns one aggregate state outside a group table: Init on construction,
// Destroy on destruction. The DISTINCT replay and the empty global
// aggregate keep their states in these.
class AggregateState {
 public:
  explicit AggregateState(const AggregateFunction* fn)
      : fn_(fn),
        storage_(std::make_unique_for_overwrite<std::max_align_t[]>(
            1 + fn->state_size() / sizeof(std::max_align_t))) {
    fn_->Init(data());
  }
  ~AggregateState() {
    if (storage_ != nullptr) fn_->Destroy(data());
  }
  AggregateState(AggregateState&&) noexcept = default;
  AggregateState& operator=(AggregateState&&) = delete;
  AggregateState(const AggregateState&) = delete;
  AggregateState& operator=(const AggregateState&) = delete;

  Status Accumulate(const std::vector<Value>& args) {
    return fn_->Accumulate(data(), args);
  }
  Status Merge(AggregateState& other) {
    return fn_->Merge(data(), other.data());
  }
  Result<Value> Terminate() { return fn_->Terminate(data()); }

 private:
  void* data() { return storage_.get(); }

  const AggregateFunction* fn_;
  std::unique_ptr<std::max_align_t[]> storage_;
};

}  // namespace htg::udf

