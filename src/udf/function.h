#pragma once

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
  virtual Result<std::unique_ptr<storage::RowSource>> Open(
      const std::vector<Value>& args, Database* db) const = 0;
};

// Running state of one aggregate group (paper §2.3.4). Implementations
// accumulate input rows and produce the final value at Terminate().
//
// Concurrency contract: an instance is owned by exactly one worker during
// the parallel partial phase; Merge() runs in the final phase where the
// merging worker exclusively owns both `this` and `other`. Instances
// therefore never need internal locking, but must not share mutable
// state across instances without it.
class AggregateInstance {
 public:
  virtual ~AggregateInstance() = default;

  virtual Status Accumulate(const std::vector<Value>& args) = 0;

  // Folds another instance's partial state into this one. Required for
  // parallel (partial → final) aggregation, exactly like SQL Server's
  // built-in parallelizable aggregates.
  virtual Status Merge(const AggregateInstance& other) = 0;

  virtual Result<Value> Terminate() = 0;
};

// Factory + metadata for an aggregate function (built-in or UDA).
class AggregateFunction {
 public:
  virtual ~AggregateFunction() = default;

  virtual std::string_view name() const = 0;
  // Number of arguments; COUNT(*) is the 0-arg form of COUNT.
  virtual int min_args() const = 0;
  virtual int max_args() const = 0;
  virtual DataType result_type(const std::vector<DataType>& args) const = 0;
  // False disables parallel plans over this aggregate (no partial/final).
  virtual bool SupportsMerge() const { return true; }

  virtual std::unique_ptr<AggregateInstance> NewInstance() const = 0;
};

}  // namespace htg::udf

