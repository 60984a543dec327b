// Lint fixture: aggregates without Merge(), so they could never run in a
// parallel partial/final plan (paper Sec. 5.3). Not compiled.
// expect-lint: uda-merge
#include "udf/function.h"

namespace htg::udf {

// A TypedAggregate whose state has no Merge(): uda-merge must flag it.
struct BrokenSumState {
  int64_t total = 0;

  template <class Args>
  Status Accumulate(const Args& args) {
    total += args[0].AsInt64();
    return Status::OK();
  }
  Result<Value> Terminate() { return Value::Int64(total); }
};

class BrokenSum : public TypedAggregate<BrokenSumState> {
 public:
  std::string_view name() const override { return "BrokenSum"; }
};

// A direct AggregateFunction without Merge(): flagged as well.
class BrokenCount : public AggregateFunction {
 public:
  std::string_view name() const override { return "BrokenCount"; }
  Result<Value> Terminate(void* state) const override;
};

}  // namespace htg::udf
