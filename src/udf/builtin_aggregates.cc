#include <memory>

#include "udf/registry.h"

namespace htg::udf {

namespace {

// The run-time error of SUM/AVG fed a string-kind value, which the
// binder's argument check lets through only from a mistyped expression (a
// CASE or UDF declared numeric that yields a string).
Status NonNumeric(const char* fn, const Value& v) {
  return Status::ExecError(std::string(fn) + " over a non-numeric value (" +
                           std::string(DataTypeName(v.type())) + ")");
}

// SUM over integers whose total leaves int64.
Status SumOverflow() {
  return Status::OutOfRange("SUM: arithmetic overflow");
}

// Binder check of SUM/AVG: the argument's declared type is numeric.
Status CheckNumericArg(std::string_view fn, const std::vector<DataType>& args) {
  if (args.empty() || IsNumeric(args[0])) return Status::OK();
  return Status::BindError(std::string(fn) + " requires a numeric argument, "
                           "got " + std::string(DataTypeName(args[0])));
}

// COUNT(*) / COUNT(expr): rows, or non-null values.
struct CountState {
  int64_t count = 0;

  template <class Args>
  Status Accumulate(const Args& args) {
    if (args.size() == 0 || !args[0].is_null()) ++count;
    return Status::OK();
  }
  Status Merge(CountState& other) {
    count += other.count;
    return Status::OK();
  }
  Result<Value> Terminate() { return Value::Int64(count); }
};

class CountFunction : public TypedAggregate<CountState> {
 public:
  std::string_view name() const override { return "COUNT"; }
  int min_args() const override { return 0; }
  int max_args() const override { return 1; }
  DataType result_type(const std::vector<DataType>&) const override {
    return DataType::kInt64;
  }
};

// SUM: integer inputs sum in int64, doubles in double. NULLs ignored.
struct SumState {
  bool seen = false;
  bool is_double = false;
  int64_t isum = 0;
  double dsum = 0.0;

  template <class Args>
  Status Accumulate(const Args& args) {
    const Value& v = args[0];
    if (v.is_null()) return Status::OK();
    if (v.IsStringKind()) return NonNumeric("SUM", v);
    seen = true;
    if (v.IsDoubleKind()) {
      is_double = true;
      dsum += v.AsDouble();
    } else if (__builtin_add_overflow(isum, v.AsInt64(), &isum)) {
      return SumOverflow();
    }
    return Status::OK();
  }
  Status Merge(SumState& other) {
    seen = seen || other.seen;
    is_double = is_double || other.is_double;
    dsum += other.dsum;
    if (__builtin_add_overflow(isum, other.isum, &isum)) return SumOverflow();
    return Status::OK();
  }
  Result<Value> Terminate() {
    if (!seen) return Value::Null();
    if (is_double) return Value::Double(dsum + static_cast<double>(isum));
    return Value::Int64(isum);
  }
};

class SumFunction : public TypedAggregate<SumState> {
 public:
  std::string_view name() const override { return "SUM"; }
  int min_args() const override { return 1; }
  int max_args() const override { return 1; }
  Status CheckArgTypes(const std::vector<DataType>& args) const override {
    return CheckNumericArg(name(), args);
  }
  DataType result_type(const std::vector<DataType>& args) const override {
    return args[0] == DataType::kDouble ? DataType::kDouble : DataType::kInt64;
  }
};

// MIN / MAX over any comparable type.
template <bool kIsMin>
struct MinMaxState {
  bool seen = false;
  Value best;

  template <class Args>
  Status Accumulate(const Args& args) {
    if (!args[0].is_null()) Take(args[0]);
    return Status::OK();
  }
  Status Merge(MinMaxState& other) {
    if (other.seen) Take(other.best);
    return Status::OK();
  }
  Result<Value> Terminate() { return seen ? best : Value::Null(); }

  void Take(const Value& v) {
    if (!seen) {
      best = v;
      seen = true;
      return;
    }
    const int cmp = v.Compare(best);
    if (kIsMin ? cmp < 0 : cmp > 0) best = v;
  }
};

template <bool kIsMin>
class MinMaxFunction : public TypedAggregate<MinMaxState<kIsMin>> {
 public:
  std::string_view name() const override { return kIsMin ? "MIN" : "MAX"; }
  int min_args() const override { return 1; }
  int max_args() const override { return 1; }
  DataType result_type(const std::vector<DataType>& args) const override {
    return args[0];
  }
};

// AVG: double mean over non-null inputs.
struct AvgState {
  double sum = 0.0;
  int64_t count = 0;

  template <class Args>
  Status Accumulate(const Args& args) {
    if (args[0].is_null()) return Status::OK();
    if (args[0].IsStringKind()) return NonNumeric("AVG", args[0]);
    sum += args[0].AsDouble();
    ++count;
    return Status::OK();
  }
  Status Merge(AvgState& other) {
    sum += other.sum;
    count += other.count;
    return Status::OK();
  }
  Result<Value> Terminate() {
    if (count == 0) return Value::Null();
    return Value::Double(sum / static_cast<double>(count));
  }
};

class AvgFunction : public TypedAggregate<AvgState> {
 public:
  std::string_view name() const override { return "AVG"; }
  int min_args() const override { return 1; }
  int max_args() const override { return 1; }
  Status CheckArgTypes(const std::vector<DataType>& args) const override {
    return CheckNumericArg(name(), args);
  }
  DataType result_type(const std::vector<DataType>&) const override {
    return DataType::kDouble;
  }
};

}  // namespace

Status RegisterBuiltinAggregates(FunctionRegistry* registry) {
  HTG_RETURN_IF_ERROR(
      registry->RegisterAggregate(std::make_unique<CountFunction>()));
  HTG_RETURN_IF_ERROR(
      registry->RegisterAggregate(std::make_unique<SumFunction>()));
  HTG_RETURN_IF_ERROR(
      registry->RegisterAggregate(std::make_unique<MinMaxFunction<true>>()));
  HTG_RETURN_IF_ERROR(
      registry->RegisterAggregate(std::make_unique<MinMaxFunction<false>>()));
  return registry->RegisterAggregate(std::make_unique<AvgFunction>());
}

}  // namespace htg::udf
