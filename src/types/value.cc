#include "types/value.h"

#include <cmath>
#include <cstring>
#include <functional>
#include <limits>
#include <string_view>
#include <vector>

#include "common/string_util.h"

namespace htg {

Result<Value> FiniteDouble(std::string_view op, double result, double a,
                           double b) {
  if (!std::isfinite(result) && std::isfinite(a) && std::isfinite(b)) {
    return Status::OutOfRange(std::string(op) +
                              ": result is not a finite number");
  }
  return Value::Double(result);
}

int Value::Compare(const Value& other) const {
  if (is_null() && other.is_null()) return 0;
  if (is_null()) return -1;
  if (other.is_null()) return 1;
  // Numeric kinds compare numerically even when widths differ.
  if (!IsStringKind() && !other.IsStringKind()) {
    if (IsIntegerKind() && other.IsIntegerKind()) {
      const int64_t a = AsInt64();
      const int64_t b = other.AsInt64();
      return a < b ? -1 : (a > b ? 1 : 0);
    }
    const double a = AsDouble();
    const double b = other.AsDouble();
    return a < b ? -1 : (a > b ? 1 : 0);
  }
  if (IsStringKind() && other.IsStringKind()) {
    const int r = AsString().compare(other.AsString());
    return r < 0 ? -1 : (r > 0 ? 1 : 0);
  }
  // Mixed string/number: order numbers before strings (arbitrary but total).
  return IsStringKind() ? 1 : -1;
}

size_t Value::Hash() const {
  if (is_null()) return kNullHash;
  if (IsStringKind()) return std::hash<std::string_view>()(AsString());
  // Numbers that Compare() calls equal must hash alike: an integral
  // double (including -0.0) hashes as the int64 it equals.
  int64_t bits = 0;
  if (IsIntegerKind()) {
    bits = AsInt64();
  } else {
    const double d = AsDouble();
    if (d >= -9223372036854775808.0 && d < 9223372036854775808.0 &&
        d == std::trunc(d)) {
      bits = static_cast<int64_t>(d);
    } else {
      std::memcpy(&bits, &d, sizeof(bits));
    }
  }
  return HashInt64(bits);
}

std::string Value::ToString() const {
  if (is_null()) return "NULL";
  switch (type_) {
    case DataType::kBool:
      return AsBool() ? "1" : "0";
    case DataType::kInt32:
    case DataType::kInt64:
      return std::to_string(AsInt64());
    case DataType::kDouble: {
      const double v = AsDouble();
      if (v == std::floor(v) && std::abs(v) < 1e15) {
        return StringPrintf("%.1f", v);
      }
      return StringPrintf("%g", v);
    }
    case DataType::kString:
    case DataType::kGuid:
      return AsString();
    case DataType::kBlob:
      return StringPrintf("<blob %zu bytes>", AsString().size());
  }
  return "?";
}

namespace {

Status OutOfRange(const std::string& value, DataType target) {
  return Status::InvalidArgument("value " + value + " is out of range for " +
                                 std::string(DataTypeName(target)));
}

// An integer checked against the range of `target` (kInt32 or kInt64).
Result<Value> IntegerAs(int64_t v, DataType target) {
  if (target == DataType::kInt64) return Value::Int64(v);
  if (v < std::numeric_limits<int32_t>::min() ||
      v > std::numeric_limits<int32_t>::max()) {
    return OutOfRange(std::to_string(v), target);
  }
  return Value::Int32(static_cast<int32_t>(v));
}

// A double truncated toward zero, as C++ converts it, once its truncation
// is known to fit int64 (converting one that does not is undefined).
Result<Value> DoubleAs(double d, DataType target) {
  if (!(d >= -9223372036854775808.0 && d < 9223372036854775808.0)) {
    return OutOfRange(StringPrintf("%g", d), target);
  }
  return IntegerAs(static_cast<int64_t>(d), target);
}

}  // namespace

Result<Value> Value::CastTo(DataType target) const {
  if (is_null()) return Value::Null();
  if (type_ == target) return *this;
  switch (target) {
    case DataType::kBool:
      if (IsIntegerKind()) return Value::Bool(AsInt64() != 0);
      if (IsDoubleKind()) return Value::Bool(AsDouble() != 0.0);
      break;
    case DataType::kInt32:
    case DataType::kInt64:
      if (IsIntegerKind()) return IntegerAs(AsInt64(), target);
      if (IsDoubleKind()) return DoubleAs(AsDouble(), target);
      if (IsStringKind()) {
        HTG_ASSIGN_OR_RETURN(int64_t v, ParseInt64(AsString()));
        return IntegerAs(v, target);
      }
      break;
    case DataType::kDouble:
      if (IsIntegerKind()) return Value::Double(static_cast<double>(AsInt64()));
      if (IsStringKind()) {
        HTG_ASSIGN_OR_RETURN(double v, ParseDouble(AsString()));
        return Value::Double(v);
      }
      break;
    case DataType::kString:
      return Value::String(ToString());
    case DataType::kBlob:
      if (IsStringKind()) return Value::Blob(AsString());
      break;
    case DataType::kGuid:
      if (IsStringKind()) return Value::Guid(AsString());
      break;
  }
  return Status::InvalidArgument(
      std::string("cannot cast ") + std::string(DataTypeName(type_)) + " to " +
      std::string(DataTypeName(target)));
}

int CompareRowsOn(const Row& a, const Row& b, const std::vector<int>& cols) {
  for (int c : cols) {
    const int r = a[c].Compare(b[c]);
    if (r != 0) return r;
  }
  return 0;
}

}  // namespace htg
