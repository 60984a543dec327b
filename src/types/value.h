#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <variant>
#include <vector>

#include "common/result.h"
#include "types/data_type.h"

namespace htg {

// A runtime SQL value: NULL or a scalar of one of the engine's types.
// Integers are held widened to int64_t; the DataType tag preserves the
// declared width for storage encoding.
class Value {
 public:
  // NULL (untyped).
  Value() : type_(DataType::kInt32), data_(std::monostate{}) {}

  static Value Null() { return Value(); }
  static Value Bool(bool v) { return Value(DataType::kBool, int64_t{v}); }
  static Value Int32(int32_t v) { return Value(DataType::kInt32, int64_t{v}); }
  static Value Int64(int64_t v) { return Value(DataType::kInt64, v); }
  static Value Double(double v) { return Value(DataType::kDouble, v); }
  static Value String(std::string v) {
    return Value(DataType::kString, std::move(v));
  }
  static Value Blob(std::string v) {
    return Value(DataType::kBlob, std::move(v));
  }
  static Value Guid(std::string v) {
    return Value(DataType::kGuid, std::move(v));
  }

  bool is_null() const { return std::holds_alternative<std::monostate>(data_); }
  DataType type() const { return type_; }

  // Accessors. Preconditions: !is_null() and matching storage kind.
  bool AsBool() const { return std::get<int64_t>(data_) != 0; }
  int64_t AsInt64() const { return std::get<int64_t>(data_); }
  double AsDouble() const {
    if (std::holds_alternative<int64_t>(data_)) {
      return static_cast<double>(std::get<int64_t>(data_));
    }
    return std::get<double>(data_);
  }
  const std::string& AsString() const { return std::get<std::string>(data_); }
  std::string&& MoveString() && { return std::get<std::string>(std::move(data_)); }

  // Overwrites this value with a string-kind value (kString, kBlob or
  // kGuid) holding `s`, reusing the held string's buffer when there is
  // one: scans decode into rows whose values cycle through batch slots.
  void AssignString(DataType type, std::string_view s) {
    type_ = type;
    if (auto* held = std::get_if<std::string>(&data_)) {
      held->assign(s.data(), s.size());
    } else {
      data_ = std::string(s);
    }
  }

  bool IsIntegerKind() const { return std::holds_alternative<int64_t>(data_); }
  bool IsDoubleKind() const { return std::holds_alternative<double>(data_); }
  bool IsStringKind() const {
    return std::holds_alternative<std::string>(data_);
  }

  // SQL three-valued comparison is handled by the expression evaluator;
  // Compare here is a total order used by sort/join/group operators
  // (NULL sorts first, mixed numerics compare as double).
  int Compare(const Value& other) const;

  bool operator==(const Value& other) const { return Compare(other) == 0; }
  bool operator<(const Value& other) const { return Compare(other) < 0; }

  // Hash for hash-based operators, consistent with Compare(): values that
  // compare equal hash equal, across numeric kinds too. Not avalanched;
  // row hashes (exec/spill_util.h) mix it before masking.
  size_t Hash() const;
  // Hash() of a NULL, and of an integer-kind value holding `v`.
  static constexpr size_t kNullHash = 0x7f4a7c159e3779b9ULL;
  static size_t HashInt64(int64_t v) {
    return static_cast<size_t>(v) * 0x9e3779b97f4a7c15ULL;
  }

  // Approximate resident bytes of this value, used by the executor's
  // memory accounting (MemoryContext charges). Counts the inline Value
  // footprint plus heap capacity of string payloads; deliberately cheap
  // rather than exact.
  size_t ApproxBytes() const {
    size_t bytes = sizeof(Value);
    if (IsStringKind()) bytes += std::get<std::string>(data_).capacity();
    return bytes;
  }

  // Display form (used by result printing and CSV export).
  std::string ToString() const;

  // Casts to `target`, erroring on lossy/non-sensible conversions.
  Result<Value> CastTo(DataType target) const;

  // Exchanges two values without a temporary when they hold the same
  // kind (the common case between a row and a batch column), so string
  // buffers trade places instead of being moved three times.
  friend void swap(Value& a, Value& b) noexcept {
    std::swap(a.type_, b.type_);
    a.data_.swap(b.data_);
  }

 private:
  Value(DataType type, int64_t v) : type_(type), data_(v) {}
  Value(DataType type, double v) : type_(type), data_(v) {}
  Value(DataType type, std::string v) : type_(type), data_(std::move(v)) {}

  DataType type_;
  std::variant<std::monostate, int64_t, double, std::string> data_;
};

// Row = tuple of values, positionally matched to an output schema.
using Row = std::vector<Value>;

// Lexicographic comparison of two rows on the given column indexes.
int CompareRowsOn(const Row& a, const Row& b, const std::vector<int>& cols);

// Approximate resident bytes of a row (vector overhead + per-value
// footprint); the unit the executor charges against query budgets.
inline size_t ApproxRowBytes(const Row& row) {
  size_t bytes = sizeof(Row) + (row.capacity() - row.size()) * sizeof(Value);
  for (const Value& v : row) bytes += v.ApproxBytes();
  return bytes;
}

}  // namespace htg

