#include <algorithm>
#include <cmath>
#include <limits>

#include "common/guid.h"
#include "common/string_util.h"
#include "udf/registry.h"

namespace htg::udf {

namespace {

DataType FixedType(DataType t) { return t; }

ScalarFunction MakeFn(
    std::string name, int min_args, int max_args, DataType result,
    std::function<Result<Value>(EvalContext*, const std::vector<Value>&)> fn) {
  ScalarFunction f;
  f.name = std::move(name);
  f.min_args = min_args;
  f.max_args = max_args;
  f.result_type = [result](const std::vector<DataType>&) { return result; };
  f.eval = std::move(fn);
  return f;
}

// T-SQL LEN ignores trailing blanks.
Result<Value> EvalLen(EvalContext*, const std::vector<Value>& args) {
  const std::string& s = args[0].AsString();
  size_t end = s.size();
  while (end > 0 && s[end - 1] == ' ') --end;
  return Value::Int64(static_cast<int64_t>(end));
}

Result<Value> EvalCharIndex(EvalContext*, const std::vector<Value>& args) {
  const std::string& needle = args[0].AsString();
  const std::string& hay = args[1].AsString();
  size_t start = 0;
  if (args.size() > 2) {
    const int64_t s = args[2].AsInt64();
    if (s > 1) start = static_cast<size_t>(s - 1);
  }
  if (needle.empty()) return Value::Int64(start < hay.size() ? start + 1 : 0);
  const size_t pos = hay.find(needle, start);
  return Value::Int64(pos == std::string::npos ? 0
                                               : static_cast<int64_t>(pos + 1));
}

Result<Value> EvalSubstring(EvalContext*, const std::vector<Value>& args) {
  const std::string& s = args[0].AsString();
  int64_t start = args[1].AsInt64();
  int64_t len = args[2].AsInt64();
  if (len < 0) return Status::InvalidArgument("SUBSTRING length < 0");
  // T-SQL: 1-based; a start before 1 consumes length.
  if (start < 1) {
    len += start - 1;
    start = 1;
  }
  if (len <= 0 || static_cast<size_t>(start) > s.size()) {
    return Value::String("");
  }
  return Value::String(s.substr(start - 1, len));
}

}  // namespace

Status RegisterBuiltins(FunctionRegistry* registry) {
  // Registration only fails on a duplicate name — a programming error —
  // so record the first failure and keep going; the caller refuses to
  // open a database with a half-populated function catalog.
  Status first_error;
  auto reg = [registry, &first_error](ScalarFunction fn) {
    Status s = registry->RegisterScalar(std::move(fn));
    if (first_error.ok() && !s.ok()) first_error = std::move(s);
  };

  reg(MakeFn("LEN", 1, 1, DataType::kInt64, EvalLen));
  reg(MakeFn("CHARINDEX", 2, 3, DataType::kInt64, EvalCharIndex));
  reg(MakeFn("SUBSTRING", 3, 3, DataType::kString, EvalSubstring));

  reg(MakeFn("UPPER", 1, 1, DataType::kString,
             [](EvalContext*, const std::vector<Value>& a) -> Result<Value> {
               return Value::String(ToUpper(a[0].AsString()));
             }));
  reg(MakeFn("LOWER", 1, 1, DataType::kString,
             [](EvalContext*, const std::vector<Value>& a) -> Result<Value> {
               return Value::String(ToLower(a[0].AsString()));
             }));
  reg(MakeFn("LTRIM", 1, 1, DataType::kString,
             [](EvalContext*, const std::vector<Value>& a) -> Result<Value> {
               const std::string& s = a[0].AsString();
               size_t b = 0;
               while (b < s.size() && s[b] == ' ') ++b;
               return Value::String(s.substr(b));
             }));
  reg(MakeFn("RTRIM", 1, 1, DataType::kString,
             [](EvalContext*, const std::vector<Value>& a) -> Result<Value> {
               const std::string& s = a[0].AsString();
               size_t e = s.size();
               while (e > 0 && s[e - 1] == ' ') --e;
               return Value::String(s.substr(0, e));
             }));
  reg(MakeFn("REVERSE", 1, 1, DataType::kString,
             [](EvalContext*, const std::vector<Value>& a) -> Result<Value> {
               std::string s = a[0].AsString();
               std::reverse(s.begin(), s.end());
               return Value::String(std::move(s));
             }));
  reg(MakeFn("REPLACE", 3, 3, DataType::kString,
             [](EvalContext*, const std::vector<Value>& a) -> Result<Value> {
               std::string s = a[0].AsString();
               const std::string& from = a[1].AsString();
               const std::string& to = a[2].AsString();
               if (from.empty()) return Value::String(std::move(s));
               std::string out;
               size_t pos = 0;
               for (;;) {
                 const size_t hit = s.find(from, pos);
                 if (hit == std::string::npos) break;
                 out.append(s, pos, hit - pos);
                 out.append(to);
                 pos = hit + from.size();
               }
               out.append(s, pos, std::string::npos);
               return Value::String(std::move(out));
             }));
  reg(MakeFn("LEFT", 2, 2, DataType::kString,
             [](EvalContext*, const std::vector<Value>& a) -> Result<Value> {
               const std::string& s = a[0].AsString();
               const int64_t n = std::max<int64_t>(0, a[1].AsInt64());
               return Value::String(s.substr(0, n));
             }));
  reg(MakeFn("RIGHT", 2, 2, DataType::kString,
             [](EvalContext*, const std::vector<Value>& a) -> Result<Value> {
               const std::string& s = a[0].AsString();
               const size_t n = static_cast<size_t>(
                   std::max<int64_t>(0, a[1].AsInt64()));
               return Value::String(
                   n >= s.size() ? s : s.substr(s.size() - n));
             }));
  reg(MakeFn("REPLICATE", 2, 2, DataType::kString,
             [](EvalContext*, const std::vector<Value>& a) -> Result<Value> {
               const std::string& s = a[0].AsString();
               const int64_t n = a[1].AsInt64();
               std::string out;
               for (int64_t i = 0; i < n; ++i) out.append(s);
               return Value::String(std::move(out));
             }));

  // DATALENGTH: byte length; for a FILESTREAM reference, the external
  // file's size (the paper queries DATALENGTH(reads) on ShortReadFiles).
  {
    ScalarFunction f = MakeFn(
        "DATALENGTH", 1, 1, DataType::kInt64,
        [](EvalContext* ctx, const std::vector<Value>& a) -> Result<Value> {
          if (a[0].IsStringKind() && ctx != nullptr && ctx->filestream_size) {
            Result<uint64_t> size = ctx->filestream_size(a[0].AsString());
            if (size.ok()) {
              return Value::Int64(static_cast<int64_t>(*size));
            }
          }
          if (a[0].IsStringKind()) {
            return Value::Int64(static_cast<int64_t>(a[0].AsString().size()));
          }
          return Value::Int64(8);
        });
    reg(std::move(f));
  }

  reg(MakeFn("ABS", 1, 1, DataType::kDouble,
             [](EvalContext*, const std::vector<Value>& a) -> Result<Value> {
               if (a[0].IsIntegerKind()) {
                 if (a[0].AsInt64() == std::numeric_limits<int64_t>::min()) {
                   return Status::OutOfRange("ABS: arithmetic overflow");
                 }
                 return Value::Int64(std::abs(a[0].AsInt64()));
               }
               return Value::Double(std::abs(a[0].AsDouble()));
             }));
  reg(MakeFn("FLOOR", 1, 1, DataType::kDouble,
             [](EvalContext*, const std::vector<Value>& a) -> Result<Value> {
               return Value::Double(std::floor(a[0].AsDouble()));
             }));
  reg(MakeFn("CEILING", 1, 1, DataType::kDouble,
             [](EvalContext*, const std::vector<Value>& a) -> Result<Value> {
               return Value::Double(std::ceil(a[0].AsDouble()));
             }));
  reg(MakeFn("SQRT", 1, 1, DataType::kDouble,
             [](EvalContext*, const std::vector<Value>& a) -> Result<Value> {
               const double x = a[0].AsDouble();
               return FiniteDouble("SQRT", std::sqrt(x), x);
             }));
  reg(MakeFn("LOG", 1, 1, DataType::kDouble,
             [](EvalContext*, const std::vector<Value>& a) -> Result<Value> {
               const double x = a[0].AsDouble();
               return FiniteDouble("LOG", std::log(x), x);
             }));
  reg(MakeFn("POWER", 2, 2, DataType::kDouble,
             [](EvalContext*, const std::vector<Value>& a) -> Result<Value> {
               const double x = a[0].AsDouble();
               const double y = a[1].AsDouble();
               return FiniteDouble("POWER", std::pow(x, y), x, y);
             }));
  reg(MakeFn("ROUND", 2, 2, DataType::kDouble,
             [](EvalContext*, const std::vector<Value>& a) -> Result<Value> {
               const double x = a[0].AsDouble();
               const double scale = std::pow(10.0, a[1].AsDouble());
               // Digits past double's range leave x as it is; rounding to
               // a unit past it gives 0 (not inf / inf or 0 / 0 = NaN).
               if (!std::isfinite(x * scale)) return Value::Double(x);
               if (scale == 0.0) return Value::Double(0.0);
               return FiniteDouble("ROUND", std::round(x * scale) / scale, x);
             }));

  {
    ScalarFunction f = MakeFn(
        "NEWID", 0, 0, DataType::kGuid,
        [](EvalContext*, const std::vector<Value>&) -> Result<Value> {
          return Value::Guid(NewGuid());
        });
    f.deterministic = false;
    reg(std::move(f));
  }

  {
    ScalarFunction f;
    f.name = "ISNULL";
    f.min_args = 2;
    f.max_args = 2;
    f.null_tolerant = true;
    f.result_type = [](const std::vector<DataType>& t) {
      return t.empty() ? DataType::kString : t[0];
    };
    f.eval = [](EvalContext*, const std::vector<Value>& a) -> Result<Value> {
      return a[0].is_null() ? a[1] : a[0];
    };
    reg(std::move(f));
  }
  {
    ScalarFunction f;
    f.name = "COALESCE";
    f.min_args = 1;
    f.max_args = ScalarFunction::kVarArgs;
    f.null_tolerant = true;
    f.result_type = [](const std::vector<DataType>& t) {
      return t.empty() ? DataType::kString : t[0];
    };
    f.eval = [](EvalContext*, const std::vector<Value>& a) -> Result<Value> {
      for (const Value& v : a) {
        if (!v.is_null()) return v;
      }
      return Value::Null();
    };
    reg(std::move(f));
  }
  {
    ScalarFunction f;
    f.name = "CONCAT";
    f.min_args = 1;
    f.max_args = ScalarFunction::kVarArgs;
    f.null_tolerant = true;
    f.result_type = [](const std::vector<DataType>&) {
      return DataType::kString;
    };
    f.eval = [](EvalContext*, const std::vector<Value>& a) -> Result<Value> {
      std::string out;
      for (const Value& v : a) {
        if (!v.is_null()) out.append(v.ToString());
      }
      return Value::String(std::move(out));
    };
    reg(std::move(f));
  }

  HTG_RETURN_IF_ERROR(RegisterBuiltinAggregates(registry));
  (void)FixedType;
  return first_error;
}

}  // namespace htg::udf
