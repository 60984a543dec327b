#include "common/string_util.h"

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>

namespace htg {

bool EqualsIgnoreCase(std::string_view a, std::string_view b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (std::toupper(static_cast<unsigned char>(a[i])) !=
        std::toupper(static_cast<unsigned char>(b[i]))) {
      return false;
    }
  }
  return true;
}

std::string ToUpper(std::string_view s) {
  std::string out(s);
  for (char& c : out) c = static_cast<char>(std::toupper(static_cast<unsigned char>(c)));
  return out;
}

std::string ToLower(std::string_view s) {
  std::string out(s);
  for (char& c : out) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  return out;
}

std::string_view Trim(std::string_view s) {
  size_t b = 0;
  size_t e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return s.substr(b, e - b);
}

std::vector<std::string_view> Split(std::string_view s, char delim) {
  std::vector<std::string_view> out;
  size_t start = 0;
  for (size_t i = 0; i <= s.size(); ++i) {
    if (i == s.size() || s[i] == delim) {
      out.push_back(s.substr(start, i - start));
      start = i + 1;
    }
  }
  return out;
}

std::string Join(const std::vector<std::string>& parts, std::string_view sep) {
  std::string out;
  for (size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) out.append(sep);
    out.append(parts[i]);
  }
  return out;
}

Result<int64_t> ParseInt64(std::string_view s) {
  if (s.empty()) return Status::InvalidArgument("empty integer literal");
  std::string buf(s);
  errno = 0;
  char* end = nullptr;
  const long long v = strtoll(buf.c_str(), &end, 10);
  if (errno == ERANGE) {
    return Status::OutOfRange("integer literal out of range: " + buf);
  }
  if (end != buf.c_str() + buf.size()) {
    return Status::InvalidArgument("bad integer literal: " + buf);
  }
  return static_cast<int64_t>(v);
}

Result<double> ParseDouble(std::string_view s) {
  if (s.empty()) return Status::InvalidArgument("empty numeric literal");
  std::string buf(s);
  errno = 0;
  char* end = nullptr;
  const double v = strtod(buf.c_str(), &end);
  if (end != buf.c_str() + buf.size()) {
    return Status::InvalidArgument("bad numeric literal: " + buf);
  }
  // NaN and infinities ("nan", "inf", "1e999") are not SQL numbers.
  if (!std::isfinite(v)) {
    return Status::OutOfRange("numeric literal out of range: " + buf);
  }
  return v;
}

std::string StringPrintf(const char* format, ...) {
  va_list ap;
  va_start(ap, format);
  va_list ap_copy;
  va_copy(ap_copy, ap);
  const int len = vsnprintf(nullptr, 0, format, ap);
  va_end(ap);
  std::string out(len, '\0');
  vsnprintf(out.data(), len + 1, format, ap_copy);
  va_end(ap_copy);
  return out;
}

std::string HumanBytes(uint64_t bytes) {
  static const char* kUnits[] = {"B", "KiB", "MiB", "GiB", "TiB"};
  double v = static_cast<double>(bytes);
  int unit = 0;
  while (v >= 1024.0 && unit < 4) {
    v /= 1024.0;
    ++unit;
  }
  if (unit == 0) return StringPrintf("%llu B", static_cast<unsigned long long>(bytes));
  return StringPrintf("%.2f %s", v, kUnits[unit]);
}

}  // namespace htg
