// Lint fixture: clean file plus every sanctioned suppression/idiom; no
// rule may fire here. Not compiled.
#include <cstdio>
#include <memory>

#include "common/status.h"

namespace htg {

struct Widget {
  int id = 0;
};

// NOLINT suppression is honoured, with and without the htg- prefix.
inline FILE* RawButJustified(const char* path) {
  return fopen(path, "rb");  // NOLINT(htg-raw-io)
}

// Owned allocation and leaky singleton: allowed without suppression.
inline std::unique_ptr<Widget> MakeWidget() {
  return std::unique_ptr<Widget>(new Widget());
}
inline Widget& GlobalWidget() {
  static Widget& w = *new Widget();
  return w;
}

// Exhaustive StatusCode switch (subset shown; no default:). Mentions of
// fopen( inside comments and "string ::open( literals" must not fire.
inline bool IsOk(const Status& s) {
  switch (s.code()) {
    case StatusCode::kOk:
      return true;
    case StatusCode::kInvalidArgument:
    case StatusCode::kNotFound:
    case StatusCode::kAlreadyExists:
    case StatusCode::kOutOfRange:
    case StatusCode::kCorruption:
    case StatusCode::kIOError:
    case StatusCode::kTransient:
    case StatusCode::kNotImplemented:
    case StatusCode::kInternal:
    case StatusCode::kAborted:
    case StatusCode::kParseError:
    case StatusCode::kBindError:
    case StatusCode::kExecError:
      return false;
  }
  return false;
}

// An aggregate that cannot merge says so instead of implementing Merge().
struct WindowState {
  int64_t last = 0;
};
class WindowAggregate : public udf::TypedAggregate<WindowState> {
 public:
  bool SupportsMerge() const override { return false; }
};

// The sanctioned way to drop a Status (unlike a (void) cast).
inline void BestEffort(Status (*op)()) { HTG_IGNORE_STATUS(op()); }

}  // namespace htg
