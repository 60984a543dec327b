#pragma once

// Shared machinery of the htgdb benchmark: run options, the span tracer,
// latency samples, metric reporting, failure accounting and process
// probes (RSS, open files, directory bytes). Workloads call into the
// engine's public API only; every span is recorded here, around those
// calls, never inside the engine.

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "common/status.h"

namespace htgbench {

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  // Multiplies every data size; 1 is the benchmark's reference scale.
  double scale = 1.0;
  // Scratch directory for database files (inside the checkout).
  std::string work_dir;
  // Where result and span files are written.
  std::string out_dir;
  // Client threads / DOP: min(4, hardware threads).
  int threads = 4;
};

int64_t NowNs();
double SecondsSince(int64_t start_ns);

// ---------------------------------------------------------------------------
// Tracing: one span per layer call the benchmark makes. Spans stay in
// memory and are written out when the run ends; self time is a span's
// duration minus the time its direct children cover.
// ---------------------------------------------------------------------------
struct Span {
  std::string name;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int64_t parent = -1;  // index into the span list, -1 for a root
  uint64_t stmt = 0;    // statement id shared by one statement's spans
};

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }
  uint64_t NextStmt();

  // Returns the span index, or -1 when tracing is off. The parent is the
  // innermost open span of the calling thread.
  int64_t Begin(const char* name, uint64_t stmt);
  void End(int64_t index);

  struct Summary {
    uint64_t count = 0;
    double total_ms = 0;
    double self_ms = 0;
  };
  std::map<std::string, Summary> Summarize() const;
  // Durations (ms) of every span with this name, in start order.
  std::vector<double> DurationsMs(const std::string& name) const;
  size_t size() const;
  htg::Status WriteJsonLines(const std::string& path) const;

 private:
  bool enabled_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
  uint64_t next_stmt_ = 1;
};

class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name, uint64_t stmt = 0)
      : tracer_(tracer), index_(tracer->Begin(name, stmt)) {}
  ~ScopedSpan() { tracer_->End(index_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  int64_t index_;
};

// ---------------------------------------------------------------------------
// Latency samples.
// ---------------------------------------------------------------------------
class Samples {
 public:
  void Add(double v) { values_.push_back(v); }
  void Append(const Samples& other);
  size_t size() const { return values_.size(); }
  double Median() const;
  // Space-separated values, for the human report.
  std::string ToString() const;
  // The highest percentile with at least ten samples beyond it; 0 when
  // there are fewer than eleven samples. *percentile gets its rank.
  double Tail(double* percentile) const;

 private:
  std::vector<double> values_;
};

// Geometric mean of positive values (0 if any is not positive).
double GeoMean(const std::vector<double>& values);

// ---------------------------------------------------------------------------
// Results.
// ---------------------------------------------------------------------------
struct Metric {
  double value = 0;
  std::string unit;
  // Empty when measured; otherwise why the metric does not apply.
  std::string not_applicable;
};

class Report {
 public:
  // Contract metrics (printed in the final JSON line).
  void Set(const std::string& name, double value, const std::string& unit);
  void NotApplicable(const std::string& name, const std::string& unit,
                     const std::string& why);
  // The named end-to-end metrics of the design table (human report).
  void Named(const std::string& name, double value, const std::string& unit);
  // Free-form facts: sizes, sample counts, tail percentiles.
  void Fact(const std::string& key, const std::string& value);
  void Fact(const std::string& key, double value);

  const std::map<std::string, Metric>& metrics() const { return metrics_; }
  const std::map<std::string, Metric>& named() const { return named_; }
  const std::vector<std::pair<std::string, std::string>>& facts() const {
    return facts_;
  }

 private:
  std::map<std::string, Metric> metrics_;
  std::map<std::string, Metric> named_;
  std::vector<std::pair<std::string, std::string>> facts_;
};

// Counts operations and their failures; a failed oracle check is a
// failure too. Thread-safe.
class Outcome {
 public:
  void Attempt(uint64_t n = 1);
  // Records one failed operation with a message (the first few are kept).
  void Fail(const std::string& what);
  // Records the status of one attempted operation; true when OK.
  bool Check(const htg::Status& status, const char* what);
  uint64_t attempted() const;
  uint64_t failed() const;
  std::vector<std::string> errors() const;

 private:
  mutable std::mutex mu_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  std::vector<std::string> errors_;
};

// ---------------------------------------------------------------------------
// Engine metrics registry deltas.
// ---------------------------------------------------------------------------
class Counters {
 public:
  Counters() : base_(htg::obs::MetricsRegistry::Global().Snapshot()) {}
  htg::obs::HistogramSnapshot HistogramDelta(const std::string& name) const;
  // Adds every counter's delta since construction into *tally.
  void AddTo(std::map<std::string, uint64_t>* tally) const;

 private:
  htg::obs::MetricsSnapshot base_;
};

using Tally = std::map<std::string, uint64_t>;
uint64_t Get(const Tally& tally, const std::string& name);

double Ratio(double num, double den);

// ---------------------------------------------------------------------------
// Process probes.
// ---------------------------------------------------------------------------
double PeakRssMb();
int OpenFileCount();
uint64_t DirectoryBytes(const std::string& path);

// Everything a workload needs.
struct Context {
  const Options& opt;
  Tracer* tracer;
  Report* report;
  Outcome* outcome;
};

void RunDgeLane(Context& ctx);
void RunReseqConsensus(Context& ctx);
void RunWireMixed(Context& ctx);

}  // namespace htgbench
