#include "harness.h"

#include <dirent.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

namespace htgbench {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double SecondsSince(int64_t start_ns) {
  return static_cast<double>(NowNs() - start_ns) * 1e-9;
}

// --- Tracer -------------------------------------------------------------

namespace {
// Open spans of the calling thread, innermost last.
thread_local std::vector<int64_t> t_open_spans;
}  // namespace

uint64_t Tracer::NextStmt() {
  std::lock_guard<std::mutex> lock(mu_);
  return next_stmt_++;
}

int64_t Tracer::Begin(const char* name, uint64_t stmt) {
  if (!enabled_) return -1;
  Span span;
  span.name = name;
  span.parent = t_open_spans.empty() ? -1 : t_open_spans.back();
  span.stmt = stmt;
  int64_t index = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stmt == 0 && span.parent >= 0) {
      span.stmt = spans_[static_cast<size_t>(span.parent)].stmt;
    }
    index = static_cast<int64_t>(spans_.size());
    spans_.push_back(std::move(span));
  }
  t_open_spans.push_back(index);
  // Stamp the start last so bookkeeping is not charged to the span.
  const int64_t now = NowNs();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<size_t>(index)].start_ns = now;
  return index;
}

void Tracer::End(int64_t index) {
  if (index < 0) return;
  const int64_t now = NowNs();
  if (!t_open_spans.empty() && t_open_spans.back() == index) {
    t_open_spans.pop_back();
  }
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<size_t>(index)].end_ns = now;
}

std::map<std::string, Tracer::Summary> Tracer::Summarize() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<int64_t> child_ns(spans_.size(), 0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      child_ns[static_cast<size_t>(s.parent)] += s.end_ns - s.start_ns;
    }
  }
  std::map<std::string, Summary> out;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    Summary& sum = out[s.name];
    const int64_t dur = s.end_ns - s.start_ns;
    sum.count++;
    sum.total_ms += static_cast<double>(dur) * 1e-6;
    sum.self_ms += static_cast<double>(std::max<int64_t>(0, dur - child_ns[i])) *
                   1e-6;
  }
  return out;
}

std::vector<double> Tracer::DurationsMs(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (s.name == name) {
      out.push_back(static_cast<double>(s.end_ns - s.start_ns) * 1e-6);
    }
  }
  return out;
}

size_t Tracer::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_.size();
}

htg::Status Tracer::WriteJsonLines(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ofstream out(path, std::ios::trunc);
  if (!out) return htg::Status::IOError("cannot write " + path);
  const int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << "{\"id\":" << i << ",\"parent\":" << s.parent
        << ",\"stmt\":" << s.stmt << ",\"name\":\"" << s.name
        << "\",\"start_ns\":" << (s.start_ns - origin)
        << ",\"end_ns\":" << (s.end_ns - origin) << "}\n";
  }
  out.close();
  if (!out) return htg::Status::IOError("short write to " + path);
  return htg::Status::OK();
}

// --- Samples ------------------------------------------------------------

void Samples::Append(const Samples& other) {
  values_.insert(values_.end(), other.values_.begin(), other.values_.end());
}

double Samples::Median() const {
  if (values_.empty()) return 0;
  std::vector<double> v = values_;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

std::string Samples::ToString() const {
  std::string out;
  char buf[32];
  for (double v : values_) {
    snprintf(buf, sizeof(buf), "%s%.4g", out.empty() ? "" : " ", v);
    out += buf;
  }
  return out;
}

double Samples::Tail(double* percentile) const {
  const size_t n = values_.size();
  if (percentile != nullptr) *percentile = 0;
  if (n < 11) return 0;
  std::vector<double> v = values_;
  std::sort(v.begin(), v.end());
  // Rank n-11 (0-based) leaves exactly ten samples above it.
  if (percentile != nullptr) {
    *percentile = 100.0 * static_cast<double>(n - 10) / static_cast<double>(n);
  }
  return v[n - 11];
}

double GeoMean(const std::vector<double>& values) {
  if (values.empty()) return 0;
  double log_sum = 0;
  for (double v : values) {
    if (!(v > 0)) return 0;
    log_sum += std::log(v);
  }
  return std::exp(log_sum / static_cast<double>(values.size()));
}

// --- Report -------------------------------------------------------------

void Report::Set(const std::string& name, double value,
                 const std::string& unit) {
  metrics_[name] = Metric{value, unit, ""};
}

void Report::NotApplicable(const std::string& name, const std::string& unit,
                           const std::string& why) {
  metrics_[name] = Metric{0, unit, why};
}

void Report::Named(const std::string& name, double value,
                   const std::string& unit) {
  named_[name] = Metric{value, unit, ""};
}

void Report::Fact(const std::string& key, const std::string& value) {
  facts_.emplace_back(key, value);
}

void Report::Fact(const std::string& key, double value) {
  char buf[64];
  snprintf(buf, sizeof(buf), "%.6g", value);
  facts_.emplace_back(key, buf);
}

// --- Outcome ------------------------------------------------------------

void Outcome::Attempt(uint64_t n) {
  std::lock_guard<std::mutex> lock(mu_);
  attempted_ += n;
}

void Outcome::Fail(const std::string& what) {
  std::lock_guard<std::mutex> lock(mu_);
  failed_++;
  if (errors_.size() < 8) errors_.push_back(what);
}

bool Outcome::Check(const htg::Status& status, const char* what) {
  Attempt();
  if (status.ok()) return true;
  Fail(std::string(what) + ": " + status.ToString());
  return false;
}

uint64_t Outcome::attempted() const {
  std::lock_guard<std::mutex> lock(mu_);
  return attempted_;
}

uint64_t Outcome::failed() const {
  std::lock_guard<std::mutex> lock(mu_);
  return failed_;
}

std::vector<std::string> Outcome::errors() const {
  std::lock_guard<std::mutex> lock(mu_);
  return errors_;
}

// --- Counters -----------------------------------------------------------

htg::obs::HistogramSnapshot Counters::HistogramDelta(
    const std::string& name) const {
  const htg::obs::MetricsSnapshot now =
      htg::obs::MetricsRegistry::Global().Snapshot();
  auto it = now.histograms.find(name);
  if (it == now.histograms.end()) return {};
  auto base = base_.histograms.find(name);
  if (base == base_.histograms.end()) return it->second;
  return it->second.Delta(base->second);
}

void Counters::AddTo(Tally* tally) const {
  const htg::obs::MetricsSnapshot now =
      htg::obs::MetricsRegistry::Global().Snapshot();
  for (const auto& [name, value] : now.counters) {
    auto base = base_.counters.find(name);
    (*tally)[name] += value - (base == base_.counters.end() ? 0 : base->second);
  }
}

uint64_t Get(const Tally& tally, const std::string& name) {
  auto it = tally.find(name);
  return it == tally.end() ? 0 : it->second;
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

// --- Process probes -----------------------------------------------------

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kib = 0;
      fields >> kib;
      return kib / 1024.0;
    }
  }
  return 0;
}

int OpenFileCount() {
  DIR* dir = opendir("/proc/self/fd");
  if (dir == nullptr) return -1;
  int count = 0;
  while (readdir(dir) != nullptr) ++count;
  closedir(dir);
  return count - 2;  // "." and ".."
}

uint64_t DirectoryBytes(const std::string& path) {
  std::error_code ec;
  uint64_t total = 0;
  if (!std::filesystem::exists(path, ec)) return 0;
  for (auto it = std::filesystem::recursive_directory_iterator(path, ec);
       !ec && it != std::filesystem::recursive_directory_iterator();
       it.increment(ec)) {
    if (it->is_regular_file(ec)) total += it->file_size(ec);
  }
  return total;
}

}  // namespace htgbench
