// htgbench: the htgdb benchmark program.
//
//   htgbench --workload <dge_lane|reseq_consensus|wire_mixed> --seed N
//            --seconds S --trace <0|1> --work-dir DIR --out-dir DIR
//            [--scale X]
//
// Prints a human-readable report, writes a result file stamped with the
// host fingerprint (and, traced, the span file) into --out-dir, and ends
// with one JSON line: {"correct", "attempted", "failed", "metrics"}. The
// untraced run's metrics are the end-to-end set; the traced run's are the
// per-layer set.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>

#include "harness.h"
#include "plan_profile.h"

namespace htgbench {
namespace {

struct MetricSpec {
  std::string name;
  std::string unit;
};

// Reported by every workload's untraced run.
const MetricSpec kEndToEnd[] = {
    {"stmt_latency_ms", "ms"},
    {"stmts_per_s", "1/s"},
    {"bytes_per_user_byte", "B/B"},
    {"peak_rss_mb", "MiB"},
    {"setup_s", "s"},
};

// The design table's fifteen named end-to-end metrics (human report and
// result file; a workload reports the ones that apply to it).
const MetricSpec kNamed[] = {
    {"lane_load_s", "s"},         {"q1_binning_ms", "ms"},
    {"q2_expression_ms", "ms"},   {"q3_merge_join_ms", "ms"},
    {"q3_window_ms", "ms"},       {"q3_pivot_ms", "ms"},
    {"read_p50_ms", "ms"},        {"read_tail_ms", "ms"},
    {"commit_p50_ms", "ms"},      {"commit_tail_ms", "ms"},
    {"stmts_per_s", "1/s"},       {"bytes_per_user_byte", "B/B"},
    {"setup_s", "s"},             {"peak_rss_mb", "MiB"},
    {"failed_ratio", "ratio"},
};

std::vector<MetricSpec> PerLayer() {
  std::vector<MetricSpec> out = {
      {"storage.heap_scan_ns_per_row", "ns/row"},
      {"storage.clustered_scan_ns_per_row", "ns/row"},
      {"storage.insert_ns_per_row", "ns/row"},
      {"storage.bytes_per_row", "B/row"},
      {"bufferpool.hit_ratio", "ratio"},
      {"bufferpool.evictions_per_stmt", "count"},
      {"bufferpool.writebacks_per_lane", "count"},
      {"vfs.write_bytes_per_user_byte", "B/B"},
      {"vfs.read_bytes_per_stmt", "B"},
      {"btree.leaf_reads_per_stmt", "count"},
      {"vfs.syncs_per_commit", "count"},
      {"workflow.load_reads_rows_per_s", "rows/s"},
      {"workflow.load_alignments_rows_per_s", "rows/s"},
      {"genomics.simulate_s", "s"},
      {"genomics.align_s", "s"},
      {"sql.parse_us", "us"},
      {"sql.plan_us", "us"},
      {"exec.execute_ms.q1", "ms"},
      {"exec.execute_ms.q2", "ms"},
      {"exec.execute_ms.q3_merge_join", "ms"},
      {"exec.execute_ms.q3_window", "ms"},
      {"exec.execute_ms.q3_pivot", "ms"},
  };
  for (const std::string& kind : OperatorKinds()) {
    out.push_back({"exec.self_ms." + kind, "ms"});
  }
  const MetricSpec rest[] = {
      {"exec.worker_ms.parallel", "ms"},
      {"exec.morsel_steal_ratio", "ratio"},
      {"exec.rows_per_batch", "rows"},
      {"threadpool.queue_depth_max", "tasks"},
      {"exec.spill_bytes", "B"},
      {"udf.fillrow_rows_per_stmt", "rows"},
      {"udf.scalar_calls_per_row", "count"},
      {"server.overhead_us", "us"},
      {"server.lock_wait_p99_us", "us"},
      {"server.retries_per_stmt", "count"},
      {"txn.commit_us", "us"},
      {"mvcc.gc_sweeps_per_1k_txn", "count"},
      {"mvcc.gc_entries_removed", "count"},
      {"mem.query_peak_mb", "MiB"},
      {"trace.overhead_pct", "%"},
  };
  for (const MetricSpec& m : rest) out.push_back(m);
  return out;
}

std::string JsonNumber(double v) {
  char buf[64];
  snprintf(buf, sizeof(buf), "%.9g", v);
  return buf;
}

std::string JsonString(const std::string& s) {
  return "\"" + htg::obs::JsonEscape(s) + "\"";
}

void Usage() {
  fprintf(stderr,
          "usage: htgbench --workload <dge_lane|reseq_consensus|wire_mixed> "
          "--seed N --seconds S --trace <0|1> --work-dir DIR --out-dir DIR "
          "[--scale X]\n");
}

bool ParseArgs(int argc, char** argv, Options* opt) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* value = argv[i + 1];
    if (key == "--workload") {
      opt->workload = value;
    } else if (key == "--seed") {
      opt->seed = strtoull(value, nullptr, 10);
    } else if (key == "--seconds") {
      opt->seconds = atof(value);
    } else if (key == "--trace") {
      opt->trace = atoi(value) != 0;
    } else if (key == "--scale") {
      opt->scale = atof(value);
    } else if (key == "--work-dir") {
      opt->work_dir = value;
    } else if (key == "--out-dir") {
      opt->out_dir = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !opt->workload.empty() && !opt->work_dir.empty() &&
         !opt->out_dir.empty() && opt->seconds > 0 && opt->scale > 0;
}

}  // namespace

int Main(int argc, char** argv) {
  Options opt;
  if (!ParseArgs(argc, argv, &opt)) {
    Usage();
    return 2;
  }
  const unsigned cores = std::max(1u, std::thread::hardware_concurrency());
  opt.threads = static_cast<int>(std::min(4u, cores));

  Tracer tracer(opt.trace);
  Report report;
  Outcome outcome;
  Context ctx{opt, &tracer, &report, &outcome};
  std::error_code ec;
  std::filesystem::create_directories(opt.work_dir, ec);
  std::filesystem::create_directories(opt.out_dir, ec);

  // Host fingerprint, stamped into everything the run writes.
  std::vector<std::pair<std::string, std::string>> fingerprint = {
      {"cores", std::to_string(cores)},
      {"threads", std::to_string(opt.threads)},
      {"compiler", HTGBENCH_COMPILER},
      {"build_type", HTGBENCH_BUILD_TYPE},
      {"scale", JsonNumber(opt.scale)},
      {"seed", std::to_string(opt.seed)},
      {"workload", opt.workload},
      {"trace", opt.trace ? "1" : "0"},
      {"seconds", JsonNumber(opt.seconds)},
  };
  printf("== htgbench %s ==\n", opt.workload.c_str());
  for (const auto& [k, v] : fingerprint) printf("  %-10s %s\n", k.c_str(), v.c_str());

  if (opt.workload == "dge_lane") {
    RunDgeLane(ctx);
  } else if (opt.workload == "reseq_consensus") {
    RunReseqConsensus(ctx);
  } else if (opt.workload == "wire_mixed") {
    RunWireMixed(ctx);
  } else {
    fprintf(stderr, "unknown workload '%s'\n", opt.workload.c_str());
    Usage();
    return 2;
  }

  const double peak_rss = PeakRssMb();
  const double failed_ratio =
      Ratio(static_cast<double>(outcome.failed()),
            static_cast<double>(outcome.attempted()));
  report.Named("peak_rss_mb", peak_rss, "MiB");
  report.Named("failed_ratio", failed_ratio, "ratio");
  bool complete = true;

  // The contract set of this run, in declaration order.
  std::vector<MetricSpec> contract;
  if (opt.trace) {
    contract = PerLayer();
    for (const MetricSpec& m : contract) {
      if (report.metrics().count(m.name) == 0) {
        report.NotApplicable(m.name, m.unit,
                             "not exercised by " + opt.workload);
      }
    }
  } else {
    report.Set("peak_rss_mb", peak_rss, "MiB");
    for (const MetricSpec& m : kEndToEnd) {
      contract.push_back(m);
      if (report.metrics().count(m.name) == 0) {
        complete = false;
        outcome.Fail("metric not measured: " + m.name);
        report.Set(m.name, 0, m.unit);
      }
    }
  }

  printf("\n-- facts --\n");
  for (const auto& [k, v] : report.facts()) printf("  %-28s %s\n", k.c_str(), v.c_str());
  if (!opt.trace) {
    printf("\n-- end-to-end (design table) --\n");
    for (const MetricSpec& m : kNamed) {
      auto it = report.named().find(m.name);
      if (it == report.named().end()) {
        printf("  %-22s n/a (%s)\n", m.name.c_str(), m.unit.c_str());
      } else {
        printf("  %-22s %12.6g %s\n", m.name.c_str(), it->second.value,
               m.unit.c_str());
      }
    }
  }
  printf("\n-- %s metrics --\n", opt.trace ? "per-layer" : "end-to-end");
  for (const MetricSpec& m : contract) {
    const Metric& metric = report.metrics().at(m.name);
    if (metric.not_applicable.empty()) {
      printf("  %-36s %14.6g %s\n", m.name.c_str(), metric.value,
             m.unit.c_str());
    } else {
      printf("  %-36s %14s %s  (n/a: %s)\n", m.name.c_str(), "0",
             m.unit.c_str(), metric.not_applicable.c_str());
    }
  }
  if (opt.trace) {
    printf("\n-- spans: self time by name (%zu spans) --\n", tracer.size());
    for (const auto& [name, sum] : tracer.Summarize()) {
      printf("  %-36s n=%-7llu total %10.3f ms  self %10.3f ms\n", name.c_str(),
             static_cast<unsigned long long>(sum.count), sum.total_ms,
             sum.self_ms);
    }
  }
  for (const std::string& e : outcome.errors()) printf("ERROR %s\n", e.c_str());

  // Result file.
  const std::string stem = opt.out_dir + "/" + opt.workload + "-seed" +
                           std::to_string(opt.seed) + "-trace" +
                           (opt.trace ? "1" : "0");
  std::ostringstream result;
  result << "{\"fingerprint\": {";
  for (size_t i = 0; i < fingerprint.size(); ++i) {
    result << (i ? ", " : "") << JsonString(fingerprint[i].first) << ": "
           << JsonString(fingerprint[i].second);
  }
  result << "}, \"facts\": {";
  for (size_t i = 0; i < report.facts().size(); ++i) {
    result << (i ? ", " : "") << JsonString(report.facts()[i].first) << ": "
           << JsonString(report.facts()[i].second);
  }
  auto write_metrics = [&](const std::map<std::string, Metric>& metrics) {
    bool first = true;
    for (const auto& [name, m] : metrics) {
      result << (first ? "" : ", ") << JsonString(name)
             << ": {\"value\": " << JsonNumber(m.value)
             << ", \"unit\": " << JsonString(m.unit);
      if (!m.not_applicable.empty()) {
        result << ", \"not_applicable\": " << JsonString(m.not_applicable);
      }
      result << "}";
      first = false;
    }
  };
  result << "}, \"named\": {";
  write_metrics(report.named());
  result << "}, \"metrics\": {";
  write_metrics(report.metrics());
  result << "}, \"attempted\": " << outcome.attempted()
         << ", \"failed\": " << outcome.failed() << "}\n";
  std::ofstream(stem + ".json", std::ios::trunc) << result.str();
  if (opt.trace) {
    const htg::Status written = tracer.WriteJsonLines(stem + "-spans.jsonl");
    if (!written.ok()) outcome.Fail("span file: " + written.ToString());
  }
  printf("\nresult file: %s.json\n", stem.c_str());

  // The contract line, last on stdout.
  const bool correct = complete && outcome.failed() == 0;
  std::ostringstream line;
  line << "{\"correct\": " << (correct ? "true" : "false")
       << ", \"attempted\": " << std::max<uint64_t>(1, outcome.attempted())
       << ", \"failed\": " << outcome.failed() << ", \"metrics\": {";
  for (size_t i = 0; i < contract.size(); ++i) {
    const Metric& m = report.metrics().at(contract[i].name);
    line << (i ? ", " : "") << JsonString(contract[i].name)
         << ": {\"value\": " << JsonNumber(m.value)
         << ", \"unit\": " << JsonString(m.unit) << "}";
  }
  line << "}}";
  printf("%s\n", line.str().c_str());
  fflush(stdout);
  return 0;
}

}  // namespace htgbench

int main(int argc, char** argv) { return htgbench::Main(argc, argv); }
