// dge_lane: the digital-gene-expression regime (Zipf tags, highly
// repetitive reads). One in-process caller runs a closed loop of lane
// cycles: bulk-load one lane (Read, Tag, Alignment) into PAGE-compressed
// heaps through the workflow loaders, run paper Query 1 at DOP = threads,
// run the Query 2 SELECT, drop the tables. The lane fits the default
// buffer pool.

#include <algorithm>
#include <atomic>
#include <thread>
#include <unordered_map>

#include "exec/operator.h"
#include "lane.h"
#include "plan_profile.h"
#include "types/row_batch.h"
#include "workflow/loaders.h"
#include "workflow/schema.h"

namespace htgbench {
namespace {

// Paper Query 1, verbatim.
const char kQuery1[] =
    "SELECT ROW_NUMBER() OVER (ORDER BY COUNT(*) DESC) AS rank, "
    "COUNT(*) AS freq, short_read_seq "
    "FROM Read "
    "WHERE CHARINDEX('N', short_read_seq) = 0 "
    "GROUP BY short_read_seq";

// Paper Query 2's SELECT: tag frequency per gene locus (1 kbp buckets).
const char kQuery2[] =
    "SELECT a_g_id * 100000 + a_pos / 1000 AS gene, "
    "SUM(t_frequency) AS total_frequency, COUNT(a_r_id) AS tag_count "
    "FROM Alignment JOIN Tag ON (a_r_id = t_id - 1 "
    " AND a_e_id = t_e_id AND a_sg_id = t_sg_id AND a_s_id = t_s_id) "
    "GROUP BY a_g_id * 100000 + a_pos / 1000";

const char* const kLaneTables[] = {"Read", "Tag", "Alignment"};

// Ten CREATE TABLEs, three loads, two queries, ten drops.
constexpr double kStatementsPerCycle = 25;

struct Oracle {
  std::unordered_map<std::string, int64_t> tag_frequency;
  // gene -> (total frequency, tag count)
  std::map<int64_t, std::pair<int64_t, int64_t>> expression;
};

Oracle MakeOracle(const Lane& lane) {
  Oracle oracle;
  for (const htg::genomics::TagCount& t : lane.tags) {
    oracle.tag_frequency[t.sequence] = t.frequency;
  }
  std::vector<htg::genomics::AlignedTag> aligned;
  aligned.reserve(lane.alignments.size());
  for (const htg::genomics::Alignment& a : lane.alignments) {
    aligned.push_back({a.chromosome * 100000 + a.position / 1000, a.read_id,
                       lane.tags[a.read_id].frequency});
  }
  for (const htg::genomics::GeneExpression& g :
       htg::genomics::AggregateExpression(aligned)) {
    oracle.expression[g.gene_id] = {g.total_frequency, g.tag_count};
  }
  return oracle;
}

std::string CheckQuery1(const std::vector<htg::Row>& rows,
                        const Oracle& oracle) {
  if (rows.size() != oracle.tag_frequency.size()) {
    return "Query 1 returned " + std::to_string(rows.size()) +
           " unique tags, BinUniqueReads found " +
           std::to_string(oracle.tag_frequency.size());
  }
  for (const htg::Row& row : rows) {
    const int64_t freq = row[1].AsInt64();
    auto it = oracle.tag_frequency.find(row[2].AsString());
    if (it == oracle.tag_frequency.end() || it->second != freq) {
      return "Query 1 frequency of " + row[2].AsString() + " differs";
    }
  }
  // ROW_NUMBER ranks follow descending frequency.
  std::vector<std::pair<int64_t, int64_t>> ranked;
  ranked.reserve(rows.size());
  for (const htg::Row& row : rows) {
    ranked.emplace_back(row[0].AsInt64(), row[1].AsInt64());
  }
  std::sort(ranked.begin(), ranked.end());
  for (size_t i = 0; i < ranked.size(); ++i) {
    if (ranked[i].first != static_cast<int64_t>(i + 1) ||
        (i > 0 && ranked[i].second > ranked[i - 1].second)) {
      return "Query 1 ranks are not 1..n by descending frequency";
    }
  }
  return "";
}

std::string CheckQuery2(const std::vector<htg::Row>& rows,
                        const Oracle& oracle) {
  if (rows.size() != oracle.expression.size()) {
    return "Query 2 returned " + std::to_string(rows.size()) +
           " genes, AggregateExpression found " +
           std::to_string(oracle.expression.size());
  }
  for (const htg::Row& row : rows) {
    auto it = oracle.expression.find(row[0].AsInt64());
    if (it == oracle.expression.end() ||
        it->second != std::make_pair(row[1].AsInt64(), row[2].AsInt64())) {
      return "Query 2 totals of gene " + std::to_string(row[0].AsInt64()) +
             " differ";
    }
  }
  return "";
}

// What must not grow from one lane cycle to the next.
struct Residue {
  uint64_t tablespace_bytes = 0;
  size_t pool_frames = 0;
  int open_files = 0;
};

Residue Measure(Db& db) {
  Residue r;
  r.tablespace_bytes = DirectoryBytes(db.root + "/tablespace");
  r.pool_frames = db.db->buffer_pool() != nullptr
                      ? db.db->buffer_pool()->frames_cached()
                      : 0;
  r.open_files = OpenFileCount();
  return r;
}

// Statement timings of one phase (untraced or traced) of the run.
struct Phase {
  Samples load_ms, q1_ms, q2_ms, cycle_ms;
  Tally counters;          // across whole cycles
  Tally query_counters;    // across Query 1 + Query 2 only
  Tally load_counters;     // across lane loads only
  Tally q1_counters;
  uint64_t queries = 0;
  uint64_t lanes = 0;
};

class DgeLane {
 public:
  explicit DgeLane(Context& ctx) : ctx_(ctx) {}
  ~DgeLane() { CloseDb(&db_); }
  DgeLane(const DgeLane&) = delete;
  DgeLane& operator=(const DgeLane&) = delete;

  void Run();

 private:
  bool Setup();
  // One lane cycle; false when it failed. With probe set, the storage
  // layer is also timed directly on the loaded lane before the drop.
  bool Cycle(Phase* phase, bool traced, bool probe = false);
  void Probes();
  bool Select(const char* sql, const char* label, bool traced,
              std::vector<htg::Row>* rows) {
    return RunSelect(db_.engine.get(), sql, label, traced, ctx_.tracer,
                     &profile_, ctx_.outcome, rows);
  }
  void ReportPhase(const Phase& phase, bool traced);

  Context& ctx_;
  LaneConfig config_;
  Lane lane_;
  Oracle oracle_;
  Db db_;
  SetupTimes setup_;
  Tracer untraced_{false};
  bool print_plans_ = false;
  PlanProfile profile_;
  Samples scan_ns_per_row_, insert_ns_per_row_;
  int64_t queue_depth_max_ = 0;
  uint64_t table_bytes_ = 0, table_rows_ = 0, read_bytes_ = 0;
  bool have_residue_ = false;
  Residue residue_;
};

bool DgeLane::Setup() {
  const Options& opt = ctx_.opt;
  config_.seed = opt.seed;
  config_.num_reads = std::max<uint64_t>(
      2000, static_cast<uint64_t>(125'000 * opt.scale));
  config_.dge_genes =
      std::max(200, static_cast<int>(10'000 * opt.scale));
  config_.reference_bases = std::max<uint64_t>(
      200'000, static_cast<uint64_t>(1'000'000 * std::min(1.0, opt.scale)));
  for (int rep = 0; rep < SetupTimes::kRepeats; ++rep) {
    if (db_.db != nullptr) CloseDb(&db_);
    Tracer setup_tracer(true);
    const int64_t start = NowNs();
    lane_ = MakeLane(config_, &setup_tracer);
    oracle_ = MakeOracle(lane_);
    auto db = OpenDb(opt, "dge", 0);
    if (!ctx_.outcome->Check(db.status(), "open database")) return false;
    db_ = std::move(*db);
    setup_.total_s.Add(SecondsSince(start));
    setup_.AddGenomics(setup_tracer);
  }
  ctx_.report->Fact("reads", static_cast<double>(lane_.reads.size()));
  ctx_.report->Fact("unique_tags", static_cast<double>(lane_.tags.size()));
  ctx_.report->Fact("alignments",
                    static_cast<double>(lane_.alignments.size()));
  ctx_.report->Fact("lane_file_bytes", static_cast<double>(lane_.file_bytes));
  ctx_.report->Fact("buffer_pool_bytes",
                    static_cast<double>(db_.db->buffer_pool()->capacity_bytes()));
  return true;
}

bool DgeLane::Cycle(Phase* phase, bool traced, bool probe) {
  Tracer* tracer = traced ? ctx_.tracer : &untraced_;
  Outcome* outcome = ctx_.outcome;
  htg::Database* db = db_.db.get();
  const int64_t cycle_start = NowNs();
  Counters cycle_counters;
  ScopedSpan cycle_span(tracer, "dge.cycle", tracer->NextStmt());

  // --- bulk-load one lane ---------------------------------------------
  int64_t start = NowNs();
  {
    Counters load_counters;
    ScopedSpan span(tracer, "dge.lane_load");
    htg::workflow::SchemaOptions schema;
    schema.compression = htg::storage::Compression::kPage;
    {
      ScopedSpan ddl(tracer, "sql.create_schema");
      if (!outcome->Check(
              htg::workflow::CreateGenomicsSchema(db_.engine.get(), schema),
              "create schema")) {
        return false;
      }
    }
    const htg::workflow::SampleKey key{1, 1, 1};
    {
      ScopedSpan load(tracer, "workflow.load_reads");
      if (!outcome->Check(
              htg::workflow::LoadReads(db, "Read", lane_.reads, key).status(),
              "load reads")) {
        return false;
      }
    }
    {
      ScopedSpan load(tracer, "workflow.load_tags");
      if (!outcome->Check(
              htg::workflow::LoadTags(db, "Tag", lane_.tags, key).status(),
              "load tags")) {
        return false;
      }
    }
    {
      ScopedSpan load(tracer, "workflow.load_alignments");
      if (!outcome->Check(htg::workflow::LoadAlignments(
                              db, "Alignment", lane_.alignments, key)
                              .status(),
                          "load alignments")) {
        return false;
      }
    }
    load_counters.AddTo(&phase->load_counters);
  }
  phase->load_ms.Add(SecondsSince(start) * 1e3);
  phase->lanes++;

  table_bytes_ = table_rows_ = 0;
  for (const char* name : kLaneTables) {
    auto table = db->GetTable(name);
    if (!outcome->Check(table.status(), "get table")) return false;
    const htg::storage::StorageStats stats = (*table)->table->Stats();
    table_bytes_ += stats.data_bytes;
    table_rows_ += stats.rows;
    if (std::string(name) == "Read") read_bytes_ = stats.data_bytes;
  }

  if (print_plans_) {
    for (const char* sql : {kQuery1, kQuery2}) {
      auto plan = db_.engine->Explain(sql);
      printf("plan:\n%s\n", plan.ok() ? plan->c_str()
                                       : plan.status().ToString().c_str());
    }
  }

  // --- Query 1 at DOP = threads ---------------------------------------
  std::vector<htg::Row> rows;
  {
    Counters q1_counters;
    Counters query_counters;
    std::atomic<bool> sampling{traced};
    std::thread sampler;
    if (traced) {
      // threadpool.queue.depth is a gauge; poll it while Query 1 runs.
      htg::obs::Gauge* depth = htg::obs::MetricsRegistry::Global().GetGauge(
          "threadpool.queue.depth");
      sampler = std::thread([this, depth, &sampling] {
        while (sampling.load(std::memory_order_relaxed)) {
          queue_depth_max_ = std::max(queue_depth_max_, depth->Value());
          std::this_thread::sleep_for(std::chrono::microseconds(200));
        }
      });
    }
    start = NowNs();
    const bool ok = Select(kQuery1, "q1", traced, &rows);
    const double q1_ms = SecondsSince(start) * 1e3;
    sampling.store(false);
    if (sampler.joinable()) sampler.join();
    if (!ok) return false;
    phase->q1_ms.Add(q1_ms);
    q1_counters.AddTo(&phase->q1_counters);
    query_counters.AddTo(&phase->query_counters);
  }
  const std::string q1_error = CheckQuery1(rows, oracle_);
  if (!q1_error.empty()) outcome->Fail(q1_error);

  // --- Query 2 ----------------------------------------------------------
  {
    Counters q2_counters;
    start = NowNs();
    if (!Select(kQuery2, "q2", traced, &rows)) return false;
    phase->q2_ms.Add(SecondsSince(start) * 1e3);
    q2_counters.AddTo(&phase->query_counters);
  }
  const std::string q2_error = CheckQuery2(rows, oracle_);
  if (!q2_error.empty()) outcome->Fail(q2_error);
  phase->queries += 2;
  // The probes' time and counters stay out of the cycle's.
  double cycle_ms = SecondsSince(cycle_start) * 1e3;
  cycle_counters.AddTo(&phase->counters);
  if (probe) Probes();

  // --- drop the lane ----------------------------------------------------
  const int64_t drop_start = NowNs();
  {
    Counters drop_counters;
    ScopedSpan span(tracer, "catalog.drop_tables");
    for (const std::string& name : db->ListTables()) {
      if (!outcome->Check(db->DropTable(name), "drop table")) return false;
    }
    drop_counters.AddTo(&phase->counters);
  }
  cycle_ms += SecondsSince(drop_start) * 1e3;
  phase->cycle_ms.Add(cycle_ms);

  // Nothing a dropped lane held may stay behind.
  const Residue now = Measure(db_);
  if (!have_residue_) {
    residue_ = now;
    have_residue_ = true;
  } else if (now.tablespace_bytes > residue_.tablespace_bytes ||
             now.pool_frames > residue_.pool_frames ||
             now.open_files > residue_.open_files) {
    outcome->Fail("lane cycle leaked: tablespace " +
                  std::to_string(residue_.tablespace_bytes) + " -> " +
                  std::to_string(now.tablespace_bytes) + " bytes, pool " +
                  std::to_string(residue_.pool_frames) + " -> " +
                  std::to_string(now.pool_frames) + " frames, files " +
                  std::to_string(residue_.open_files) + " -> " +
                  std::to_string(now.open_files));
    residue_ = now;
  }
  return true;
}

// Traced-only storage probes on the loaded lane, after its queries: a
// warm heap scan of Read (TableStorage::NewScan + NextBatch drain) and
// Database::InsertRow of the lane's tags into its Tag heap.
void DgeLane::Probes() {
  htg::Database* db = db_.db.get();
  Outcome* outcome = ctx_.outcome;
  auto read = db->GetTable("Read");
  if (!outcome->Check(read.status(), "get table")) return;
  for (int pass = 0; pass < 3; ++pass) {
    outcome->Attempt();
    const int64_t start = NowNs();
    uint64_t rows = 0;
    {
      ScopedSpan span(ctx_.tracer, "storage.heap_scan");
      std::unique_ptr<htg::storage::RowIterator> it = (*read)->table->NewScan();
      htg::RowBatch batch;
      while (it->NextBatch(&batch)) rows += batch.num_rows();
      if (!it->status().ok()) outcome->Fail("heap scan: " + it->status().ToString());
    }
    if (pass > 0 && rows > 0) {  // pass 0 warms the caches
      scan_ns_per_row_.Add(static_cast<double>(NowNs() - start) /
                           static_cast<double>(rows));
    }
  }
  auto tag = db->GetTable("Tag");
  if (!outcome->Check(tag.status(), "get table")) return;
  {
    outcome->Attempt();
    const int64_t start = NowNs();
    {
      ScopedSpan span(ctx_.tracer, "storage.insert");
      for (const htg::genomics::TagCount& t : lane_.tags) {
        htg::Status inserted = db->InsertRow(
            *tag, htg::Row{htg::Value::Int64(t.rank), htg::Value::Int32(1),
                           htg::Value::Int32(1), htg::Value::Int32(1),
                           htg::Value::String(t.sequence),
                           htg::Value::Int64(t.frequency)});
        if (!inserted.ok()) {
          outcome->Fail("insert: " + inserted.ToString());
          break;
        }
      }
    }
    if (!lane_.tags.empty()) {
      insert_ns_per_row_.Add(static_cast<double>(NowNs() - start) /
                             static_cast<double>(lane_.tags.size()));
    }
  }
}

void DgeLane::ReportPhase(const Phase& p, bool traced) {
  Report* report = ctx_.report;
  if (!traced) {
    const double load_ms = p.load_ms.Median();
    const double q1_ms = p.q1_ms.Median();
    const double q2_ms = p.q2_ms.Median();
    report->Set("stmt_latency_ms", GeoMean({load_ms, q1_ms, q2_ms}), "ms");
    // Throughput of the median cycle.
    const double stmts_per_s =
        Ratio(kStatementsPerCycle, p.cycle_ms.Median() / 1e3);
    report->Set("stmts_per_s", stmts_per_s, "1/s");
    report->Named("lane_load_s", load_ms / 1e3, "s");
    report->Named("q1_binning_ms", q1_ms, "ms");
    report->Named("q2_expression_ms", q2_ms, "ms");
    report->Named("stmts_per_s", stmts_per_s, "1/s");
    report->Fact("lane_cycles", static_cast<double>(p.cycle_ms.size()));
    report->Fact("cycle_ms", p.cycle_ms.ToString());
    report->Fact("load_ms", p.load_ms.ToString());
    report->Fact("q1_ms", p.q1_ms.ToString());
    report->Fact("q2_ms", p.q2_ms.ToString());
    return;
  }
  auto median_of = [&](const char* name) {
    Samples s;
    for (double v : ctx_.tracer->DurationsMs(name)) s.Add(v);
    return s.Median();
  };
  const double reads = static_cast<double>(lane_.reads.size());
  const double alignments = static_cast<double>(lane_.alignments.size());
  report->Set("workflow.load_reads_rows_per_s",
              Ratio(reads, median_of("workflow.load_reads") / 1e3), "rows/s");
  report->Set("workflow.load_alignments_rows_per_s",
              Ratio(alignments, median_of("workflow.load_alignments") / 1e3),
              "rows/s");
  report->Set("exec.execute_ms.q1", median_of("exec.execute.q1"), "ms");
  report->Set("exec.execute_ms.q2", median_of("exec.execute.q2"), "ms");
  const double parse_ms = median_of("sql.parse");
  report->Set("sql.parse_us", parse_ms * 1e3, "us");
  report->Set("sql.plan_us",
              std::max(0.0, median_of("sql.plan") - parse_ms) * 1e3, "us");
  const double stmts = static_cast<double>(p.queries);
  for (const std::string& kind : OperatorKinds()) {
    auto it = profile_.self_ms.find(kind);
    report->Set("exec.self_ms." + kind,
                it == profile_.self_ms.end() ? 0 : it->second / stmts, "ms");
  }
  report->Set("exec.worker_ms.parallel", profile_.worker_ms / stmts, "ms");
  report->Set("exec.morsel_steal_ratio",
              Ratio(Get(p.q1_counters, "exec.morsels.stolen"),
                    Get(p.q1_counters, "exec.morsels.dispatched")),
              "ratio");
  report->Set("exec.rows_per_batch",
              Ratio(Get(p.q1_counters, "exec.batch.rows"),
                    Get(p.q1_counters, "exec.batch.batches")),
              "rows");
  report->Set("threadpool.queue_depth_max",
              static_cast<double>(queue_depth_max_), "tasks");
  report->Set("exec.spill_bytes",
              static_cast<double>(Get(p.query_counters, "exec.spill.bytes")),
              "B");
  const double hits = Get(p.query_counters, "bufferpool.hit");
  const double misses = Get(p.query_counters, "bufferpool.miss");
  report->Set("bufferpool.hit_ratio", Ratio(hits, hits + misses), "ratio");
  report->Set("bufferpool.evictions_per_stmt",
              Ratio(Get(p.query_counters, "bufferpool.evict"), stmts),
              "count");
  report->Set("vfs.read_bytes_per_stmt",
              Ratio(Get(p.query_counters, "vfs.read.bytes"), stmts), "B");
  report->Set("btree.leaf_reads_per_stmt",
              Ratio(Get(p.query_counters, "btree.leaf.reads"), stmts),
              "count");
  report->Set("bufferpool.writebacks_per_lane",
              Ratio(Get(p.load_counters, "bufferpool.writeback"), p.lanes),
              "count");
  report->Set("vfs.write_bytes_per_user_byte",
              Ratio(Get(p.counters, "vfs.write.bytes"),
                    static_cast<double>(lane_.file_bytes) * p.lanes),
              "B/B");
  report->Set("storage.heap_scan_ns_per_row", scan_ns_per_row_.Median(),
              "ns/row");
  report->Set("storage.insert_ns_per_row", insert_ns_per_row_.Median(),
              "ns/row");
  report->Set("storage.bytes_per_row", Ratio(table_bytes_, table_rows_),
              "B/row");
  report->Set("mem.query_peak_mb",
              static_cast<double>(profile_.peak_mem_bytes) / (1 << 20), "MiB");
}

void DgeLane::Run() {
  if (!Setup()) return;
  Report* report = ctx_.report;
  setup_.Report(ctx_);
  {
    // Warm-up lane, not reported; it prints the plans it ran.
    Phase warm;
    print_plans_ = true;
    const bool ok = Cycle(&warm, false);
    print_plans_ = false;
    if (!ok) return;
  }
  // Untraced phase: the whole run, or its first half when tracing.
  const double budget = ctx_.opt.trace ? ctx_.opt.seconds / 2 : ctx_.opt.seconds;
  Phase plain;
  int64_t start = NowNs();
  while (plain.lanes < 2 || SecondsSince(start) < budget) {
    if (!Cycle(&plain, false)) return;
  }
  ReportPhase(plain, false);
  report->Set("bytes_per_user_byte",
              Ratio(table_bytes_, static_cast<double>(lane_.file_bytes)), "B/B");
  report->Named("bytes_per_user_byte",
                Ratio(table_bytes_, static_cast<double>(lane_.file_bytes)),
                "B/B");
  report->Fact("lane_table_bytes", static_cast<double>(table_bytes_));
  report->Fact("read_table_bytes", static_cast<double>(read_bytes_));
  if (!ctx_.opt.trace) return;

  Phase traced;
  start = NowNs();
  while (traced.lanes < 2 || SecondsSince(start) < budget) {
    if (!Cycle(&traced, true, /*probe=*/traced.lanes == 0)) return;
  }
  ReportPhase(traced, true);
  report->Set("trace.overhead_pct",
              100.0 * (traced.cycle_ms.Median() / plain.cycle_ms.Median() - 1),
              "%");
}

}  // namespace

void RunDgeLane(Context& ctx) {
  DgeLane workload(ctx);
  workload.Run();
}

}  // namespace htgbench
