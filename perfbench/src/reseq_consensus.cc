// reseq_consensus: the 1000-Genomes regime (nearly unique reads), ROW
// compression, tables clustered on the join keys (Read on r_id, Alignment
// on a_r_id) and on (a_g_id, a_pos) (AlignmentPos). One in-process caller
// runs a closed loop over paper Query 3 in three forms: the merge-join
// count, the sliding-window AssembleConsensus, and the CROSS APPLY
// PivotAlignment plan. The buffer pool holds at most half of the tables'
// bytes, so every form reads through pool misses and evictions.

#include <algorithm>

#include "genomics/nucleotide.h"
#include "lane.h"
#include "plan_profile.h"
#include "types/row_batch.h"
#include "workflow/loaders.h"
#include "workflow/schema.h"

namespace htgbench {
namespace {

const char kMergeJoin[] =
    "SELECT COUNT(*) FROM Alignment JOIN Read ON a_r_id = r_id";

const char kWindow[] =
    "SELECT a_g_id, AssembleConsensus(a_pos, seq, qual) AS consensus "
    "FROM AlignmentPos GROUP BY a_g_id";

// Reverse-strand reads contribute their reverse complement.
const char kPivot[] =
    "SELECT a_g_id, AssembleSequence(pos, b) AS consensus "
    "  FROM (SELECT a_g_id, pa.pos AS pos, CallBase(base, qual) AS b "
    "          FROM Alignment JOIN Read ON a_r_id = r_id "
    "         CROSS APPLY PivotAlignment("
    "             a_pos, "
    "             CASE WHEN a_strand = 1 THEN REVCOMP(short_read_seq) "
    "                  ELSE short_read_seq END, "
    "             CASE WHEN a_strand = 1 THEN REVERSE(quality) "
    "                  ELSE quality END) AS pa "
    "         GROUP BY a_g_id, pa.pos) t "
    " GROUP BY a_g_id";

const char kCreateAlignmentPos[] =
    "CREATE TABLE AlignmentPos ("
    "  a_g_id INT NOT NULL,"
    "  a_pos BIGINT NOT NULL,"
    "  seq VARCHAR(300) NOT NULL,"
    "  qual VARCHAR(300)"
    ") CLUSTER BY (a_g_id, a_pos) WITH (DATA_COMPRESSION = ROW)";

const char* const kTables[] = {"Read", "Alignment", "AlignmentPos"};

using Consensus = std::map<int64_t, std::string>;

Consensus ByChromosome(const std::vector<htg::Row>& rows) {
  Consensus out;
  for (const htg::Row& row : rows) out[row[0].AsInt64()] = row[1].AsString();
  return out;
}

struct Phase {
  Samples merge_ms, window_ms, pivot_ms, round_ms;
  uint64_t rounds = 0;
  Tally counters;        // all Query 3 statements
  Tally pivot_counters;  // the pivot plan only
};

class ReseqConsensus {
 public:
  explicit ReseqConsensus(Context& ctx) : ctx_(ctx) {}
  ~ReseqConsensus() { CloseDb(&db_); }
  ReseqConsensus(const ReseqConsensus&) = delete;
  ReseqConsensus& operator=(const ReseqConsensus&) = delete;

  void Run();

 private:
  bool Setup();
  bool Load();
  bool Round(Phase* phase, bool traced);
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
  Db db_;
  SetupTimes setup_;
  Tracer untraced_{false};
  PlanProfile profile_;
  size_t pool_bytes_ = 0;
  uint64_t table_bytes_ = 0, table_rows_ = 0;
  Consensus expected_;  // consensus of the first pivot run
  Samples scan_ns_per_row_;
};

bool ReseqConsensus::Load() {
  htg::Database* db = db_.db.get();
  Outcome* outcome = ctx_.outcome;
  htg::workflow::SchemaOptions schema;
  schema.compression = htg::storage::Compression::kRow;
  schema.clustered_join_keys = true;
  if (!outcome->Check(
          htg::workflow::CreateGenomicsSchema(db_.engine.get(), schema),
          "create schema") ||
      !outcome->Check(
          htg::workflow::LoadReads(db, "Read", lane_.reads, {1, 1, 1}).status(),
          "load reads") ||
      !outcome->Check(htg::workflow::LoadAlignments(db, "Alignment",
                                                    lane_.alignments, {1, 1, 1})
                          .status(),
                      "load alignments") ||
      !outcome->Check(db_.engine->Execute(kCreateAlignmentPos).status(),
                      "create AlignmentPos")) {
    return false;
  }
  // The right physical design for the sliding window: alignments in
  // (chromosome, position) order with the oriented sequence inline.
  auto table = db->GetTable("AlignmentPos");
  if (!outcome->Check(table.status(), "get AlignmentPos")) return false;
  for (const htg::genomics::Alignment& a : lane_.alignments) {
    const htg::genomics::ShortRead& r = lane_.reads[a.read_id];
    std::string seq = r.sequence;
    std::string qual = r.quality;
    if (a.reverse_strand) {
      seq = htg::genomics::ReverseComplement(seq);
      std::reverse(qual.begin(), qual.end());
    }
    const htg::Status inserted = db->InsertRow(
        *table, htg::Row{htg::Value::Int32(a.chromosome),
                         htg::Value::Int64(a.position),
                         htg::Value::String(std::move(seq)),
                         htg::Value::String(std::move(qual))});
    if (!inserted.ok()) return outcome->Check(inserted, "insert AlignmentPos");
  }
  outcome->Attempt();
  table_bytes_ = table_rows_ = 0;
  for (const char* name : kTables) {
    auto t = db->GetTable(name);
    if (!outcome->Check(t.status(), "get table")) return false;
    const htg::storage::StorageStats stats = (*t)->table->Stats();
    table_bytes_ += stats.data_bytes;
    table_rows_ += stats.rows;
  }
  return true;
}

bool ReseqConsensus::Setup() {
  const Options& opt = ctx_.opt;
  config_.seed = opt.seed;
  config_.dge = false;
  config_.chromosomes = 2;
  config_.reference_bases =
      std::max<uint64_t>(40'000, static_cast<uint64_t>(100'000 * opt.scale));
  constexpr int kCoverage = 12;
  config_.num_reads = config_.reference_bases * kCoverage / 36;
  for (int rep = 0; rep < SetupTimes::kRepeats; ++rep) {
    CloseDb(&db_);
    Tracer setup_tracer(true);
    const int64_t start = NowNs();
    lane_ = MakeLane(config_, &setup_tracer);
    // Size the pool from the lane: the reads' text (sequence and quality)
    // is stored twice, in Read and AlignmentPos, so the tables hold well
    // over twice the text and a pool of the text's size stays under half.
    uint64_t text = 0;
    for (const htg::genomics::ShortRead& r : lane_.reads) {
      text += r.sequence.size() + r.quality.size();
    }
    pool_bytes_ = std::max<size_t>(1 << 20, text);
    auto db = OpenDb(opt, "reseq", pool_bytes_);
    if (!ctx_.outcome->Check(db.status(), "open database")) return false;
    db_ = std::move(*db);
    if (!Load()) return false;
    setup_.total_s.Add(SecondsSince(start));
    setup_.AddGenomics(setup_tracer);
  }
  ctx_.outcome->Attempt();
  if (2 * pool_bytes_ > table_bytes_) {
    ctx_.outcome->Fail("buffer pool (" + std::to_string(pool_bytes_) +
                       " B) is more than half of the tables (" +
                       std::to_string(table_bytes_) + " B)");
  }
  Report* report = ctx_.report;
  report->Fact("reads", static_cast<double>(lane_.reads.size()));
  report->Fact("alignments", static_cast<double>(lane_.alignments.size()));
  report->Fact("lane_file_bytes", static_cast<double>(lane_.file_bytes));
  report->Fact("table_bytes", static_cast<double>(table_bytes_));
  report->Fact("buffer_pool_bytes", static_cast<double>(pool_bytes_));
  report->Fact("pool_over_tables", Ratio(pool_bytes_, table_bytes_));
  for (const char* sql : {kMergeJoin, kWindow, kPivot}) {
    auto plan = db_.engine->Explain(sql);
    printf("plan:\n%s\n", plan.ok() ? plan->c_str()
                                    : plan.status().ToString().c_str());
  }
  return true;
}

bool ReseqConsensus::Round(Phase* phase, bool traced) {
  Tracer* tracer = traced ? ctx_.tracer : &untraced_;
  Outcome* outcome = ctx_.outcome;
  const int64_t round_start = NowNs();
  ScopedSpan round_span(tracer, "q3.round", tracer->NextStmt());
  Counters counters;
  std::vector<htg::Row> rows;

  int64_t start = NowNs();
  if (!Select(kMergeJoin, "q3_merge_join", traced, &rows)) return false;
  phase->merge_ms.Add(SecondsSince(start) * 1e3);
  if (rows.size() != 1 ||
      rows[0][0].AsInt64() != static_cast<int64_t>(lane_.alignments.size())) {
    outcome->Fail("merge join count differs from the alignment count");
  }

  start = NowNs();
  if (!Select(kWindow, "q3_window", traced, &rows)) return false;
  phase->window_ms.Add(SecondsSince(start) * 1e3);
  const Consensus window = ByChromosome(rows);

  start = NowNs();
  {
    Counters pivot_counters;
    if (!Select(kPivot, "q3_pivot", traced, &rows)) return false;
    pivot_counters.AddTo(&phase->pivot_counters);
  }
  phase->pivot_ms.Add(SecondsSince(start) * 1e3);
  const Consensus pivot = ByChromosome(rows);
  if (expected_.empty()) expected_ = pivot;
  if (window != pivot) {
    outcome->Fail("sliding-window consensus differs from the pivot plan's");
  } else if (pivot != expected_ || pivot.empty()) {
    outcome->Fail("consensus changed between rounds");
  }

  counters.AddTo(&phase->counters);
  phase->rounds++;
  phase->round_ms.Add(SecondsSince(round_start) * 1e3);
  return true;
}

// Traced-only: clustered scans of AlignmentPos (TableStorage::NewScan +
// NextBatch drain) through the undersized pool.
void ReseqConsensus::Probes() {
  auto table = db_.db->GetTable("AlignmentPos");
  if (!ctx_.outcome->Check(table.status(), "get AlignmentPos")) return;
  for (int pass = 0; pass < 3; ++pass) {
    ctx_.outcome->Attempt();
    const int64_t start = NowNs();
    uint64_t rows = 0;
    {
      ScopedSpan span(ctx_.tracer, "storage.clustered_scan");
      std::unique_ptr<htg::storage::RowIterator> it = (*table)->table->NewScan();
      htg::RowBatch batch;
      while (it->NextBatch(&batch)) rows += batch.num_rows();
      if (!it->status().ok()) {
        ctx_.outcome->Fail("clustered scan: " + it->status().ToString());
      }
    }
    if (rows > 0) {
      scan_ns_per_row_.Add(static_cast<double>(NowNs() - start) /
                           static_cast<double>(rows));
    }
  }
}

void ReseqConsensus::ReportPhase(const Phase& p, bool traced) {
  Report* report = ctx_.report;
  if (!traced) {
    const double merge = p.merge_ms.Median();
    const double window = p.window_ms.Median();
    const double pivot = p.pivot_ms.Median();
    report->Set("stmt_latency_ms", GeoMean({merge, window, pivot}), "ms");
    // Throughput of the median round (three statements).
    const double stmts_per_s = Ratio(3, p.round_ms.Median() / 1e3);
    report->Set("stmts_per_s", stmts_per_s, "1/s");
    report->Named("q3_merge_join_ms", merge, "ms");
    report->Named("q3_window_ms", window, "ms");
    report->Named("q3_pivot_ms", pivot, "ms");
    report->Named("stmts_per_s", stmts_per_s, "1/s");
    report->Fact("rounds", static_cast<double>(p.rounds));
    report->Fact("round_ms_median", p.round_ms.Median());
    return;
  }
  auto median_of = [&](const std::string& name) {
    Samples s;
    for (double v : ctx_.tracer->DurationsMs(name)) s.Add(v);
    return s.Median();
  };
  for (const char* form : {"q3_merge_join", "q3_window", "q3_pivot"}) {
    report->Set(std::string("exec.execute_ms.") + form,
                median_of(std::string("exec.execute.") + form), "ms");
  }
  const double parse_ms = median_of("sql.parse");
  report->Set("sql.parse_us", parse_ms * 1e3, "us");
  report->Set("sql.plan_us",
              std::max(0.0, median_of("sql.plan") - parse_ms) * 1e3, "us");
  const double stmts = 3.0 * p.rounds;
  for (const std::string& kind : OperatorKinds()) {
    auto it = profile_.self_ms.find(kind);
    report->Set("exec.self_ms." + kind,
                it == profile_.self_ms.end() ? 0 : it->second / stmts, "ms");
  }
  report->Set("exec.worker_ms.parallel", profile_.worker_ms / stmts, "ms");
  report->Set("exec.rows_per_batch",
              Ratio(Get(p.counters, "exec.batch.rows"),
                    Get(p.counters, "exec.batch.batches")),
              "rows");
  report->Set("exec.spill_bytes",
              static_cast<double>(Get(p.counters, "exec.spill.bytes")), "B");
  const double hits = Get(p.counters, "bufferpool.hit");
  const double misses = Get(p.counters, "bufferpool.miss");
  report->Set("bufferpool.hit_ratio", Ratio(hits, hits + misses), "ratio");
  report->Set("bufferpool.evictions_per_stmt",
              Ratio(Get(p.counters, "bufferpool.evict"), stmts), "count");
  report->Set("vfs.read_bytes_per_stmt",
              Ratio(Get(p.counters, "vfs.read.bytes"), stmts), "B");
  report->Set("btree.leaf_reads_per_stmt",
              Ratio(Get(p.counters, "btree.leaf.reads"), stmts), "count");
  // Every row the CROSS APPLY emits came through the TVF's FillRow.
  report->Set("udf.fillrow_rows_per_stmt",
              Ratio(profile_.rows_out["cross_apply"], p.rounds), "rows");
  report->Set("udf.scalar_calls_per_row",
              Ratio(Get(p.pivot_counters, "udf.scalar.calls"),
                    static_cast<double>(lane_.alignments.size()) * p.rounds),
              "count");
  report->Set("storage.clustered_scan_ns_per_row", scan_ns_per_row_.Median(),
              "ns/row");
  report->Set("storage.bytes_per_row", Ratio(table_bytes_, table_rows_),
              "B/row");
  report->Set("mem.query_peak_mb",
              static_cast<double>(profile_.peak_mem_bytes) / (1 << 20), "MiB");
}

void ReseqConsensus::Run() {
  if (!Setup()) return;
  setup_.Report(ctx_);
  const double user_bytes = static_cast<double>(lane_.file_bytes);
  ctx_.report->Set("bytes_per_user_byte", Ratio(table_bytes_, user_bytes),
                   "B/B");
  ctx_.report->Named("bytes_per_user_byte", Ratio(table_bytes_, user_bytes),
                     "B/B");
  {
    Phase warm;  // warm-up round, not reported
    if (!Round(&warm, false)) return;
  }
  const double budget =
      ctx_.opt.trace ? ctx_.opt.seconds / 2 : ctx_.opt.seconds;
  Phase plain;
  int64_t start = NowNs();
  while (plain.rounds < 2 || SecondsSince(start) < budget) {
    if (!Round(&plain, false)) return;
  }
  ReportPhase(plain, false);
  if (!ctx_.opt.trace) return;

  Phase traced;
  start = NowNs();
  while (traced.rounds < 2 || SecondsSince(start) < budget) {
    if (!Round(&traced, true)) return;
  }
  Probes();
  ReportPhase(traced, true);
  ctx_.report->Set(
      "trace.overhead_pct",
      100.0 * (traced.round_ms.Median() / plain.round_ms.Median() - 1), "%");
}

}  // namespace

void RunReseqConsensus(Context& ctx) {
  ReseqConsensus workload(ctx);
  workload.Run();
}

}  // namespace htgbench
