// wire_mixed: an in-process htgdb-server on loopback with closed-loop
// server::Client connections (one per thread), each waiting for every
// reply. Each client round runs short reads over a table of a few
// thousand tags, ad hoc (Query) and prepared (Prepare/Execute), one
// autocommit single-row INSERT into a shared append-only table, and one
// Begin / k INSERTs / Commit transaction into the client's own
// append-only table. No read scans the append-only tables, so latency
// stays steady as they grow.
//
// The mix follows bench/bench_server.cc's mixed arm (three reader clients
// and one writer, each running the same number of statements): three read
// round trips per write round trip. With k = 3 a round has six write round
// trips (the autocommit INSERT, Begin, three INSERTs, Commit), so it runs
// eighteen reads, half ad hoc and half prepared.

#include <algorithm>
#include <atomic>
#include <latch>
#include <thread>

#include "lane.h"
#include "server/client.h"
#include "server/server.h"
#include "sql/parser.h"
#include "types/row_batch.h"
#include "workflow/loaders.h"
#include "workflow/schema.h"

namespace htgbench {
namespace {

constexpr size_t kTagRows = 3000;
constexpr int kTxnInserts = 3;
constexpr int kAdHocReads = 9;     // per round
constexpr int kPreparedReads = 9;  // per round
constexpr int kPrepared = 8;       // prepared statements per client
// Clients reconnect on fresh threads every slice, so one run samples
// several placements of client and session threads on the cores.
constexpr double kSliceSeconds = 2.0;

// Ad hoc read: thresholds rotate per round, so each text is parsed anew.
std::string AdHocRead(int64_t threshold) {
  return "SELECT COUNT(*), SUM(t_frequency) FROM Tag WHERE t_frequency >= " +
         std::to_string(threshold);
}

std::string PreparedRead(int64_t id) {
  return "SELECT t_seq, t_frequency FROM Tag WHERE t_id = " +
         std::to_string(id);
}

std::string TxnTable(int client) { return "txn_log_" + std::to_string(client); }

// Tag id (1-based rank) read by client c's i-th prepared statement.
int64_t PreparedId(int c, int i, size_t tags) {
  return 1 + (c * kPrepared + i) * 37 % static_cast<int64_t>(tags);
}

// Per-client measurements, merged after the clients join.
struct ClientStats {
  Samples read_adhoc_ms, read_prepared_ms, write_ms, commit_ms, round_ms;
  uint64_t statements = 0;
  uint64_t autocommit_inserts = 0;
  uint64_t txn_inserts = 0;
  int64_t loop_start_ns = 0, loop_end_ns = 0;
};

struct Phase {
  ClientStats all;
  // Statements per second of each slice.
  Samples slice_rates;
  Tally counters;
  htg::obs::HistogramSnapshot lock_wait;
  uint64_t commits = 0;
  // Largest mem.query.peak seen while a traced phase ran.
  int64_t query_peak_max = 0;
};

class WireMixed {
 public:
  explicit WireMixed(Context& ctx) : ctx_(ctx) {}
  ~WireMixed() { Teardown(); }
  WireMixed(const WireMixed&) = delete;
  WireMixed& operator=(const WireMixed&) = delete;

  void Run();

 private:
  bool Setup();
  void Teardown();
  bool RunPhase(Phase* phase, double seconds, bool traced);
  void ClientLoop(int client, double seconds, bool traced, std::latch* ready,
                  ClientStats* out);
  bool CheckVisible(const Phase& a, const Phase& b);
  void Probes();
  void ReportPhase(const Phase& phase, bool traced);

  Context& ctx_;
  Lane lane_;
  std::vector<htg::genomics::TagCount> tags_;  // the loaded top tags
  std::vector<int64_t> thresholds_;
  // Oracle of each threshold's ad hoc read: (COUNT(*), SUM(t_frequency)).
  std::vector<std::pair<int64_t, int64_t>> expected_;
  Db db_;
  std::unique_ptr<htg::server::Server> server_;
  std::vector<uint64_t> next_seq_;  // per client insert sequence
  SetupTimes setup_;
  Tracer untraced_{false};
  uint64_t tag_bytes_ = 0, tag_text_bytes_ = 0;
  Samples parse_us_, plan_us_, local_us_, wire_us_, scan_ns_per_row_,
      insert_ns_per_row_;
};

void WireMixed::Teardown() {
  if (server_ != nullptr) server_->Shutdown();
  server_.reset();
  CloseDb(&db_);
}

bool WireMixed::Setup() {
  const Options& opt = ctx_.opt;
  Outcome* outcome = ctx_.outcome;
  LaneConfig config;
  config.seed = opt.seed;
  config.reference_bases = 200'000;
  config.num_reads = std::max<uint64_t>(4000, static_cast<uint64_t>(20'000 * opt.scale));
  config.dge_genes = 1000;
  for (int rep = 0; rep < SetupTimes::kRepeats; ++rep) {
    Teardown();
    Tracer setup_tracer(true);
    const int64_t start = NowNs();
    lane_ = MakeLane(config, &setup_tracer);
    tags_.assign(lane_.tags.begin(),
                 lane_.tags.begin() + std::min(kTagRows, lane_.tags.size()));
    auto db = OpenDb(opt, "wire", 0);
    if (!outcome->Check(db.status(), "open database")) return false;
    db_ = std::move(*db);
    if (!outcome->Check(
            htg::workflow::CreateGenomicsSchema(db_.engine.get(), {}),
            "create schema") ||
        !outcome->Check(
            htg::workflow::LoadTags(db_.db.get(), "Tag", tags_, {1, 1, 1})
                .status(),
            "load tags") ||
        !outcome->Check(db_.engine
                            ->Execute("CREATE TABLE events (client INT, seq "
                                      "BIGINT, payload VARCHAR(64))")
                            .status(),
                        "create events")) {
      return false;
    }
    for (int c = 0; c < opt.threads; ++c) {
      if (!outcome->Check(db_.engine
                              ->Execute("CREATE TABLE " + TxnTable(c) +
                                        " (seq BIGINT, item INT, payload "
                                        "VARCHAR(64))")
                              .status(),
                          "create txn table")) {
        return false;
      }
    }
    htg::server::ServerOptions server_options;
    server_options.threads = 2 * opt.threads;
    server_ = std::make_unique<htg::server::Server>(db_.db.get(),
                                                    server_options);
    if (!outcome->Check(server_->Start(), "server start")) return false;
    next_seq_.assign(opt.threads, 0);
    setup_.total_s.Add(SecondsSince(start));
    setup_.AddGenomics(setup_tracer);
  }
  // Ad hoc thresholds: frequencies spread over the loaded tags.
  thresholds_.clear();
  expected_.clear();
  for (size_t i = 0; i < 16; ++i) {
    const int64_t threshold = tags_[i * (tags_.size() - 1) / 15].frequency;
    int64_t count = 0, sum = 0;
    for (const htg::genomics::TagCount& t : tags_) {
      if (t.frequency >= threshold) {
        count++;
        sum += t.frequency;
      }
    }
    thresholds_.push_back(threshold);
    expected_.emplace_back(count, sum);
  }
  auto tag = db_.db->GetTable("Tag");
  if (!outcome->Check(tag.status(), "get Tag")) return false;
  tag_bytes_ = (*tag)->table->Stats().data_bytes;
  tag_text_bytes_ = 0;
  for (const htg::genomics::TagCount& t : tags_) {
    tag_text_bytes_ += std::to_string(t.rank).size() +
                       std::to_string(t.frequency).size() + t.sequence.size() +
                       3;
  }
  Report* report = ctx_.report;
  report->Fact("clients", opt.threads);
  report->Fact("tag_rows", static_cast<double>(tags_.size()));
  report->Fact("tag_table_bytes", static_cast<double>(tag_bytes_));
  report->Fact("buffer_pool_bytes",
               static_cast<double>(db_.db->buffer_pool()->capacity_bytes()));
  report->Fact("txn_inserts_per_commit", kTxnInserts);
  return true;
}

void WireMixed::ClientLoop(int c, double seconds, bool traced,
                           std::latch* ready, ClientStats* out) {
  Tracer* tracer = traced ? ctx_.tracer : &untraced_;
  Outcome* outcome = ctx_.outcome;
  // Connect and prepare untimed, then start together.
  auto connected = htg::server::Client::Connect(server_->port(), "htgbench");
  std::vector<uint64_t> prepared;
  bool ok = outcome->Check(connected.status(), "connect");
  for (int i = 0; ok && i < kPrepared; ++i) {
    auto stmt =
        (*connected)->Prepare(PreparedRead(PreparedId(c, i, tags_.size())));
    ok = outcome->Check(stmt.status(), "prepare");
    if (ok) prepared.push_back(*stmt);
  }
  ready->arrive_and_wait();
  if (!ok) return;
  htg::server::Client* client = connected->get();
  const int64_t start = NowNs();
  out->loop_start_ns = start;
  uint64_t round = 0;
  auto timed = [&](Samples* samples, const char* span, auto&& call) {
    const int64_t t0 = NowNs();
    bool ok = false;
    {
      ScopedSpan s(tracer, span);
      ok = call();
    }
    samples->Add(static_cast<double>(NowNs() - t0) * 1e-6);
    out->statements++;
    return ok;
  };
  while (SecondsSince(start) < seconds) {
    const int64_t round_start = NowNs();
    ScopedSpan round_span(tracer, "wire.round", tracer->NextStmt());
    for (int i = 0; i < kAdHocReads && ok; ++i) {
      const size_t which = (round * kAdHocReads + i + c) % thresholds_.size();
      ok = timed(&out->read_adhoc_ms, "server.query", [&] {
        auto r = client->Query(AdHocRead(thresholds_[which]));
        if (!outcome->Check(r.status(), "ad hoc read")) return false;
        const auto [count, sum] = expected_[which];
        if (r->rows.size() != 1 || r->rows[0][0].AsInt64() != count ||
            (count > 0 && r->rows[0][1].AsInt64() != sum)) {
          outcome->Fail("ad hoc read returned unexpected rows");
        }
        return true;
      });
    }
    for (int i = 0; i < kPreparedReads && ok; ++i) {
      const size_t which = (round * kPreparedReads + i) % prepared.size();
      ok = timed(&out->read_prepared_ms, "server.execute", [&] {
        auto r = client->Execute(prepared[which]);
        if (!outcome->Check(r.status(), "prepared read")) return false;
        const htg::genomics::TagCount& t =
            tags_[PreparedId(c, static_cast<int>(which), tags_.size()) - 1];
        if (r->rows.size() != 1 || r->rows[0][0].AsString() != t.sequence ||
            r->rows[0][1].AsInt64() != t.frequency) {
          outcome->Fail("prepared read returned unexpected rows");
        }
        return true;
      });
    }
    // One autocommit INSERT into the shared append-only table.
    if (ok) {
      const uint64_t seq = next_seq_[c]++;
      ok = timed(&out->write_ms, "server.insert", [&] {
        auto r = client->Query("INSERT INTO events VALUES (" +
                               std::to_string(c) + ", " + std::to_string(seq) +
                               ", 'payload-" + std::to_string(seq) + "')");
        if (!outcome->Check(r.status(), "autocommit insert")) return false;
        out->autocommit_inserts++;
        return true;
      });
    }
    // Begin, k INSERTs, Commit into the client's own append-only table.
    if (ok) {
      Samples begin_ms;
      ok = timed(&begin_ms, "txn.begin", [&] {
        return outcome->Check(client->Begin(), "begin");
      });
      for (int i = 0; i < kTxnInserts && ok; ++i) {
        const uint64_t seq = next_seq_[c]++;
        ok = timed(&out->write_ms, "server.insert", [&] {
          auto r = client->Query("INSERT INTO " + TxnTable(c) + " VALUES (" +
                                 std::to_string(seq) + ", " +
                                 std::to_string(i) + ", 'item')");
          return outcome->Check(r.status(), "txn insert");
        });
      }
      if (ok) {
        ok = timed(&out->commit_ms, "txn.commit", [&] {
          return outcome->Check(client->Commit(), "commit");
        });
        if (ok) out->txn_inserts += kTxnInserts;
      } else {
        HTG_IGNORE_STATUS(client->Abort());
      }
    }
    out->round_ms.Add(static_cast<double>(NowNs() - round_start) * 1e-6);
    if (!ok) break;
    round++;
  }
  out->loop_end_ns = NowNs();
  client->Goodbye();
}

bool WireMixed::RunPhase(Phase* phase, double seconds, bool traced) {
  Counters counters;
  const int n = ctx_.opt.threads;
  std::vector<ClientStats> stats;
  // mem.query.peak is a gauge each statement sets; poll it while the
  // traced clients run and keep the largest value.
  std::atomic<bool> sampling{traced};
  std::thread sampler;
  if (traced) {
    htg::obs::Gauge* peak =
        htg::obs::MetricsRegistry::Global().GetGauge("mem.query.peak");
    sampler = std::thread([peak, phase, &sampling] {
      while (sampling.load(std::memory_order_relaxed)) {
        phase->query_peak_max = std::max(phase->query_peak_max, peak->Value());
        std::this_thread::sleep_for(std::chrono::microseconds(200));
      }
    });
  }
  for (double left = seconds; left > 1e-3; left -= kSliceSeconds) {
    const double slice = std::min(left, kSliceSeconds);
    std::vector<ClientStats> slice_stats(n);
    std::latch ready(n);
    std::vector<std::thread> threads;
    for (int c = 0; c < n; ++c) {
      threads.emplace_back([this, c, slice, traced, &ready, &slice_stats] {
        ClientLoop(c, slice, traced, &ready, &slice_stats[c]);
      });
    }
    for (std::thread& t : threads) t.join();
    int64_t first = INT64_MAX, last = 0;
    for (const ClientStats& s : slice_stats) {
      if (s.loop_end_ns == 0) {  // the client failed to start
        sampling.store(false);
        if (sampler.joinable()) sampler.join();
        return false;
      }
      first = std::min(first, s.loop_start_ns);
      last = std::max(last, s.loop_end_ns);
    }
    uint64_t statements = 0;
    for (const ClientStats& s : slice_stats) statements += s.statements;
    phase->slice_rates.Add(
        Ratio(statements, static_cast<double>(last - first) * 1e-9));
    stats.insert(stats.end(), slice_stats.begin(), slice_stats.end());
  }
  sampling.store(false);
  if (sampler.joinable()) sampler.join();
  for (const ClientStats& s : stats) {
    phase->all.read_adhoc_ms.Append(s.read_adhoc_ms);
    phase->all.read_prepared_ms.Append(s.read_prepared_ms);
    phase->all.write_ms.Append(s.write_ms);
    phase->all.commit_ms.Append(s.commit_ms);
    phase->all.round_ms.Append(s.round_ms);
    phase->all.statements += s.statements;
    phase->all.autocommit_inserts += s.autocommit_inserts;
    phase->all.txn_inserts += s.txn_inserts;
  }
  phase->commits = phase->all.commit_ms.size();
  counters.AddTo(&phase->counters);
  phase->lock_wait = counters.HistogramDelta("server.lock.wait_ns");
  return true;
}

// Every acknowledged INSERT is visible afterwards.
bool WireMixed::CheckVisible(const Phase& a, const Phase& b) {
  Outcome* outcome = ctx_.outcome;
  auto connected = htg::server::Client::Connect(server_->port(), "htgbench");
  if (!outcome->Check(connected.status(), "connect")) return false;
  htg::server::Client* client = connected->get();
  auto count = [&](const std::string& table) -> int64_t {
    auto r = client->Query("SELECT COUNT(*) FROM " + table);
    if (!outcome->Check(r.status(), "count")) return -1;
    return r->rows.empty() ? -1 : r->rows[0][0].AsInt64();
  };
  const int64_t events = count("events");
  if (events != static_cast<int64_t>(a.all.autocommit_inserts +
                                     b.all.autocommit_inserts)) {
    outcome->Fail("events holds " + std::to_string(events) +
                  " rows, clients committed " +
                  std::to_string(a.all.autocommit_inserts +
                                 b.all.autocommit_inserts));
    return false;
  }
  int64_t txn_rows = 0;
  for (int c = 0; c < ctx_.opt.threads; ++c) txn_rows += count(TxnTable(c));
  if (txn_rows != static_cast<int64_t>(a.all.txn_inserts + b.all.txn_inserts)) {
    outcome->Fail("transaction tables hold " + std::to_string(txn_rows) +
                  " rows, clients committed " +
                  std::to_string(a.all.txn_inserts + b.all.txn_inserts));
    return false;
  }
  return true;
}

// Traced-only probes, run serially after the clients stop: the ad hoc
// read in process (parse, plan, SqlEngine::Execute) against the same
// statement over the wire, a heap scan of Tag, and Database::InsertRow
// into a scratch table.
void WireMixed::Probes() {
  Outcome* outcome = ctx_.outcome;
  Tracer* tracer = ctx_.tracer;
  htg::sql::SqlEngine* engine = server_->engine();
  auto connected = htg::server::Client::Connect(server_->port(), "htgbench");
  if (!outcome->Check(connected.status(), "connect")) return;
  htg::server::Client* client = connected->get();
  constexpr int kReps = 200;
  for (int i = 0; i < kReps; ++i) {
    const std::string sql = AdHocRead(thresholds_[i % thresholds_.size()]);
    const uint64_t stmt = tracer->NextStmt();
    int64_t t0 = NowNs();
    {
      ScopedSpan span(tracer, "sql.parse", stmt);
      outcome->Check(htg::sql::ParseSql(sql).status(), "parse");
    }
    const double parse_us = static_cast<double>(NowNs() - t0) * 1e-3;
    t0 = NowNs();
    {
      ScopedSpan span(tracer, "sql.plan", stmt);
      outcome->Check(engine->Plan(sql).status(), "plan");
    }
    parse_us_.Add(parse_us);
    plan_us_.Add(std::max(0.0, static_cast<double>(NowNs() - t0) * 1e-3 -
                                   parse_us));
    t0 = NowNs();
    {
      ScopedSpan span(tracer, "sql.execute_local", stmt);
      outcome->Check(engine->Execute(sql).status(), "local execute");
    }
    local_us_.Add(static_cast<double>(NowNs() - t0) * 1e-3);
    t0 = NowNs();
    {
      ScopedSpan span(tracer, "server.query", stmt);
      outcome->Check(client->Query(sql).status(), "wire query");
    }
    wire_us_.Add(static_cast<double>(NowNs() - t0) * 1e-3);
  }
  auto tag = db_.db->GetTable("Tag");
  if (outcome->Check(tag.status(), "get Tag")) {
    for (int pass = 0; pass < 20; ++pass) {
      const int64_t t0 = NowNs();
      uint64_t rows = 0;
      {
        ScopedSpan span(tracer, "storage.heap_scan");
        std::unique_ptr<htg::storage::RowIterator> it =
            (*tag)->table->NewScan();
        htg::RowBatch batch;
        while (it->NextBatch(&batch)) rows += batch.num_rows();
      }
      if (rows > 0) {
        scan_ns_per_row_.Add(static_cast<double>(NowNs() - t0) /
                             static_cast<double>(rows));
      }
    }
  }
  if (!outcome->Check(db_.engine
                          ->Execute("CREATE TABLE insert_probe (client INT, "
                                    "seq BIGINT, payload VARCHAR(64))")
                          .status(),
                      "create insert_probe")) {
    return;
  }
  auto probe = db_.db->GetTable("insert_probe");
  if (!outcome->Check(probe.status(), "get insert_probe")) return;
  constexpr int kRows = 2000;
  const int64_t t0 = NowNs();
  {
    ScopedSpan span(tracer, "storage.insert");
    for (int i = 0; i < kRows; ++i) {
      const htg::Status inserted = db_.db->InsertRow(
          *probe, htg::Row{htg::Value::Int32(0), htg::Value::Int64(i),
                           htg::Value::String("payload-" + std::to_string(i))});
      if (!outcome->Check(inserted, "insert probe")) return;
    }
  }
  insert_ns_per_row_.Add(static_cast<double>(NowNs() - t0) / kRows);
}

void WireMixed::ReportPhase(const Phase& p, bool traced) {
  Report* report = ctx_.report;
  const ClientStats& s = p.all;
  if (!traced) {
    Samples reads = s.read_adhoc_ms;
    reads.Append(s.read_prepared_ms);
    Samples commits = s.write_ms;
    commits.Append(s.commit_ms);
    double read_pct = 0, commit_pct = 0;
    const double read_tail = reads.Tail(&read_pct);
    const double commit_tail = commits.Tail(&commit_pct);
    report->Set("stmt_latency_ms",
                GeoMean({s.read_adhoc_ms.Median(), s.read_prepared_ms.Median(),
                         s.write_ms.Median(), s.commit_ms.Median()}),
                "ms");
    report->Set("stmts_per_s", p.slice_rates.Median(), "1/s");
    report->Named("read_p50_ms", reads.Median(), "ms");
    report->Named("read_tail_ms", read_tail, "ms");
    report->Named("commit_p50_ms", commits.Median(), "ms");
    report->Named("commit_tail_ms", commit_tail, "ms");
    report->Named("stmts_per_s", p.slice_rates.Median(), "1/s");
    report->Fact("read_samples", static_cast<double>(reads.size()));
    report->Fact("read_tail_percentile", read_pct);
    report->Fact("commit_samples", static_cast<double>(commits.size()));
    report->Fact("commit_tail_percentile", commit_pct);
    report->Fact("read_adhoc_p50_ms", s.read_adhoc_ms.Median());
    report->Fact("read_prepared_p50_ms", s.read_prepared_ms.Median());
    report->Fact("write_p50_ms", s.write_ms.Median());
    report->Fact("commit_only_p50_ms", s.commit_ms.Median());
    return;
  }
  const double stmts = static_cast<double>(s.statements);
  const double committed = Get(p.counters, "txn.committed");
  report->Set("server.overhead_us", wire_us_.Median() - local_us_.Median(),
              "us");
  report->Set("server.lock_wait_p99_us",
              static_cast<double>(p.lock_wait.Percentile(0.99)) / 1e3, "us");
  report->Set("server.retries_per_stmt",
              Ratio(Get(p.counters, "server.statement.retries"), stmts),
              "count");
  report->Set("txn.commit_us", s.commit_ms.Median() * 1e3, "us");
  report->Set("mvcc.gc_sweeps_per_1k_txn",
              1000 * Ratio(Get(p.counters, "mvcc.gc.sweeps"), committed),
              "count");
  report->Set("mvcc.gc_entries_removed",
              static_cast<double>(Get(p.counters, "mvcc.gc.entries_removed")),
              "count");
  report->Set("vfs.syncs_per_commit",
              Ratio(Get(p.counters, "vfs.sync.ops"), p.commits), "count");
  report->Set("sql.parse_us", parse_us_.Median(), "us");
  report->Set("sql.plan_us", plan_us_.Median(), "us");
  report->Set("storage.heap_scan_ns_per_row", scan_ns_per_row_.Median(),
              "ns/row");
  report->Set("storage.insert_ns_per_row", insert_ns_per_row_.Median(),
              "ns/row");
  const double hits = Get(p.counters, "bufferpool.hit");
  const double misses = Get(p.counters, "bufferpool.miss");
  report->Set("bufferpool.hit_ratio", Ratio(hits, hits + misses), "ratio");
  report->Set("bufferpool.evictions_per_stmt",
              Ratio(Get(p.counters, "bufferpool.evict"), stmts), "count");
  report->Set("exec.rows_per_batch",
              Ratio(Get(p.counters, "exec.batch.rows"),
                    Get(p.counters, "exec.batch.batches")),
              "rows");
  report->Set("storage.bytes_per_row",
              Ratio(tag_bytes_, static_cast<double>(tags_.size())), "B/row");
  report->Set("mem.query_peak_mb",
              static_cast<double>(p.query_peak_max) / (1 << 20), "MiB");
}

void WireMixed::Run() {
  if (!Setup()) return;
  setup_.Report(ctx_);
  ctx_.report->Set("bytes_per_user_byte", Ratio(tag_bytes_, tag_text_bytes_),
                   "B/B");
  ctx_.report->Named("bytes_per_user_byte",
                     Ratio(tag_bytes_, tag_text_bytes_), "B/B");
  Phase warm;  // warm-up, not reported
  if (!RunPhase(&warm, 0.5, false)) return;
  const double budget =
      ctx_.opt.trace ? ctx_.opt.seconds / 2 : ctx_.opt.seconds;
  Phase plain;
  if (!RunPhase(&plain, budget, false)) return;
  ReportPhase(plain, false);
  Phase traced;
  if (ctx_.opt.trace) {
    if (!RunPhase(&traced, budget, true)) return;
    ctx_.report->Set(
        "trace.overhead_pct",
        100.0 * (traced.all.round_ms.Median() / plain.all.round_ms.Median() - 1),
        "%");
  }
  // Visibility covers every phase's acknowledged writes.
  Phase all_writes = warm;
  all_writes.all.autocommit_inserts += traced.all.autocommit_inserts;
  all_writes.all.txn_inserts += traced.all.txn_inserts;
  CheckVisible(all_writes, plain);
  if (ctx_.opt.trace) {
    Probes();
    ReportPhase(traced, true);
  }
}

}  // namespace

void RunWireMixed(Context& ctx) {
  WireMixed workload(ctx);
  workload.Run();
}

}  // namespace htgbench
