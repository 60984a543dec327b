// Memory governance and spill-to-disk degradation: parity between
// in-memory and forced-spill execution for sort / hash aggregate /
// DISTINCT / hash join (serial and DOP-8 parallel aggregation; inner and
// left-outer joins over NULL and unmatched keys; recursive join
// partitions), typed kResourceExhausted failures when spilling is
// unavailable, repartitioning hits the depth limit, or a nested-loop
// join's inner side outgrows the budget (before it is read to its end),
// EXPLAIN ANALYZE spill reporting, and fault injection into the
// aggregate's and the join's spill writes through the Vfs seam (ENOSPC,
// torn write, transient EIO) — after which the session keeps working and
// no orphan spill files remain.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "sql/engine.h"
#include "storage/fault_injection.h"
#include "storage/heap_table.h"
#include "storage/vfs.h"
#include "udf/function.h"

namespace htg::sql {
namespace {

constexpr int kRows = 12000;   // above parallel_threshold (10000)
constexpr int kGroups = 500;   // distinct aggregation keys
constexpr int kDimRows = 2000; // join build side (4 rows per key)
constexpr int64_t kTinyBudget = 64 * 1024;  // forces multi-run spills

std::string PayloadFor(int i) {
  // 32 deterministic chars so each row carries real bytes.
  std::string s;
  s.reserve(32);
  uint64_t x = 0x9e3779b97f4a7c15ULL * static_cast<uint64_t>(i + 1);
  for (int c = 0; c < 32; ++c) {
    x ^= x >> 12;
    x ^= x << 25;
    x ^= x >> 27;
    s.push_back(static_cast<char>('a' + (x * 0x2545F4914F6CDD1DULL >> 59) % 26));
  }
  return s;
}

// Opens a database with the given memory governance settings and loads
// the deterministic fact table t and dimension table u.
std::unique_ptr<Database> OpenLoaded(const std::string& tag,
                                     int64_t query_mem_bytes,
                                     bool enable_spill, int max_dop,
                                     storage::Vfs* vfs = nullptr) {
  DatabaseOptions options;
  options.filestream_root = "/tmp/htg_spill_test_" + tag;
  std::filesystem::remove_all(options.filestream_root);
  options.query_mem_bytes = query_mem_bytes;
  options.enable_spill = enable_spill;
  options.max_dop = max_dop;
  if (vfs != nullptr) options.filestream_options.vfs = vfs;
  auto db = Database::Open("spill_" + tag, options);
  EXPECT_TRUE(db.ok()) << db.status().ToString();
  if (!db.ok()) return nullptr;
  SqlEngine engine(db->get());
  EXPECT_TRUE(engine
                  .Execute("CREATE TABLE t (k INT, v BIGINT, s VARCHAR(64))")
                  .ok());
  EXPECT_TRUE(engine.Execute("CREATE TABLE u (k INT, w BIGINT)").ok());
  catalog::TableDef* t = *(*db)->GetTable("t");
  for (int i = 0; i < kRows; ++i) {
    const Status s = (*db)->InsertRow(
        t, Row{Value::Int32(i % kGroups), Value::Int64(i),
               Value::String(PayloadFor(i))});
    EXPECT_TRUE(s.ok()) << s.ToString();
  }
  catalog::TableDef* u = *(*db)->GetTable("u");
  for (int i = 0; i < kDimRows; ++i) {
    const Status s = (*db)->InsertRow(
        u, Row{Value::Int32(i % kGroups), Value::Int64(i * 10)});
    EXPECT_TRUE(s.ok()) << s.ToString();
  }
  return std::move(*db);
}

std::vector<std::string> RowStrings(const QueryResult& r) {
  std::vector<std::string> out;
  out.reserve(r.rows.size());
  for (const Row& row : r.rows) {
    std::string line;
    for (const Value& v : row) {
      line += v.is_null() ? std::string("<null>") : v.ToString();
      line += '|';
    }
    out.push_back(std::move(line));
  }
  return out;
}

uint64_t SpillRunsCounter() {
  const obs::MetricsSnapshot snap = obs::MetricsRegistry::Global().Snapshot();
  const auto it = snap.counters.find("exec.spill.runs");
  return it == snap.counters.end() ? 0 : it->second;
}

// Runs `sql` on both databases and asserts identical result multisets
// (and identical order when `ordered`); asserts the tiny-budget run
// actually spilled.
void ExpectParity(SqlEngine* reference, SqlEngine* tiny,
                  const std::string& sql, bool ordered) {
  Result<QueryResult> expect = reference->Execute(sql);
  ASSERT_TRUE(expect.ok()) << sql << "\n--> " << expect.status().ToString();
  const uint64_t runs_before = SpillRunsCounter();
  Result<QueryResult> got = tiny->Execute(sql);
  ASSERT_TRUE(got.ok()) << sql << "\n--> " << got.status().ToString();
  EXPECT_GT(SpillRunsCounter(), runs_before)
      << "tiny-budget run did not spill: " << sql;
  std::vector<std::string> want = RowStrings(*expect);
  std::vector<std::string> have = RowStrings(*got);
  ASSERT_EQ(want.size(), have.size()) << sql;
  if (!ordered) {
    std::sort(want.begin(), want.end());
    std::sort(have.begin(), have.end());
  }
  EXPECT_EQ(want, have) << sql;
}

TEST(SpillParityTest, ExternalSortMatchesInMemorySort) {
  auto ref = OpenLoaded("sortref", 0, true, 4);
  auto tiny = OpenLoaded("sorttiny", kTinyBudget, true, 4);
  ASSERT_NE(ref, nullptr);
  ASSERT_NE(tiny, nullptr);
  SqlEngine ref_engine(ref.get());
  SqlEngine tiny_engine(tiny.get());
  ExpectParity(&ref_engine, &tiny_engine,
               "SELECT k, v, s FROM t ORDER BY v DESC", /*ordered=*/true);
  ExpectParity(&ref_engine, &tiny_engine,
               "SELECT s, v FROM t ORDER BY s, v", /*ordered=*/true);
}

TEST(SpillParityTest, SpilledAggregateMatchesInMemoryAggregate) {
  auto ref = OpenLoaded("aggref", 0, true, 1);
  auto tiny = OpenLoaded("aggtiny", kTinyBudget, true, 1);
  ASSERT_NE(ref, nullptr);
  ASSERT_NE(tiny, nullptr);
  SqlEngine ref_engine(ref.get());
  SqlEngine tiny_engine(tiny.get());
  ExpectParity(&ref_engine, &tiny_engine,
               "SELECT k, COUNT(*), SUM(v), MIN(s), MAX(s) FROM t GROUP BY k",
               /*ordered=*/false);
  ExpectParity(&ref_engine, &tiny_engine,
               "SELECT s, COUNT(*) FROM t GROUP BY s", /*ordered=*/false);
  ExpectParity(&ref_engine, &tiny_engine, "SELECT DISTINCT s, k FROM t",
               /*ordered=*/false);
}

TEST(SpillParityTest, ParallelAggregateSpillsAtDop8) {
  auto ref = OpenLoaded("pagref", 0, true, 8);
  auto tiny = OpenLoaded("pagtiny", kTinyBudget, true, 8);
  ASSERT_NE(ref, nullptr);
  ASSERT_NE(tiny, nullptr);
  SqlEngine ref_engine(ref.get());
  SqlEngine tiny_engine(tiny.get());
  ExpectParity(&ref_engine, &tiny_engine,
               "SELECT k, COUNT(*), SUM(v), MIN(s) FROM t GROUP BY k",
               /*ordered=*/false);
}

// Spill runs in a statement's EXPLAIN ANALYZE summary line.
uint64_t ExplainedSpillRuns(SqlEngine* engine, const std::string& sql) {
  Result<QueryResult> r = engine->Execute("EXPLAIN ANALYZE " + sql);
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  if (!r.ok()) return 0;
  const size_t at = r->message.rfind("spill runs=");
  EXPECT_NE(at, std::string::npos) << r->message;
  if (at == std::string::npos) return 0;
  return std::strtoull(r->message.c_str() + at + 11, nullptr, 10);
}

TEST(SpillParityTest, DistinctSetsCountAgainstTheBudget) {
  // 120 groups arriving one after another, each collecting 100 distinct
  // 32-character strings: the groups themselves fit the budget, their
  // DISTINCT sets do not. The sets' bytes are charged as they grow, so
  // later keys spill instead of the table growing past the budget.
  const std::string sql =
      "SELECT v / 100, COUNT(DISTINCT s), SUM(DISTINCT k) FROM t "
      "GROUP BY v / 100";
  for (int dop : {1, 8}) {
    SCOPED_TRACE(dop);
    auto ref = OpenLoaded("dsref" + std::to_string(dop), 0, true, dop);
    auto tiny =
        OpenLoaded("dstiny" + std::to_string(dop), kTinyBudget, true, dop);
    ASSERT_NE(ref, nullptr);
    ASSERT_NE(tiny, nullptr);
    SqlEngine ref_engine(ref.get());
    SqlEngine tiny_engine(tiny.get());
    ExpectParity(&ref_engine, &tiny_engine, sql, /*ordered=*/false);
    EXPECT_GT(ExplainedSpillRuns(&tiny_engine, sql), 0u);
  }
}

// A UDA whose state owns heap memory and counts its constructions and
// destructions, so a test can see that every state the engine creates is
// destroyed exactly once. Accumulating -1 fails.
struct TrackedState {
  static inline std::atomic<int64_t> constructed{0};
  static inline std::atomic<int64_t> destroyed{0};

  std::unique_ptr<int64_t> sum = std::make_unique<int64_t>(0);

  TrackedState() { constructed.fetch_add(1); }
  ~TrackedState() { destroyed.fetch_add(1); }
  TrackedState(const TrackedState&) = delete;
  TrackedState& operator=(const TrackedState&) = delete;

  template <class Args>
  Status Accumulate(const Args& args) {
    if (args[0].AsInt64() == -1) return Status::ExecError("poisoned row");
    *sum += args[0].AsInt64();
    return Status::OK();
  }
  Status Merge(TrackedState& other) {
    *sum += *other.sum;
    return Status::OK();
  }
  Result<Value> Terminate() { return Value::Int64(*sum); }
};

class TrackedSum : public udf::TypedAggregate<TrackedState> {
 public:
  std::string_view name() const override { return "TrackedSum"; }
  int min_args() const override { return 1; }
  int max_args() const override { return 1; }
  DataType result_type(const std::vector<DataType>&) const override {
    return DataType::kInt64;
  }
};

TEST(AggregateStateLifetimeTest, EveryStateIsDestroyedOnce) {
  struct Path {
    const char* name;
    int64_t budget;
    int dop;
    const char* sql;
    bool ok;
    int64_t states;  // states the path creates; -1 when not fixed
  };
  const Path paths[] = {
      {"finalize", 0, 1, "SELECT k, TrackedSum(v) FROM t GROUP BY k", true,
       kGroups},
      {"accumulate error", 0, 1,
       "SELECT k, TrackedSum(CASE WHEN v = 5000 THEN -1 ELSE v END) FROM t "
       "GROUP BY k",
       false, -1},
      {"spilled build", kTinyBudget, 1,
       "SELECT s, TrackedSum(v) FROM t GROUP BY s", true, -1},
      {"partitioned merge", 0, 8, "SELECT k, TrackedSum(v) FROM t GROUP BY k",
       true, -1},
      {"empty global", 0, 1, "SELECT TrackedSum(v) FROM t WHERE k < 0", true,
       1},
  };
  int64_t expected_sum = 0;
  for (int i = 0; i < kRows; ++i) expected_sum += i;
  for (const Path& path : paths) {
    SCOPED_TRACE(path.name);
    auto db = OpenLoaded("lifetime", path.budget, true, path.dop);
    ASSERT_NE(db, nullptr);
    ASSERT_TRUE(
        db->functions()->RegisterAggregate(std::make_unique<TrackedSum>())
            .ok());
    SqlEngine engine(db.get());
    const int64_t constructed = TrackedState::constructed.load();
    const int64_t destroyed = TrackedState::destroyed.load();
    const uint64_t runs_before = SpillRunsCounter();
    Result<QueryResult> r = engine.Execute(path.sql);
    ASSERT_EQ(r.ok(), path.ok) << r.status().ToString();
    const int64_t created = TrackedState::constructed.load() - constructed;
    EXPECT_GT(created, 0);
    EXPECT_EQ(TrackedState::destroyed.load() - destroyed, created);
    if (path.states >= 0) {
      EXPECT_EQ(created, path.states);
    }
    if (path.budget > 0) {
      EXPECT_GT(SpillRunsCounter(), runs_before);
    }
    if (path.dop > 1) {
      Result<QueryResult> plan =
          engine.Execute(std::string("EXPLAIN ") + path.sql);
      ASSERT_TRUE(plan.ok());
      EXPECT_NE(plan->message.find("Gather Streams"), std::string::npos);
    }
    if (r.ok() && path.states != 1) {
      int64_t sum = 0;
      for (const Row& row : r->rows) sum += row[1].AsInt64();
      EXPECT_EQ(sum, expected_sum);
    }
  }
}

TEST(SpillParityTest, GraceHashJoinMatchesInMemoryJoin) {
  auto ref = OpenLoaded("joinref", 0, true, 1);
  auto tiny = OpenLoaded("jointiny", kTinyBudget, true, 1);
  ASSERT_NE(ref, nullptr);
  ASSERT_NE(tiny, nullptr);
  SqlEngine ref_engine(ref.get());
  SqlEngine tiny_engine(tiny.get());
  ExpectParity(&ref_engine, &tiny_engine,
               "SELECT t.v, u.w FROM t JOIN u ON t.k = u.k WHERE u.w < 2000",
               /*ordered=*/false);
}

// True when a spill file is left in the tablespace directory under
// `root`.
bool AnySpillFilesLeft(const std::string& root) {
  const std::filesystem::path dir = root + "/tablespace";
  if (!std::filesystem::exists(dir)) return false;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().filename().string().rfind("spill", 0) == 0) return true;
  }
  return false;
}

// Loads table n into `db`: NULL join keys (every key divisible by 5),
// and non-NULL keys 500..799 that no row of u carries. Joined with u on
// either side, it gives NULL-keyed rows on the probe and the build side
// and probe rows with no build match.
void LoadNullKeyed(Database* db) {
  SqlEngine engine(db);
  ASSERT_TRUE(
      engine.Execute("CREATE TABLE n (k INT, v BIGINT, s VARCHAR(64))").ok());
  catalog::TableDef* n = *db->GetTable("n");
  for (int i = 0; i < 3000; ++i) {
    const int k = i % 800;
    const Status s = db->InsertRow(
        n, Row{k % 5 == 0 ? Value::Null() : Value::Int32(k), Value::Int64(i),
               Value::String(PayloadFor(i))});
    ASSERT_TRUE(s.ok()) << s.ToString();
  }
}

TEST(SpillParityTest, SpilledLeftOuterJoinWithNullKeysMatchesInMemoryJoin) {
  auto ref = OpenLoaded("nullref", 0, true, 1);
  auto tiny = OpenLoaded("nulltiny", kTinyBudget, true, 1);
  ASSERT_NE(ref, nullptr);
  ASSERT_NE(tiny, nullptr);
  LoadNullKeyed(ref.get());
  LoadNullKeyed(tiny.get());
  SqlEngine ref_engine(ref.get());
  SqlEngine tiny_engine(tiny.get());
  for (const char* join : {"JOIN", "LEFT JOIN"}) {
    // NULL and unmatched keys on the probe side (n), then on the build
    // side (n again).
    ExpectParity(&ref_engine, &tiny_engine,
                 std::string("SELECT n.v, n.k, u.w FROM n ") + join +
                     " u ON n.k = u.k",
                 /*ordered=*/false);
    ExpectParity(&ref_engine, &tiny_engine,
                 std::string("SELECT u.w, n.v, n.s FROM u ") + join +
                     " n ON u.k = n.k",
                 /*ordered=*/false);
  }
}

TEST(SpillParityTest, SpilledJoinPartitionsRecurse) {
  // Build side t: 12000 rows of ~200 accounted bytes, so each of the
  // level-0 partitions still exceeds the budget and partitions again.
  auto ref = OpenLoaded("recref", 0, true, 1);
  auto tiny = OpenLoaded("rectiny", kTinyBudget, true, 1);
  ASSERT_NE(ref, nullptr);
  ASSERT_NE(tiny, nullptr);
  SqlEngine ref_engine(ref.get());
  SqlEngine tiny_engine(tiny.get());
  const uint64_t runs_before = SpillRunsCounter();
  ExpectParity(&ref_engine, &tiny_engine,
               "SELECT u.w, t.v, t.s FROM u JOIN t ON u.k = t.k",
               /*ordered=*/false);
  // One level writes at most 16 build and 16 probe runs.
  EXPECT_GT(SpillRunsCounter() - runs_before, 32u);
}

TEST(SpillDepthTest, SingleKeyJoinBuildFailsAtDepthLimit) {
  // Every build row has one key, so no level of repartitioning splits
  // it: the join fails typed at the depth limit.
  auto db = OpenLoaded("depth", kTinyBudget, true, 1);
  ASSERT_NE(db, nullptr);
  SqlEngine engine(db.get());
  ASSERT_TRUE(engine.Execute("CREATE TABLE one (k INT, s VARCHAR(64))").ok());
  catalog::TableDef* one = *db->GetTable("one");
  for (int i = 0; i < 2000; ++i) {
    ASSERT_TRUE(
        db->InsertRow(one, Row{Value::Int32(1), Value::String(PayloadFor(i))})
            .ok());
  }
  Result<QueryResult> r =
      engine.Execute("SELECT u.w, one.s FROM u JOIN one ON u.k = one.k");
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsResourceExhausted()) << r.status().ToString();
  EXPECT_NE(r.status().ToString().find("spill repartitioning exceeded depth"),
            std::string::npos)
      << r.status().ToString();
  EXPECT_FALSE(AnySpillFilesLeft(db->options().filestream_root));
  Result<QueryResult> alive = engine.Execute("SELECT COUNT(*) FROM one");
  ASSERT_TRUE(alive.ok()) << alive.status().ToString();
  EXPECT_EQ(alive->rows[0][0].AsInt64(), 2000);
}

TEST(SpillDisabledTest, OverBudgetFailsTypedAndSessionSurvives) {
  auto db = OpenLoaded("nospill", kTinyBudget, /*enable_spill=*/false, 4);
  ASSERT_NE(db, nullptr);
  SqlEngine engine(db.get());
  for (const char* sql :
       {"SELECT k, v, s FROM t ORDER BY v DESC",
        "SELECT k, COUNT(*), SUM(v) FROM t GROUP BY k",
        "SELECT t.v, u.w FROM t JOIN u ON t.k = u.k"}) {
    Result<QueryResult> r = engine.Execute(sql);
    ASSERT_FALSE(r.ok()) << sql;
    EXPECT_TRUE(r.status().IsResourceExhausted())
        << sql << "\n--> " << r.status().ToString();
  }
  // The failures are statement-level: the same session keeps answering.
  Result<QueryResult> alive = engine.Execute("SELECT COUNT(*) FROM t");
  ASSERT_TRUE(alive.ok()) << alive.status().ToString();
  EXPECT_EQ(alive->rows[0][0].AsInt64(), kRows);
}

// The nested-loop join's inner side has no out-of-core fallback; it is
// charged batch by batch as it is read, so an over-budget inner side
// fails typed long before the scan reaches its end.
TEST(NestedLoopBudgetTest, InnerSideFailsBeforeItIsRead) {
  auto db = OpenLoaded("nlj", kTinyBudget, /*enable_spill=*/true, 1);
  ASSERT_NE(db, nullptr);
  SqlEngine engine(db.get());
  const char* sql = "SELECT u.w, t.v FROM u JOIN t ON u.k < t.k";
  Result<std::string> plan = engine.Explain(sql);
  ASSERT_TRUE(plan.ok());
  ASSERT_NE(plan->find("Nested Loops"), std::string::npos) << *plan;
  catalog::TableDef* t = *db->GetTable("t");
  const size_t pages =
      dynamic_cast<storage::HeapTable*>(t->table.get())->num_pages();
  obs::Counter* page_reads =
      obs::MetricsRegistry::Global().GetCounter("heap.page.reads");
  const uint64_t before = page_reads->Value();
  Result<QueryResult> r = engine.Execute(sql);
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsResourceExhausted()) << r.status().ToString();
  EXPECT_NE(r.status().message().find("Nested Loops (Inner Join)"),
            std::string::npos)
      << r.status().ToString();
  const uint64_t read = page_reads->Value() - before;
  EXPECT_GT(read, 0u);
  EXPECT_LT(read, pages / 2) << "the inner side was read before the charge";
}

TEST(SpillDisabledTest, DistinctSpillsOrFailsTyped) {
  // DISTINCT is a hash aggregate: over budget it spills like GROUP BY and
  // still returns every distinct row...
  const char* sql = "SELECT DISTINCT s, v FROM t";
  auto db = OpenLoaded("distinct", kTinyBudget, /*enable_spill=*/true, 4);
  ASSERT_NE(db, nullptr);
  SqlEngine engine(db.get());
  const uint64_t runs_before = SpillRunsCounter();
  Result<QueryResult> r = engine.Execute(sql);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_GT(SpillRunsCounter(), runs_before);
  EXPECT_EQ(r->rows.size(), static_cast<size_t>(kRows));  // v is unique
  // ...and with spilling off it fails typed, leaving the session usable.
  auto nospill =
      OpenLoaded("distinct_nospill", kTinyBudget, /*enable_spill=*/false, 4);
  ASSERT_NE(nospill, nullptr);
  SqlEngine nospill_engine(nospill.get());
  r = nospill_engine.Execute(sql);
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsResourceExhausted()) << r.status().ToString();
  EXPECT_TRUE(nospill_engine.Execute("SELECT COUNT(*) FROM t").ok());
}

TEST(SpillExplainTest, AnalyzeReportsSpillRunsAndPeakMem) {
  auto db = OpenLoaded("explain", kTinyBudget, true, 4);
  ASSERT_NE(db, nullptr);
  SqlEngine engine(db.get());
  Result<QueryResult> r = engine.Execute(
      "EXPLAIN ANALYZE SELECT k, COUNT(*), SUM(v) FROM t GROUP BY k");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_NE(r->message.find("peak-mem="), std::string::npos) << r->message;
  EXPECT_NE(r->message.find("spill runs="), std::string::npos) << r->message;
  EXPECT_NE(r->message.find("memory: peak="), std::string::npos) << r->message;
  EXPECT_NE(r->message.find("budget 0.1 MiB"), std::string::npos)
      << r->message;

  // An in-budget statement reports zero spill runs in the summary.
  Result<QueryResult> quiet =
      engine.Execute("EXPLAIN ANALYZE SELECT COUNT(*) FROM u");
  ASSERT_TRUE(quiet.ok());
  EXPECT_NE(quiet->message.find("spill runs=0"), std::string::npos)
      << quiet->message;
}

// ---------------------------------------------------------------------
// Fault injection into the spill write path

class SpillFaultTest : public ::testing::Test {
 protected:
  void SetUp() override {
    vfs_ = std::make_unique<storage::FaultInjectingVfs>(
        storage::Vfs::Default(), storage::FaultPlan{});
    db_ = OpenLoaded("fault", kTinyBudget, true, 4, vfs_.get());
    ASSERT_NE(db_, nullptr);
    engine_ = std::make_unique<SqlEngine>(db_.get());
  }

  void Arm(storage::FaultPlan::Kind kind, int64_t at, int transient = 2) {
    storage::FaultPlan plan;
    plan.kind = kind;
    plan.fail_at_op = at;
    plan.transient_failures = transient;
    plan.crash_after_fault = false;  // device degrades, process survives
    vfs_->Reset(plan);
  }

  void Heal() { vfs_->Reset(storage::FaultPlan{}); }

  // The spilling statements under test, with their result sizes: the
  // aggregate, and the hash join (build u, 4 rows per key of t).
  struct SpillQuery {
    const char* sql;
    size_t rows;
  };
  const SpillQuery kSpillQueries[2] = {
      {"SELECT k, COUNT(*), SUM(v) FROM t GROUP BY k", kGroups},
      {"SELECT t.v, u.w FROM t JOIN u ON t.k = u.k",
       kRows * (kDimRows / kGroups)}};

  std::unique_ptr<storage::FaultInjectingVfs> vfs_;
  std::unique_ptr<Database> db_;
  std::unique_ptr<SqlEngine> engine_;
};

TEST_F(SpillFaultTest, NoSpaceOnSpillWriteFailsStatementOnly) {
  for (const SpillQuery& q : kSpillQueries) {
    SCOPED_TRACE(q.sql);
    Arm(storage::FaultPlan::Kind::kNoSpace, 0);
    Result<QueryResult> failed = engine_->Execute(q.sql);
    ASSERT_FALSE(failed.ok());
    EXPECT_TRUE(vfs_->fault_fired());
    // The failed statement's spill files were cleaned up with its
    // iterators — nothing orphaned in the tablespace directory.
    Heal();
    EXPECT_FALSE(AnySpillFilesLeft(db_->options().filestream_root));
    // The device recovered: the same session runs the same query.
    Result<QueryResult> ok = engine_->Execute(q.sql);
    ASSERT_TRUE(ok.ok()) << ok.status().ToString();
    EXPECT_EQ(ok->rows.size(), q.rows);
    EXPECT_FALSE(AnySpillFilesLeft(db_->options().filestream_root));
  }
}

TEST_F(SpillFaultTest, TornSpillWriteFailsStatementOnly) {
  for (const SpillQuery& q : kSpillQueries) {
    SCOPED_TRACE(q.sql);
    Arm(storage::FaultPlan::Kind::kTornWrite, 2);
    Result<QueryResult> failed = engine_->Execute(q.sql);
    ASSERT_FALSE(failed.ok());
    EXPECT_TRUE(vfs_->fault_fired());
    Heal();
    EXPECT_FALSE(AnySpillFilesLeft(db_->options().filestream_root));
    Result<QueryResult> ok = engine_->Execute(q.sql);
    ASSERT_TRUE(ok.ok()) << ok.status().ToString();
    EXPECT_EQ(ok->rows.size(), q.rows);
  }
}

TEST_F(SpillFaultTest, TransientEioOnSpillWriteIsAbsorbed) {
  // The device flakes twice on one spill write, then heals: the storage
  // retry policy (and statement-level retry above it) absorb the fault
  // and the query still answers correctly.
  for (const SpillQuery& q : kSpillQueries) {
    SCOPED_TRACE(q.sql);
    Arm(storage::FaultPlan::Kind::kTransientEio, 1, /*transient=*/2);
    Result<QueryResult> r = engine_->Execute(q.sql);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_TRUE(vfs_->fault_fired());
    EXPECT_EQ(r->rows.size(), q.rows);
    EXPECT_FALSE(AnySpillFilesLeft(db_->options().filestream_root));
  }
}

}  // namespace
}  // namespace htg::sql
