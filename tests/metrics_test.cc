#include "common/metrics.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "genomics/register.h"
#include "sql/engine.h"

namespace htg::obs {
namespace {

TEST(MetricsTest, CounterSingleThread) {
  Counter* c = MetricsRegistry::Global().GetCounter("test.counter.basic");
  const uint64_t before = c->Value();
  c->Add(1);
  c->Add(41);
  EXPECT_EQ(c->Value(), before + 42);
}

TEST(MetricsTest, RegistryReturnsSameInstanceForName) {
  Counter* a = MetricsRegistry::Global().GetCounter("test.counter.same");
  Counter* b = MetricsRegistry::Global().GetCounter("test.counter.same");
  EXPECT_EQ(a, b);
  Histogram* h = MetricsRegistry::Global().GetHistogram("test.hist.same");
  EXPECT_EQ(h, MetricsRegistry::Global().GetHistogram("test.hist.same"));
}

TEST(MetricsTest, CounterConcurrentWritersLoseNothing) {
  Counter* c =
      MetricsRegistry::Global().GetCounter("test.counter.concurrent");
  const uint64_t before = c->Value();
  constexpr int kThreads = 8;
  constexpr int kPerThread = 50000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([c] {
      for (int i = 0; i < kPerThread; ++i) c->Add(1);
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(c->Value(), before + uint64_t{kThreads} * kPerThread);
}

TEST(MetricsTest, HistogramConcurrentWritersLoseNothing) {
  Histogram* h =
      MetricsRegistry::Global().GetHistogram("test.hist.concurrent");
  const uint64_t count_before = h->count();
  const uint64_t sum_before = h->sum();
  constexpr int kThreads = 8;
  constexpr int kPerThread = 20000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([h] {
      for (int i = 0; i < kPerThread; ++i) {
        h->Record(static_cast<uint64_t>(i % 1000) + 1);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(h->count(), count_before + uint64_t{kThreads} * kPerThread);
  EXPECT_GT(h->sum(), sum_before);
}

TEST(MetricsTest, HistogramBucketsAndPercentiles) {
  Histogram* h = MetricsRegistry::Global().GetHistogram("test.hist.buckets");
  // 100 values of 10 (bit width 4) and 1 value of 1000 (bit width 10).
  for (int i = 0; i < 100; ++i) h->Record(10);
  h->Record(1000);

  MetricsSnapshot snap = MetricsRegistry::Global().Snapshot();
  const HistogramSnapshot& hs = snap.histograms.at("test.hist.buckets");
  EXPECT_EQ(hs.count, 101u);
  EXPECT_EQ(hs.sum, 100u * 10 + 1000);
  // p50 falls in the bucket holding the 10s: upper bound 2^4 - 1 = 15.
  EXPECT_EQ(hs.Percentile(0.5), 15u);
  // p99+ must reach the outlier's bucket: upper bound 2^10 - 1 = 1023.
  EXPECT_EQ(hs.Percentile(0.999), 1023u);
}

TEST(MetricsTest, SnapshotDeltaSubtracts) {
  Counter* c = MetricsRegistry::Global().GetCounter("test.counter.delta");
  Histogram* h = MetricsRegistry::Global().GetHistogram("test.hist.delta");
  c->Add(5);
  h->Record(100);
  MetricsSnapshot base = MetricsRegistry::Global().Snapshot();
  c->Add(7);
  h->Record(200);
  h->Record(300);
  MetricsSnapshot now = MetricsRegistry::Global().Snapshot();
  MetricsSnapshot delta = now.Delta(base);
  EXPECT_EQ(delta.counters.at("test.counter.delta"), 7u);
  EXPECT_EQ(delta.histograms.at("test.hist.delta").count, 2u);
  EXPECT_EQ(delta.histograms.at("test.hist.delta").sum, 500u);
}

TEST(MetricsTest, DeltaTreatsMetricsAbsentFromBaseAsZero) {
  MetricsSnapshot base;  // empty
  Counter* c = MetricsRegistry::Global().GetCounter("test.counter.fresh");
  c->Add(3);
  MetricsSnapshot delta = MetricsRegistry::Global().Snapshot().Delta(base);
  EXPECT_GE(delta.counters.at("test.counter.fresh"), 3u);
}

TEST(MetricsTest, KillSwitchStopsRecording) {
  Counter* c = MetricsRegistry::Global().GetCounter("test.counter.disabled");
  const uint64_t before = c->Value();
  SetMetricsEnabled(false);
  c->Add(100);
  SetMetricsEnabled(true);
  EXPECT_EQ(c->Value(), before);
  c->Add(1);
  EXPECT_EQ(c->Value(), before + 1);
}

TEST(MetricsTest, ToJsonIsWellFormedAndSorted) {
  MetricsSnapshot snap;
  snap.counters["b.count"] = 2;
  snap.counters["a.count"] = 1;
  snap.gauges["g"] = -5;
  HistogramSnapshot hs;
  hs.count = 1;
  hs.sum = 10;
  hs.buckets.assign(Histogram::kBuckets, 0);
  hs.buckets[4] = 1;
  snap.histograms["h"] = hs;
  const std::string json = snap.ToJson();
  EXPECT_NE(json.find("\"a.count\":1"), std::string::npos) << json;
  EXPECT_NE(json.find("\"b.count\":2"), std::string::npos) << json;
  EXPECT_NE(json.find("\"g\":-5"), std::string::npos) << json;
  EXPECT_NE(json.find("\"count\":1"), std::string::npos) << json;
  // std::map iteration order makes the output deterministic.
  EXPECT_LT(json.find("a.count"), json.find("b.count"));
}

TEST(MetricsTest, JsonEscapeHandlesSpecials) {
  EXPECT_EQ(JsonEscape("plain"), "plain");
  EXPECT_EQ(JsonEscape("a\"b"), "a\\\"b");
  EXPECT_EQ(JsonEscape("a\\b"), "a\\\\b");
  EXPECT_EQ(JsonEscape("a\nb"), "a\\nb");
}

// ---------------------------------------------------------------------------
// EXPLAIN ANALYZE integration: per-operator runtime stats flow through the
// engine and render in the annotated plan tree.

class ExplainAnalyzeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    static int counter = 0;
    DatabaseOptions options;
    options.filestream_root =
        "/tmp/htg_metrics_test_" + std::to_string(counter++);
    auto db = Database::Open("metricstest", options);
    ASSERT_TRUE(db.ok());
    db_ = std::move(*db);
    ASSERT_TRUE(db_->filestream()->Clear().ok());
    ASSERT_TRUE(genomics::RegisterGenomicsExtensions(db_.get()).ok());
    engine_ = std::make_unique<sql::SqlEngine>(db_.get());
  }

  std::string ExplainAnalyze(const std::string& sql) {
    Result<sql::QueryResult> result =
        engine_->Execute("EXPLAIN ANALYZE " + sql);
    EXPECT_TRUE(result.ok()) << sql << "\n--> "
                             << result.status().ToString();
    return result.ok() ? result->message : std::string();
  }

  void Exec(const std::string& sql) {
    Result<sql::QueryResult> result = engine_->Execute(sql);
    ASSERT_TRUE(result.ok()) << sql << "\n--> "
                             << result.status().ToString();
  }

  std::unique_ptr<Database> db_;
  std::unique_ptr<sql::SqlEngine> engine_;
};

TEST_F(ExplainAnalyzeTest, RowCountsFlowThroughScanFilterAggregate) {
  Exec("CREATE TABLE t (k INT, v BIGINT)");
  Exec("INSERT INTO t VALUES (1, 10), (1, 20), (2, 30), (2, 5), (3, 1)");
  const std::string plan =
      ExplainAnalyze("SELECT k, SUM(v) FROM t WHERE v >= 10 GROUP BY k");
  // Scan emits all 5 rows; the filter passes 3; two groups survive.
  EXPECT_NE(plan.find("actual rows=5"), std::string::npos) << plan;
  EXPECT_NE(plan.find("actual rows=3"), std::string::npos) << plan;
  EXPECT_NE(plan.find("actual rows=2"), std::string::npos) << plan;
  EXPECT_NE(plan.find("Filter"), std::string::npos) << plan;
  EXPECT_NE(plan.find("total: 2 rows"), std::string::npos) << plan;
}

TEST_F(ExplainAnalyzeTest, SelfTimesSumToRootTimeOnSerialPlan) {
  Exec("CREATE TABLE t (k INT, v BIGINT)");
  Exec("INSERT INTO t VALUES (1, 10), (1, 20), (2, 30), (2, 5), (3, 1), "
       "(4, 40), (5, 50), (5, 12)");
  const std::string plan = ExplainAnalyze(
      "SELECT TOP 3 k, SUM(v) FROM t WHERE v >= 10 GROUP BY k "
      "ORDER BY SUM(v) DESC");
  ASSERT_EQ(plan.find("Gather Streams"), std::string::npos) << plan;
  std::vector<std::pair<double, double>> times;  // (inclusive, self)
  for (size_t at = plan.find("time="); at != std::string::npos;
       at = plan.find("time=", at + 1)) {
    double time_ms = 0;
    double self_ms = 0;
    ASSERT_EQ(std::sscanf(plan.c_str() + at, "time=%lf ms, self=%lf ms",
                          &time_ms, &self_ms),
              2)
        << plan;
    times.emplace_back(time_ms, self_ms);
  }
  ASSERT_GE(times.size(), 4u) << plan;  // top, sort, aggregate, filter, scan
  double self_sum = 0;
  for (const auto& [time_ms, self_ms] : times) {
    EXPECT_GE(self_ms, 0.0) << plan;
    EXPECT_LE(self_ms, time_ms + 0.001) << plan;
    self_sum += self_ms;
  }
  // Each figure is rounded to the microsecond when printed.
  EXPECT_NEAR(self_sum, times.front().first, 0.001 * times.size()) << plan;
}

TEST_F(ExplainAnalyzeTest, EstimatedVersusActualShown) {
  Exec("CREATE TABLE t (k INT)");
  Exec("INSERT INTO t VALUES (1), (2), (3), (4)");
  const std::string plan = ExplainAnalyze("SELECT k FROM t");
  EXPECT_NE(plan.find("est rows=4"), std::string::npos) << plan;
  EXPECT_NE(plan.find("actual rows=4"), std::string::npos) << plan;
  EXPECT_NE(plan.find("time="), std::string::npos) << plan;
}

TEST_F(ExplainAnalyzeTest, CrossApplyWithAggregate) {
  Exec("CREATE TABLE reads (id BIGINT PRIMARY KEY, pos BIGINT, "
       "seq VARCHAR(100), quals VARCHAR(100))");
  Exec("INSERT INTO reads VALUES (1, 0, 'ACGTACGT', 'IIIIIIII'), "
       "(2, 10, 'TTTTCCCC', 'IIIIIIII')");
  const std::string plan = ExplainAnalyze(
      "SELECT r.id, COUNT(*) FROM reads r "
      "CROSS APPLY PivotAlignment(r.pos, r.seq, r.quals) p GROUP BY r.id");
  // Every operator in the tree carries actuals; the apply fans out one row
  // per base call (8 per read, 16 total).
  EXPECT_NE(plan.find("Apply"), std::string::npos) << plan;
  EXPECT_NE(plan.find("actual rows=16"), std::string::npos) << plan;
  EXPECT_NE(plan.find("total: 2 rows"), std::string::npos) << plan;
}

TEST_F(ExplainAnalyzeTest, ParallelPlanShowsDopAndPerWorkerRows) {
  Exec("CREATE TABLE big (k INT, v BIGINT)");
  auto* table = *db_->GetTable("big");
  for (int i = 0; i < 20000; ++i) {
    ASSERT_TRUE(
        db_->InsertRow(table, Row{Value::Int32(i % 5), Value::Int64(i)})
            .ok());
  }
  // Plain EXPLAIN shows the effective DOP without executing.
  Result<std::string> explain =
      engine_->Explain("SELECT k, COUNT(*) FROM big GROUP BY k");
  ASSERT_TRUE(explain.ok());
  EXPECT_NE(explain->find("Gather Streams"), std::string::npos) << *explain;
  EXPECT_NE(explain->find("DOP="), std::string::npos) << *explain;

  const std::string plan =
      ExplainAnalyze("SELECT k, COUNT(*) FROM big GROUP BY k");
  EXPECT_NE(plan.find("DOP="), std::string::npos) << plan;
  EXPECT_NE(plan.find("[worker 0]"), std::string::npos) << plan;
  // All 20000 scanned rows are accounted for across workers.
  EXPECT_NE(plan.find("actual rows=20000"), std::string::npos) << plan;
  EXPECT_NE(plan.find("total: 5 rows"), std::string::npos) << plan;
}

TEST_F(ExplainAnalyzeTest, PlainExplainDoesNotExecute) {
  Exec("CREATE TABLE t (k INT)");
  Exec("INSERT INTO t VALUES (1)");
  Result<sql::QueryResult> result = engine_->Execute("EXPLAIN SELECT k FROM t");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->message.find("actual rows"), std::string::npos)
      << result->message;
}

}  // namespace
}  // namespace htg::obs
