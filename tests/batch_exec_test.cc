// Batch execution against a plain C++ oracle: every operator runs only on
// the NextBatch path, so each query's expected rows are computed directly
// from the seeding formula — with NULLs, empty inputs, and row counts
// straddling the 1024-row batch boundary — at DOP 1 and DOP 8.

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/metrics.h"
#include "genomics/register.h"
#include "sql/engine.h"
#include "storage/heap_table.h"
#include "types/row_batch.h"

namespace htg {
namespace {

// ------------------------------------------------------------ RowBatch ---

TEST(RowBatchTest, AppendFillAndCapacity) {
  RowBatch batch(4);
  EXPECT_EQ(batch.capacity(), 4u);
  EXPECT_EQ(batch.num_rows(), 0u);
  EXPECT_FALSE(batch.full());
  for (int i = 0; i < 4; ++i) {
    batch.AppendRow(Row{Value::Int64(i), Value::String("r" +
                                                       std::to_string(i))});
  }
  EXPECT_TRUE(batch.full());
  EXPECT_EQ(batch.num_columns(), 2u);
  EXPECT_EQ(batch.ActiveRows(), 4u);
  Row row;
  batch.FillRowAt(2, &row);
  ASSERT_EQ(row.size(), 2u);
  EXPECT_EQ(row[0].AsInt64(), 2);
  EXPECT_EQ(row[1].AsString(), "r2");
}

TEST(RowBatchTest, SelectionNarrowsActiveRows) {
  RowBatch batch(8);
  for (int i = 0; i < 8; ++i) batch.AppendRow(Row{Value::Int64(i)});
  batch.SetSelection({1, 4, 6});
  EXPECT_TRUE(batch.has_selection());
  EXPECT_EQ(batch.ActiveRows(), 3u);
  EXPECT_EQ(batch.ActiveIndex(1), 4u);
  Row row;
  batch.FillRow(2, &row);  // active position 2 -> physical row 6
  EXPECT_EQ(row[0].AsInt64(), 6);
  batch.ClearSelection();
  EXPECT_EQ(batch.ActiveRows(), 8u);
  EXPECT_EQ(batch.selection_data(), nullptr);
}

TEST(RowBatchTest, ClearKeepsShapeAndReshapesOnNewArity) {
  RowBatch batch(4);
  batch.AppendRow(Row{Value::Int64(1), Value::Int64(2)});
  batch.Clear();
  EXPECT_EQ(batch.num_rows(), 0u);
  EXPECT_EQ(batch.num_columns(), 2u);  // shape survives Clear()
  // A recycled batch fed by a producer of different arity must reshape,
  // not silently pad or truncate.
  batch.AppendRow(Row{Value::Int64(7), Value::Int64(8), Value::Int64(9)});
  EXPECT_EQ(batch.num_columns(), 3u);
  Row row;
  batch.FillRowAt(0, &row);
  ASSERT_EQ(row.size(), 3u);
  EXPECT_EQ(row[2].AsInt64(), 9);
}

TEST(RowBatchTest, RetainedSlotFillReusesAndTrims) {
  RowBatch batch(4);
  batch.StartFill(2);
  for (size_t r = 0; r < 3; ++r) {
    Row row{Value::Int64(static_cast<int64_t>(r)),
            Value::String(std::string(40, 'x'))};
    batch.SwapRow(r, &row);
  }
  batch.FinishFill(3);
  EXPECT_EQ(batch.num_rows(), 3u);
  const char* buffer = batch.column(1)[0].AsString().data();
  // A refill swaps the row into the retained slot: the slot's old value
  // (and its string buffer) comes back in the row for the producer to
  // overwrite, and the values beyond the refill's rows are trimmed.
  batch.SetSelection({2});
  batch.StartFill(2);
  EXPECT_FALSE(batch.has_selection());
  Row row{Value::Int64(9), Value::String(std::string(40, 'y'))};
  batch.SwapRow(0, &row);
  batch.FinishFill(1);
  EXPECT_EQ(row[1].AsString().data(), buffer);
  EXPECT_EQ(batch.num_rows(), 1u);
  EXPECT_EQ(batch.column(0).size(), 1u);
  EXPECT_EQ(batch.column(1)[0].AsString(), std::string(40, 'y'));
  // Row 0 of a fill reshapes to the new arity.
  batch.StartFill(batch.num_columns());
  row = Row{Value::Int64(1), Value::Int64(2), Value::Int64(3)};
  batch.SwapRow(0, &row);
  batch.FinishFill(1);
  EXPECT_EQ(batch.num_columns(), 3u);
  EXPECT_EQ(batch.column(2)[0].AsInt64(), 3);
}

// -------------------------------------------------------------- oracle ---

class BatchParityTest : public ::testing::Test {
 protected:
  struct Instance {
    std::unique_ptr<Database> db;
    std::unique_ptr<sql::SqlEngine> engine;
  };

  // DOP > 1 also drops the parallel threshold so exchanges plan in.
  Instance Make(int max_dop = 1) {
    static int counter = 0;
    DatabaseOptions options;
    options.max_dop = max_dop;
    if (max_dop > 1) options.parallel_threshold = 1;
    options.filestream_root =
        "/tmp/htg_batch_exec_test_" + std::to_string(counter++);
    auto db = Database::Open("batchtest", options);
    EXPECT_TRUE(db.ok());
    Instance in;
    in.db = std::move(*db);
    EXPECT_TRUE(in.db->filestream()->Clear().ok());
    EXPECT_TRUE(genomics::RegisterGenomicsExtensions(in.db.get()).ok());
    in.engine = std::make_unique<sql::SqlEngine>(in.db.get());
    return in;
  }

  sql::QueryResult Exec(Instance& in, const std::string& query) {
    Result<sql::QueryResult> result = in.engine->Execute(query);
    EXPECT_TRUE(result.ok())
        << query << "\n--> " << result.status().ToString();
    return result.ok() ? std::move(*result) : sql::QueryResult{};
  }

  // Row i of `t(id BIGINT, a BIGINT, b VARCHAR(20), c FLOAT)`: id = i,
  // a = i % 97 (so a == 0 appears, which the short-circuit division guard
  // needs), every 7th b and every 11th c NULL.
  static Row SeedRow(int i) {
    Row row;
    row.push_back(Value::Int64(i));
    row.push_back(Value::Int64(i % 97));
    if (i % 7 == 3) {
      row.push_back(Value::Null());
    } else {
      row.push_back(Value::String((i % 3 != 0 ? "ACGT" : "TTNA") +
                                  std::to_string(i % 53)));
    }
    if (i % 11 == 5) {
      row.push_back(Value::Null());
    } else {
      row.push_back(Value::Double(i * 0.5));
    }
    return row;
  }

  void SeedT(Instance& in, int n) {
    Exec(in, "CREATE TABLE t (id BIGINT, a BIGINT, b VARCHAR(20), c FLOAT)");
    auto table = in.db->GetTable("t");
    ASSERT_TRUE(table.ok());
    for (int i = 0; i < n; ++i) {
      ASSERT_TRUE(in.db->InsertRow(*table, SeedRow(i)).ok());
    }
  }

  // One line per row; unordered queries compare as sorted multisets.
  static std::string Render(const std::vector<Row>& rows, bool sort_lines) {
    std::vector<std::string> lines;
    lines.reserve(rows.size());
    for (const Row& row : rows) {
      std::string line;
      for (const Value& v : row) {
        line += v.is_null() ? "<null>" : v.ToString();
        line += '|';
      }
      lines.push_back(std::move(line));
    }
    if (sort_lines) std::sort(lines.begin(), lines.end());
    std::string out;
    for (const std::string& line : lines) {
      out += line;
      out += '\n';
    }
    return out;
  }

  // Every operator shows up here: scan, filter (with the short-circuit
  // AND divide guard), project (CASE / IS NULL / LIKE), hash aggregate,
  // global aggregate, distinct, sort, top, ROW_NUMBER. Ordered queries
  // break every tie on a unique key, so their order is fully determined.
  struct OracleQuery {
    const char* sql;
    bool ordered;  // ORDER BY output: compare positionally, not as a set
    std::function<std::vector<Row>(const std::vector<Row>& t)> expect;
  };

  static std::vector<Row> Where(const std::vector<Row>& t,
                                const std::function<bool(const Row&)>& keep,
                                const std::function<Row(const Row&)>& out) {
    std::vector<Row> rows;
    for (const Row& r : t) {
      if (keep(r)) rows.push_back(out(r));
    }
    return rows;
  }

  // (a, COUNT(*), SUM(c)) per distinct a, in ascending a.
  static std::vector<Row> CountsByA(const std::vector<Row>& t) {
    std::map<int64_t, std::pair<int64_t, std::optional<double>>> groups;
    for (const Row& r : t) {
      auto& [count, sum] = groups[r[1].AsInt64()];
      ++count;
      if (!r[3].is_null()) sum = sum.value_or(0) + r[3].AsDouble();
    }
    std::vector<Row> rows;
    for (const auto& [a, g] : groups) {
      Row row{Value::Int64(a), Value::Int64(g.first), Value::Null()};
      if (g.second) row[2] = Value::Double(*g.second);
      rows.push_back(std::move(row));
    }
    return rows;
  }

  // Rows ordered by a (descending when `desc`), ties broken by id.
  static std::vector<Row> OrderByA(std::vector<Row> t, bool desc) {
    std::sort(t.begin(), t.end(), [desc](const Row& x, const Row& y) {
      if (x[1].AsInt64() != y[1].AsInt64()) {
        return desc ? x[1].AsInt64() > y[1].AsInt64()
                    : x[1].AsInt64() < y[1].AsInt64();
      }
      return x[0].AsInt64() < y[0].AsInt64();
    });
    return t;
  }

  static const std::vector<OracleQuery>& Queries() {
    static const std::vector<OracleQuery>* queries = new std::vector<
        OracleQuery>{
        {"SELECT a, b, c FROM t WHERE a >= 40 AND a < 80", false,
         [](const std::vector<Row>& t) {
           return Where(
               t,
               [](const Row& r) {
                 return r[1].AsInt64() >= 40 && r[1].AsInt64() < 80;
               },
               [](const Row& r) { return Row{r[1], r[2], r[3]}; });
         }},
        {"SELECT a, CASE WHEN c IS NULL THEN 'nul' WHEN a < 10 "
         "THEN 'small' ELSE 'big' END FROM t",
         false,
         [](const std::vector<Row>& t) {
           return Where(
               t, [](const Row&) { return true; },
               [](const Row& r) {
                 const char* label = r[3].is_null()       ? "nul"
                                     : r[1].AsInt64() < 10 ? "small"
                                                           : "big";
                 return Row{r[1], Value::String(label)};
               });
         }},
        {"SELECT b FROM t WHERE b LIKE 'ACGT%'", false,
         [](const std::vector<Row>& t) {
           return Where(
               t,
               [](const Row& r) {
                 return !r[2].is_null() && r[2].AsString().rfind("ACGT", 0) == 0;
               },
               [](const Row& r) { return Row{r[2]}; });
         }},
        {"SELECT a, c FROM t WHERE b IS NULL", false,
         [](const std::vector<Row>& t) {
           return Where(
               t, [](const Row& r) { return r[2].is_null(); },
               [](const Row& r) { return Row{r[1], r[3]}; });
         }},
        // AND must not evaluate the division for a == 0 rows.
        {"SELECT a FROM t WHERE a <> 0 AND 100 / a > 1", false,
         [](const std::vector<Row>& t) {
           return Where(
               t,
               [](const Row& r) {
                 return r[1].AsInt64() != 0 && 100 / r[1].AsInt64() > 1;
               },
               [](const Row& r) { return Row{r[1]}; });
         }},
        {"SELECT a, COUNT(*), SUM(c) FROM t GROUP BY a", false, CountsByA},
        {"SELECT COUNT(*), SUM(a), MIN(b), MAX(c) FROM t", false,
         [](const std::vector<Row>& t) {
           Value sum;
           Value min_b;
           Value max_c;
           for (const Row& r : t) {
             sum = Value::Int64((sum.is_null() ? 0 : sum.AsInt64()) +
                                r[1].AsInt64());
             if (!r[2].is_null() &&
                 (min_b.is_null() || r[2].Compare(min_b) < 0)) {
               min_b = r[2];
             }
             if (!r[3].is_null() &&
                 (max_c.is_null() || r[3].Compare(max_c) > 0)) {
               max_c = r[3];
             }
           }
           return std::vector<Row>{
               Row{Value::Int64(static_cast<int64_t>(t.size())), sum, min_b,
                   max_c}};
         }},
        {"SELECT DISTINCT a FROM t", false,
         [](const std::vector<Row>& t) {
           std::vector<Row> rows;
           for (const Row& g : CountsByA(t)) rows.push_back(Row{g[0]});
           return rows;
         }},
        {"SELECT id, a, b, c FROM t ORDER BY a, id", true,
         [](const std::vector<Row>& t) { return OrderByA(t, false); }},
        {"SELECT TOP 10 id, a, b, c FROM t ORDER BY a DESC, id", true,
         [](const std::vector<Row>& t) {
           std::vector<Row> rows = OrderByA(t, true);
           if (rows.size() > 10) rows.resize(10);
           return rows;
         }},
        {"SELECT ROW_NUMBER() OVER (ORDER BY COUNT(*) DESC, a) AS rank, "
         "COUNT(*) AS freq, a FROM t GROUP BY a",
         true,
         [](const std::vector<Row>& t) {
           std::vector<Row> groups = CountsByA(t);
           std::sort(groups.begin(), groups.end(),
                     [](const Row& x, const Row& y) {
                       if (x[1].AsInt64() != y[1].AsInt64()) {
                         return x[1].AsInt64() > y[1].AsInt64();
                       }
                       return x[0].AsInt64() < y[0].AsInt64();
                     });
           std::vector<Row> rows;
           for (const Row& g : groups) {
             rows.push_back(
                 Row{Value::Int64(static_cast<int64_t>(rows.size() + 1)), g[1],
                     g[0]});
           }
           return rows;
         }},
    };
    return *queries;
  }

  void ExpectOracleAt(int n, int dop) {
    Instance in = Make(dop);
    SeedT(in, n);
    std::vector<Row> t;
    for (int i = 0; i < n; ++i) t.push_back(SeedRow(i));
    for (const OracleQuery& q : Queries()) {
      EXPECT_EQ(Render(q.expect(t), !q.ordered),
                Render(Exec(in, q.sql).rows, !q.ordered))
          << "rows=" << n << " dop=" << dop << ": " << q.sql;
    }
  }
};

TEST_F(BatchParityTest, EmptyInput) {
  ExpectOracleAt(0, 1);
  ExpectOracleAt(0, 8);
}

TEST_F(BatchParityTest, BatchBoundaryRowCounts) {
  // One row short of a full batch, exactly one batch, one row into the
  // second batch, one into the third: the classic off-by-one surface of
  // batched producers.
  for (int n : {1, 1023, 1024, 1025, 2049}) ExpectOracleAt(n, 1);
}

TEST_F(BatchParityTest, ParallelPlansAtDop8) {
  // Morsel-driven parallel map and partial/final aggregate pipelines at
  // DOP 8; run under HTG_SANITIZE=thread via the concurrency ctest label.
  for (int n : {1, 1023, 1024, 1025, 2049}) ExpectOracleAt(n, 8);
}

// A parallel GROUP BY while another transaction's appends are pending:
// the autocommit reader's visible prefix ends inside a page, so the last
// morsel carries the mid-page cap. DOP 8 must match DOP 1 and the oracle
// over the committed rows.
TEST_F(BatchParityTest, ParallelGroupByOverMidPageVisiblePrefix) {
  const int n = 2049;
  const std::string query =
      "SELECT a, COUNT(*), SUM(id) FROM t GROUP BY a";
  std::map<int64_t, std::pair<int64_t, int64_t>> groups;
  for (int i = 0; i < n; ++i) {
    auto& [count, sum] = groups[SeedRow(i)[1].AsInt64()];
    ++count;
    sum += i;
  }
  std::vector<Row> want;
  for (const auto& [a, agg] : groups) {
    want.push_back(Row{Value::Int64(a), Value::Int64(agg.first),
                       Value::Int64(agg.second)});
  }
  std::string serial;
  for (int dop : {1, 8}) {
    Instance in = Make(dop);
    SeedT(in, n);
    auto txn = in.engine->BeginTxn();
    ASSERT_TRUE(txn.ok()) << txn.status().ToString();
    sql::StatementOptions opts;
    opts.txn = txn->get();
    std::string values;
    for (int i = n; i < n + 500; ++i) {
      values += (i == n ? "(" : ", (") + std::to_string(i) + ", 1, 'x', 0.5)";
    }
    ASSERT_TRUE(in.engine->Execute("INSERT INTO t VALUES " + values, opts)
                    .ok());
    if (dop > 1) {
      EXPECT_NE(Exec(in, "EXPLAIN " + query).message.find("Gather Streams"),
                std::string::npos);
    }
    const std::string got = Render(Exec(in, query).rows, true);
    EXPECT_EQ(Render(want, true), got) << "dop=" << dop;
    if (dop == 1) serial = got;
    EXPECT_EQ(serial, got) << "dop=" << dop;
    // The committed prefix really did end inside a page.
    auto* heap = dynamic_cast<storage::HeapTable*>(
        (*in.db->GetTable("t"))->table.get());
    ASSERT_NE(heap, nullptr);
    Result<storage::HeapTable::PageRange> prefix = heap->PlanVisiblePrefix(n);
    ASSERT_TRUE(prefix.ok());
    EXPECT_GT(prefix->tail_rows, 0u);
    ASSERT_TRUE(in.engine->AbortTxn(txn->get()).ok());
  }
}

TEST_F(BatchParityTest, CrossApplyTvfSeam) {
  // The TVF is pulled row by row (the paper's UDF/TVF boundary) while
  // CROSS APPLY writes batches. Pivots of 1..7 bases per outer row split
  // the output at arbitrary points of an outer row's pivot.
  const int n = 1025;
  const std::string bases = "ACGTNAC";
  std::vector<Row> want;
  for (int i = 0; i < n; ++i) {
    const size_t len = 1 + static_cast<size_t>(i % 7);
    for (size_t k = 0; k < len; ++k) {
      want.push_back(Row{Value::Int64(i * 2 + static_cast<int64_t>(k)),
                         Value::String(std::string(1, bases[k])),
                         Value::Int32(i % 41)});
    }
  }
  for (int dop : {1, 8}) {
    Instance in = Make(dop);
    Exec(in,
         "CREATE TABLE aligned (pos BIGINT, seq VARCHAR(10), "
         "quals VARCHAR(10))");
    auto table = in.db->GetTable("aligned");
    ASSERT_TRUE(table.ok());
    for (int i = 0; i < n; ++i) {
      const size_t len = 1 + static_cast<size_t>(i % 7);
      ASSERT_TRUE(in.db
                      ->InsertRow(*table,
                                  Row{Value::Int64(i * 2),
                                      Value::String(bases.substr(0, len)),
                                      Value::String(std::string(
                                          len, static_cast<char>('!' + i % 41)))})
                      .ok());
    }
    const std::string query =
        "SELECT pa.pos AS ref_pos, base, qual FROM aligned "
        "CROSS APPLY PivotAlignment(aligned.pos, seq, quals) AS pa";
    EXPECT_EQ(Render(want, true), Render(Exec(in, query).rows, true))
        << "dop=" << dop;
  }
}

// "actual rows=" of the first EXPLAIN ANALYZE line containing `marker`,
// or -1 when there is no such line.
int64_t ActualRowsOn(const std::string& plan, const std::string& marker) {
  const size_t at = plan.find(marker);
  if (at == std::string::npos) return -1;
  const size_t end = plan.find('\n', at);
  const std::string line = plan.substr(at, end - at);
  const size_t rows = line.find("actual rows=");
  if (rows == std::string::npos) return -1;
  return std::strtoll(line.c_str() + rows + 12, nullptr, 10);
}

// One operator tree for serial and parallel plans: at DOP 8 the exchange
// opens the bound scan → CROSS APPLY → filter subtree once per morsel, so
// the subtree's operators report the same actual rows as at DOP 1, the
// scan reads every row once, and the results match the oracle.
TEST_F(BatchParityTest, ExchangeOpensTheBoundTreePerMorsel) {
  const int n = 5000;
  const std::string bases = "ACGTNAC";
  auto seq_of = [&](int i) { return bases.substr(0, 1 + i % 7); };
  std::map<std::string, int64_t> per_base;
  std::vector<Row> map_want;
  int64_t applied = 0;
  for (int i = 0; i < n; ++i) {
    for (char base : seq_of(i)) {
      ++applied;
      if (base == 'N') continue;
      ++per_base[std::string(1, base)];
      map_want.push_back(
          Row{Value::Int64(i), Value::String(std::string(1, base))});
    }
  }
  std::vector<Row> agg_want;
  for (const auto& [base, count] : per_base) {
    agg_want.push_back(Row{Value::String(base), Value::Int64(count)});
  }
  const std::string from =
      " FROM aligned CROSS APPLY PivotAlignment(p, seq, quals) AS pa "
      "WHERE base <> 'N'";
  const std::string agg_sql =
      "SELECT base, COUNT(*)" + from + " GROUP BY base";
  const std::string map_sql = "SELECT id, base" + from;

  std::map<std::string, std::string> serial_plans;
  for (int dop : {1, 8}) {
    Instance in = Make(dop);
    Exec(in, "CREATE TABLE aligned (id BIGINT, p BIGINT, seq VARCHAR(10), "
             "quals VARCHAR(10))");
    auto table = in.db->GetTable("aligned");
    ASSERT_TRUE(table.ok());
    for (int i = 0; i < n; ++i) {
      const std::string seq = seq_of(i);
      const Row row{Value::Int64(i), Value::Int64(i * 3), Value::String(seq),
                    Value::String(std::string(seq.size(), 'I'))};
      ASSERT_TRUE(in.db->InsertRow(*table, row).ok());
    }
    EXPECT_EQ(Render(agg_want, true), Render(Exec(in, agg_sql).rows, true))
        << "dop=" << dop;
    EXPECT_EQ(Render(map_want, false), Render(Exec(in, map_sql).rows, false))
        << "dop=" << dop;
    for (const std::string& sql : {agg_sql, map_sql}) {
      const std::string plan = Exec(in, "EXPLAIN ANALYZE " + sql).message;
      EXPECT_EQ(dop > 1, plan.find("Distribute Streams") != std::string::npos)
          << plan;
      EXPECT_EQ(ActualRowsOn(plan, "Table Scan [aligned]"), n) << plan;
      EXPECT_EQ(ActualRowsOn(plan, "Nested Loops (Cross Apply)"), applied)
          << plan;
      const int64_t filtered = ActualRowsOn(plan, "Filter [");
      EXPECT_EQ(filtered, static_cast<int64_t>(map_want.size())) << plan;
      if (dop == 1) {
        serial_plans[sql] = plan;
      } else {
        EXPECT_EQ(filtered, ActualRowsOn(serial_plans[sql], "Filter ["))
            << plan;
      }
    }
  }
}

// `aligned(p, seq, quals)` with n reads of "ACGT": PivotAlignment turns
// each into four rows.
void SeedAligned(Database* db, int n) {
  auto table = db->GetTable("aligned");
  ASSERT_TRUE(table.ok());
  for (int i = 0; i < n; ++i) {
    const Row row{Value::Int64(i), Value::String("ACGT"),
                  Value::String("IIII")};
    ASSERT_TRUE(db->InsertRow(*table, row).ok());
  }
}

// The parallel gather parks the batches its workers run ahead of the
// consumer: they count against the query budget (peak-mem on the Gather
// line), and each batch's charge goes as the batch is handed out.
TEST_F(BatchParityTest, ParallelGatherChargesItsBuffers) {
  Instance in = Make(4);
  Exec(in, "CREATE TABLE aligned (p BIGINT, seq VARCHAR(10), "
           "quals VARCHAR(10))");
  SeedAligned(in.db.get(), 20000);
  Result<exec::OperatorPtr> plan = in.engine->Plan(
      "SELECT pa.pos, base FROM aligned "
      "CROSS APPLY PivotAlignment(p, seq, quals) AS pa");
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  exec::ExecContext ctx = exec::ExecContext::For(in.db.get());
  ctx.collect_stats = true;
  {
    auto iter = (*plan)->Open(&ctx);
    ASSERT_TRUE(iter.ok()) << iter.status().ToString();
    RowBatch batch;
    ASSERT_TRUE((*iter)->NextBatch(&batch));
    size_t rows = batch.ActiveRows();
    // While the consumer pauses, the workers park the morsels ahead.
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(60);
    while (ctx.mem->used() == 0 &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    EXPECT_GT(ctx.mem->used(), 0u);
    while ((*iter)->NextBatch(&batch)) rows += batch.ActiveRows();
    ASSERT_TRUE((*iter)->status().ok()) << (*iter)->status().ToString();
    EXPECT_EQ(rows, 80000u);
    EXPECT_EQ(ctx.mem->used(), 0u);
  }
  EXPECT_EQ(ctx.mem->used(), 0u);
  const std::string analyzed = exec::ExplainAnalyzePlan(**plan);
  {
    // A consumer that stops early (TOP) drops the gather while workers
    // are still parking: they are waited out and their charge returned.
    auto iter = (*plan)->Open(&ctx);
    ASSERT_TRUE(iter.ok()) << iter.status().ToString();
    RowBatch batch;
    ASSERT_TRUE((*iter)->NextBatch(&batch));
  }
  EXPECT_EQ(ctx.mem->used(), 0u);
  const size_t gather = analyzed.find("Parallelism (Gather Streams)");
  ASSERT_NE(gather, std::string::npos) << analyzed;
  const std::string line =
      analyzed.substr(gather, analyzed.find('\n', gather) - gather);
  EXPECT_NE(line.find("peak-mem="), std::string::npos) << analyzed;
}

// ORDER BY over a parallel CROSS APPLY. The Sort above the gather takes
// over each batch's charge as it reads the batch, so where the serial
// sort fits the budget the DOP-4 plan runs too, with spilling off, and
// writes no run. Where the serial sort spills, the gather's workers park
// morsels only within half the budget, so the DOP-4 sort's runs stay at
// least half a budget long: no more than twice the serial count, never
// one per row.
TEST_F(BatchParityTest, SortAboveParallelGatherNeedsNoExtraBudget) {
  const std::string sql =
      "SELECT pa.pos, base FROM aligned "
      "CROSS APPLY PivotAlignment(p, seq, quals) AS pa "
      "ORDER BY base DESC, pa.pos";
  Instance serial = Make(1);
  Instance parallel = Make(4);
  for (Instance* in : {&serial, &parallel}) {
    Exec(*in, "CREATE TABLE aligned (p BIGINT, seq VARCHAR(10), "
              "quals VARCHAR(10))");
    SeedAligned(in->db.get(), 20000);
  }
  struct Outcome {
    Status status;
    std::vector<Row> rows;
    uint64_t sort_peak = 0;
    uint64_t spill_runs = 0;
  };
  // A budget of 0 is unlimited.
  const auto run = [&](Instance& in, size_t budget, bool spill) {
    Outcome out;
    Result<exec::OperatorPtr> plan = in.engine->Plan(sql);
    EXPECT_TRUE(plan.ok()) << plan.status().ToString();
    if (!plan.ok()) return out;
    EXPECT_EQ(&in == &parallel,
              exec::ExplainPlan(**plan).find("Gather Streams") !=
                  std::string::npos);
    const exec::Operator* sort = plan->get();
    while (sort->Describe().rfind("Sort", 0) != 0) {
      EXPECT_FALSE(sort->children().empty()) << exec::ExplainPlan(**plan);
      if (sort->children().empty()) return out;
      sort = sort->children()[0];
    }
    exec::ExecContext ctx = exec::ExecContext::For(in.db.get());
    ctx.mem = std::make_shared<MemoryContext>(budget, spill);
    auto iter = (*plan)->Open(&ctx);
    out.status = iter.ok() ? exec::DrainIterator(iter->get(), &out.rows)
                           : iter.status();
    out.sort_peak = sort->stats().peak_mem_bytes.load();
    out.spill_runs = sort->stats().spill_runs.load();
    return out;
  };

  const Outcome want = run(serial, 0, true);
  ASSERT_TRUE(want.status.ok()) << want.status.ToString();
  ASSERT_EQ(want.rows.size(), 80000u);
  ASSERT_GT(want.sort_peak, 0u);

  const size_t fits = want.sort_peak + want.sort_peak / 8;
  for (Instance* in : {&serial, &parallel}) {
    const Outcome got = run(*in, fits, false);
    ASSERT_TRUE(got.status.ok()) << got.status.ToString();
    EXPECT_EQ(got.spill_runs, 0u);
    EXPECT_EQ(got.rows, want.rows);
  }

  for (size_t parts : {3, 4}) {
    const size_t tight = want.sort_peak / parts;
    const Outcome serial_spill = run(serial, tight, true);
    const Outcome parallel_spill = run(parallel, tight, true);
    ASSERT_TRUE(serial_spill.status.ok()) << serial_spill.status.ToString();
    ASSERT_TRUE(parallel_spill.status.ok())
        << parallel_spill.status.ToString();
    EXPECT_GE(serial_spill.spill_runs, parts);
    EXPECT_LE(parallel_spill.spill_runs, 2 * serial_spill.spill_runs)
        << "serial runs " << serial_spill.spill_runs;
    EXPECT_EQ(parallel_spill.rows, want.rows);
  }
}

// ORDER BY over mixed-direction INT, FLOAT and VARCHAR keys with NULLs
// and many ties, and ROW_NUMBER over the same keys, against a
// std::stable_sort oracle over input order: at the batch boundaries and
// past the parallel chunk sort's 4096 rows, at DOP 1 and 8, in memory and
// under a one-byte budget that spills every input batch as its own run.
TEST_F(BatchParityTest, SortMatchesStableSortOracle) {
  const std::string keys = "i DESC, f, s DESC";
  const bool descending[] = {true, false, true};
  for (int n : {0, 1, 1023, 1024, 1025, 12000}) {
    // id is the input position; i, f and s take a few values each, and
    // NULLs, so most rows tie with many others.
    std::vector<Row> rows;
    for (int id = 0; id < n; ++id) {
      const uint32_t h = static_cast<uint32_t>(id) * 2654435761u;
      rows.push_back(Row{
          Value::Int64(id),
          h % 7 == 0 ? Value::Null()
                     : Value::Int32(static_cast<int32_t>((h >> 8) % 5) - 2),
          (h >> 4) % 4 == 0 ? Value::Null()
                            : Value::Double(((h >> 12) % 3) * 0.5 - 0.5),
          (h >> 16) % 5 == 0 ? Value::Null()
                             : Value::String(std::string((h >> 20) % 3, 'x'))});
    }
    std::vector<Row> sorted = rows;
    std::stable_sort(sorted.begin(), sorted.end(),
                     [&](const Row& a, const Row& b) {
                       for (size_t k = 0; k < 3; ++k) {
                         const int cmp = a[k + 1].Compare(b[k + 1]);
                         if (cmp != 0) return descending[k] ? cmp > 0 : cmp < 0;
                       }
                       return false;
                     });
    std::vector<Row> ranked;
    for (size_t j = 0; j < sorted.size(); ++j) {
      ranked.push_back(
          Row{sorted[j][0], Value::Int64(static_cast<int64_t>(j + 1))});
    }
    for (int dop : {1, 8}) {
      Instance in = Make(dop);
      Exec(in, "CREATE TABLE t (id BIGINT, i INT, f FLOAT, s VARCHAR(8))");
      catalog::TableDef* table = *in.db->GetTable("t");
      for (const Row& row : rows) {
        ASSERT_TRUE(in.db->InsertRow(table, row).ok());
      }
      // A budget of 0 is unlimited.
      for (size_t budget : {0, 1}) {
        SCOPED_TRACE("rows " + std::to_string(n) + ", dop " +
                     std::to_string(dop) + ", budget " +
                     std::to_string(budget));
        const auto run = [&](const std::string& sql) {
          std::vector<Row> out;
          Result<exec::OperatorPtr> plan = in.engine->Plan(sql);
          EXPECT_TRUE(plan.ok()) << plan.status().ToString();
          if (!plan.ok()) return out;
          const exec::Operator* sort = plan->get();
          while (sort->Describe().find("Sort [") == std::string::npos &&
                 !sort->children().empty()) {
            sort = sort->children()[0];
          }
          exec::ExecContext ctx = exec::ExecContext::For(in.db.get());
          ctx.mem = std::make_shared<MemoryContext>(budget, true);
          auto iter = (*plan)->Open(&ctx);
          const Status status = iter.ok()
                                    ? exec::DrainIterator(iter->get(), &out)
                                    : iter.status();
          EXPECT_TRUE(status.ok()) << status.ToString();
          EXPECT_EQ(sort->stats().spill_runs.load() > 0, budget > 0 && n > 0)
              << exec::ExplainAnalyzePlan(**plan);
          return out;
        };
        EXPECT_EQ(Render(run("SELECT id, i, f, s FROM t ORDER BY " + keys),
                         false),
                  Render(sorted, false));
        EXPECT_EQ(Render(run("SELECT id, ROW_NUMBER() OVER (ORDER BY " +
                             keys + ") AS rn FROM t"),
                         false),
                  Render(ranked, false));
      }
    }
  }
}

TEST_F(BatchParityTest, ExplainAnalyzeReportsBatchSizes) {
  Instance in = Make();
  SeedT(in, 4000);
  Result<sql::QueryResult> result =
      in.engine->Execute("EXPLAIN ANALYZE SELECT a, b, c FROM t "
                         "WHERE a >= 0");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const std::string& plan = result->message;
  const size_t pos = plan.find("rows/batch=");
  ASSERT_NE(pos, std::string::npos) << plan;
  // 4000 rows in 1024-row batches: every batched operator should be
  // moving far more than 256 rows per pull.
  const double rows_per_batch =
      std::strtod(plan.c_str() + pos + std::string("rows/batch=").size(),
                  nullptr);
  EXPECT_GT(rows_per_batch, 256.0) << plan;
}

TEST_F(BatchParityTest, ExplainAnalyzeEveryOperatorReportsBatches) {
  // Every operator exchanges batches, including the row-at-a-time
  // producers (merge join) and the TVF seam (CROSS APPLY): each operator
  // that produced rows reports its batch count.
  Instance in = Make();
  Exec(in, "CREATE TABLE aln (rid BIGINT PRIMARY KEY, pos BIGINT)");
  Exec(in,
       "CREATE TABLE rd (rid BIGINT PRIMARY KEY, seq VARCHAR(10), "
       "quals VARCHAR(10))");
  auto aln = in.db->GetTable("aln");
  auto rd = in.db->GetTable("rd");
  ASSERT_TRUE(aln.ok() && rd.ok());
  for (int i = 0; i < 300; ++i) {
    ASSERT_TRUE(
        in.db->InsertRow(*aln, Row{Value::Int64(i), Value::Int64(i % 50)})
            .ok());
    ASSERT_TRUE(in.db
                    ->InsertRow(*rd, Row{Value::Int64(i), Value::String("ACG"),
                                         Value::String("III")})
                    .ok());
  }
  Result<sql::QueryResult> result = in.engine->Execute(
      "EXPLAIN ANALYZE SELECT pa.pos, COUNT(*) FROM aln JOIN rd "
      "ON aln.rid = rd.rid "
      "CROSS APPLY PivotAlignment(aln.pos, seq, quals) AS pa "
      "GROUP BY pa.pos");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const std::string& plan = result->message;
  ASSERT_NE(plan.find("Merge Join"), std::string::npos) << plan;
  ASSERT_NE(plan.find("Cross Apply"), std::string::npos) << plan;
  size_t begin = 0;
  int producing = 0;
  while (begin < plan.size()) {
    size_t end = plan.find('\n', begin);
    if (end == std::string::npos) end = plan.size();
    const std::string line = plan.substr(begin, end - begin);
    begin = end + 1;
    const size_t at = line.find("actual rows=");
    if (at == std::string::npos) continue;
    if (std::strtoull(line.c_str() + at + 12, nullptr, 10) == 0) continue;
    ++producing;
    EXPECT_NE(line.find("rows/batch="), std::string::npos) << line;
  }
  EXPECT_GE(producing, 5) << plan;
}

// ---------------------------------------------------- group key layouts ---

// Row r of g(id BIGINT, i INT, n BIGINT, f BIT, s VARCHAR(10), d FLOAT):
// i negative, zero and positive, NULL every 7th row; n beyond INT range;
// f NULL every 11th row; s NULL every 13th row; d never integral, so no
// double key equals an integer one.
Row GroupSeedRow(int r) {
  Row row;
  row.push_back(Value::Int64(r));
  row.push_back(r % 7 == 2 ? Value::Null() : Value::Int32(r % 37 - 18));
  row.push_back(Value::Int64((r % 5 - 2) * int64_t{3000000000}));
  row.push_back(r % 11 == 4 ? Value::Null() : Value::Bool(r % 3 == 0));
  row.push_back(r % 13 == 6 ? Value::Null()
                            : Value::String("s" + std::to_string(r % 4)));
  row.push_back(Value::Double(r + 0.5));
  return row;
}

struct RowLess {
  bool operator()(const Row& a, const Row& b) const {
    for (size_t c = 0; c < a.size(); ++c) {
      const int cmp = a[c].Compare(b[c]);
      if (cmp != 0) return cmp < 0;
    }
    return false;
  }
};

// GROUP BY oracle: one output row per distinct key(row), the key followed
// by aggs(rows of the group).
std::vector<Row> GroupOracle(
    const std::vector<Row>& g, const std::function<Row(const Row&)>& key,
    const std::function<Row(const std::vector<const Row*>&)>& aggs) {
  std::map<Row, std::vector<const Row*>, RowLess> groups;
  for (const Row& r : g) groups[key(r)].push_back(&r);
  std::vector<Row> out;
  for (const auto& [k, rows] : groups) {
    Row row = k;
    for (Value& v : aggs(rows)) row.push_back(std::move(v));
    out.push_back(std::move(row));
  }
  return out;
}

Value Count(const std::vector<const Row*>& rows, int col = -1) {
  int64_t n = 0;
  for (const Row* r : rows) n += col < 0 || !(*r)[col].is_null() ? 1 : 0;
  return Value::Int64(n);
}

Value IntSum(const std::vector<const Row*>& rows, int col) {
  std::optional<int64_t> sum;
  for (const Row* r : rows) {
    if (!(*r)[col].is_null()) sum = sum.value_or(0) + (*r)[col].AsInt64();
  }
  return sum ? Value::Int64(*sum) : Value::Null();
}

// Grouping by integer keys packs them; by any other key, or by a CASE
// declared INT that yields a FLOAT partway through the input, keeps (or
// re-encodes to) Value keys. Every layout must give the oracle's groups,
// serially and through the parallel partial/final merge, whose partial
// tables can end in different layouts.
TEST_F(BatchParityTest, GroupKeyLayoutsMatchOracle) {
  const int n = 2049;
  std::vector<Row> g;
  for (int r = 0; r < n; ++r) g.push_back(GroupSeedRow(r));
  const auto int_key = [](const Row& r, int col) {
    return r[col].is_null() ? Value::Null() : Value::Int64(r[col].AsInt64());
  };
  struct Case {
    std::string sql;
    std::vector<Row> want;
  };
  std::vector<Case> cases;
  // NULL and negative integer keys.
  cases.push_back(
      {"SELECT i, COUNT(*), SUM(n) FROM g GROUP BY i",
       GroupOracle(
           g, [&](const Row& r) { return Row{int_key(r, 1)}; },
           [](const std::vector<const Row*>& rows) {
             return Row{Count(rows), IntSum(rows, 2)};
           })});
  // An INT key column next to a BIGINT one.
  cases.push_back({"SELECT i, n, COUNT(*) FROM g GROUP BY i, n",
                   GroupOracle(
                       g,
                       [&](const Row& r) {
                         return Row{int_key(r, 1), r[2]};
                       },
                       [](const std::vector<const Row*>& rows) {
                         return Row{Count(rows)};
                       })});
  // BOOL keys, NULL among them.
  cases.push_back(
      {"SELECT f, COUNT(*), MIN(id) FROM g GROUP BY f",
       GroupOracle(
           g, [](const Row& r) { return Row{r[3]}; },
           [](const std::vector<const Row*>& rows) {
             return Row{Count(rows), (*rows.front())[0]};
           })});
  // An arithmetic integer key (NULL where i is).
  cases.push_back(
      {"SELECT i * 1000 + id % 4, COUNT(*) FROM g GROUP BY i * 1000 + id % 4",
       GroupOracle(
           g,
           [](const Row& r) {
             return Row{r[1].is_null()
                            ? Value::Null()
                            : Value::Int64(r[1].AsInt64() * 1000 +
                                           r[0].AsInt64() % 4)};
           },
           [](const std::vector<const Row*>& rows) {
             return Row{Count(rows)};
           })});
  // A mixed integer + string key takes the Value layout.
  cases.push_back({"SELECT i, s, COUNT(*) FROM g GROUP BY i, s",
                   GroupOracle(
                       g,
                       [&](const Row& r) {
                         return Row{int_key(r, 1), r[4]};
                       },
                       [](const std::vector<const Row*>& rows) {
                         return Row{Count(rows)};
                       })});
  // Declared INT (the first branch), FLOAT on every third row from row
  // 1500 on: the table re-encodes its packed keys once, then keeps
  // finding the integer keys it created before.
  cases.push_back(
      {"SELECT CASE WHEN id < 1500 OR id % 3 <> 0 THEN i ELSE d END, "
       "COUNT(*) FROM g "
       "GROUP BY CASE WHEN id < 1500 OR id % 3 <> 0 THEN i ELSE d END",
       GroupOracle(
           g,
           [&](const Row& r) {
             const int64_t id = r[0].AsInt64();
             return Row{id < 1500 || id % 3 != 0 ? int_key(r, 1) : r[5]};
           },
           [](const std::vector<const Row*>& rows) {
             return Row{Count(rows)};
           })});
  // Every builtin, DISTINCT included, in one table.
  cases.push_back(
      {"SELECT f, COUNT(*), COUNT(s), SUM(n), MIN(s), MAX(d), AVG(i), "
       "COUNT(DISTINCT i), SUM(DISTINCT n) FROM g GROUP BY f",
       GroupOracle(
           g, [](const Row& r) { return Row{r[3]}; },
           [](const std::vector<const Row*>& rows) {
             Value min_s;
             double max_d = 0;
             double i_sum = 0;
             int64_t i_count = 0;
             std::map<int64_t, bool> distinct_i;
             std::map<int64_t, bool> distinct_n;
             for (const Row* r : rows) {
               const Row& row = *r;
               if (!row[4].is_null() &&
                   (min_s.is_null() || row[4].Compare(min_s) < 0)) {
                 min_s = row[4];
               }
               max_d = std::max(max_d, row[5].AsDouble());
               if (!row[1].is_null()) {
                 i_sum += static_cast<double>(row[1].AsInt64());
                 ++i_count;
                 distinct_i[row[1].AsInt64()] = true;
               }
               distinct_n[row[2].AsInt64()] = true;
             }
             int64_t n_sum = 0;
             for (const auto& [v, seen] : distinct_n) n_sum += v;
             return Row{Count(rows),
                        Count(rows, 4),
                        IntSum(rows, 2),
                        min_s,
                        Value::Double(max_d),
                        Value::Double(i_sum / static_cast<double>(i_count)),
                        Value::Int64(static_cast<int64_t>(distinct_i.size())),
                        Value::Int64(n_sum)};
           })});
  for (int dop : {1, 8}) {
    Instance in = Make(dop);
    Exec(in,
         "CREATE TABLE g (id BIGINT, i INT, n BIGINT, f BIT, s VARCHAR(10), "
         "d FLOAT)");
    auto table = in.db->GetTable("g");
    ASSERT_TRUE(table.ok());
    for (const Row& r : g) ASSERT_TRUE(in.db->InsertRow(*table, r).ok());
    for (const Case& c : cases) {
      EXPECT_EQ(Render(c.want, true), Render(Exec(in, c.sql).rows, true))
          << "dop=" << dop << ": " << c.sql;
    }
    const std::string reencoded =
        Exec(in, "EXPLAIN ANALYZE " + cases[5].sql).message;
    EXPECT_NE(reencoded.find("keys=values"), std::string::npos) << reencoded;
  }
}

// EXPLAIN ANALYZE names each hash aggregate's key layout: the pivot's
// (gid, pos) and gid keys and Query 2's arithmetic gene key are packed
// integers; Query 1's read-sequence key is a string, kept as Values.
TEST_F(BatchParityTest, ExplainAnalyzeReportsGroupKeyLayout) {
  Instance in = Make();
  Exec(in, "CREATE TABLE aln (rid BIGINT PRIMARY KEY, gid INT, pos BIGINT)");
  Exec(in,
       "CREATE TABLE rd (rid BIGINT PRIMARY KEY, seq VARCHAR(10), "
       "quals VARCHAR(10))");
  auto aln = in.db->GetTable("aln");
  auto rd = in.db->GetTable("rd");
  ASSERT_TRUE(aln.ok() && rd.ok());
  for (int i = 0; i < 300; ++i) {
    ASSERT_TRUE(in.db
                    ->InsertRow(*aln, Row{Value::Int64(i), Value::Int32(i % 3),
                                          Value::Int64(i * 7 % 500)})
                    .ok());
    ASSERT_TRUE(in.db
                    ->InsertRow(*rd, Row{Value::Int64(i),
                                         Value::String(i % 2 ? "ACG" : "TTA"),
                                         Value::String("III")})
                    .ok());
  }
  // The aggregate lines of `query`'s plan, in plan order.
  auto aggregate_lines = [&](const std::string& query) {
    const std::string plan = Exec(in, "EXPLAIN ANALYZE " + query).message;
    std::vector<std::string> lines;
    size_t begin = 0;
    while (begin < plan.size()) {
      size_t end = plan.find('\n', begin);
      if (end == std::string::npos) end = plan.size();
      const std::string line = plan.substr(begin, end - begin);
      if (line.find("Hash Match (Aggregate)") != std::string::npos) {
        lines.push_back(line);
      }
      begin = end + 1;
    }
    return lines;
  };
  const std::vector<std::string> pivot = aggregate_lines(
      "SELECT gid, AssembleSequence(pos, b) AS consensus "
      "FROM (SELECT gid, pa.pos AS pos, CallBase(base, qual) AS b "
      "      FROM aln JOIN rd ON aln.rid = rd.rid "
      "      CROSS APPLY PivotAlignment(aln.pos, seq, quals) AS pa "
      "      GROUP BY gid, pa.pos) t "
      "GROUP BY gid");
  ASSERT_EQ(pivot.size(), 2u);
  for (const std::string& line : pivot) {
    EXPECT_NE(line.find("keys=packed"), std::string::npos) << line;
  }
  EXPECT_NE(pivot[0].find("groups=3 "), std::string::npos) << pivot[0];
  const std::vector<std::string> gene = aggregate_lines(
      "SELECT gid * 100000 + pos / 100 AS gene, COUNT(*) FROM aln "
      "GROUP BY gid * 100000 + pos / 100");
  ASSERT_EQ(gene.size(), 1u);
  EXPECT_NE(gene[0].find("keys=packed"), std::string::npos) << gene[0];
  const std::vector<std::string> reads = aggregate_lines(
      "SELECT COUNT(*) AS freq, seq FROM rd "
      "WHERE CHARINDEX('N', seq) = 0 GROUP BY seq");
  ASSERT_EQ(reads.size(), 1u);
  EXPECT_NE(reads[0].find("groups=2 keys=values"), std::string::npos)
      << reads[0];
}

// ------------------------------------------------------- column pruning ---

// Every scan, join and CROSS APPLY carries only the columns named above
// it. Each query below names some column in exactly one place the
// required-columns pass must see, or runs a plan whose operators are
// narrowed to zero columns; all of them must match the oracle at DOP 1
// and DOP 8 (where heap pipelines run as exchanges).
TEST_F(BatchParityTest, ColumnPruningMatchesOracle) {
  const int n = 2049;
  const int m = 600;
  std::vector<Row> t;
  for (int i = 0; i < n; ++i) t.push_back(SeedRow(i));
  // cl(tag, id, x) clustered on id, its second column; cr(id, x, note)
  // clustered on id. Both have an `x`.
  auto cl_row = [](int i) {
    return Row{Value::String("g" + std::to_string(i % 5)), Value::Int64(i),
               Value::Int64(i * 3)};
  };
  auto cr_row = [](int i) {
    return Row{Value::Int64(i * 2), Value::Int64(i % 13),
               i % 4 == 1 ? Value::Null()
                          : Value::String("n" + std::to_string(i))};
  };
  // Join pairs: cl.id == cr.id for even ids below m.
  std::vector<std::pair<Row, Row>> pairs;
  for (int i = 0; i * 2 < m; ++i) pairs.emplace_back(cl_row(i * 2), cr_row(i));
  // aligned(id, p, seq, quals, extra): the pivot reads p, seq, quals; the
  // plan above the apply names only id.
  const std::string bases = "ACGTNAC";
  auto aligned_row = [&](int i) {
    const size_t len = 1 + static_cast<size_t>(i % 7);
    return Row{Value::Int64(i), Value::Int64(i * 2),
               Value::String(bases.substr(0, len)),
               Value::String(std::string(len, 'I')),
               Value::String("extra" + std::to_string(i))};
  };

  struct Case {
    std::string sql;
    bool ordered;
    std::vector<Row> want;
  };
  std::vector<Case> cases;
  {
    // SELECT * over a join: full width, left columns then right.
    std::vector<Row> want;
    for (const auto& [l, r] : pairs) {
      Row row = l;
      row.insert(row.end(), r.begin(), r.end());
      want.push_back(std::move(row));
    }
    cases.push_back({"SELECT * FROM cl JOIN cr ON cl.id = cr.id", false, want});
  }
  {
    // The same name on both sides, qualified.
    std::vector<Row> want;
    for (const auto& [l, r] : pairs) want.push_back(Row{l[2], r[1]});
    cases.push_back(
        {"SELECT cl.x, cr.x FROM cl JOIN cr ON cl.id = cr.id", false, want});
  }
  {
    // Merge join whose left clustered key is the second kept column.
    std::vector<Row> want;
    for (const auto& [l, r] : pairs) want.push_back(Row{l[0], r[2]});
    cases.push_back({"SELECT tag, cr.note FROM cl JOIN cr ON cl.id = cr.id",
                     false, want});
  }
  {
    // `note` named only in the join's ON residual.
    std::vector<Row> want;
    for (const auto& [l, r] : pairs) {
      if (!r[2].is_null()) want.push_back(Row{l[0]});
    }
    cases.push_back({"SELECT tag FROM cl JOIN cr "
                     "ON cl.id = cr.id AND cr.note IS NOT NULL",
                     false, want});
  }
  // COUNT(*) over zero-column scans: a heap, a clustered table, a join.
  cases.push_back({"SELECT COUNT(*) FROM t", false,
                   {Row{Value::Int64(n)}}});
  cases.push_back({"SELECT COUNT(*) FROM cl", false,
                   {Row{Value::Int64(m)}}});
  cases.push_back({"SELECT COUNT(*) FROM cl JOIN cr ON cl.id = cr.id", false,
                   {Row{Value::Int64(static_cast<int64_t>(pairs.size()))}}});
  {
    // `c` named only in HAVING.
    std::map<int64_t, std::pair<int64_t, std::optional<double>>> groups;
    for (const Row& r : t) {
      auto& [count, max_c] = groups[r[1].AsInt64()];
      ++count;
      if (!r[3].is_null()) {
        max_c = std::max(max_c.value_or(r[3].AsDouble()), r[3].AsDouble());
      }
    }
    std::vector<Row> want;
    for (const auto& [a, g] : groups) {
      if (g.second && *g.second > 500) {
        want.push_back(Row{Value::Int64(a), Value::Int64(g.first)});
      }
    }
    cases.push_back({"SELECT a, COUNT(*) FROM t GROUP BY a "
                     "HAVING MAX(c) > 500",
                     false, want});
  }
  {
    // `id` named only in ORDER BY: a hidden sort column.
    std::vector<Row> want;
    for (const Row& r : t) {
      if (r[1].AsInt64() < 5) want.push_back(Row{r[2]});
    }
    cases.push_back(
        {"SELECT b FROM t WHERE a < 5 ORDER BY id DESC", true,
         std::vector<Row>(want.rbegin(), want.rend())});
  }
  {
    // `id` named only in a window ORDER BY.
    std::vector<Row> want;
    for (int i = n - 1; i >= 0; --i) {
      if (t[i][1].AsInt64() == 3) {
        want.push_back(
            Row{Value::Int64(static_cast<int64_t>(want.size() + 1)), t[i][2]});
      }
    }
    cases.push_back({"SELECT ROW_NUMBER() OVER (ORDER BY id DESC) AS rn, b "
                     "FROM t WHERE a = 3",
                     false, want});
  }
  {
    // A derived table with *.
    std::vector<Row> want;
    for (const Row& r : t) {
      if (r[0].AsInt64() < 100) want.push_back(Row{r[1], r[2]});
    }
    cases.push_back({"SELECT d.a, d.b FROM (SELECT * FROM t) d "
                     "WHERE d.id < 100",
                     false, want});
  }
  {
    // Heap CROSS APPLY pipelines whose outer input is pruned to `id`: a
    // parallel map and a parallel aggregate at DOP 8.
    std::vector<Row> map_want;
    std::vector<Row> agg_want;
    for (int i = 0; i < n; ++i) {
      const Row r = aligned_row(i);
      const std::string& seq = r[2].AsString();
      for (char base : seq) {
        map_want.push_back(Row{r[0], Value::String(std::string(1, base))});
      }
      agg_want.push_back(
          Row{r[0], Value::Int64(static_cast<int64_t>(seq.size()))});
    }
    cases.push_back({"SELECT id, base FROM aligned "
                     "CROSS APPLY PivotAlignment(p, seq, quals) AS pa",
                     false, map_want});
    cases.push_back({"SELECT id, COUNT(*) FROM aligned "
                     "CROSS APPLY PivotAlignment(p, seq, quals) AS pa "
                     "GROUP BY id",
                     false, agg_want});
  }

  for (int dop : {1, 8}) {
    Instance in = Make(dop);
    SeedT(in, n);
    Exec(in, "CREATE TABLE cl (tag VARCHAR(10), id BIGINT, x BIGINT) "
             "CLUSTER BY (id)");
    Exec(in, "CREATE TABLE cr (id BIGINT, x BIGINT, note VARCHAR(10)) "
             "CLUSTER BY (id)");
    Exec(in, "CREATE TABLE aligned (id BIGINT, p BIGINT, seq VARCHAR(10), "
             "quals VARCHAR(10), extra VARCHAR(20))");
    auto cl = in.db->GetTable("cl");
    auto cr = in.db->GetTable("cr");
    auto aligned = in.db->GetTable("aligned");
    ASSERT_TRUE(cl.ok() && cr.ok() && aligned.ok());
    for (int i = 0; i < m; ++i) {
      ASSERT_TRUE(in.db->InsertRow(*cl, cl_row(i)).ok());
      ASSERT_TRUE(in.db->InsertRow(*cr, cr_row(i)).ok());
    }
    for (int i = 0; i < n; ++i) {
      ASSERT_TRUE(in.db->InsertRow(*aligned, aligned_row(i)).ok());
    }
    for (const Case& c : cases) {
      EXPECT_EQ(Render(c.want, !c.ordered),
                Render(Exec(in, c.sql).rows, !c.ordered))
          << "dop=" << dop << ": " << c.sql;
    }

    // The unqualified name stays ambiguous: both `x` columns are kept.
    Result<sql::QueryResult> ambiguous =
        in.engine->Execute("SELECT x FROM cl JOIN cr ON cl.id = cr.id");
    ASSERT_FALSE(ambiguous.ok());
    EXPECT_NE(ambiguous.status().message().find("ambiguous column: x"),
              std::string::npos)
        << ambiguous.status().ToString();

    // The plans really are narrowed.
    const std::string merge =
        Exec(in, "EXPLAIN SELECT tag, cr.note FROM cl JOIN cr "
                 "ON cl.id = cr.id")
            .message;
    EXPECT_NE(merge.find("Merge Join"), std::string::npos) << merge;
    EXPECT_NE(merge.find("Clustered Index Scan [cl] columns (tag, id)"),
              std::string::npos)
        << merge;
    EXPECT_NE(merge.find("columns (tag, note)"), std::string::npos) << merge;
    const std::string count = Exec(in, "EXPLAIN SELECT COUNT(*) FROM t").message;
    EXPECT_NE(count.find("columns ()"), std::string::npos) << count;
    const std::string apply =
        Exec(in, "EXPLAIN SELECT id, COUNT(*) FROM aligned "
                 "CROSS APPLY PivotAlignment(p, seq, quals) AS pa GROUP BY id")
            .message;
    EXPECT_NE(apply.find("Table Scan [aligned]"), std::string::npos) << apply;
    EXPECT_NE(apply.find("columns (id, p, seq, quals)"), std::string::npos)
        << apply;
    EXPECT_NE(apply.find("[PivotAlignment] columns (id, pos, base, qual)"),
              std::string::npos)
        << apply;
    if (dop > 1) {
      EXPECT_NE(apply.find("Gather Streams"), std::string::npos) << apply;
    }

    // INSERT ... SELECT writes full rows of the target from a pruned scan.
    Exec(in, "CREATE TABLE t2 (a BIGINT, b VARCHAR(20))");
    Exec(in, "INSERT INTO t2 SELECT a, b FROM t WHERE id < 300");
    std::vector<Row> want;
    for (int i = 0; i < 300; ++i) want.push_back(Row{t[i][1], t[i][2]});
    EXPECT_EQ(Render(want, true), Render(Exec(in, "SELECT * FROM t2").rows, true))
        << "dop=" << dop;
  }
}

TEST_F(BatchParityTest, ExplainAnalyzeReportsSelfNsPerRow) {
  Instance in = Make();
  SeedT(in, 3000);
  Result<sql::QueryResult> result = in.engine->Execute(
      "EXPLAIN ANALYZE SELECT a, COUNT(*) FROM t WHERE a >= 0 GROUP BY a");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const std::string& plan = result->message;
  // Each producing operator's batch group carries its self time per
  // output row.
  const size_t scan =
      plan.find("Table Scan [t] predicate (a >= 0) columns (a)");
  ASSERT_NE(scan, std::string::npos) << plan;
  const size_t end = plan.find('\n', scan);
  const std::string line = plan.substr(scan, end - scan);
  const size_t at = line.find("self ns/row=");
  ASSERT_NE(at, std::string::npos) << line;
  EXPECT_GT(std::strtod(line.c_str() + at + 12, nullptr), 0.0) << line;
  EXPECT_LT(line.find("rows/batch="), at) << line;
}

// ---------------------------------------------------- scan predicates ---

// Row r of z(id BIGINT, i INT, n BIGINT, s VARCHAR(10), d FLOAT), inserted
// in id order: id ascends across the heap's pages, i = id / 50 ascends
// with a NULL every 9th row, n descends and is NULL for ids 400..999 (whole
// pages whose n summary holds no value), s is NULL every 13th row, and d
// is a DOUBLE (never summarized).
Row ZoneRow(int r) {
  Row row;
  row.push_back(Value::Int64(r));
  row.push_back(r % 9 == 4 ? Value::Null() : Value::Int32(r / 50));
  row.push_back(r >= 400 && r < 1000 ? Value::Null()
                                     : Value::Int64(3000 - r));
  row.push_back(r % 13 == 0 ? Value::Null()
                            : Value::String("k" + std::to_string(r % 40)));
  row.push_back(Value::Double(r * 0.25));
  return row;
}

// A WHERE condition and its oracle over a ZoneRow (NULL never matches).
struct ScanCase {
  std::string where;
  std::function<bool(const Row&)> keep;
};

std::vector<ScanCase> ScanCases() {
  const auto num = [](const Row& r, int c) {
    return r[c].is_null() ? std::optional<double>()
                          : std::optional<double>(r[c].AsDouble());
  };
  const auto id = [](const Row& r) { return r[0].AsInt64(); };
  const auto str = [](const Row& r) {
    return r[3].is_null() ? std::optional<std::string>()
                          : std::optional<std::string>(r[3].AsString());
  };
  return {
      {"id = 1234", [=](const Row& r) { return id(r) == 1234; }},
      // FLOAT literals against INT/BIGINT columns compare numerically.
      {"id = 2.5", [](const Row&) { return false; }},
      {"id >= 2.5 AND id < 10",
       [=](const Row& r) { return id(r) >= 3 && id(r) < 10; }},
      {"i = 2.5", [](const Row&) { return false; }},
      {"i >= 2.5 AND i <= 4",
       [=](const Row& r) {
         return num(r, 1) && *num(r, 1) >= 2.5 && *num(r, 1) <= 4;
       }},
      // literal op column.
      {"100 > id", [=](const Row& r) { return id(r) < 100; }},
      {"2990 <= id", [=](const Row& r) { return id(r) >= 2990; }},
      {"2500 < id", [=](const Row& r) { return id(r) > 2500; }},
      {"500 >= id", [=](const Row& r) { return id(r) <= 500; }},
      {"1234 = id", [=](const Row& r) { return id(r) == 1234; }},
      {"id BETWEEN 500 AND 620",
       [=](const Row& r) { return id(r) >= 500 && id(r) <= 620; }},
      {"id BETWEEN 620 AND 500", [](const Row&) { return false; }},
      {"id < -1", [](const Row&) { return false; }},
      // NULLs, and pages whose n column is all NULL.
      {"n >= 2500",
       [=](const Row& r) { return num(r, 2) && *num(r, 2) >= 2500; }},
      {"n = 300", [=](const Row& r) { return num(r, 2) && *num(r, 2) == 300; }},
      {"n <= 2600 AND id < 1100",
       [=](const Row& r) {
         return num(r, 2) && *num(r, 2) <= 2600 && id(r) < 1100;
       }},
      // Strings and DOUBLE never prune; the Filter still decides.
      {"s = 'k17'", [=](const Row& r) { return str(r) == "k17"; }},
      {"s >= 'k5' AND id < 700",
       [=](const Row& r) { return str(r) && *str(r) >= "k5" && id(r) < 700; }},
      {"d >= 700.5", [=](const Row& r) { return r[4].AsDouble() >= 700.5; }},
      {"i = 7 AND s = 'k3'",
       [=](const Row& r) {
         return num(r, 1) && *num(r, 1) == 7 && str(r) == "k3";
       }},
      // Not conjunctive: no scan predicate.
      {"id = 1234 OR id = 5",
       [=](const Row& r) { return id(r) == 1234 || id(r) == 5; }},
  };
}

TEST_F(BatchParityTest, ScanPredicatesMatchUnprunedAndOracle) {
  const int n = 3000;
  std::vector<Row> rows;
  for (int r = 0; r < n; ++r) rows.push_back(ZoneRow(r));
  // Every case over the heap z and the clustered zc (same rows, key id),
  // pruned and with the condition hidden behind `OR 1 = 0` (unpruned), as
  // a plain scan, a global aggregate (parallel at DOP 8) and a CROSS APPLY
  // pipeline (parallel at DOP 8), against the oracle over `rows`.
  const auto expect_cases = [&](Instance& in, const std::vector<Row>& rows,
                                 const std::string& label) {
  for (const char* table : {"z", "zc"}) {
    for (const ScanCase& c : ScanCases()) {
      std::vector<Row> ids;
      std::vector<Row> pivot;
      int64_t count = 0;
      int64_t sum = 0;
      for (const Row& r : rows) {
        if (!c.keep(r)) continue;
        ids.push_back(Row{r[0]});
        ++count;
        sum += r[0].AsInt64();
        if (r[3].is_null()) continue;
        for (size_t k = 0; k < r[3].AsString().size(); ++k) {
          pivot.push_back(Row{r[0], Value::Int64(r[0].AsInt64() +
                                                 static_cast<int64_t>(k))});
        }
      }
      const std::vector<Row> agg{
          Row{Value::Int64(count), count > 0 ? Value::Int64(sum) : Value()}};
      const std::string t = table;
      const std::vector<std::pair<std::string, std::vector<Row>>> shapes{
          {"SELECT id FROM " + t + " WHERE ", ids},
          {"SELECT COUNT(*), SUM(id) FROM " + t + " WHERE ", agg},
          {"SELECT id, pa.pos FROM " + t + " CROSS APPLY PivotAlignment(" +
               t + ".id, s, s) AS pa WHERE ",
           pivot}};
      for (const auto& [select, want] : shapes) {
        for (const std::string& where :
             {c.where, "(" + c.where + ") OR 1 = 0"}) {
          const std::string sql = select + where;
          EXPECT_EQ(Render(want, true),
                    Render(Exec(in, sql).rows, true))
              << label << ": " << sql;
        }
      }
    }
  }
  };
  for (int dop : {1, 8}) {
    Instance in = Make(dop);
    Exec(in, "CREATE TABLE z (id BIGINT, i INT, n BIGINT, s VARCHAR(10), "
             "d FLOAT)");
    Exec(in, "CREATE TABLE zc (id BIGINT, i INT, n BIGINT, s VARCHAR(10), "
             "d FLOAT) CLUSTER BY (id)");
    auto z = in.db->GetTable("z");
    auto zc = in.db->GetTable("zc");
    ASSERT_TRUE(z.ok() && zc.ok());
    for (int r = 0; r < n; ++r) {
      ASSERT_TRUE(in.db->InsertRow(*z, rows[r]).ok());
      ASSERT_TRUE(in.db->InsertRow(*zc, rows[n - 1 - r]).ok());
    }
    const std::string label = "dop=" + std::to_string(dop);
    expect_cases(in, rows, label);

    // The plans carry the predicate, parallel ones on every morsel scan.
    const std::string plan =
        Exec(in, "EXPLAIN SELECT COUNT(*), SUM(id) FROM z WHERE id = 1234")
            .message;
    EXPECT_NE(plan.find("predicate (id = 1234)"), std::string::npos) << plan;
    if (dop > 1) {
      EXPECT_NE(plan.find("Gather Streams"), std::string::npos) << plan;
      const std::string apply =
          Exec(in, "EXPLAIN SELECT id, pa.pos FROM z CROSS APPLY "
                   "PivotAlignment(z.id, s, s) AS pa WHERE 100 > id")
              .message;
      EXPECT_NE(apply.find("Gather Streams"), std::string::npos) << apply;
      EXPECT_NE(apply.find("predicate (id < 100)"), std::string::npos)
          << apply;
    }
    const std::string analyzed =
        Exec(in, "EXPLAIN ANALYZE SELECT COUNT(*), SUM(id) FROM z "
                 "WHERE id = 1234")
            .message;
    EXPECT_NE(analyzed.find("(pages read 1 of "), std::string::npos)
        << analyzed;
    // Every non-NULL n matches `n >= 0`: only the pages whose n column is
    // all NULL are skipped.
    const std::string nulls =
        Exec(in, "EXPLAIN ANALYZE SELECT id FROM z WHERE n >= 0").message;
    const size_t read_at = nulls.find("(pages read ");
    ASSERT_NE(read_at, std::string::npos) << nulls;
    char* rest = nullptr;
    const uint64_t read =
        std::strtoull(nulls.c_str() + read_at + 12, &rest, 10);
    const uint64_t total = std::strtoull(rest + 4, nullptr, 10);  // " of "
    EXPECT_GT(read, 0u) << nulls;
    EXPECT_LT(read, total) << nulls;

    // Another transaction's uncommitted rows match most cases and share
    // a page with newly committed ones, so the autocommit reader's
    // visible prefix ends mid-page. Every result must still be the
    // oracle's over the committed rows.
    std::vector<Row> committed = rows;
    for (int r = n; r < n + 50; ++r) {
      committed.push_back(ZoneRow(r));
      ASSERT_TRUE(in.db->InsertRow(*z, committed.back()).ok());
      ASSERT_TRUE(in.db->InsertRow(*zc, committed.back()).ok());
    }
    auto txn = in.engine->BeginTxn();
    ASSERT_TRUE(txn.ok()) << txn.status().ToString();
    sql::StatementOptions opts;
    opts.txn = txn->get();
    std::string values;
    for (int r = 0; r < 150; ++r) {
      values += std::string(r == 0 ? "" : ", ") +
                "(1234, 3, 300, 'k17', 800.0), (" + std::to_string(-r - 2) +
                ", 3, 2600, 'k5', 1.0)";
    }
    for (const char* t : {"z", "zc"}) {
      ASSERT_TRUE(in.engine
                      ->Execute(std::string("INSERT INTO ") + t + " VALUES " +
                                    values,
                                opts)
                      .ok());
    }
    auto* heap = dynamic_cast<storage::HeapTable*>((*z)->table.get());
    ASSERT_NE(heap, nullptr);
    Result<storage::HeapTable::PageRange> prefix =
        heap->PlanVisiblePrefix(committed.size());
    ASSERT_TRUE(prefix.ok());
    EXPECT_GT(prefix->tail_rows, 0u) << "the prefix should end mid-page";
    expect_cases(in, committed, label + " with a pending writer");
    ASSERT_TRUE(in.engine->AbortTxn(txn->get()).ok());
  }
}

// A clustered scan with integer terms on its leading key seeks: an
// equality, a range and an empty range return the full scan's rows, and
// EXPLAIN ANALYZE marks the seek.
TEST_F(BatchParityTest, ClusteredSeekMatchesFullScan) {
  Instance in = Make();
  Exec(in, "CREATE TABLE kv (k BIGINT PRIMARY KEY, v INT)");
  auto kv = in.db->GetTable("kv");
  ASSERT_TRUE(kv.ok());
  for (int r = 0; r < 2000; ++r) {
    ASSERT_TRUE(
        in.db->InsertRow(*kv, Row{Value::Int64(r * 3), Value::Int32(r % 7)})
            .ok());
  }
  for (const char* where :
       {"k = 300", "k = 301", "k >= 100 AND k < 200", "k > 5990",
        "k BETWEEN 50 AND 40", "k < 0", "k <= 2.5", "k >= 30 AND v = 3"}) {
    const std::string seek =
        Render(Exec(in, std::string("SELECT k, v FROM kv WHERE ") + where)
                   .rows,
               false);
    const std::string full = Render(
        Exec(in, std::string("SELECT k, v FROM kv WHERE (") + where +
                     ") OR 1 = 0")
            .rows,
        false);
    EXPECT_EQ(full, seek) << where;
  }
  EXPECT_EQ(Exec(in, "SELECT k FROM kv WHERE k >= 100 AND k < 200").rows.size(),
            33u);
  const std::string plan =
      Exec(in, "EXPLAIN ANALYZE SELECT v FROM kv WHERE k = 300").message;
  const size_t scan =
      plan.find("Clustered Index Scan [kv] predicate (k = 300)");
  ASSERT_NE(scan, std::string::npos) << plan;
  const std::string line = plan.substr(scan, plan.find('\n', scan) - scan);
  EXPECT_NE(line.find("actual rows=1,"), std::string::npos) << line;
  EXPECT_NE(line.find("(seek)"), std::string::npos) << line;
}

// The wire_mixed point read over a multi-page Tag heap written in rank
// order reads one page.
TEST_F(BatchParityTest, PointReadReadsOnePage) {
  Instance in = Make();
  Exec(in, "CREATE TABLE Tag (t_id BIGINT NOT NULL, t_e_id INT, t_sg_id INT, "
           "t_s_id INT, t_seq VARCHAR(300) NOT NULL, t_frequency BIGINT)");
  auto tag = in.db->GetTable("Tag");
  ASSERT_TRUE(tag.ok());
  for (int r = 1; r <= 3000; ++r) {
    ASSERT_TRUE(in.db
                    ->InsertRow(*tag, Row{Value::Int64(r), Value::Int32(1),
                                          Value::Int32(1), Value::Int32(1),
                                          Value::String("ACGTACGTACGTACGTAC"),
                                          Value::Int64(100000 / r)})
                    .ok());
  }
  const std::string plan =
      Exec(in, "EXPLAIN ANALYZE SELECT t_seq, t_frequency FROM Tag "
               "WHERE t_id = 5")
          .message;
  const size_t at = plan.find("(pages read 1 of ");
  ASSERT_NE(at, std::string::npos) << plan;
  EXPECT_GT(std::strtoull(plan.c_str() + at + 17, nullptr, 10), 1u) << plan;
  EXPECT_NE(plan.find("Table Scan [Tag] predicate (t_id = 5) columns "
                      "(t_id, t_seq, t_frequency)"),
            std::string::npos)
      << plan;
  const sql::QueryResult rows =
      Exec(in, "SELECT t_seq, t_frequency FROM Tag WHERE t_id = 5");
  ASSERT_EQ(rows.rows.size(), 1u);
  EXPECT_EQ(rows.rows[0][1].AsInt64(), 20000);
}

TEST_F(BatchParityTest, UdfSeamStillCountsPerRowCalls) {
  // Vectorization must stop at the scalar-UDF boundary: CHARINDEX over n
  // rows is n individual udf.scalar.calls ticks (NULL inputs propagate
  // without a call), not one vectorized invocation.
  const int n = 1000;
  Instance in = Make();
  SeedT(in, n);
  uint64_t expected_calls = 0;
  for (int i = 0; i < n; ++i) {
    if (i % 7 != 3) ++expected_calls;  // NULL b rows never reach the UDF
  }
  obs::Counter* calls = HTG_METRIC_COUNTER("udf.scalar.calls");
  const uint64_t before = calls->Value();
  Exec(in, "SELECT CHARINDEX('N', b) FROM t");
  EXPECT_EQ(calls->Value() - before, expected_calls);
}

}  // namespace
}  // namespace htg
