// Robustness of the engine surface: transactional undo of failed bulk
// inserts, FILESTREAM cleanup on rollback, NOT NULL enforcement, UTF-16
// storage round trips, and binder edge cases.

#include <gtest/gtest.h>

#include <filesystem>

#include "genomics/register.h"
#include "sql/engine.h"

namespace htg::sql {
namespace {

class RobustnessTest : public ::testing::Test {
 protected:
  void SetUp() override {
    static int counter = 0;
    DatabaseOptions options;
    options.filestream_root =
        "/tmp/htg_robust_test_" + std::to_string(counter++);
    auto db = Database::Open("robust", options);
    ASSERT_TRUE(db.ok());
    db_ = std::move(*db);
    ASSERT_TRUE(db_->filestream()->Clear().ok());
    ASSERT_TRUE(genomics::RegisterGenomicsExtensions(db_.get()).ok());
    engine_ = std::make_unique<SqlEngine>(db_.get());
  }

  QueryResult Exec(const std::string& sql) {
    Result<QueryResult> result = engine_->Execute(sql);
    EXPECT_TRUE(result.ok()) << sql << "\n--> " << result.status().ToString();
    return result.ok() ? std::move(*result) : QueryResult{};
  }

  std::unique_ptr<Database> db_;
  std::unique_ptr<SqlEngine> engine_;
};

TEST_F(RobustnessTest, FailedInsertSelectRollsBackHeapRows) {
  Exec("CREATE TABLE src (a INT, b VARCHAR(10))");
  Exec("INSERT INTO src VALUES (1, 'x'), (2, NULL), (3, 'z')");
  Exec("CREATE TABLE dst (a INT, b VARCHAR(10) NOT NULL)");
  Exec("INSERT INTO dst VALUES (100, 'pre')");
  // The NULL in row 2 violates dst's NOT NULL mid-stream: the whole
  // statement must roll back, leaving only the pre-existing row.
  Result<QueryResult> failed =
      engine_->Execute("INSERT INTO dst SELECT a, b FROM src");
  ASSERT_FALSE(failed.ok());
  QueryResult after = Exec("SELECT COUNT(*), MIN(a) FROM dst");
  EXPECT_EQ(after.rows[0][0].AsInt64(), 1);
  EXPECT_EQ(after.rows[0][1].AsInt64(), 100);
}

TEST_F(RobustnessTest, FailedInsertRollsBackFilestreamBlobs) {
  Exec("CREATE TABLE files (id INT NOT NULL, data VARBINARY(MAX) FILESTREAM)");
  const uint64_t before = db_->filestream()->TotalBytes();
  // Row 1 creates a blob; row 2 fails (NULL into NOT NULL id): the blob
  // from row 1 must be deleted again.
  Result<QueryResult> failed = engine_->Execute(
      "INSERT INTO files VALUES (1, 'blob-bytes'), (NULL, 'more')");
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(db_->filestream()->TotalBytes(), before);
  QueryResult count = Exec("SELECT COUNT(*) FROM files");
  EXPECT_EQ(count.rows[0][0].AsInt64(), 0);
}

TEST_F(RobustnessTest, FailedDirectInsertDeletesItsBlob) {
  Exec("CREATE TABLE f (data VARBINARY(MAX) FILESTREAM, n INT NOT NULL)");
  auto* table = *db_->GetTable("f");
  const uint64_t before = db_->filestream()->TotalBytes();
  // The blob column comes first, so its file exists by the time the NULL
  // in the NOT NULL column fails the row.
  const Status failed =
      db_->InsertRow(table, Row{Value::Blob("blob-bytes"), Value::Null()});
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(db_->filestream()->TotalBytes(), before);
  EXPECT_EQ(table->table->num_rows(), 0u);
}

// Database::AppendBatch validates and casts the whole batch before any
// of it lands: a bad row k fails the call with a typed error, the table
// is unchanged, and the blobs the batch's rows created are deleted.
TEST_F(RobustnessTest, AppendBatchFailsWholeOnABadRow) {
  // The FILESTREAM column comes first, so every row's blob exists by the
  // time the bad id fails the batch.
  Exec("CREATE TABLE fh (data VARBINARY(MAX) FILESTREAM, id INT NOT NULL)");
  Exec("CREATE TABLE fc (data VARBINARY(MAX) FILESTREAM, id INT NOT NULL, "
       "PRIMARY KEY (id))");
  const uint64_t start = db_->filestream()->TotalBytes();
  auto batch_with = [](const Value& bad) {
    RowBatch batch;
    for (int i = 0; i < 5; ++i) {
      batch.AppendRow(Row{Value::Blob("blob-" + std::to_string(i)),
                          i == 3 ? bad : Value::Int32(i)});
    }
    return batch;
  };
  for (const char* name : {"fh", "fc"}) {
    catalog::TableDef* table = *db_->GetTable(name);
    const uint64_t before = db_->filestream()->TotalBytes();
    // NOT NULL, then a BIGINT beyond INT's range.
    for (const Value& bad : {Value::Null(), Value::Int64(5000000000)}) {
      RowBatch batch = batch_with(bad);
      uint64_t appended = 0;
      const Status failed = db_->AppendBatch(
          table, &batch, storage::kFrozenTxn, nullptr, &appended);
      ASSERT_FALSE(failed.ok()) << name;
      EXPECT_TRUE(failed.IsInvalidArgument()) << failed.ToString();
      EXPECT_EQ(appended, 0u) << name;
      EXPECT_EQ(table->table->num_rows(), 0u) << name;
      EXPECT_EQ(db_->filestream()->TotalBytes(), before) << name;
    }
    // The same batch without the bad row lands whole and keeps its blobs.
    RowBatch good = batch_with(Value::Int32(3));
    uint64_t appended = 0;
    ASSERT_TRUE(db_->AppendBatch(table, &good, storage::kFrozenTxn, nullptr,
                                 &appended)
                    .ok());
    EXPECT_EQ(appended, 5u);
    EXPECT_EQ(table->table->num_rows(), 5u);
  }
  EXPECT_EQ(db_->filestream()->TotalBytes(), start + 2 * 5 * 6);
  QueryResult r = Exec("SELECT COUNT(*), SUM(id) FROM fc");
  EXPECT_EQ(r.rows[0][0].AsInt64(), 5);
  EXPECT_EQ(r.rows[0][1].AsInt64(), 10);
}

TEST_F(RobustnessTest, SuccessfulFilestreamInsertKeepsBlob) {
  Exec("CREATE TABLE files (id INT, data VARBINARY(MAX) FILESTREAM)");
  Exec("INSERT INTO files VALUES (1, 'blob-bytes')");
  EXPECT_EQ(db_->filestream()->TotalBytes(), 10u);
  QueryResult r = Exec("SELECT DATALENGTH(data) FROM files");
  EXPECT_EQ(r.rows[0][0].AsInt64(), 10);
}

TEST_F(RobustnessTest, Utf16ColumnsRoundTripThroughStorage) {
  Exec("CREATE TABLE n (a NVARCHAR(50), b NCHAR(4))");
  Exec("INSERT INTO n VALUES ('hello', 'AC'), (NULL, NULL)");
  QueryResult r = Exec("SELECT a, b FROM n");
  ASSERT_EQ(r.rows.size(), 2u);
  EXPECT_EQ(r.rows[0][0].AsString(), "hello");
  EXPECT_EQ(r.rows[0][1].AsString(), "AC  ");  // NCHAR blank padding
  EXPECT_TRUE(r.rows[1][0].is_null());
  // UTF-16 columns really cost 2 bytes per char in storage.
  auto* table = *db_->GetTable("n");
  Exec("TRUNCATE TABLE n");
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(db_->InsertRow(table, Row{Value::String(std::string(20, 'x')),
                                          Value::String("ABCD")})
                    .ok());
  }
  const uint64_t utf16_bytes = table->table->Stats().data_bytes;
  Exec("CREATE TABLE v (a VARCHAR(50), b CHAR(4))");
  auto* narrow = *db_->GetTable("v");
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(db_->InsertRow(narrow, Row{Value::String(std::string(20, 'x')),
                                           Value::String("ABCD")})
                    .ok());
  }
  const uint64_t narrow_bytes = narrow->table->Stats().data_bytes;
  EXPECT_GT(utf16_bytes, narrow_bytes * 17 / 10);
}

TEST_F(RobustnessTest, NotNullEnforcedOnDirectInsert) {
  Exec("CREATE TABLE t (a INT NOT NULL)");
  Result<QueryResult> failed =
      engine_->Execute("INSERT INTO t VALUES (NULL)");
  EXPECT_FALSE(failed.ok());
  EXPECT_EQ(Exec("SELECT COUNT(*) FROM t").rows[0][0].AsInt64(), 0);
}

TEST_F(RobustnessTest, PrimaryKeyColumnsClusterTheTable) {
  Exec("CREATE TABLE pk (a INT, b INT, PRIMARY KEY (b, a))");
  auto* table = *db_->GetTable("pk");
  ASSERT_EQ(table->clustered_key.size(), 2u);
  EXPECT_EQ(table->clustered_key[0], 1);  // b first
  EXPECT_EQ(table->clustered_key[1], 0);
  Exec("INSERT INTO pk VALUES (1, 9), (2, 3), (3, 3)");
  QueryResult r = Exec("SELECT a, b FROM pk");  // clustered scan order
  ASSERT_EQ(r.rows.size(), 3u);
  EXPECT_EQ(r.rows[0][1].AsInt64(), 3);
  EXPECT_EQ(r.rows[2][1].AsInt64(), 9);
  // Key columns are NOT NULL, whichever form declares the key.
  Exec("CREATE TABLE pkc (k INT PRIMARY KEY, v INT)");
  for (const char* insert :
       {"INSERT INTO pk VALUES (NULL, 5)", "INSERT INTO pk VALUES (5, NULL)",
        "INSERT INTO pkc VALUES (NULL, 5)"}) {
    Result<QueryResult> failed = engine_->Execute(insert);
    ASSERT_FALSE(failed.ok()) << insert;
    EXPECT_EQ(failed.status().code(),
              engine_->Execute("INSERT INTO pkc VALUES (NULL, 6)")
                  .status()
                  .code())
        << insert << ": " << failed.status().ToString();
  }
  EXPECT_EQ(Exec("SELECT a FROM pk").rows.size(), 3u);
  EXPECT_EQ(Exec("SELECT k FROM pkc").rows.size(), 0u);
}

TEST_F(RobustnessTest, DistinctWithHiddenOrderByRejected) {
  Exec("CREATE TABLE t (a INT, b INT)");
  Result<QueryResult> failed =
      engine_->Execute("SELECT DISTINCT a FROM t ORDER BY b");
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(failed.status().code(), StatusCode::kBindError);
}

TEST_F(RobustnessTest, DeeplyNestedExpressionsEvaluate) {
  std::string expr = "1";
  for (int i = 0; i < 200; ++i) expr = "(" + expr + " + 1)";
  QueryResult r = Exec("SELECT " + expr);
  EXPECT_EQ(r.rows[0][0].AsInt64(), 201);
}

TEST_F(RobustnessTest, WideRowsSurviveStorage) {
  // A row wider than one page must still store and scan (pages hold at
  // least one row each).
  Exec("CREATE TABLE wide (a VARCHAR(100000)) WITH (DATA_COMPRESSION = ROW)");
  auto* table = *db_->GetTable("wide");
  const std::string big(50000, 'G');
  ASSERT_TRUE(db_->InsertRow(table, Row{Value::String(big)}).ok());
  ASSERT_TRUE(db_->InsertRow(table, Row{Value::String("tiny")}).ok());
  QueryResult r = Exec("SELECT LEN(a) FROM wide ORDER BY 1 DESC");
  ASSERT_EQ(r.rows.size(), 2u);
  EXPECT_EQ(r.rows[0][0].AsInt64(), 50000);
}

TEST_F(RobustnessTest, AggregateOverEmptyGroupByYieldsNoRows) {
  Exec("CREATE TABLE t (k INT, v INT)");
  QueryResult r = Exec("SELECT k, SUM(v) FROM t GROUP BY k");
  EXPECT_TRUE(r.rows.empty());
}

TEST_F(RobustnessTest, SelfJoinWithAliases) {
  Exec("CREATE TABLE e (id INT, boss INT)");
  Exec("INSERT INTO e VALUES (1, NULL), (2, 1), (3, 1), (4, 2)");
  QueryResult r = Exec(
      "SELECT a.id, b.id FROM e a JOIN e b ON a.boss = b.id ORDER BY a.id");
  ASSERT_EQ(r.rows.size(), 3u);
  EXPECT_EQ(r.rows[0][0].AsInt64(), 2);
  EXPECT_EQ(r.rows[0][1].AsInt64(), 1);
  EXPECT_EQ(r.rows[2][0].AsInt64(), 4);
  EXPECT_EQ(r.rows[2][1].AsInt64(), 2);
}

TEST_F(RobustnessTest, TvfInsideSubquery) {
  QueryResult r = Exec(
      "SELECT total FROM (SELECT COUNT(*) AS total FROM "
      "PivotAlignment(5, 'ACGT', 'IIII')) t");
  EXPECT_EQ(r.rows[0][0].AsInt64(), 4);
}

TEST_F(RobustnessTest, QueryResultToStringRendersTable) {
  Exec("CREATE TABLE t (a INT, b VARCHAR(10))");
  Exec("INSERT INTO t VALUES (1, 'x')");
  QueryResult r = Exec("SELECT a, b FROM t");
  const std::string text = r.ToString();
  EXPECT_NE(text.find("a"), std::string::npos);
  EXPECT_NE(text.find("x"), std::string::npos);
  EXPECT_NE(text.find('-'), std::string::npos);  // header rule
}

TEST_F(RobustnessTest, ErrorMessagesNameTheProblem) {
  Exec("CREATE TABLE t (a INT)");
  Result<QueryResult> r = engine_->Execute("SELECT nope FROM t");
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("nope"), std::string::npos);
  r = engine_->Execute("SELECT FROBNICATE(a) FROM t");
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("FROBNICATE"), std::string::npos);
}

}  // namespace
}  // namespace htg::sql
