#include <gtest/gtest.h>

#include <atomic>
#include <limits>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "genomics/register.h"
#include "sql/engine.h"
#include "sql/parser.h"

namespace htg::sql {
namespace {

class SqlTest : public ::testing::Test {
 protected:
  void SetUp() override {
    static int counter = 0;
    DatabaseOptions options;
    options.filestream_root =
        "/tmp/htg_sql_test_" + std::to_string(counter++);
    auto db = Database::Open("sqltest", options);
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

  // Asserts the statement fails; no Status escapes (nothing inspected it).
  void ExecError(const std::string& sql) {
    Result<QueryResult> result = engine_->Execute(sql);
    EXPECT_FALSE(result.ok()) << sql;
  }

  std::unique_ptr<Database> db_;
  std::unique_ptr<SqlEngine> engine_;
};

TEST_F(SqlTest, SelectWithoutFrom) {
  QueryResult r = Exec("SELECT 1 + 2 AS three, 'ab' + 'cd' AS cat");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0][0].AsInt64(), 3);
  EXPECT_EQ(r.rows[0][1].AsString(), "abcd");
  EXPECT_EQ(r.schema.column(0).name, "three");
}

TEST_F(SqlTest, CreateInsertSelect) {
  Exec("CREATE TABLE t (a INT, b VARCHAR(20), c FLOAT)");
  Exec("INSERT INTO t VALUES (1, 'x', 1.5), (2, 'y', 2.5), (3, NULL, NULL)");
  QueryResult r = Exec("SELECT a, b, c FROM t WHERE a >= 2");
  ASSERT_EQ(r.rows.size(), 2u);
  EXPECT_EQ(r.rows[0][0].AsInt64(), 2);
  EXPECT_TRUE(r.rows[1][1].is_null());
}

TEST_F(SqlTest, InsertColumnListReordersAndDefaultsNull) {
  Exec("CREATE TABLE t (a INT, b VARCHAR(20), c FLOAT)");
  Exec("INSERT INTO t (c, a) VALUES (9.5, 4)");
  QueryResult r = Exec("SELECT a, b, c FROM t");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0][0].AsInt64(), 4);
  EXPECT_TRUE(r.rows[0][1].is_null());
  EXPECT_EQ(r.rows[0][2].AsDouble(), 9.5);
}

TEST_F(SqlTest, GroupByWithHaving) {
  Exec("CREATE TABLE sales (region VARCHAR(10), amount INT)");
  Exec("INSERT INTO sales VALUES ('n', 10), ('n', 20), ('s', 5), ('s', 1), "
       "('w', 100)");
  QueryResult r = Exec(
      "SELECT region, SUM(amount), COUNT(*) FROM sales "
      "GROUP BY region HAVING SUM(amount) > 6 ORDER BY region");
  ASSERT_EQ(r.rows.size(), 2u);
  EXPECT_EQ(r.rows[0][0].AsString(), "n");
  EXPECT_EQ(r.rows[0][1].AsInt64(), 30);
  EXPECT_EQ(r.rows[1][0].AsString(), "w");
}

TEST_F(SqlTest, PaperQuery1BinningShape) {
  // The paper's Query 1: ROW_NUMBER over COUNT(*) DESC, N-filter, GROUP BY.
  Exec("CREATE TABLE ReadT (r_e_id INT, r_sg_id INT, r_s_id INT, "
       "short_read_seq VARCHAR(40))");
  Exec("INSERT INTO ReadT VALUES "
       "(1,2,1,'AAAA'), (1,2,1,'AAAA'), (1,2,1,'AAAA'), "
       "(1,2,1,'CCCC'), (1,2,1,'CCCC'), (1,2,1,'GGNG'), (9,9,9,'TTTT')");
  QueryResult r = Exec(
      "SELECT ROW_NUMBER() OVER (ORDER BY COUNT(*) DESC) AS rank, "
      "COUNT(*) AS freq, short_read_seq "
      "FROM ReadT "
      "WHERE r_e_id=1 AND r_sg_id=2 AND r_s_id=1 "
      "  AND CHARINDEX('N', short_read_seq) = 0 "
      "GROUP BY short_read_seq "
      "ORDER BY rank");
  ASSERT_EQ(r.rows.size(), 2u);
  EXPECT_EQ(r.rows[0][0].AsInt64(), 1);
  EXPECT_EQ(r.rows[0][1].AsInt64(), 3);
  EXPECT_EQ(r.rows[0][2].AsString(), "AAAA");
  EXPECT_EQ(r.rows[1][1].AsInt64(), 2);
  EXPECT_EQ(r.rows[1][2].AsString(), "CCCC");
}

TEST_F(SqlTest, PaperQuery2GeneExpressionShape) {
  Exec("CREATE TABLE AlignmentT (a_g_id INT, a_e_id INT, a_sg_id INT, "
       "a_s_id INT, a_t_id BIGINT)");
  Exec("CREATE TABLE TagT (t_id BIGINT, t_frequency BIGINT)");
  Exec("CREATE TABLE GeneExpressionT (g INT, e INT, sg INT, s INT, "
       "total_freq BIGINT, tags BIGINT)");
  Exec("INSERT INTO TagT VALUES (1, 100), (2, 50), (3, 10)");
  Exec("INSERT INTO AlignmentT VALUES (7,1,1,1,1), (7,1,1,1,2), (8,1,1,1,3), "
       "(9,2,1,1,1)");
  Exec("INSERT INTO GeneExpressionT "
       "SELECT a_g_id, a_e_id, a_sg_id, a_s_id, SUM(t_frequency), "
       "COUNT(a_t_id) "
       "FROM AlignmentT JOIN TagT ON (a_t_id = t_id) "
       "WHERE a_e_id=1 AND a_sg_id=1 AND a_s_id=1 "
       "GROUP BY a_g_id, a_e_id, a_sg_id, a_s_id");
  QueryResult r = Exec(
      "SELECT g, total_freq, tags FROM GeneExpressionT ORDER BY g");
  ASSERT_EQ(r.rows.size(), 2u);
  EXPECT_EQ(r.rows[0][0].AsInt64(), 7);
  EXPECT_EQ(r.rows[0][1].AsInt64(), 150);
  EXPECT_EQ(r.rows[0][2].AsInt64(), 2);
  EXPECT_EQ(r.rows[1][0].AsInt64(), 8);
  EXPECT_EQ(r.rows[1][1].AsInt64(), 10);
}

TEST_F(SqlTest, JoinPicksMergeForClusteredKeys) {
  Exec("CREATE TABLE L (id BIGINT PRIMARY KEY, lv VARCHAR(10))");
  Exec("CREATE TABLE R (id BIGINT PRIMARY KEY, rv VARCHAR(10))");
  Result<std::string> plan =
      engine_->Explain("SELECT lv, rv FROM L JOIN R ON L.id = R.id");
  ASSERT_TRUE(plan.ok());
  EXPECT_NE(plan->find("Merge Join"), std::string::npos) << *plan;
  EXPECT_NE(plan->find("Clustered Index Scan"), std::string::npos) << *plan;
}

TEST_F(SqlTest, JoinFallsBackToHashForHeaps) {
  Exec("CREATE TABLE LH (id BIGINT, lv VARCHAR(10))");
  Exec("CREATE TABLE RH (id BIGINT, rv VARCHAR(10))");
  Result<std::string> plan =
      engine_->Explain("SELECT lv, rv FROM LH JOIN RH ON LH.id = RH.id");
  ASSERT_TRUE(plan.ok());
  EXPECT_NE(plan->find("Hash Match (Inner Join)"), std::string::npos) << *plan;
}

// Query 3's pivot plan (Fig. 10): the scans decode, and the merge join
// and CROSS APPLY carry, only the columns the query names.
TEST_F(SqlTest, PivotPlanCarriesOnlyNamedColumns) {
  Exec("CREATE TABLE Read (r_id BIGINT NOT NULL, r_e_id INT, r_sg_id INT, "
       "r_s_id INT, tile INT, x INT, y INT, "
       "short_read_seq VARCHAR(300) NOT NULL, quality VARCHAR(300)) "
       "CLUSTER BY (r_id) WITH (DATA_COMPRESSION = ROW)");
  Exec("CREATE TABLE Alignment (a_e_id INT, a_sg_id INT, a_s_id INT, "
       "a_r_id BIGINT NOT NULL, a_g_id INT NOT NULL, a_pos BIGINT NOT NULL, "
       "a_strand BIT, a_mismatches INT, a_mapq INT) "
       "CLUSTER BY (a_r_id) WITH (DATA_COMPRESSION = ROW)");
  Result<std::string> plan = engine_->Explain(
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
      " GROUP BY a_g_id");
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_NE(plan->find("Nested Loops (Cross Apply) [PivotAlignment] "
                       "columns (a_g_id, pos, base, qual)"),
            std::string::npos)
      << *plan;
  EXPECT_NE(plan->find("Merge Join (Inner Join) [a_r_id#0 = r_id#0] columns "
                       "(a_g_id, a_pos, a_strand, short_read_seq, quality)"),
            std::string::npos)
      << *plan;
  EXPECT_NE(plan->find("Clustered Index Scan [Alignment] "
                       "columns (a_r_id, a_g_id, a_pos, a_strand)"),
            std::string::npos)
      << *plan;
  EXPECT_NE(plan->find("Clustered Index Scan [Read] "
                       "columns (r_id, short_read_seq, quality)"),
            std::string::npos)
      << *plan;
}

TEST_F(SqlTest, LeftOuterJoin) {
  // The canonical genomics use: reads that did NOT align.
  Exec("CREATE TABLE Reads (r_id BIGINT, seq VARCHAR(20))");
  Exec("CREATE TABLE Aligns (a_r_id BIGINT, pos BIGINT)");
  Exec("INSERT INTO Reads VALUES (1,'AAAA'), (2,'CCCC'), (3,'GGGG')");
  Exec("INSERT INTO Aligns VALUES (1, 100), (1, 200), (3, 50)");
  QueryResult all = Exec(
      "SELECT r_id, pos FROM Reads LEFT JOIN Aligns ON r_id = a_r_id "
      "ORDER BY r_id, pos");
  ASSERT_EQ(all.rows.size(), 4u);  // read 2 survives with NULL pos
  EXPECT_TRUE(all.rows[2][1].is_null());
  EXPECT_EQ(all.rows[2][0].AsInt64(), 2);

  QueryResult unaligned = Exec(
      "SELECT seq FROM Reads LEFT OUTER JOIN Aligns ON r_id = a_r_id "
      "WHERE a_r_id IS NULL");
  ASSERT_EQ(unaligned.rows.size(), 1u);
  EXPECT_EQ(unaligned.rows[0][0].AsString(), "CCCC");

  // Plan names the outer join.
  Result<std::string> plan = engine_->Explain(
      "SELECT r_id FROM Reads LEFT JOIN Aligns ON r_id = a_r_id");
  ASSERT_TRUE(plan.ok());
  EXPECT_NE(plan->find("Left Outer Join"), std::string::npos) << *plan;

  // Non-equi LEFT JOIN is rejected, not silently mis-planned.
  ExecError("SELECT r_id FROM Reads LEFT JOIN Aligns ON r_id < a_r_id");
}

TEST_F(SqlTest, JoinResultsCorrect) {
  Exec("CREATE TABLE L (id BIGINT PRIMARY KEY, lv VARCHAR(10))");
  Exec("CREATE TABLE R (id BIGINT PRIMARY KEY, rv VARCHAR(10))");
  Exec("INSERT INTO L VALUES (1,'a'), (2,'b'), (3,'c')");
  Exec("INSERT INTO R VALUES (2,'x'), (3,'y'), (4,'z')");
  QueryResult r =
      Exec("SELECT L.id, lv, rv FROM L JOIN R ON L.id = R.id ORDER BY 1");
  ASSERT_EQ(r.rows.size(), 2u);
  EXPECT_EQ(r.rows[0][1].AsString(), "b");
  EXPECT_EQ(r.rows[0][2].AsString(), "x");
  EXPECT_EQ(r.rows[1][2].AsString(), "y");
}

// SQL equi-joins never match a NULL key: the merge join (clustered
// inputs) and the hash join (heaps) over the same rows agree.
TEST_F(SqlTest, MergeJoinNullKeysNeverMatch) {
  for (const char* layout : {" CLUSTER BY (k)", ""}) {
    Exec(std::string("CREATE TABLE a (k INT, v INT)") + layout);
    Exec(std::string("CREATE TABLE b (k INT, w INT)") + layout);
    Exec("INSERT INTO a VALUES (NULL, 1), (NULL, 2), (1, 3)");
    Exec("INSERT INTO b VALUES (NULL, 10), (1, 30)");
    const char* sql = "SELECT v, w FROM a JOIN b ON a.k = b.k";
    Result<std::string> plan = engine_->Explain(sql);
    ASSERT_TRUE(plan.ok());
    EXPECT_NE(plan->find(*layout != '\0' ? "Merge Join" : "Hash Match"),
              std::string::npos)
        << *plan;
    QueryResult r = Exec(sql);
    ASSERT_EQ(r.rows.size(), 1u) << *plan;
    EXPECT_EQ(r.rows[0][0].AsInt64(), 3);
    EXPECT_EQ(r.rows[0][1].AsInt64(), 30);
    Exec("DROP TABLE a");
    Exec("DROP TABLE b");
  }
}

TEST_F(SqlTest, HashJoinMatchesAcrossNumericKinds) {
  // 1 and 1.0 compare equal, so they must also hash alike for the Hash
  // Match build table to pair them.
  Exec("CREATE TABLE A (x INT)");
  Exec("CREATE TABLE B (y FLOAT)");
  Exec("INSERT INTO A VALUES (1)");
  Exec("INSERT INTO B VALUES (1.0)");
  Result<std::string> plan =
      engine_->Explain("SELECT COUNT(*) FROM A JOIN B ON x = y");
  ASSERT_TRUE(plan.ok());
  EXPECT_NE(plan->find("Hash Match (Inner Join)"), std::string::npos) << *plan;
  QueryResult r = Exec("SELECT COUNT(*) FROM A JOIN B ON x = y");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0][0].AsInt64(), 1);
}

TEST_F(SqlTest, ParallelPlanForLargeHeapAggregate) {
  Exec("CREATE TABLE big (k INT, v BIGINT)");
  // Below threshold: serial plan.
  Result<std::string> serial =
      engine_->Explain("SELECT k, COUNT(*) FROM big GROUP BY k");
  ASSERT_TRUE(serial.ok());
  EXPECT_EQ(serial->find("Gather Streams"), std::string::npos);
  // Fill past the parallel threshold.
  auto* table = *db_->GetTable("big");
  for (int i = 0; i < 20000; ++i) {
    ASSERT_TRUE(db_->InsertRow(table,
                               Row{Value::Int32(i % 5), Value::Int64(i)})
                    .ok());
  }
  Result<std::string> parallel =
      engine_->Explain("SELECT k, COUNT(*) FROM big GROUP BY k");
  ASSERT_TRUE(parallel.ok());
  EXPECT_NE(parallel->find("Gather Streams"), std::string::npos) << *parallel;
  // And it returns correct results.
  QueryResult r = Exec("SELECT k, COUNT(*) AS c FROM big GROUP BY k ORDER BY k");
  ASSERT_EQ(r.rows.size(), 5u);
  EXPECT_EQ(r.rows[0][1].AsInt64(), 4000);
}

TEST_F(SqlTest, SubqueryInFrom) {
  Exec("CREATE TABLE t (a INT, b INT)");
  Exec("INSERT INTO t VALUES (1, 10), (2, 20), (3, 30)");
  QueryResult r = Exec(
      "SELECT total FROM (SELECT SUM(b) AS total FROM t) sub");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0][0].AsInt64(), 60);
}

TEST_F(SqlTest, TopAndOrderBy) {
  Exec("CREATE TABLE t (a INT)");
  Exec("INSERT INTO t VALUES (5), (3), (9), (1), (7)");
  QueryResult r = Exec("SELECT TOP 2 a FROM t ORDER BY a DESC");
  ASSERT_EQ(r.rows.size(), 2u);
  EXPECT_EQ(r.rows[0][0].AsInt64(), 9);
  EXPECT_EQ(r.rows[1][0].AsInt64(), 7);
}

TEST_F(SqlTest, OrderByHiddenExpression) {
  Exec("CREATE TABLE t (a INT, b INT)");
  Exec("INSERT INTO t VALUES (1, 30), (2, 10), (3, 20)");
  QueryResult r = Exec("SELECT a FROM t ORDER BY b");
  ASSERT_EQ(r.rows.size(), 3u);
  EXPECT_EQ(r.schema.num_columns(), 1);  // hidden sort column dropped
  EXPECT_EQ(r.rows[0][0].AsInt64(), 2);
  EXPECT_EQ(r.rows[2][0].AsInt64(), 1);
}

TEST_F(SqlTest, ScalarFunctions) {
  QueryResult r = Exec(
      "SELECT CHARINDEX('N', 'ACGNT'), LEN('ACGT  '), SUBSTRING('GATTACA', "
      "2, 3), UPPER('acgt'), REVERSE('ACGT')");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0][0].AsInt64(), 4);
  EXPECT_EQ(r.rows[0][1].AsInt64(), 4);
  EXPECT_EQ(r.rows[0][2].AsString(), "ATT");
  EXPECT_EQ(r.rows[0][3].AsString(), "ACGT");
  EXPECT_EQ(r.rows[0][4].AsString(), "TGCA");
}

TEST_F(SqlTest, GenomicsScalars) {
  QueryResult r = Exec(
      "SELECT REVCOMP('ACGT'), UNPACK_DNA(PACK_DNA('ACGTN')), "
      "DNA_LENGTH(PACK_DNA('ACGTACGT'))");
  EXPECT_EQ(r.rows[0][0].AsString(), "ACGT");
  EXPECT_EQ(r.rows[0][1].AsString(), "ACGTN");
  EXPECT_EQ(r.rows[0][2].AsInt64(), 8);
}

TEST_F(SqlTest, CaseAndCastAndIn) {
  Exec("CREATE TABLE t (a INT)");
  Exec("INSERT INTO t VALUES (1), (2), (3), (4)");
  QueryResult r = Exec(
      "SELECT a, CASE WHEN a % 2 = 0 THEN 'even' ELSE 'odd' END, "
      "CAST(a AS VARCHAR) FROM t WHERE a IN (2, 3) ORDER BY a");
  ASSERT_EQ(r.rows.size(), 2u);
  EXPECT_EQ(r.rows[0][1].AsString(), "even");
  EXPECT_EQ(r.rows[0][2].AsString(), "2");
  EXPECT_EQ(r.rows[1][1].AsString(), "odd");
}

TEST_F(SqlTest, LikePredicate) {
  Exec("CREATE TABLE seqs (s VARCHAR(20))");
  Exec("INSERT INTO seqs VALUES ('ACGT'), ('AANN'), ('TTTT'), (NULL)");
  QueryResult r =
      Exec("SELECT s FROM seqs WHERE s LIKE 'A%' ORDER BY s");
  ASSERT_EQ(r.rows.size(), 2u);
  EXPECT_EQ(r.rows[0][0].AsString(), "AANN");
  r = Exec("SELECT s FROM seqs WHERE s NOT LIKE '%N%' ORDER BY s");
  ASSERT_EQ(r.rows.size(), 2u);  // NULL excluded by three-valued logic
  EXPECT_EQ(r.rows[0][0].AsString(), "ACGT");
  r = Exec("SELECT s FROM seqs WHERE s LIKE '_C__'");
  ASSERT_EQ(r.rows.size(), 1u);
}

TEST_F(SqlTest, BetweenPredicate) {
  Exec("CREATE TABLE nums (a INT)");
  Exec("INSERT INTO nums VALUES (1), (5), (10), (15)");
  QueryResult r = Exec("SELECT a FROM nums WHERE a BETWEEN 5 AND 10 ORDER BY a");
  ASSERT_EQ(r.rows.size(), 2u);
  EXPECT_EQ(r.rows[0][0].AsInt64(), 5);
  EXPECT_EQ(r.rows[1][0].AsInt64(), 10);
  r = Exec("SELECT a FROM nums WHERE a NOT BETWEEN 5 AND 10 ORDER BY a");
  ASSERT_EQ(r.rows.size(), 2u);
  EXPECT_EQ(r.rows[1][0].AsInt64(), 15);
}

TEST_F(SqlTest, SelectDistinct) {
  Exec("CREATE TABLE dup (a INT, b VARCHAR(5))");
  Exec("INSERT INTO dup VALUES (1,'x'), (1,'x'), (2,'y'), (1,'z')");
  QueryResult r = Exec("SELECT DISTINCT a, b FROM dup ORDER BY a, b");
  ASSERT_EQ(r.rows.size(), 3u);
  r = Exec("SELECT DISTINCT a FROM dup ORDER BY a");
  ASSERT_EQ(r.rows.size(), 2u);
}

TEST_F(SqlTest, DistinctComparesValuesNotTheirPrintedForm) {
  // All three doubles print as 1.23457 (%g) and every blob prints as
  // "<blob 4 bytes>": DISTINCT and DISTINCT aggregates must compare the
  // values themselves, exactly as GROUP BY does.
  Exec("CREATE TABLE d (x FLOAT, v VARBINARY(8))");
  Exec("INSERT INTO d VALUES (1.2345671, 'abcd'), (1.2345672, 'abce'), "
       "(1.2345673, 'abcf')");
  EXPECT_EQ(Exec("SELECT x FROM d GROUP BY x").rows.size(), 3u);
  EXPECT_EQ(Exec("SELECT DISTINCT x FROM d").rows.size(), 3u);
  EXPECT_EQ(Exec("SELECT DISTINCT v FROM d").rows.size(), 3u);
  QueryResult r = Exec(
      "SELECT COUNT(DISTINCT x), SUM(DISTINCT x), COUNT(DISTINCT v) FROM d");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0][0].AsInt64(), 3);
  EXPECT_DOUBLE_EQ(r.rows[0][1].AsDouble(), 1.2345671 + 1.2345672 + 1.2345673);
  EXPECT_EQ(r.rows[0][2].AsInt64(), 3);
}

TEST_F(SqlTest, CountDistinct) {
  Exec("CREATE TABLE obs (g INT, v INT)");
  Exec("INSERT INTO obs VALUES (1,10), (1,10), (1,20), (2,10), (2,10)");
  QueryResult r = Exec(
      "SELECT g, COUNT(*) AS n, COUNT(DISTINCT v) AS d FROM obs "
      "GROUP BY g ORDER BY g");
  ASSERT_EQ(r.rows.size(), 2u);
  EXPECT_EQ(r.rows[0][1].AsInt64(), 3);
  EXPECT_EQ(r.rows[0][2].AsInt64(), 2);
  EXPECT_EQ(r.rows[1][1].AsInt64(), 2);
  EXPECT_EQ(r.rows[1][2].AsInt64(), 1);
}

TEST_F(SqlTest, CountDistinctParallelPlanCorrect) {
  // DISTINCT aggregates must stay correct through partial/final merge.
  Exec("CREATE TABLE big2 (k INT, v INT)");
  auto* table = *db_->GetTable("big2");
  for (int i = 0; i < 20000; ++i) {
    ASSERT_TRUE(db_->InsertRow(table, Row{Value::Int32(i % 3),
                                          Value::Int32(i % 17)})
                    .ok());
  }
  QueryResult r = Exec(
      "SELECT k, COUNT(DISTINCT v) FROM big2 GROUP BY k ORDER BY k");
  ASSERT_EQ(r.rows.size(), 3u);
  for (const Row& row : r.rows) {
    EXPECT_EQ(row[1].AsInt64(), 17);
  }
}

TEST_F(SqlTest, IsNullPredicate) {
  Exec("CREATE TABLE t (a INT, b VARCHAR(5))");
  Exec("INSERT INTO t VALUES (1, 'x'), (2, NULL)");
  QueryResult r = Exec("SELECT a FROM t WHERE b IS NULL");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0][0].AsInt64(), 2);
  r = Exec("SELECT a FROM t WHERE b IS NOT NULL");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0][0].AsInt64(), 1);
}

TEST_F(SqlTest, FileStreamImportAndWrapperTvf) {
  // The paper's §3.3 flow end to end: CREATE TABLE with FILESTREAM,
  // OPENROWSET bulk import, metadata query, then the wrapper TVF.
  const std::string fastq = "/tmp/htg_sql_855_s_1.fastq";
  FILE* f = fopen(fastq.c_str(), "wb");
  fputs(
      "@IL4_855:1:1:954:659\n"
      "GTTTTTATGGTTTTAGATCTTAAGTCTTTAATCCAA\n"
      "+\n"
      ">>>>>>>>>>>>>>>6>>>>>>>;>>>>>>;>>;>;\n"
      "@IL4_855:1:1:497:759\n"
      "ACGTACGTACGTACGTACGTACGTACGTACGTACGT\n"
      "+\n"
      "IIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIII\n",
      f);
  fclose(f);

  Exec("CREATE TABLE ShortReadFiles ("
       " guid UNIQUEIDENTIFIER ROWGUIDCOL PRIMARY KEY,"
       " sample INT, lane INT,"
       " reads VARBINARY(MAX) FILESTREAM"
       ") FILESTREAM_ON FileStreamGroup");
  Exec("INSERT INTO ShortReadFiles (guid, sample, lane, reads) "
       "SELECT NEWID(), 855, 1, * "
       "FROM OPENROWSET(BULK '" + fastq + "', SINGLE_BLOB)");

  // Metadata: DATALENGTH resolves the external file size; PATHNAME points
  // into the FileStream store.
  QueryResult meta = Exec(
      "SELECT guid, sample, lane, PATHNAME(reads), DATALENGTH(reads) "
      "FROM ShortReadFiles");
  ASSERT_EQ(meta.rows.size(), 1u);
  EXPECT_EQ(meta.rows[0][1].AsInt64(), 855);
  EXPECT_GT(meta.rows[0][4].AsInt64(), 100);
  EXPECT_NE(meta.rows[0][3].AsString().find(db_->filestream()->root()),
            std::string::npos);

  // The wrapper TVF streams the records back out of the BLOB.
  QueryResult rows = Exec("SELECT * FROM ListShortReads(855, 1, 'FastQ')");
  ASSERT_EQ(rows.rows.size(), 2u);
  EXPECT_EQ(rows.rows[0][0].AsString(), "IL4_855:1:1:954:659");
  EXPECT_EQ(rows.rows[0][1].AsString(),
            "GTTTTTATGGTTTTAGATCTTAAGTCTTTAATCCAA");

  // And composes with relational operators.
  QueryResult counted = Exec(
      "SELECT COUNT(*) FROM ListShortReads(855, 1, 'FastQ') "
      "WHERE CHARINDEX('N', short_read_seq) = 0");
  EXPECT_EQ(counted.rows[0][0].AsInt64(), 2);
}

TEST_F(SqlTest, CrossApplyPivotAlignment) {
  Exec("CREATE TABLE aligned (pos BIGINT, seq VARCHAR(10), quals "
       "VARCHAR(10))");
  Exec("INSERT INTO aligned VALUES (100, 'ACG', 'III'), (101, 'CGT', 'III')");
  QueryResult r = Exec(
      "SELECT pa.pos AS ref_pos, base, qual FROM aligned "
      "CROSS APPLY PivotAlignment(aligned.pos, seq, quals) AS pa "
      "ORDER BY ref_pos, base");
  // 3 bases per read at overlapping reference positions 100..103.
  ASSERT_EQ(r.rows.size(), 6u);
  EXPECT_EQ(r.rows[0][0].AsInt64(), 100);
  EXPECT_EQ(r.rows[0][1].AsString(), "A");
  EXPECT_EQ(r.rows[5][0].AsInt64(), 103);
  EXPECT_EQ(r.rows[5][1].AsString(), "T");
  // Unqualified `pos` is ambiguous between the table and the TVF output.
  ExecError(
      "SELECT pos FROM aligned "
      "CROSS APPLY PivotAlignment(aligned.pos, seq, quals) AS pa");
}

TEST_F(SqlTest, ConsensusViaSqlAggregates) {
  // Query 3's inner shape over a toy alignment set.
  Exec("CREATE TABLE aligned (chromosome INT, pos BIGINT, seq VARCHAR(10), "
       "quals VARCHAR(10))");
  // Two overlapping reads on chromosome 1: consensus ACGT A.
  Exec("INSERT INTO aligned VALUES (1, 0, 'ACGT', 'IIII'), "
       "(1, 2, 'GTA', 'III')");
  QueryResult r = Exec(
      "SELECT chromosome, AssembleConsensus(pos, seq, quals) AS consensus "
      "FROM aligned GROUP BY chromosome");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0][1].AsString(), "ACGTA");
}

TEST_F(SqlTest, ExplainShowsParallelBinningPlan) {
  Exec("CREATE TABLE ReadT (r_e_id INT, short_read_seq VARCHAR(40))");
  auto* table = *db_->GetTable("ReadT");
  for (int i = 0; i < 15000; ++i) {
    ASSERT_TRUE(
        db_->InsertRow(table, Row{Value::Int32(1),
                                  Value::String("ACGT" +
                                                std::to_string(i % 100))})
            .ok());
  }
  Result<std::string> plan = engine_->Explain(
      "SELECT ROW_NUMBER() OVER (ORDER BY COUNT(*) DESC), COUNT(*), "
      "short_read_seq FROM ReadT WHERE CHARINDEX('N', short_read_seq) = 0 "
      "GROUP BY short_read_seq");
  ASSERT_TRUE(plan.ok());
  // The Fig. 9 shape: sequence project over sort over gather over
  // partitioned partial aggregation with per-partition filters.
  EXPECT_NE(plan->find("Sequence Project"), std::string::npos) << *plan;
  EXPECT_NE(plan->find("Gather Streams"), std::string::npos) << *plan;
  EXPECT_NE(plan->find("Filter"), std::string::npos) << *plan;
  EXPECT_NE(plan->find("Table Scan [ReadT] pages"), std::string::npos)
      << *plan;
}

TEST_F(SqlTest, ParallelCrossApplyPipelineMatchesSerial) {
  // A non-aggregate CROSS APPLY pipeline over a big heap parallelizes as
  // an exchange; the order-preserving gather keeps output byte-identical
  // to the serial plan.
  Exec("CREATE TABLE aligned (pos BIGINT, seq VARCHAR(10), quals "
       "VARCHAR(10))");
  auto* table = *db_->GetTable("aligned");
  for (int i = 0; i < 12000; ++i) {
    ASSERT_TRUE(db_->InsertRow(table, Row{Value::Int64(i * 2),
                                          Value::String("ACG"),
                                          Value::String("III")})
                    .ok());
  }
  const std::string query =
      "SELECT pa.pos AS ref_pos, base, qual FROM aligned "
      "CROSS APPLY PivotAlignment(aligned.pos, seq, quals) AS pa";

  db_->set_max_dop(1);
  Result<std::string> serial_plan = engine_->Explain(query);
  ASSERT_TRUE(serial_plan.ok());
  EXPECT_EQ(serial_plan->find("Gather Streams"), std::string::npos)
      << *serial_plan;
  QueryResult serial = Exec(query);

  db_->set_max_dop(4);
  Result<std::string> plan = engine_->Explain(query);
  ASSERT_TRUE(plan.ok());
  EXPECT_NE(plan->find("Gather Streams"), std::string::npos) << *plan;
  EXPECT_NE(plan->find("Distribute Streams"), std::string::npos) << *plan;
  QueryResult parallel = Exec(query);

  ASSERT_EQ(serial.rows.size(), 12000u * 3);
  ASSERT_EQ(parallel.rows.size(), serial.rows.size());
  for (size_t i = 0; i < serial.rows.size(); ++i) {
    for (size_t c = 0; c < serial.rows[i].size(); ++c) {
      ASSERT_EQ(serial.rows[i][c].Compare(parallel.rows[i][c]), 0)
          << "row " << i;
    }
  }
}

TEST_F(SqlTest, ConcurrentParallelQueriesShareDefaultPool) {
  // Two threads running the parallel-aggregate Query 1 shape concurrently
  // share ThreadPool::Default(); both must complete with correct results.
  Exec("CREATE TABLE ReadT (r_e_id INT, short_read_seq VARCHAR(40))");
  auto* table = *db_->GetTable("ReadT");
  for (int i = 0; i < 20000; ++i) {
    ASSERT_TRUE(db_->InsertRow(
                    table, Row{Value::Int32(1),
                               Value::String("ACGT" + std::to_string(i % 5))})
                    .ok());
  }
  const std::string query =
      "SELECT COUNT(*) AS freq, short_read_seq FROM ReadT "
      "WHERE CHARINDEX('N', short_read_seq) = 0 "
      "GROUP BY short_read_seq ORDER BY short_read_seq";
  // The plan must actually be parallel for this to exercise contention.
  Result<std::string> plan = engine_->Explain(query);
  ASSERT_TRUE(plan.ok());
  ASSERT_NE(plan->find("Gather Streams"), std::string::npos) << *plan;

  constexpr int kRunsPerThread = 4;
  std::atomic<int> failures{0};
  auto run = [&] {
    for (int r = 0; r < kRunsPerThread; ++r) {
      Result<QueryResult> result = engine_->Execute(query);
      if (!result.ok() || result->rows.size() != 5) {
        failures.fetch_add(1);
        continue;
      }
      for (const Row& row : result->rows) {
        if (row[0].AsInt64() != 4000) failures.fetch_add(1);
      }
    }
  };
  std::thread a(run);
  std::thread b(run);
  a.join();
  b.join();
  EXPECT_EQ(failures.load(), 0);
}

TEST_F(SqlTest, ErrorsAreReported) {
  ExecError("SELECT FROM");
  ExecError("SELECT unknown_col FROM nowhere");
  Exec("CREATE TABLE t (a INT)");
  ExecError("SELECT b FROM t");
  ExecError("INSERT INTO t VALUES (1, 2)");  // too many values
  ExecError("SELECT a, COUNT(*) FROM t");    // a not grouped
  ExecError("CREATE TABLE t (a INT)");       // duplicate
}

// SUM and AVG accumulate numbers: a non-numeric argument is a typed bind
// error, and a string reaching them at run time through an expression
// declared numeric is a typed execution error, never a thrown variant
// access.
TEST_F(SqlTest, SumAndAvgRejectNonNumericArguments) {
  Exec("CREATE TABLE t (a INT, s VARCHAR(10))");
  Exec("INSERT INTO t VALUES (1, 'x'), (-1, 'y'), (2, NULL)");
  for (const char* sql :
       {"SELECT SUM(s) FROM t", "SELECT AVG(s) FROM t",
        "SELECT a, SUM(s) FROM t GROUP BY a"}) {
    Result<QueryResult> r = engine_->Execute(sql);
    ASSERT_FALSE(r.ok()) << sql;
    EXPECT_EQ(r.status().code(), StatusCode::kBindError)
        << sql << ": " << r.status().ToString();
    EXPECT_NE(r.status().message().find("requires a numeric argument"),
              std::string::npos)
        << r.status().ToString();
  }
  // CASE is typed by its first branch (INT here); the ELSE branch yields
  // a string for a <= 0.
  for (const char* sql :
       {"SELECT SUM(CASE WHEN a > 0 THEN a ELSE s END) FROM t",
        "SELECT AVG(CASE WHEN a > 0 THEN a ELSE s END) FROM t"}) {
    Result<QueryResult> r = engine_->Execute(sql);
    ASSERT_FALSE(r.ok()) << sql;
    EXPECT_EQ(r.status().code(), StatusCode::kExecError)
        << sql << ": " << r.status().ToString();
  }
  // Numeric arguments still aggregate; MIN/MAX still take strings.
  QueryResult ok = Exec("SELECT SUM(a), AVG(a), MIN(s), MAX(s) FROM t");
  ASSERT_EQ(ok.rows.size(), 1u);
  EXPECT_EQ(ok.rows[0][0].AsInt64(), 2);
  EXPECT_EQ(ok.rows[0][2].AsString(), "x");
  EXPECT_EQ(ok.rows[0][3].AsString(), "y");
}

// SUM over BIGINT that leaves int64 is a typed kOutOfRange, not a wrapped
// total: serially, and at DOP 8 where the partials meet in Merge.
TEST_F(SqlTest, SumOverflowIsTypedError) {
  Exec("CREATE TABLE t (v BIGINT)");
  Exec("INSERT INTO t VALUES (9223372036854775807), (1)");
  db_->set_max_dop(1);
  Result<QueryResult> serial = engine_->Execute("SELECT SUM(v) FROM t");
  ASSERT_FALSE(serial.ok());
  EXPECT_EQ(serial.status().code(), StatusCode::kOutOfRange)
      << serial.status().ToString();
  EXPECT_NE(serial.status().message().find("arithmetic overflow"),
            std::string::npos);

  // Two halves of the overflow at opposite ends of a table past the
  // parallel threshold, in one group: each partial fits, their merge
  // does not.
  Exec("CREATE TABLE big (k INT, v BIGINT)");
  auto* table = *db_->GetTable("big");
  constexpr int kRows = 20000;
  constexpr int64_t kHalf = std::numeric_limits<int64_t>::max() / 2 + 1;
  for (int i = 0; i < kRows; ++i) {
    const int64_t v = (i == 0 || i == kRows - 5) ? kHalf : 0;
    ASSERT_TRUE(
        db_->InsertRow(table, Row{Value::Int32(i % 5), Value::Int64(v)}).ok());
  }
  db_->set_max_dop(8);
  for (const char* sql : {"SELECT SUM(v) FROM big",
                          "SELECT k, SUM(v) FROM big GROUP BY k"}) {
    Result<std::string> plan = engine_->Explain(sql);
    ASSERT_TRUE(plan.ok());
    EXPECT_NE(plan->find("Gather Streams"), std::string::npos) << *plan;
    Result<QueryResult> r = engine_->Execute(sql);
    ASSERT_FALSE(r.ok()) << sql;
    EXPECT_EQ(r.status().code(), StatusCode::kOutOfRange)
        << sql << ": " << r.status().ToString();
  }
  // The engine keeps serving.
  EXPECT_EQ(Exec("SELECT COUNT(*) FROM big").rows[0][0].AsInt64(), kRows);
}

// Arithmetic whose result leaves the value domain is a typed kOutOfRange,
// never undefined behaviour, a SIGFPE or a NaN: integer overflow (and
// INT64_MIN / -1, % -1, negation and ABS), double overflow, SQRT / LOG /
// POWER domain errors and non-finite numeric text. Each case runs as a
// constant SELECT and over table columns through the batch kernels (a
// projection and a sort key), serially and at DOP 8.
TEST_F(SqlTest, ArithmeticOutsideTheValueDomainIsTypedError) {
  Exec("CREATE TABLE big (k INT, lo BIGINT, hi BIGINT, d FLOAT, e FLOAT, "
       "s VARCHAR(8))");
  auto* table = *db_->GetTable("big");
  constexpr int kRows = 20000;
  constexpr int kOdd = kRows - 3;  // the one row whose values leave the domain
  for (int i = 0; i < kRows; ++i) {
    const bool odd = i == kOdd;
    ASSERT_TRUE(
        db_->InsertRow(
               table,
               Row{Value::Int32(i),
                   Value::Int64(odd ? std::numeric_limits<int64_t>::min()
                                    : -i),
                   Value::Int64(odd ? std::numeric_limits<int64_t>::max()
                                    : i),
                   Value::Double(odd ? -1.0 : 4.0),
                   Value::Double(odd ? 1e308 : 1.0),
                   Value::String(odd ? "nan" : "2.5")})
            .ok());
  }
  // {constant expression, the same over the columns}
  const std::vector<std::pair<std::string, std::string>> cases = {
      {"(-9223372036854775807 - 1) / -1", "lo / -1"},
      {"(-9223372036854775807 - 1) % -1", "lo % -1"},
      {"-(-9223372036854775807 - 1)", "-lo"},
      {"ABS(-9223372036854775807 - 1)", "ABS(lo)"},
      {"(-9223372036854775807 - 1) - 1", "lo - 1"},
      {"9223372036854775807 + 1", "hi + 1"},
      {"9223372036854775807 * 2", "hi * 2"},
      {"1e308 * 10.0", "e * 10.0"},
      {"1e308 + 1e308", "e + e"},
      {"-1e308 - 1e308", "-e - e"},
      {"1e308 / 0.1", "e / 0.1"},
      {"SQRT(-1.0)", "SQRT(d)"},
      {"LOG(-1.0)", "LOG(d)"},
      {"LOG(0.0)", "LOG(d - d)"},
      {"POWER(10.0, 400.0)", "POWER(e, 2.0)"},
      {"POWER(-1.0, 0.5)", "POWER(d, 0.5)"},
      {"CAST('nan' AS FLOAT)", "CAST(s AS FLOAT)"},
      {"CAST('inf' AS FLOAT)", "CAST(s AS FLOAT) + 1.0"},
      {"1e999", "e + 1e999"},
  };
  for (int dop : {1, 8}) {
    SCOPED_TRACE(dop);
    db_->set_max_dop(dop);
    for (const auto& [constant, column] : cases) {
      for (const std::string& sql :
           {"SELECT " + constant, "SELECT k, " + column + " FROM big",
            "SELECT k FROM big ORDER BY " + column}) {
        Result<QueryResult> r = engine_->Execute(sql);
        ASSERT_FALSE(r.ok()) << sql;
        EXPECT_EQ(r.status().code(), StatusCode::kOutOfRange)
            << sql << ": " << r.status().ToString();
      }
    }
    // In-range arithmetic still works, and the short-circuit AND keeps
    // the odd row away from the division.
    EXPECT_EQ(Exec("SELECT COUNT(*) FROM big WHERE k <> " +
                   std::to_string(kOdd) + " AND lo / -1 >= 0")
                  .rows[0][0]
                  .AsInt64(),
              kRows - 1);
    const QueryResult ok = Exec(
        "SELECT -9223372036854775807 - 1, 9223372036854775806 + 1, "
        "-7 / 2, -7 % 3, SQRT(4.0), LOG(1.0), POWER(2.0, 10.0), "
        "ROUND(2.5, 400), ROUND(2.5, -400), ROUND(1e300, 10)");
    ASSERT_EQ(ok.rows.size(), 1u);
    EXPECT_EQ(ok.rows[0][0].AsInt64(), std::numeric_limits<int64_t>::min());
    EXPECT_EQ(ok.rows[0][1].AsInt64(), std::numeric_limits<int64_t>::max());
    EXPECT_EQ(ok.rows[0][2].AsInt64(), -3);
    EXPECT_EQ(ok.rows[0][3].AsInt64(), -1);
    EXPECT_EQ(ok.rows[0][4].AsDouble(), 2.0);
    EXPECT_EQ(ok.rows[0][5].AsDouble(), 0.0);
    EXPECT_EQ(ok.rows[0][6].AsDouble(), 1024.0);
    EXPECT_EQ(ok.rows[0][7].AsDouble(), 2.5);
    EXPECT_EQ(ok.rows[0][8].AsDouble(), 0.0);
    EXPECT_EQ(ok.rows[0][9].AsDouble(), 1e300);
  }
}

// An integer outside a column's range is rejected, not wrapped: 5e9 into
// INT used to store 705032704.
TEST_F(SqlTest, InsertOutOfRangeIntegerIsRejected) {
  Exec("CREATE TABLE t (a INT, b BIGINT)");
  for (const char* sql : {"INSERT INTO t VALUES (5000000000, 1)",
                          "INSERT INTO t VALUES (-2147483649, 1)",
                          "INSERT INTO t VALUES (3e9, 1)",
                          "INSERT INTO t VALUES (1, 1e300)"}) {
    Result<QueryResult> r = engine_->Execute(sql);
    ASSERT_FALSE(r.ok()) << sql;
    EXPECT_TRUE(r.status().IsInvalidArgument())
        << sql << ": " << r.status().ToString();
  }
  Exec("INSERT INTO t VALUES (2147483647, 5000000000)");
  QueryResult r = Exec("SELECT a, b FROM t");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0][0].AsInt64(), 2147483647);
  EXPECT_EQ(r.rows[0][1].AsInt64(), 5000000000LL);
}

TEST_F(SqlTest, TruncateAndDrop) {
  Exec("CREATE TABLE t (a INT)");
  Exec("INSERT INTO t VALUES (1), (2)");
  Exec("TRUNCATE TABLE t");
  EXPECT_EQ(Exec("SELECT COUNT(*) FROM t").rows[0][0].AsInt64(), 0);
  Exec("DROP TABLE t");
  ExecError("SELECT * FROM t");
}

TEST_F(SqlTest, CompressionSyntaxAccepted) {
  Exec("CREATE TABLE T1 (c1 INT, c2 NVARCHAR(50)) "
       "WITH (DATA_COMPRESSION = ROW)");
  Exec("CREATE TABLE T2 (c1 INT, c2 NVARCHAR(50)) "
       "WITH (DATA_COMPRESSION = PAGE)");
  auto* t1 = *db_->GetTable("T1");
  auto* t2 = *db_->GetTable("T2");
  EXPECT_EQ(t1->compression, storage::Compression::kRow);
  EXPECT_EQ(t2->compression, storage::Compression::kPage);
}

TEST_F(SqlTest, ParserHandlesComments) {
  QueryResult r = Exec("SELECT 1 -- trailing comment\n + 1 /* inline */");
  EXPECT_EQ(r.rows[0][0].AsInt64(), 2);
}

TEST_F(SqlTest, MultiStatementScript) {
  QueryResult r = Exec(
      "CREATE TABLE t (a INT); INSERT INTO t VALUES (5); SELECT a FROM t");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0][0].AsInt64(), 5);
  // A SELECT before the last statement is read and dropped; the batch
  // answers with the last one.
  r = Exec("SELECT a FROM t; INSERT INTO t VALUES (6); SELECT COUNT(*) FROM t");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0][0].AsInt64(), 2);
}

}  // namespace
}  // namespace htg::sql
