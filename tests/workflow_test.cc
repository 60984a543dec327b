#include <gtest/gtest.h>

#include "genomics/register.h"
#include "genomics/simulator.h"
#include "storage/heap_table.h"
#include "workflow/loaders.h"
#include "workflow/schema.h"

namespace htg::workflow {
namespace {

using genomics::ReferenceGenome;
using genomics::ShortRead;

class WorkflowTest : public ::testing::Test {
 protected:
  void SetUp() override {
    static int counter = 0;
    DatabaseOptions options;
    options.filestream_root =
        "/tmp/htg_workflow_test_" + std::to_string(counter++);
    auto db = Database::Open("workflow", options);
    ASSERT_TRUE(db.ok());
    db_ = std::move(*db);
    ASSERT_TRUE(db_->filestream()->Clear().ok());
    ASSERT_TRUE(genomics::RegisterGenomicsExtensions(db_.get()).ok());
    engine_ = std::make_unique<sql::SqlEngine>(db_.get());

    ref_ = ReferenceGenome::Random(30000, 3, 71);
    genomics::SimulatorOptions sim_options;
    sim_options.seed = 72;
    sim_options.n_rate = 0.02;
    genomics::ReadSimulator sim(&ref_, sim_options);
    reads_ = sim.SimulateResequencing(500);
  }

  sql::QueryResult Exec(const std::string& sql) {
    Result<sql::QueryResult> result = engine_->Execute(sql);
    EXPECT_TRUE(result.ok()) << sql << "\n--> " << result.status().ToString();
    return result.ok() ? std::move(*result) : sql::QueryResult{};
  }

  std::unique_ptr<Database> db_;
  std::unique_ptr<sql::SqlEngine> engine_;
  ReferenceGenome ref_;
  std::vector<ShortRead> reads_;
};

TEST_F(WorkflowTest, NormalizedSchemaCreates) {
  ASSERT_TRUE(CreateGenomicsSchema(engine_.get()).ok());
  const std::vector<std::string> tables = db_->ListTables();
  EXPECT_GE(tables.size(), 10u);
  EXPECT_TRUE(db_->GetTable("Read").ok());
  EXPECT_TRUE(db_->GetTable("Alignment").ok());
  EXPECT_TRUE(db_->GetTable("ShortReadFiles").ok());
  // FileStream column survived DDL.
  auto* srf = *db_->GetTable("ShortReadFiles");
  EXPECT_TRUE(srf->schema.column(srf->schema.FindColumn("reads")).filestream);
}

TEST_F(WorkflowTest, SchemaVariantsCoexist) {
  SchemaOptions row;
  row.compression = storage::Compression::kRow;
  row.suffix = "_row";
  ASSERT_TRUE(CreateGenomicsSchema(engine_.get(), row).ok());
  SchemaOptions page;
  page.compression = storage::Compression::kPage;
  page.suffix = "_page";
  ASSERT_TRUE(CreateGenomicsSchema(engine_.get(), page).ok());
  ASSERT_TRUE(CreateOneToOneSchema(engine_.get()).ok());
  EXPECT_TRUE(db_->GetTable("Read_row").ok());
  EXPECT_TRUE(db_->GetTable("Read_page").ok());
  EXPECT_TRUE(db_->GetTable("Read_1to1").ok());
  EXPECT_EQ((*db_->GetTable("Read_page"))->compression,
            storage::Compression::kPage);
}

TEST_F(WorkflowTest, LoadReadsDecomposesCoordinates) {
  ASSERT_TRUE(CreateGenomicsSchema(engine_.get()).ok());
  Result<LoadResult> loaded = LoadReads(db_.get(), "Read", reads_, {1, 2, 3});
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->loaded, reads_.size());
  EXPECT_EQ(loaded->rejected, 0u);
  sql::QueryResult r = Exec(
      "SELECT COUNT(*), MIN(tile), MAX(tile) FROM Read WHERE r_e_id = 1");
  EXPECT_EQ(r.rows[0][0].AsInt64(), static_cast<int64_t>(reads_.size()));
  EXPECT_GE(r.rows[0][1].AsInt64(), 1);
  EXPECT_LE(r.rows[0][2].AsInt64(), 300);
}

// A coordinate beyond INT does not wrap: the read loads with NULL
// coordinates and is counted as rejected, like any malformed name.
TEST_F(WorkflowTest, LoadReadsRejectsOverflowingCoordinates) {
  ASSERT_TRUE(CreateGenomicsSchema(engine_.get()).ok());
  std::vector<ShortRead> reads(reads_.begin(), reads_.begin() + 3);
  reads[1].name = "IL4_855:1:17:5000000000:659";
  Result<LoadResult> loaded = LoadReads(db_.get(), "Read", reads, {1, 1, 1});
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->loaded, 3u);
  EXPECT_EQ(loaded->rejected, 1u);
  sql::QueryResult r = Exec("SELECT r_id, x FROM Read WHERE x IS NULL");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0][0].AsInt64(), 1);
}

TEST_F(WorkflowTest, NormalizedSmallerThanOneToOne) {
  // The §5.1 storage claim in miniature: the normalized schema links
  // alignments back to reads by compact numeric foreign keys, while the
  // 1:1 file import repeats the textual composite read name in every
  // alignment row (the paper reports ~40% savings on alignments).
  ASSERT_TRUE(CreateGenomicsSchema(engine_.get()).ok());
  ASSERT_TRUE(CreateOneToOneSchema(engine_.get()).ok());
  ASSERT_TRUE(LoadReads(db_.get(), "Read", reads_, {1, 1, 1}).ok());
  ASSERT_TRUE(LoadReadsOneToOne(db_.get(), "Read_1to1", reads_).ok());

  genomics::Aligner aligner(&ref_, {});
  std::vector<genomics::Alignment> alignments = aligner.AlignBatch(reads_);
  ASSERT_GT(alignments.size(), 100u);
  ASSERT_TRUE(
      LoadAlignments(db_.get(), "Alignment", alignments, {1, 1, 1}).ok());
  ASSERT_TRUE(LoadAlignmentsOneToOne(db_.get(), "Alignment_1to1", alignments,
                                     reads_, ref_)
                  .ok());

  const uint64_t norm_align =
      (*db_->GetTable("Alignment"))->table->Stats().data_bytes;
  const uint64_t one_align =
      (*db_->GetTable("Alignment_1to1"))->table->Stats().data_bytes;
  EXPECT_LT(norm_align, one_align);

  // Under ROW compression (variable-length numeric storage) the compact
  // foreign keys pay off fully: the ~40% saving of the paper's §5.1.2.
  SchemaOptions row_options;
  row_options.compression = storage::Compression::kRow;
  row_options.suffix = "_rowc";
  ASSERT_TRUE(CreateGenomicsSchema(engine_.get(), row_options).ok());
  Exec(
      "CREATE TABLE Alignment_1to1r (read_name VARCHAR(100) NOT NULL, "
      "chromosome VARCHAR(100) NOT NULL, pos BIGINT, strand CHAR(1), "
      "mismatches INT, mapq INT) WITH (DATA_COMPRESSION = ROW)");
  ASSERT_TRUE(
      LoadAlignments(db_.get(), "Alignment_rowc", alignments, {1, 1, 1}).ok());
  ASSERT_TRUE(LoadAlignmentsOneToOne(db_.get(), "Alignment_1to1r", alignments,
                                     reads_, ref_)
                  .ok());
  const uint64_t norm_rowc =
      (*db_->GetTable("Alignment_rowc"))->table->Stats().data_bytes;
  const uint64_t one_rowc =
      (*db_->GetTable("Alignment_1to1r"))->table->Stats().data_bytes;
  EXPECT_LT(norm_rowc, one_rowc * 6 / 10);  // ≥ 40% smaller

  // Across the whole lane (reads + alignments), uncompressed normalized
  // storage is on par with the 1:1 import (the paper: "a plain normalized
  // relational schema ... achieve[s] the same storage efficiency"); allow
  // a few percent either way.
  const uint64_t norm_total =
      (*db_->GetTable("Read"))->table->Stats().data_bytes + norm_align;
  const uint64_t one_total =
      (*db_->GetTable("Read_1to1"))->table->Stats().data_bytes + one_align;
  EXPECT_LT(norm_total, one_total * 105 / 100);
}

TEST_F(WorkflowTest, AlignLoadAndQuery) {
  ASSERT_TRUE(CreateGenomicsSchema(engine_.get()).ok());
  ASSERT_TRUE(LoadReads(db_.get(), "Read", reads_, {1, 1, 1}).ok());
  ASSERT_TRUE(LoadReferenceCatalog(db_.get(), "ReferenceSequence", ref_).ok());
  genomics::Aligner aligner(&ref_, {});
  std::vector<genomics::Alignment> alignments = aligner.AlignBatch(reads_);
  ASSERT_GT(alignments.size(), 100u);
  ASSERT_TRUE(LoadAlignments(db_.get(), "Alignment", alignments, {1, 1, 1}).ok());

  // Foreign-key join back to reads and the reference catalog.
  sql::QueryResult r = Exec(
      "SELECT name, COUNT(*) AS hits FROM Alignment "
      "JOIN ReferenceSequence ON a_g_id = g_id "
      "GROUP BY name ORDER BY name");
  EXPECT_EQ(r.rows.size(), 3u);
  int64_t total = 0;
  for (const Row& row : r.rows) total += row[1].AsInt64();
  EXPECT_EQ(total, static_cast<int64_t>(alignments.size()));
}

TEST_F(WorkflowTest, ClusteredSchemaGetsMergeJoinPlan) {
  SchemaOptions options;
  options.clustered_join_keys = true;
  ASSERT_TRUE(CreateGenomicsSchema(engine_.get(), options).ok());
  Result<std::string> plan = engine_->Explain(
      "SELECT a_pos, short_read_seq FROM Alignment "
      "JOIN Read ON a_r_id = r_id");
  ASSERT_TRUE(plan.ok());
  EXPECT_NE(plan->find("Merge Join"), std::string::npos) << *plan;
}

TEST_F(WorkflowTest, FileStreamImportFlow) {
  ASSERT_TRUE(CreateGenomicsSchema(engine_.get()).ok());
  const std::string fastq = "/tmp/htg_workflow_lane.fastq";
  ASSERT_TRUE(genomics::WriteFastqFile(fastq, reads_).ok());
  ASSERT_TRUE(
      ImportFastqAsFileStream(engine_.get(), "ShortReadFiles", fastq, 855, 1)
          .ok());
  sql::QueryResult r =
      Exec("SELECT COUNT(*) FROM ListShortReads(855, 1, 'FastQ')");
  EXPECT_EQ(r.rows[0][0].AsInt64(), static_cast<int64_t>(reads_.size()));
}

TEST_F(WorkflowTest, PaperQuery1OverLoadedLane) {
  ASSERT_TRUE(CreateGenomicsSchema(engine_.get()).ok());
  ASSERT_TRUE(LoadReads(db_.get(), "Read", reads_, {1, 2, 1}).ok());
  sql::QueryResult r = Exec(
      "SELECT TOP 5 ROW_NUMBER() OVER (ORDER BY COUNT(*) DESC) AS rank, "
      "COUNT(*) AS freq, short_read_seq "
      "FROM Read "
      "WHERE r_e_id=1 AND r_sg_id=2 AND r_s_id=1 "
      "  AND CHARINDEX('N', short_read_seq) = 0 "
      "GROUP BY short_read_seq ORDER BY rank");
  ASSERT_LE(r.rows.size(), 5u);
  ASSERT_GE(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0][0].AsInt64(), 1);

  // Cross-check total against the in-memory binning reference.
  std::vector<genomics::TagCount> expected =
      genomics::BinUniqueReads(reads_);
  sql::QueryResult total = Exec(
      "SELECT COUNT(*) FROM (SELECT short_read_seq, COUNT(*) AS c FROM Read "
      "WHERE CHARINDEX('N', short_read_seq) = 0 "
      "GROUP BY short_read_seq) t");
  EXPECT_EQ(total.rows[0][0].AsInt64(),
            static_cast<int64_t>(expected.size()));
}

// A Table 1 lane loaded by LoadReads/LoadTags (a batch at a time) seals
// the same pages as the same rows inserted one InsertRow at a time: page
// count, page bytes, zone maps and rows all agree. The page counts and
// bytes were recorded from the row-at-a-time loaders.
TEST_F(WorkflowTest, BatchLoadSealsTheSamePagesAsPerRowInserts) {
  SchemaOptions batched;
  batched.compression = storage::Compression::kPage;
  ASSERT_TRUE(CreateGenomicsSchema(engine_.get(), batched).ok());
  SchemaOptions per_row = batched;
  per_row.suffix = "_rows";
  ASSERT_TRUE(CreateGenomicsSchema(engine_.get(), per_row).ok());

  genomics::SimulatorOptions sim_options;
  sim_options.seed = 91;
  genomics::ReadSimulator sim(&ref_, sim_options);
  genomics::DgeOptions dge;
  dge.num_genes = 200;
  const std::vector<ShortRead> reads = sim.SimulateDge(5000, dge);
  const std::vector<genomics::TagCount> tags =
      genomics::BinUniqueReads(reads);
  const SampleKey key{1, 2, 3};
  Result<LoadResult> loaded = LoadReads(db_.get(), "Read", reads, key, 7);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->loaded, reads.size());
  ASSERT_TRUE(LoadTags(db_.get(), "Tag", tags, key).ok());

  catalog::TableDef* read_rows = *db_->GetTable("Read_rows");
  for (size_t i = 0; i < reads.size(); ++i) {
    Result<genomics::ReadCoordinates> c =
        genomics::ParseReadName(reads[i].name);
    ASSERT_TRUE(c.ok());
    ASSERT_TRUE(db_->InsertRow(
                       read_rows,
                       Row{Value::Int64(7 + static_cast<int64_t>(i)),
                           Value::Int32(1), Value::Int32(2), Value::Int32(3),
                           Value::Int32(c->tile), Value::Int32(c->x),
                           Value::Int32(c->y), Value::String(reads[i].sequence),
                           reads[i].quality.empty()
                               ? Value::Null()
                               : Value::String(reads[i].quality)})
                    .ok());
  }
  catalog::TableDef* tag_rows = *db_->GetTable("Tag_rows");
  for (const genomics::TagCount& t : tags) {
    ASSERT_TRUE(db_->InsertRow(tag_rows,
                               Row{Value::Int64(t.rank), Value::Int32(1),
                                   Value::Int32(2), Value::Int32(3),
                                   Value::String(t.sequence),
                                   Value::Int64(t.frequency)})
                    .ok());
  }

  struct Want {
    const char* table;
    uint64_t pages;
    uint64_t bytes;
  };
  for (const Want& want : {Want{"Read", 59, 416045}, Want{"Tag", 8, 57153}}) {
    const std::string name = want.table;
    auto* a = dynamic_cast<storage::HeapTable*>(
        (*db_->GetTable(name))->table.get());
    auto* b = dynamic_cast<storage::HeapTable*>(
        (*db_->GetTable(name + "_rows"))->table.get());
    ASSERT_NE(a, nullptr);
    ASSERT_NE(b, nullptr);
    // Seal the in-progress pages so every page is in the directory.
    ASSERT_TRUE(a->PlanVisiblePrefix(a->num_rows()).ok());
    ASSERT_TRUE(b->PlanVisiblePrefix(b->num_rows()).ok());
    const storage::StorageStats sa = a->Stats();
    const storage::StorageStats sb = b->Stats();
    EXPECT_EQ(sa.rows, sb.rows) << name;
    EXPECT_EQ(sa.pages, sb.pages) << name;
    EXPECT_EQ(sa.data_bytes, sb.data_bytes) << name;
    EXPECT_EQ(sa.pages, want.pages) << name;
    EXPECT_EQ(sa.data_bytes, want.bytes) << name;
    const Status ca = a->CheckPageDirectory();
    EXPECT_TRUE(ca.ok()) << ca.ToString();
    const Status cb = b->CheckPageDirectory();
    EXPECT_TRUE(cb.ok()) << cb.ToString();
    const sql::QueryResult ra = Exec("SELECT * FROM " + name);
    const sql::QueryResult rb = Exec("SELECT * FROM " + name + "_rows");
    ASSERT_EQ(ra.rows.size(), rb.rows.size());
    for (size_t i = 0; i < ra.rows.size(); ++i) {
      ASSERT_EQ(ra.rows[i].size(), rb.rows[i].size());
      for (size_t c = 0; c < ra.rows[i].size(); ++c) {
        ASSERT_EQ(ra.rows[i][c].Compare(rb.rows[i][c]), 0)
            << name << " row " << i << " column " << c;
      }
    }
  }
}

}  // namespace
}  // namespace htg::workflow
