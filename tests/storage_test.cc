#include <gtest/gtest.h>

#include <filesystem>
#include <map>

#include "common/crc32c.h"
#include "common/random.h"
#include "common/varint.h"
#include "storage/bplus_tree.h"
#include "storage/clustered_table.h"
#include "storage/filestream.h"
#include "storage/heap_table.h"
#include "storage/page.h"
#include "storage/row_codec.h"
#include "pooled_storage.h"

namespace htg::storage {
namespace {

Schema TestSchema() {
  Schema schema;
  schema.AddColumn({.name = "id", .type = DataType::kInt64});
  schema.AddColumn({.name = "lane", .type = DataType::kInt32});
  schema.AddColumn({.name = "seq", .type = DataType::kString});
  Column fixed;
  fixed.name = "code";
  fixed.type = DataType::kString;
  fixed.fixed_length = 8;
  schema.AddColumn(fixed);
  schema.AddColumn({.name = "score", .type = DataType::kDouble});
  return schema;
}

Row TestRow(int64_t id) {
  return Row{Value::Int64(id), Value::Int32(static_cast<int32_t>(id % 8)),
             Value::String("ACGT" + std::to_string(id)),
             Value::String("AB"), Value::Double(id * 0.5)};
}

class RowCodecTest : public ::testing::TestWithParam<Compression> {};

TEST_P(RowCodecTest, RoundTrip) {
  const Schema schema = TestSchema();
  const Row row = TestRow(12345);
  std::string encoded;
  ASSERT_TRUE(EncodeRow(schema, row, GetParam(), &encoded).ok());
  Row decoded;
  ASSERT_TRUE(DecodeRow(schema, GetParam(), Slice(encoded), AllColumns(schema),
                        &decoded).ok());
  ASSERT_EQ(decoded.size(), row.size());
  EXPECT_EQ(decoded[0].AsInt64(), 12345);
  EXPECT_EQ(decoded[1].AsInt64(), 12345 % 8);
  EXPECT_EQ(decoded[2].AsString(), "ACGT12345");
  EXPECT_EQ(decoded[4].AsDouble(), 12345 * 0.5);
}

TEST_P(RowCodecTest, NullsRoundTrip) {
  const Schema schema = TestSchema();
  Row row(5, Value::Null());
  std::string encoded;
  ASSERT_TRUE(EncodeRow(schema, row, GetParam(), &encoded).ok());
  Row decoded;
  ASSERT_TRUE(DecodeRow(schema, GetParam(), Slice(encoded), AllColumns(schema),
                        &decoded).ok());
  for (const Value& v : decoded) EXPECT_TRUE(v.is_null());
}

INSTANTIATE_TEST_SUITE_P(AllModes, RowCodecTest,
                         ::testing::Values(Compression::kNone,
                                           Compression::kRow,
                                           Compression::kPage));

TEST(RowCodecTest, FixedCharPaddedUncompressed) {
  Schema schema;
  Column fixed;
  fixed.name = "code";
  fixed.type = DataType::kString;
  fixed.fixed_length = 8;
  schema.AddColumn(fixed);
  Row row{Value::String("AB")};
  std::string none_encoded;
  ASSERT_TRUE(EncodeRow(schema, row, Compression::kNone, &none_encoded).ok());
  std::string row_encoded;
  ASSERT_TRUE(EncodeRow(schema, row, Compression::kRow, &row_encoded).ok());
  // NONE pads to 8; ROW trims trailing blanks.
  EXPECT_GT(none_encoded.size(), row_encoded.size());
  Row decoded;
  ASSERT_TRUE(
      DecodeRow(schema, Compression::kNone, Slice(none_encoded),
                AllColumns(schema), &decoded)
          .ok());
  EXPECT_EQ(decoded[0].AsString(), "AB      ");
  ASSERT_TRUE(
      DecodeRow(schema, Compression::kRow, Slice(row_encoded),
                AllColumns(schema), &decoded)
          .ok());
  EXPECT_EQ(decoded[0].AsString(), "AB");
}

TEST(RowCodecTest, RowCompressionShrinksSmallIntegers) {
  Schema schema;
  schema.AddColumn({.name = "a", .type = DataType::kInt64});
  schema.AddColumn({.name = "b", .type = DataType::kInt32});
  Row row{Value::Int64(3), Value::Int32(7)};
  std::string none_encoded, row_encoded;
  ASSERT_TRUE(EncodeRow(schema, row, Compression::kNone, &none_encoded).ok());
  ASSERT_TRUE(EncodeRow(schema, row, Compression::kRow, &row_encoded).ok());
  EXPECT_EQ(none_encoded.size(), 1u + 8 + 4);  // bitmap + fixed widths
  EXPECT_EQ(row_encoded.size(), 1u + 1 + 1);   // bitmap + varints
}

TEST(RowCodecTest, GuidPacksTo16Bytes) {
  const std::string guid = "0b9e612c-8e6a-4f7a-9d26-00124a39b19c";
  EXPECT_EQ(GuidToBytes(guid).size(), 16u);
  EXPECT_EQ(BytesToGuid(GuidToBytes(guid)), guid);
  Schema schema;
  schema.AddColumn({.name = "g", .type = DataType::kGuid});
  Row row{Value::Guid(guid)};
  std::string encoded;
  ASSERT_TRUE(EncodeRow(schema, row, Compression::kNone, &encoded).ok());
  EXPECT_EQ(encoded.size(), 1u + 1 + 16);
  Row decoded;
  ASSERT_TRUE(
      DecodeRow(schema, Compression::kNone, Slice(encoded),
                AllColumns(schema), &decoded)
          .ok());
  EXPECT_EQ(decoded[0].AsString(), guid);
}

TEST(RowCodecTest, CorruptRowDetected) {
  const Schema schema = TestSchema();
  std::string encoded;
  ASSERT_TRUE(EncodeRow(schema, TestRow(1), Compression::kRow, &encoded).ok());
  Row decoded;
  EXPECT_FALSE(DecodeRow(schema, Compression::kRow,
                         Slice(encoded.data(), encoded.size() / 2),
                         AllColumns(schema), &decoded)
                   .ok());
}

class PageTest : public ::testing::TestWithParam<Compression> {};

TEST_P(PageTest, BuildAndReadBack) {
  const Schema schema = TestSchema();
  PageBuilder builder(&schema, GetParam());
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(AddRow(&builder, TestRow(i)).ok());
  }
  const std::string page = builder.Finish();
  PageReader reader(&schema, Slice(page), AllColumns(schema));
  ASSERT_TRUE(reader.Init().ok());
  EXPECT_EQ(reader.row_count(), 50);
  Row row;
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(reader.Next(&row)) << i;
    EXPECT_EQ(row[0].AsInt64(), i);
    EXPECT_EQ(row[2].AsString(), "ACGT" + std::to_string(i));
  }
  EXPECT_FALSE(reader.Next(&row));
  EXPECT_TRUE(reader.status().ok());
}

TEST_P(PageTest, NullsInPage) {
  const Schema schema = TestSchema();
  PageBuilder builder(&schema, GetParam());
  Row with_nulls = TestRow(1);
  with_nulls[2] = Value::Null();
  with_nulls[4] = Value::Null();
  ASSERT_TRUE(AddRow(&builder, with_nulls).ok());
  ASSERT_TRUE(AddRow(&builder, TestRow(2)).ok());
  const std::string page = builder.Finish();
  PageReader reader(&schema, Slice(page), AllColumns(schema));
  ASSERT_TRUE(reader.Init().ok());
  Row row;
  ASSERT_TRUE(reader.Next(&row));
  EXPECT_TRUE(row[2].is_null());
  EXPECT_TRUE(row[4].is_null());
  EXPECT_EQ(row[0].AsInt64(), 1);
  ASSERT_TRUE(reader.Next(&row));
  EXPECT_EQ(row[2].AsString(), "ACGT2");
}

INSTANTIATE_TEST_SUITE_P(AllModes, PageTest,
                         ::testing::Values(Compression::kNone,
                                           Compression::kRow,
                                           Compression::kPage));

TEST(PageCompressionTest, DictionaryShrinksRepetitiveColumns) {
  Schema schema;
  schema.AddColumn({.name = "tag", .type = DataType::kString});
  // Highly repetitive values (the DGE regime): dictionary should collapse
  // the page to a fraction of the row-compressed size.
  PageBuilder page_builder(&schema, Compression::kPage);
  PageBuilder row_builder(&schema, Compression::kRow);
  for (int i = 0; i < 200; ++i) {
    Row row{Value::String("ACGTACGTACGTACGTACGT" + std::to_string(i % 4))};
    ASSERT_TRUE(AddRow(&page_builder, row).ok());
    ASSERT_TRUE(AddRow(&row_builder, row).ok());
  }
  const std::string page_compressed = page_builder.Finish();
  const std::string row_compressed = row_builder.Finish();
  EXPECT_LT(page_compressed.size(), row_compressed.size() / 3);
}

TEST(PageCompressionTest, UniqueValuesGainLittle) {
  Schema schema;
  schema.AddColumn({.name = "read", .type = DataType::kString});
  Random rng(3);
  PageBuilder page_builder(&schema, Compression::kPage);
  PageBuilder row_builder(&schema, Compression::kRow);
  for (int i = 0; i < 150; ++i) {
    std::string seq;
    for (int b = 0; b < 36; ++b) seq.push_back("ACGT"[rng.Uniform(4)]);
    Row row{Value::String(seq)};
    ASSERT_TRUE(AddRow(&page_builder, row).ok());
    ASSERT_TRUE(AddRow(&row_builder, row).ok());
  }
  const std::string page_compressed = page_builder.Finish();
  const std::string row_compressed = row_builder.Finish();
  // The 1000-Genomes regime of §5.1.2: compression is much less effective;
  // allow at most ~15% difference either way.
  EXPECT_GT(page_compressed.size(), row_compressed.size() * 85 / 100);
}

// Golden page images. The rows below go through a PageBuilder that
// finishes a page whenever ShouldFlush() says so, exactly as a heap
// seals; the page count, total bytes and CRC32C over every page image
// were recorded from the builder that used a per-page std::map
// dictionary. Any change to the encoding, the dictionary's id order or
// the flush boundaries shows up here.
struct PageImages {
  size_t pages = 0;
  size_t bytes = 0;
  uint32_t crc = 0;
};

PageImages BuildPageImages(const Schema& schema, const std::vector<Row>& rows,
                           Compression mode, size_t page_size) {
  PageBuilder builder(&schema, mode, page_size);
  PageImages out;
  auto finish = [&] {
    const std::string page = builder.Finish();
    ++out.pages;
    out.bytes += page.size();
    // Each page ends in its own CRC32C, which would fold to a constant:
    // fold the page's size and body instead.
    const uint32_t size = static_cast<uint32_t>(page.size());
    out.crc = Crc32cExtend(out.crc, &size, sizeof(size));
    out.crc = Crc32cExtend(out.crc, page.data(),
                           page.size() - kPageChecksumBytes);
  };
  for (const Row& row : rows) {
    EXPECT_TRUE(AddRow(&builder, row).ok());
    if (builder.ShouldFlush()) finish();
  }
  if (!builder.empty()) finish();
  return out;
}

Schema GoldenSchema() {
  Schema schema;
  schema.AddColumn({.name = "id", .type = DataType::kInt64});
  schema.AddColumn({.name = "lane", .type = DataType::kInt32});
  schema.AddColumn({.name = "tag", .type = DataType::kString});  // dict wins
  schema.AddColumn({.name = "name", .type = DataType::kString});  // plain wins
  Column code;
  code.name = "code";
  code.type = DataType::kString;
  code.fixed_length = 8;
  schema.AddColumn(code);
  schema.AddColumn({.name = "score", .type = DataType::kDouble});
  schema.AddColumn({.name = "none", .type = DataType::kString});  // all NULL
  schema.AddColumn({.name = "flag", .type = DataType::kBool});
  return schema;
}

// NULLs in several columns, an all-NULL column, empty strings, a
// repetitive column (the dictionary wins) and a unique one (plain wins).
std::vector<Row> GoldenMixedRows(int n) {
  static const char* const kTags[] = {"ACGTACGTAAC", "ACGTACGTTTG",
                                      "ACGTAGGGCCA", ""};
  std::vector<Row> rows;
  for (int i = 0; i < n; ++i) {
    rows.push_back(Row{
        Value::Int64(1000 + 37 * i),
        i % 3 == 0 ? Value::Null() : Value::Int32(i % 8),
        i % 11 == 5 ? Value::Null() : Value::String(kTags[(i * i) % 4]),
        Value::String("HWI_" + std::to_string(i * 7919 % 10007) + ":" +
                      std::to_string(i)),
        Value::String(i % 4 == 0 ? "" : "AB" + std::to_string(i % 5)),
        i % 7 == 0 ? Value::Null() : Value::Double(i * 0.25 - 3),
        Value::Null(),
        Value::Bool(i % 2 == 1)});
  }
  return rows;
}

// One column with 150 distinct values repeated four times: the page
// dictionary holds more than 128 entries, so ids take 2-byte varints.
std::vector<Row> GoldenWideDictRows() {
  std::vector<Row> rows;
  for (int i = 0; i < 600; ++i) {
    const int v = (i * 7) % 150;
    rows.push_back(Row{Value::String("gene_" + std::to_string(v * 101))});
  }
  return rows;
}

TEST(PageGoldenTest, ImagesMatchRecordedBytes) {
  const Schema mixed = GoldenSchema();
  Schema one;
  one.AddColumn({.name = "gene", .type = DataType::kString});
  const std::vector<Row> mixed_rows = GoldenMixedRows(300);
  const std::vector<Row> wide_rows = GoldenWideDictRows();
  // A row larger than the page, between ordinary rows.
  std::vector<Row> big_rows = GoldenMixedRows(6);
  big_rows[3][3] = Value::String(std::string(3000, 'N') + "tail");
  struct Case {
    const char* name;
    const Schema* schema;
    const std::vector<Row>* rows;
    size_t page_size;
    PageImages want[3];  // NONE, ROW, PAGE
  };
  const Case cases[] = {
      {"mixed", &mixed, &mixed_rows, 1024,
       {{17, 17424, 0xc02d66ce}, {12, 11950, 0x6e063eb3},
        {14, 8771, 0xcdd3122d}}},
      {"mixed-one-page", &mixed, &mixed_rows, 1 << 20,
       {{1, 17312, 0xa6502fb5}, {1, 11873, 0x16199021},
        {1, 7558, 0x3c6786eb}}},
      {"wide-dict", &one, &wide_rows, 1 << 20,
       {{1, 9159, 0x077db208}, {1, 7359, 0x2d1ec8e7},
        {1, 2989, 0xa154a0f3}}},
      {"big-row", &mixed, &big_rows, 512,
       {{2, 3335, 0x1fce03fd}, {2, 3225, 0x3bffa985},
        {2, 3240, 0x62f79580}}},
  };
  for (const Case& c : cases) {
    for (Compression mode :
         {Compression::kNone, Compression::kRow, Compression::kPage}) {
      const PageImages got =
          BuildPageImages(*c.schema, *c.rows, mode, c.page_size);
      const PageImages& want = c.want[static_cast<int>(mode)];
      const std::string where =
          std::string(c.name) + " " + std::string(CompressionName(mode));
      EXPECT_EQ(got.pages, want.pages) << where;
      EXPECT_EQ(got.bytes, want.bytes) << where;
      EXPECT_EQ(got.crc, want.crc) << where;
    }
  }
}

TEST(HeapTableTest, InsertScanRoundTrip) {
  PooledStorage storage("/tmp/htg_storage_test_heap_roundtrip");
  HeapTable table(TestSchema(), Compression::kRow, storage.NewFile("t"), 1024);
  for (int i = 0; i < 500; ++i) {
    ASSERT_TRUE(AppendRow(&table, TestRow(i)).ok());
  }
  EXPECT_EQ(table.num_rows(), 500u);
  auto iter = table.NewScan();
  int count = 0;
  for (const Row& row : ScanRows(iter.get())) {
    EXPECT_EQ(row[0].AsInt64(), count);
    ++count;
  }
  EXPECT_EQ(count, 500);
  EXPECT_GT(table.Stats().pages, 1u);
}

// A visible-prefix plan whose limit ends mid-page, cut into ranges the
// way parallel plans cut morsels: only the last range carries the cap,
// and together the ranges return exactly rows [0, row_limit) in order.
TEST(HeapTableTest, RangeScansPartitionCompletely) {
  PooledStorage storage("/tmp/htg_storage_test_heap_ranges");
  HeapTable table(TestSchema(), Compression::kNone, storage.NewFile("t"), 512);
  for (int i = 0; i < 300; ++i) ASSERT_TRUE(AppendRow(&table, TestRow(i)).ok());
  constexpr uint64_t kLimit = 250;
  Result<HeapTable::PageRange> plan = table.PlanVisiblePrefix(kLimit);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  ASSERT_GT(plan->end_page, 3u);
  ASSERT_GT(plan->tail_rows, 0u) << "the limit should end inside a page";
  int64_t next = 0;
  const size_t parts = 3;
  for (size_t p = 0; p < parts; ++p) {
    HeapTable::PageRange range;
    range.first_page = plan->end_page * p / parts;
    range.end_page = plan->end_page * (p + 1) / parts;
    range.tail_rows = p + 1 == parts ? plan->tail_rows : 0;
    auto iter = table.NewScanRange(range, AllColumns(table.schema()));
    for (const Row& row : ScanRows(iter.get())) {
      EXPECT_EQ(row[0].AsInt64(), next);
      ++next;
    }
  }
  EXPECT_EQ(next, static_cast<int64_t>(kLimit));
}

TEST(HeapTableTest, TruncateToRowsUndoesAppends) {
  PooledStorage storage("/tmp/htg_storage_test_heap_truncate_to");
  HeapTable table(TestSchema(), Compression::kRow, storage.NewFile("t"), 512);
  for (int i = 0; i < 100; ++i) ASSERT_TRUE(AppendRow(&table, TestRow(i)).ok());
  for (int i = 100; i < 177; ++i) {
    ASSERT_TRUE(AppendRow(&table, TestRow(i)).ok());
  }
  ASSERT_TRUE(table.TruncateToRows(100).ok());
  EXPECT_EQ(table.num_rows(), 100u);
  auto iter = table.NewScan();
  int count = 0;
  for (const Row& row : ScanRows(iter.get())) {
    EXPECT_EQ(row[0].AsInt64(), count);
    ++count;
  }
  EXPECT_EQ(count, 100);
}

// SQL comparison of one row against a term: NULL matches nothing.
bool Matches(const Row& row, const ScanTerm& term) {
  const Value& v = row[term.column];
  if (v.is_null()) return false;
  const int cmp = v.Compare(term.literal);
  switch (term.op) {
    case ScanOp::kEq:
      return cmp == 0;
    case ScanOp::kLt:
      return cmp < 0;
    case ScanOp::kLe:
      return cmp <= 0;
    case ScanOp::kGt:
      return cmp > 0;
    case ScanOp::kGe:
      return cmp >= 0;
  }
  return false;
}

// Ids of the rows matching `term`: over a scan of every page when
// `pruned` is false, over a scan under the term otherwise (the filter
// stays, as above a TableScanOp).
std::vector<int64_t> MatchingIds(HeapTable* table, const ScanTerm& term,
                                 bool pruned, PageCounts* counts = nullptr) {
  Result<HeapTable::PageRange> range =
      table->PlanVisiblePrefix(table->num_rows());
  EXPECT_TRUE(range.ok());
  ScanPredicate predicate;
  if (pruned) predicate.terms.push_back(term);
  auto iter = table->NewScanRange(*range, AllColumns(table->schema()),
                                  predicate, counts);
  std::vector<int64_t> ids;
  for (const Row& row : ScanRows(iter.get())) {
    if (Matches(row, term)) ids.push_back(row[0].AsInt64());
  }
  return ids;
}

TEST(HeapTableTest, ZoneMapsSkipPagesAPointReadCannotMatch) {
  PooledStorage storage("/tmp/htg_storage_test_heap_zones");
  HeapTable table(TestSchema(), Compression::kPage, storage.NewFile("t"),
                  1024);
  for (int i = 0; i < 600; ++i) ASSERT_TRUE(AppendRow(&table, TestRow(i)).ok());
  ASSERT_TRUE(table.CheckPageDirectory().ok());
  PageCounts counts;
  const ScanTerm point{0, ScanOp::kEq, Value::Int64(377)};
  EXPECT_EQ(MatchingIds(&table, point, true, &counts),
            MatchingIds(&table, point, false));
  EXPECT_EQ(counts.read.load(), 1u);
  EXPECT_EQ(counts.read.load() + counts.skipped.load(), table.num_pages());
  // FLOAT literals against the BIGINT column compare numerically: no id
  // equals 377.5, so at most the page spanning 377..378 is read, and
  // none holds -0.5; >= 377.5 keeps the pages from 378 on.
  PageCounts between;
  EXPECT_TRUE(MatchingIds(&table, {0, ScanOp::kEq, Value::Double(377.5)},
                          true, &between)
                  .empty());
  EXPECT_LE(between.read.load(), 1u);
  PageCounts none;
  EXPECT_TRUE(
      MatchingIds(&table, {0, ScanOp::kEq, Value::Double(-0.5)}, true, &none)
          .empty());
  EXPECT_EQ(none.read.load(), 0u);
  const ScanTerm ge{0, ScanOp::kGe, Value::Double(377.5)};
  EXPECT_EQ(MatchingIds(&table, ge, true), MatchingIds(&table, ge, false));
  // Every operator against every id and every half-way FLOAT literal,
  // page boundaries included: pruned and unpruned scans agree.
  for (int v = -1; v <= 601; ++v) {
    for (ScanOp op : {ScanOp::kEq, ScanOp::kLt, ScanOp::kLe, ScanOp::kGt,
                      ScanOp::kGe}) {
      for (const Value& lit : {Value::Int64(v), Value::Double(v + 0.5)}) {
        const ScanTerm term{0, op, lit};
        ASSERT_EQ(MatchingIds(&table, term, true),
                  MatchingIds(&table, term, false))
            << static_cast<int>(op) << " " << lit.ToString();
      }
    }
  }
  // A term on the DOUBLE column never prunes.
  PageCounts dbl;
  MatchingIds(&table, {4, ScanOp::kEq, Value::Double(-1.0)}, true, &dbl);
  EXPECT_EQ(dbl.skipped.load(), 0u);
}

// Undo of an append that ends mid-page rewrites that page's prefix; the
// summaries must follow, through the rewrite and through later appends.
TEST(HeapTableTest, ZoneMapsFollowMidPageTruncateAndReappend) {
  PooledStorage storage("/tmp/htg_storage_test_heap_zone_truncate");
  HeapTable table(TestSchema(), Compression::kRow, storage.NewFile("t"), 512);
  for (int i = 0; i < 177; ++i) ASSERT_TRUE(AppendRow(&table, TestRow(i)).ok());
  ASSERT_TRUE(table.CheckPageDirectory().ok());
  ASSERT_TRUE(table.TruncateToRows(130).ok());
  ASSERT_TRUE(table.CheckPageDirectory().ok());
  // Re-append: large ids, then a row whose lane is NULL.
  for (int i = 1000; i < 1040; ++i) {
    ASSERT_TRUE(AppendRow(&table, TestRow(i)).ok());
  }
  Row null_lane = TestRow(2000);
  null_lane[1] = Value::Null();
  ASSERT_TRUE(AppendRow(&table, null_lane).ok());
  ASSERT_TRUE(table.PlanVisiblePrefix(table.num_rows()).ok());  // seals
  const Status checked = table.CheckPageDirectory();
  ASSERT_TRUE(checked.ok()) << checked.ToString();
  for (const ScanTerm& term :
       {ScanTerm{0, ScanOp::kGe, Value::Int64(150)},
        ScanTerm{0, ScanOp::kEq, Value::Int64(129)},
        ScanTerm{0, ScanOp::kEq, Value::Int64(1039)},
        ScanTerm{1, ScanOp::kEq, Value::Int64(3)}}) {
    EXPECT_EQ(MatchingIds(&table, term, true),
              MatchingIds(&table, term, false))
        << term.column << " " << term.literal.ToString();
  }
  table.Truncate();
  EXPECT_TRUE(table.CheckPageDirectory().ok());
}

TEST(HeapTableTest, TruncateClearsAll) {
  PooledStorage storage("/tmp/htg_storage_test_heap_truncate");
  HeapTable table(TestSchema(), Compression::kNone, storage.NewFile("t"));
  for (int i = 0; i < 10; ++i) ASSERT_TRUE(AppendRow(&table, TestRow(i)).ok());
  table.Truncate();
  EXPECT_EQ(table.num_rows(), 0u);
  auto iter = table.NewScan();
  EXPECT_TRUE(ScanRows(iter.get()).empty());
}

TEST(BPlusTreeTest, OrderedScanMatchesMultimap) {
  BPlusTree tree(16);
  std::multimap<int64_t, std::string> expected;
  Random rng(5);
  for (int i = 0; i < 2000; ++i) {
    const int64_t key = static_cast<int64_t>(rng.Uniform(500));
    const std::string payload = "p" + std::to_string(i);
    tree.Insert(Row{Value::Int64(key)}, payload);
    expected.emplace(key, payload);
  }
  EXPECT_EQ(tree.size(), 2000u);
  auto cursor = tree.First();
  auto it = expected.begin();
  int64_t prev = INT64_MIN;
  size_t n = 0;
  while (cursor.Valid()) {
    ASSERT_NE(it, expected.end());
    const int64_t key = cursor.key()[0].AsInt64();
    EXPECT_GE(key, prev);
    EXPECT_EQ(key, it->first);
    prev = key;
    cursor.Advance();
    ++it;
    ++n;
  }
  EXPECT_EQ(n, expected.size());
}

TEST(BPlusTreeTest, SeekFindsLowerBound) {
  BPlusTree tree(8);
  for (int i = 0; i < 100; ++i) {
    tree.Insert(Row{Value::Int64(i * 10)}, std::to_string(i));
  }
  auto cursor = tree.Seek(Row{Value::Int64(255)});
  ASSERT_TRUE(cursor.Valid());
  EXPECT_EQ(cursor.key()[0].AsInt64(), 260);
  cursor = tree.Seek(Row{Value::Int64(0)});
  ASSERT_TRUE(cursor.Valid());
  EXPECT_EQ(cursor.key()[0].AsInt64(), 0);
  cursor = tree.Seek(Row{Value::Int64(99999)});
  EXPECT_FALSE(cursor.Valid());
}

TEST(BPlusTreeTest, CompositeKeyPrefixSeek) {
  BPlusTree tree(8);
  for (int chr = 0; chr < 5; ++chr) {
    for (int pos = 0; pos < 50; ++pos) {
      tree.Insert(Row{Value::Int32(chr), Value::Int64(pos * 3)}, "x");
    }
  }
  auto cursor = tree.Seek(Row{Value::Int32(2)});
  ASSERT_TRUE(cursor.Valid());
  EXPECT_EQ(cursor.key()[0].AsInt64(), 2);
  EXPECT_EQ(cursor.key()[1].AsInt64(), 0);
  cursor = tree.Seek(Row{Value::Int32(2), Value::Int64(10)});
  ASSERT_TRUE(cursor.Valid());
  EXPECT_EQ(cursor.key()[1].AsInt64(), 12);
}

TEST(BPlusTreeTest, DuplicateKeysAllKept) {
  BPlusTree tree(8);
  for (int i = 0; i < 200; ++i) {
    tree.Insert(Row{Value::Int64(7)}, "dup" + std::to_string(i));
  }
  auto cursor = tree.Seek(Row{Value::Int64(7)});
  int count = 0;
  while (cursor.Valid()) {
    EXPECT_EQ(cursor.key()[0].AsInt64(), 7);
    cursor.Advance();
    ++count;
  }
  EXPECT_EQ(count, 200);
}

TEST(ClusteredTableTest, ScanInKeyOrder) {
  Schema schema;
  schema.AddColumn({.name = "chr", .type = DataType::kInt32});
  schema.AddColumn({.name = "pos", .type = DataType::kInt64});
  schema.AddColumn({.name = "payload", .type = DataType::kString});
  PooledStorage storage("/tmp/htg_storage_test_clustered_order");
  ClusteredTable table(schema, {0, 1}, Compression::kRow, storage.NewFile("t"));
  Random rng(9);
  for (int i = 0; i < 500; ++i) {
    ASSERT_TRUE(AppendRow(&table,
                          Row{Value::Int32(static_cast<int32_t>(
                                  rng.Uniform(4))),
                              Value::Int64(static_cast<int64_t>(
                                  rng.Uniform(1000))),
                              Value::String("v" + std::to_string(i))})
                    .ok());
  }
  auto iter = table.NewScan();
  Row prev;
  int count = 0;
  for (const Row& row : ScanRows(iter.get())) {
    if (!prev.empty()) {
      EXPECT_LE(CompareRowsOn(prev, row, {0, 1}), 0);
    }
    prev = row;
    ++count;
  }
  EXPECT_EQ(count, 500);
}

TEST(ClusteredTableTest, ScanFromSeeksPrefix) {
  Schema schema;
  schema.AddColumn({.name = "k", .type = DataType::kInt64});
  schema.AddColumn({.name = "v", .type = DataType::kString});
  PooledStorage storage("/tmp/htg_storage_test_clustered_seek");
  ClusteredTable table(schema, {0}, Compression::kNone, storage.NewFile("t"));
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(
        AppendRow(&table, Row{Value::Int64(i), Value::String("x")}).ok());
  }
  auto iter =
      table.NewSnapshotScanFrom(Row{Value::Int64(90)}, Snapshot::All(),
                                kFrozenTxn, AllColumns(table.schema()));
  ASSERT_TRUE(iter.ok());
  int count = 0;
  for (const Row& row : ScanRows(iter->get())) {
    EXPECT_GE(row[0].AsInt64(), 90);
    ++count;
  }
  EXPECT_EQ(count, 10);

  // A stop bound ends the scan past the last qualifying leading key; a
  // stop below the seek key yields nothing.
  auto bounded = table.NewSnapshotScanFrom(
      Row{Value::Int64(40)}, Snapshot::All(), kFrozenTxn,
      AllColumns(table.schema()), Value::Int64(44));
  ASSERT_TRUE(bounded.ok());
  std::vector<int64_t> keys;
  for (const Row& row : ScanRows(bounded->get())) {
    keys.push_back(row[0].AsInt64());
  }
  EXPECT_EQ(keys, (std::vector<int64_t>{40, 41, 42, 43, 44}));
  auto empty = table.NewSnapshotScanFrom(Row{Value::Int64(40)},
                                         Snapshot::All(), kFrozenTxn,
                                         AllColumns(table.schema()),
                                         Value::Int64(39));
  ASSERT_TRUE(empty.ok());
  EXPECT_TRUE(ScanRows(empty->get()).empty());
}

// ---------------------------------------------------- projected decode ---

// Every field kind a scan can skip: a repetitive string (PAGE picks a
// dictionary for it), a unique string (plain suffixes), fixed CHAR,
// integers, a double, and NULLs in several columns.
Schema ProjectionSchema() {
  Schema schema;
  schema.AddColumn({.name = "id", .type = DataType::kInt64});
  schema.AddColumn({.name = "tag", .type = DataType::kString});
  schema.AddColumn({.name = "seq", .type = DataType::kString});
  schema.AddColumn({.name = "lane", .type = DataType::kInt32});
  Column code;
  code.name = "code";
  code.type = DataType::kString;
  code.fixed_length = 6;
  schema.AddColumn(code);
  schema.AddColumn({.name = "score", .type = DataType::kDouble});
  schema.AddColumn({.name = "note", .type = DataType::kString});
  return schema;
}

Row ProjectionRow(int i) {
  Row row{Value::Int64(i * 1000 + 7),
          Value::String(i % 3 == 0 ? "tag-alpha" : "tag-beta"),
          Value::String("ACGT" + std::to_string(i * 7919)),
          Value::Int32(i % 8),
          Value::String("C" + std::to_string(i % 10)),
          Value::Double(i * 0.25),
          Value::String("note-" + std::to_string(i))};
  if (i % 7 == 4) row[1] = Value::Null();
  if (i % 5 == 2) row[5] = Value::Null();
  if (i % 3 == 1) row[6] = Value::Null();
  return row;
}

// Column lists from zero-wide to full, with gaps in every position.
std::vector<std::vector<int>> Projections(const Schema& schema) {
  return {{}, {0}, {1}, {2, 5}, {0, 1, 3, 6}, {6}, AllColumns(schema)};
}

Row Restrict(const Row& row, const std::vector<int>& columns) {
  Row out;
  for (int c : columns) out.push_back(row[c]);
  return out;
}

std::string RowText(const Row& row) {
  std::string out;
  for (const Value& v : row) out += (v.is_null() ? "<null>" : v.ToString()) + "|";
  return out;
}

// `body` with its CRC32C trailer, the checksum PageReader verifies first:
// a page that passes it reaches the field decoder.
std::string WithChecksum(std::string body) {
  const uint32_t crc = Crc32c(body);
  for (int i = 0; i < 4; ++i) {
    body.push_back(static_cast<char>((crc >> (8 * i)) & 0xff));
  }
  return body;
}

class ProjectedDecodeTest : public ::testing::TestWithParam<Compression> {};

TEST_P(ProjectedDecodeTest, RowImageMatchesFullDecodeRestricted) {
  const Schema schema = ProjectionSchema();
  for (int i = 0; i < 30; ++i) {
    std::string encoded;
    ASSERT_TRUE(EncodeRow(schema, ProjectionRow(i), GetParam(), &encoded).ok());
    Row full;
    ASSERT_TRUE(
        DecodeRow(schema, GetParam(), Slice(encoded), AllColumns(schema), &full)
            .ok());
    // One reused target row: every decode overwrites the previous
    // projection's values in place.
    Row projected;
    for (const std::vector<int>& columns : Projections(schema)) {
      ASSERT_TRUE(DecodeRow(schema, GetParam(), Slice(encoded), columns,
                            &projected)
                      .ok());
      EXPECT_EQ(RowText(Restrict(full, columns)), RowText(projected))
          << "row " << i << ", " << columns.size() << " columns";
    }
  }
}

TEST_P(ProjectedDecodeTest, PageMatchesFullDecodeRestricted) {
  const Schema schema = ProjectionSchema();
  PageBuilder builder(&schema, GetParam(), 1 << 16);
  for (int i = 0; i < 60; ++i) {
    ASSERT_TRUE(AddRow(&builder, ProjectionRow(i)).ok());
  }
  const std::string page = builder.Finish();
  for (const std::vector<int>& columns : Projections(schema)) {
    PageReader full(&schema, Slice(page), AllColumns(schema));
    PageReader projected(&schema, Slice(page), columns);
    ASSERT_TRUE(full.Init().ok());
    ASSERT_TRUE(projected.Init().ok());
    Row full_row;
    Row row;
    int n = 0;
    while (full.Next(&full_row)) {
      ASSERT_TRUE(projected.Next(&row)) << n;
      EXPECT_EQ(RowText(Restrict(full_row, columns)), RowText(row))
          << "row " << n << ", " << columns.size() << " columns";
      ++n;
    }
    EXPECT_EQ(n, 60);
    EXPECT_FALSE(projected.Next(&row));
    EXPECT_TRUE(projected.status().ok());
  }
}

// Skipping a column is not trusting it: a row image or PAGE column
// section cut short inside a column the scan does not keep is still
// corruption. (Clustered leaf payloads are NONE/ROW row images, decoded
// by DecodeRow after their CRC check.)
TEST_P(ProjectedDecodeTest, TruncatedSkippedColumnIsCorruption) {
  const Schema schema = ProjectionSchema();
  const std::vector<int> first_only = {0};
  Row row = ProjectionRow(2);  // `note` (the last column) is not NULL
  ASSERT_FALSE(row[6].is_null());
  std::string encoded;
  ASSERT_TRUE(EncodeRow(schema, row, GetParam(), &encoded).ok());
  // Cut two bytes into the trailing `note` field.
  const Slice cut(encoded.data(), encoded.size() - 2);
  Row decoded;
  EXPECT_TRUE(DecodeRow(schema, GetParam(), cut, first_only, &decoded)
                  .IsCorruption());

  std::string page;
  if (GetParam() == Compression::kPage) {
    // The last bytes of a PAGE body are the last column's section.
    PageBuilder builder(&schema, Compression::kPage);
    for (int i = 0; i < 10; ++i) {
      ASSERT_TRUE(AddRow(&builder, ProjectionRow(3 * i + 2)).ok());
    }
    std::string built = builder.Finish();
    built.resize(built.size() - kPageChecksumBytes - 2);
    page = WithChecksum(std::move(built));
  } else {
    // A row stream whose one row is length-consistent but its image is
    // cut inside `note`.
    std::string body;
    body.push_back(static_cast<char>(GetParam()));
    body.push_back(1);
    body.push_back(0);
    PutLengthPrefixed(&body, std::string_view(cut.data(), cut.size()));
    page = WithChecksum(std::move(body));
  }
  PageReader reader(&schema, Slice(page), first_only);
  Status status = reader.Init();
  if (status.ok()) {
    EXPECT_FALSE(reader.Next(&decoded));
    status = reader.status();
  }
  EXPECT_TRUE(status.IsCorruption()) << status.ToString();
}

INSTANTIATE_TEST_SUITE_P(AllModes, ProjectedDecodeTest,
                         ::testing::Values(Compression::kNone,
                                           Compression::kRow,
                                           Compression::kPage));

TEST(ProjectedScanTest, HeapAndClusteredScansMatchFullScansRestricted) {
  const Schema schema = ProjectionSchema();
  PooledStorage storage("/tmp/htg_storage_test_projected_scan");
  HeapTable heap(schema, Compression::kPage, storage.NewFile("heap"), 1024);
  ClusteredTable clustered(schema, {3, 0}, Compression::kRow,
                           storage.NewFile("clustered"));
  for (int i = 0; i < 400; ++i) {
    ASSERT_TRUE(AppendRow(&heap, ProjectionRow(i)).ok());
    ASSERT_TRUE(AppendRow(&clustered, ProjectionRow(i)).ok());
  }
  ASSERT_GT(heap.num_pages(), 2u);
  Result<HeapTable::PageRange> range = heap.PlanVisiblePrefix(heap.num_rows());
  ASSERT_TRUE(range.ok());
  const std::vector<Row> heap_full = ScanRows(heap.NewScan().get());
  const std::vector<Row> clustered_full = ScanRows(clustered.NewScan().get());
  ASSERT_EQ(heap_full.size(), 400u);
  ASSERT_EQ(clustered_full.size(), 400u);
  for (const std::vector<int>& columns : Projections(schema)) {
    const std::vector<Row> heap_rows =
        ScanRows(heap.NewScanRange(*range, columns).get());
    const std::vector<Row> clustered_rows = ScanRows(
        clustered.NewSnapshotScan(Snapshot::All(), kFrozenTxn, columns).get());
    ASSERT_EQ(heap_rows.size(), 400u);
    ASSERT_EQ(clustered_rows.size(), 400u);
    for (size_t r = 0; r < 400; ++r) {
      EXPECT_EQ(RowText(Restrict(heap_full[r], columns)),
                RowText(heap_rows[r]));
      EXPECT_EQ(RowText(Restrict(clustered_full[r], columns)),
                RowText(clustered_rows[r]));
    }
  }
}

TEST(FileStreamTest, CreateReadDelete) {
  auto store = FileStreamStore::Open("/tmp/htg_fs_test_1");
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE((*store)->Clear().ok());
  Result<std::string> path = (*store)->CreateBlob("lane1.fastq", "hello blob");
  ASSERT_TRUE(path.ok());
  EXPECT_EQ(*(*store)->BlobSize(*path), 10u);
  EXPECT_EQ(*(*store)->ReadAll(*path), "hello blob");
  EXPECT_EQ((*store)->TotalBytes(), 10u);
  ASSERT_TRUE((*store)->Delete(*path).ok());
  EXPECT_FALSE((*store)->BlobSize(*path).ok());
}

TEST(FileStreamTest, StreamingReaderChunks) {
  auto store = FileStreamStore::Open("/tmp/htg_fs_test_2");
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE((*store)->Clear().ok());
  std::string content;
  for (int i = 0; i < 1000; ++i) content += "0123456789";
  Result<std::string> path = (*store)->CreateBlob("big.bin", content);
  ASSERT_TRUE(path.ok());
  auto reader = (*store)->OpenStream(*path);
  ASSERT_TRUE(reader.ok());
  EXPECT_EQ((*reader)->size(), content.size());
  std::string assembled;
  char buf[313];
  uint64_t offset = 0;
  for (;;) {
    Result<size_t> n = (*reader)->GetBytes(offset, buf, sizeof(buf));
    ASSERT_TRUE(n.ok());
    if (*n == 0) break;
    assembled.append(buf, *n);
    offset += *n;
  }
  EXPECT_EQ(assembled, content);
  // Random access after sequential reads.
  Result<size_t> n = (*reader)->GetBytes(5, buf, 5);
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(std::string(buf, *n), "56789");
}

TEST(FileStreamTest, ImportFileCopiesBytes) {
  auto store = FileStreamStore::Open("/tmp/htg_fs_test_3");
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE((*store)->Clear().ok());
  const std::string src = "/tmp/htg_fs_import_src.txt";
  FILE* f = fopen(src.c_str(), "wb");
  fputs("imported content", f);
  fclose(f);
  Result<std::string> path = (*store)->ImportFile(src, "import.txt");
  ASSERT_TRUE(path.ok());
  EXPECT_EQ(*(*store)->ReadAll(*path), "imported content");
  EXPECT_FALSE((*store)->ImportFile("/nonexistent", "x").ok());
}

}  // namespace
}  // namespace htg::storage
