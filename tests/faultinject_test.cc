// Crash-safety harness: deterministic fault injection through the Vfs
// seam, byte-flip corruption detection through the CRC32C checksums, and
// statement-level graceful degradation of the SQL engine.
//
// The core sweep follows the classic recovery-testing recipe: run a
// workload once fault-free to number its mutating I/O ops, then for every
// k re-run it with "fail op k and crash", reopen the store with a healthy
// Vfs, and assert the durability invariant — every blob is either absent
// or fully present with a matching checksum. HTG_FAULT_SEED varies the
// torn-write prefix lengths across CI runs.

#include <gtest/gtest.h>

#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "common/crc32c.h"
#include "genomics/register.h"
#include "sql/engine.h"
#include "storage/buffer_pool.h"
#include "storage/fault_injection.h"
#include "storage/filestream.h"
#include "storage/heap_table.h"
#include "storage/page.h"
#include "storage/tablespace.h"
#include "storage/vfs.h"
#include "storage/wal.h"
#include "pooled_storage.h"

namespace htg::storage {
namespace {

// ---------------------------------------------------------------------
// CRC32C

TEST(Crc32cTest, KnownVectors) {
  // RFC 3720 check value for "123456789".
  EXPECT_EQ(Crc32c("123456789"), 0xE3069283u);
  EXPECT_EQ(Crc32c(""), 0u);
  // Extend in pieces == one shot.
  const std::string data = "The quick brown fox jumps over the lazy dog";
  uint32_t piecewise = 0;
  for (char c : data) piecewise = Crc32cExtend(piecewise, &c, 1);
  EXPECT_EQ(piecewise, Crc32c(data));
}

// The RFC 3720 (iSCSI) vectors, and every split point and alignment of a
// buffer long enough to reach the 8-byte inner loop, against a bytewise
// reference.
TEST(Crc32cTest, Rfc3720VectorsAndEverySplit) {
  std::string zeros(32, '\0'), ones(32, '\xff'), up(32, '\0'), down(32, '\0');
  for (int i = 0; i < 32; ++i) {
    up[i] = static_cast<char>(i);
    down[i] = static_cast<char>(31 - i);
  }
  EXPECT_EQ(Crc32c(zeros), 0x8A9136AAu);
  EXPECT_EQ(Crc32c(ones), 0x62A8AB43u);
  EXPECT_EQ(Crc32c(up), 0x46DD794Eu);
  EXPECT_EQ(Crc32c(down), 0x113FDB5Cu);
  std::string data(100, '\0');
  for (size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<char>(i * 131 + 7);
  }
  uint32_t want = ~0u;
  for (char c : data) {
    want ^= static_cast<unsigned char>(c);
    for (int b = 0; b < 8; ++b) {
      want = (want >> 1) ^ ((want & 1) ? 0x82F63B78u : 0);
    }
  }
  want = ~want;
  for (size_t offset = 0; offset < 9; ++offset) {
    const std::string shifted = std::string(offset, 'x') + data;
    for (size_t split = 0; split <= data.size(); ++split) {
      const uint32_t head = Crc32cExtend(0, shifted.data() + offset, split);
      const uint32_t whole = Crc32cExtend(
          head, shifted.data() + offset + split, data.size() - split);
      ASSERT_EQ(whole, want) << "offset " << offset << " split " << split;
    }
  }
}

TEST(Crc32cTest, DetectsSingleBitFlips) {
  std::string data(512, '\0');
  for (size_t i = 0; i < data.size(); ++i) data[i] = static_cast<char>(i);
  const uint32_t clean = Crc32c(data);
  for (size_t i = 0; i < data.size(); i += 37) {
    std::string flipped = data;
    flipped[i] ^= 0x10;
    EXPECT_NE(Crc32c(flipped), clean) << "flip at " << i;
  }
}

// ---------------------------------------------------------------------
// Page checksums

Schema PageSchema() {
  Schema schema;
  schema.AddColumn({.name = "id", .type = DataType::kInt64});
  schema.AddColumn({.name = "seq", .type = DataType::kString});
  schema.AddColumn({.name = "score", .type = DataType::kDouble});
  return schema;
}

class PageCorruptionTest : public ::testing::TestWithParam<Compression> {};

TEST_P(PageCorruptionTest, EveryByteFlipYieldsCorruption) {
  const Schema schema = PageSchema();
  PageBuilder builder(&schema, GetParam());
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(AddRow(&builder,
                       Row{Value::Int64(i),
                           Value::String("ACGTACGT" + std::to_string(i)),
                           Value::Double(i * 0.25)})
                    .ok());
  }
  const std::string page = builder.Finish();

  // Sanity: the clean page decodes.
  {
    PageReader reader(&schema, Slice(page), AllColumns(schema));
    ASSERT_TRUE(reader.Init().ok());
    Row row;
    int rows = 0;
    while (reader.Next(&row)) ++rows;
    ASSERT_TRUE(reader.status().ok());
    ASSERT_EQ(rows, 20);
  }

  // Flip one bit at every byte position (including inside the checksum
  // trailer itself): Init must refuse the page with a typed Corruption.
  for (size_t i = 0; i < page.size(); ++i) {
    std::string corrupt = page;
    corrupt[i] ^= 0x04;
    PageReader reader(&schema, Slice(corrupt), AllColumns(schema));
    const Status s = reader.Init();
    ASSERT_FALSE(s.ok()) << "flip at byte " << i << " went undetected";
    EXPECT_TRUE(s.IsCorruption()) << s.ToString();
  }
}

TEST_P(PageCorruptionTest, TruncatedPageYieldsCorruption) {
  const Schema schema = PageSchema();
  PageBuilder builder(&schema, GetParam());
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(AddRow(&builder, Row{Value::Int64(i), Value::String("x"),
                                     Value::Double(0)})
                    .ok());
  }
  const std::string page = builder.Finish();
  for (size_t cut : {page.size() - 1, page.size() / 2, size_t{1}}) {
    PageReader reader(&schema, Slice(page.data(), cut),
                      AllColumns(schema));
    EXPECT_TRUE(reader.Init().IsCorruption()) << "cut to " << cut;
  }
}

INSTANTIATE_TEST_SUITE_P(AllModes, PageCorruptionTest,
                         ::testing::Values(Compression::kNone,
                                           Compression::kRow,
                                           Compression::kPage));

// ---------------------------------------------------------------------
// WAL

TEST(WalTest, RoundTripsRecords) {
  const std::string dir = "/tmp/htg_wal_test_1";
  ASSERT_TRUE(Vfs::Default()->CreateDirs(dir).ok());
  const std::string path = dir + "/wal.log";
  HTG_IGNORE_STATUS(Vfs::Default()->DeleteFile(path));

  std::vector<WalRecord> recovered;
  {
    auto wal = WriteAheadLog::Open(Vfs::Default(), path, &recovered);
    ASSERT_TRUE(wal.ok());
    ASSERT_TRUE(recovered.empty());
    ASSERT_TRUE(
        (*wal)
            ->Append({WalRecordType::kIntentCreate, "blob_a", 123, 0xDEAD},
                     /*sync=*/true)
            .ok());
    ASSERT_TRUE((*wal)
                    ->Append({WalRecordType::kCommitCreate, "blob_a", 0, 0},
                             /*sync=*/false)
                    .ok());
  }
  auto wal = WriteAheadLog::Open(Vfs::Default(), path, &recovered);
  ASSERT_TRUE(wal.ok());
  ASSERT_EQ(recovered.size(), 2u);
  EXPECT_EQ(recovered[0].type, WalRecordType::kIntentCreate);
  EXPECT_EQ(recovered[0].name, "blob_a");
  EXPECT_EQ(recovered[0].size, 123u);
  EXPECT_EQ(recovered[0].content_crc, 0xDEADu);
  EXPECT_EQ(recovered[1].type, WalRecordType::kCommitCreate);
}

TEST(WalTest, TornTailIsIgnored) {
  const std::string dir = "/tmp/htg_wal_test_2";
  ASSERT_TRUE(Vfs::Default()->CreateDirs(dir).ok());
  const std::string path = dir + "/wal.log";
  HTG_IGNORE_STATUS(Vfs::Default()->DeleteFile(path));

  const std::string rec1 =
      EncodeWalRecord({WalRecordType::kIntentCreate, "blob_a", 7, 1});
  const std::string rec2 =
      EncodeWalRecord({WalRecordType::kIntentDelete, "blob_b", 0, 0});
  // A crash mid-append leaves a torn final record.
  for (size_t cut = 0; cut < rec2.size(); ++cut) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << rec1 << rec2.substr(0, cut);
    out.close();
    std::vector<WalRecord> recovered;
    auto wal = WriteAheadLog::Open(Vfs::Default(), path, &recovered);
    ASSERT_TRUE(wal.ok()) << "cut " << cut;
    ASSERT_EQ(recovered.size(), 1u) << "cut " << cut;
    EXPECT_EQ(recovered[0].name, "blob_a");
  }
}

// ---------------------------------------------------------------------
// FileStream store: corruption detection + crash-recovery sweep

// Flips one byte in the middle of an on-disk file.
void FlipByteOnDisk(const std::string& path) {
  std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
  ASSERT_TRUE(f.good()) << path;
  f.seekg(0, std::ios::end);
  const std::streamoff size = f.tellg();
  ASSERT_GT(size, 0);
  f.seekg(size / 2);
  char byte = 0;
  f.read(&byte, 1);
  byte = static_cast<char>(byte ^ 0x20);
  f.seekp(size / 2);
  f.write(&byte, 1);
}

TEST(FileStreamFaultTest, BitRotDetectedOnRead) {
  auto store = FileStreamStore::Open("/tmp/htg_fi_bitrot");
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE((*store)->Clear().ok());
  auto path = (*store)->CreateBlob("reads.fastq", "@r1\nACGTACGTACGT\n+\nIIII");
  ASSERT_TRUE(path.ok());
  ASSERT_TRUE((*store)->VerifyBlob(*path).ok());

  FlipByteOnDisk(*path);
  EXPECT_TRUE((*store)->VerifyBlob(*path).IsCorruption());
  Result<std::string> bytes = (*store)->ReadAll(*path);
  ASSERT_FALSE(bytes.ok());
  EXPECT_TRUE(bytes.status().IsCorruption()) << bytes.status().ToString();
}

TEST(FileStreamFaultTest, TransientFaultsAreRetriedToSuccess) {
  FaultInjectingVfs vfs(Vfs::Default(), FaultPlan{});  // armed after Open

  FileStreamOptions options;
  options.vfs = &vfs;
  auto store = FileStreamStore::Open("/tmp/htg_fi_transient", options);
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE((*store)->Clear().ok());

  FaultPlan plan;
  plan.kind = FaultPlan::Kind::kTransientEio;
  plan.fail_at_op = 3;
  plan.transient_failures = 2;  // < RetryPolicy default of 4 attempts
  vfs.Reset(plan);

  auto path = (*store)->CreateBlob("lane1", "transient faults should heal");
  ASSERT_TRUE(path.ok()) << path.status().ToString();
  EXPECT_TRUE(vfs.fault_fired());
  auto bytes = (*store)->ReadAll(*path);
  ASSERT_TRUE(bytes.ok());
  EXPECT_EQ(*bytes, "transient faults should heal");
}

// The workload the sweep protects: three creates and one delete, with
// deterministic content per name hint.
std::map<std::string, std::string> ExpectedBlobs() {
  return {{"lane1", std::string(2000, 'A') + "end-of-lane1"},
          {"lane2", "short blob"},
          {"lane3", std::string(512, 'G')}};
}

// Runs the workload, tolerating injected failures. Returns paths by hint.
void RunWorkload(FileStreamStore* store) {
  std::map<std::string, std::string> paths;
  for (const auto& [hint, content] : ExpectedBlobs()) {
    Result<std::string> p = store->CreateBlob(hint, content);
    if (p.ok()) paths[hint] = *p;
  }
  // Delete one blob so the sweep also crosses delete intents.
  auto it = paths.find("lane2");
  // The delete may hit an injected fault; the sweep only needs the intent.
  if (it != paths.end()) HTG_IGNORE_STATUS(store->Delete(it->second));
}

// The durability invariant after recovery: every blob in the catalog is
// fully readable and checksum-clean, and its content is one of the
// workload's (no torn prefix ever becomes visible).
void VerifyInvariants(const std::string& root) {
  auto reopened = FileStreamStore::Open(root);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  const auto expected = ExpectedBlobs();
  for (const std::string& path : (*reopened)->ListBlobs()) {
    ASSERT_TRUE((*reopened)->VerifyBlob(path).ok()) << path;
    Result<std::string> bytes = (*reopened)->ReadAll(path);
    ASSERT_TRUE(bytes.ok()) << bytes.status().ToString();
    bool matches_some_workload_blob = false;
    for (const auto& [hint, content] : expected) {
      if (*bytes == content) matches_some_workload_blob = true;
    }
    EXPECT_TRUE(matches_some_workload_blob)
        << path << " holds " << bytes->size() << " unexpected bytes";
  }
  ASSERT_TRUE((*reopened)->Clear().ok());
}

TEST(FileStreamFaultTest, CrashRecoverySweep) {
  const std::string root = "/tmp/htg_fi_sweep";
  // Fault-free pass to number the workload's mutating ops.
  {
    auto store = FileStreamStore::Open(root);
    ASSERT_TRUE(store.ok());
    ASSERT_TRUE((*store)->Clear().ok());
  }
  FaultPlan probe;  // kNone: counts ops without failing any
  probe.seed = FaultPlan::SeedFromEnv();
  FaultInjectingVfs counter(Vfs::Default(), probe);
  {
    FileStreamOptions options;
    options.vfs = &counter;
    auto store = FileStreamStore::Open(root, options);
    ASSERT_TRUE(store.ok());
    RunWorkload(store->get());
  }
  const int64_t total_ops = counter.ops_seen();
  ASSERT_GT(total_ops, 10) << "workload too small to be a meaningful sweep";
  VerifyInvariants(root);

  const FaultPlan::Kind kinds[] = {
      FaultPlan::Kind::kFail, FaultPlan::Kind::kTornWrite,
      FaultPlan::Kind::kNoSpace, FaultPlan::Kind::kSyncFail};
  for (FaultPlan::Kind kind : kinds) {
    for (int64_t k = 0; k < total_ops; ++k) {
      FaultPlan plan;
      plan.kind = kind;
      plan.fail_at_op = k;
      plan.seed = FaultPlan::SeedFromEnv() + static_cast<uint64_t>(k);
      plan.crash_after_fault = true;
      FaultInjectingVfs vfs(Vfs::Default(), plan);
      FileStreamOptions options;
      options.vfs = &vfs;
      // Disable retries: a crashed process never gets to retry, and the
      // sweep should exercise the un-healed path.
      options.retry.max_attempts = 1;
      {
        auto store = FileStreamStore::Open(root, options);
        // Open itself may hit the fault (recovery I/O is swept too).
        if (store.ok()) RunWorkload(store->get());
      }
      SCOPED_TRACE("kind=" + std::to_string(static_cast<int>(kind)) +
                   " fail_at_op=" + std::to_string(k));
      VerifyInvariants(root);
    }
  }
}

TEST(FileStreamFaultTest, RecoveryRollsForwardCommittedCreate) {
  const std::string root = "/tmp/htg_fi_rollfwd";
  {
    auto store = FileStreamStore::Open(root);
    ASSERT_TRUE(store.ok());
    ASSERT_TRUE((*store)->Clear().ok());
  }
  // Crash immediately after the blob file lands (rename) but before the
  // commit record: recovery must roll the create forward from the intent.
  FaultPlan probe;
  FaultInjectingVfs counter(Vfs::Default(), probe);
  std::string blob_path;
  {
    FileStreamOptions options;
    options.vfs = &counter;
    auto store = FileStreamStore::Open(root, options);
    ASSERT_TRUE(store.ok());
    auto p = (*store)->CreateBlob("lane9", "roll me forward");
    ASSERT_TRUE(p.ok());
    blob_path = *p;
  }
  // Fault the op *after* the rename of this create in a fresh run: sweep
  // positions differ per run, so instead simulate directly — delete the
  // manifest and WAL commit by rewriting the WAL with only the intent.
  auto vfs = Vfs::Default();
  const std::string content = "roll me forward";
  std::vector<WalRecord> dummy;
  {
    auto wal = WriteAheadLog::Open(vfs, root + "/wal.log", &dummy);
    ASSERT_TRUE(wal.ok());
    ASSERT_TRUE((*wal)->Reset().ok());
    WalRecord intent;
    intent.type = WalRecordType::kIntentCreate;
    intent.name = blob_path.substr(root.size() + 1);
    intent.size = content.size();
    intent.content_crc = Crc32c(content);
    ASSERT_TRUE((*wal)->Append(intent, true).ok());
  }
  HTG_IGNORE_STATUS(vfs->DeleteFile(root + "/MANIFEST"));

  auto reopened = FileStreamStore::Open(root);
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ((*reopened)->recovery_stats().creates_rolled_forward, 1u);
  auto bytes = (*reopened)->ReadAll(blob_path);
  ASSERT_TRUE(bytes.ok());
  EXPECT_EQ(*bytes, content);
}

// ---------------------------------------------------------------------
// Heap page directory under a failed seal
// ---------------------------------------------------------------------

// A seal whose page cannot enter the buffer pool (the pool must write a
// dirty page back to make room, and the device fails) drops that page's
// rows. The page directory's row counts, sizes and zone-map summaries
// must all drop it together, so later scans and predicates see the same
// pages.
TEST(HeapFaultTest, FailedSealKeepsPageDirectoryInStep) {
  FaultInjectingVfs vfs(Vfs::Default(), FaultPlan{});  // armed below
  BufferPoolOptions pool_options;
  pool_options.capacity_bytes = 3 * 1024;
  BufferPool pool(pool_options);
  auto space = TableSpace::Open(&vfs, "/tmp/htg_fi_heap_seal", &pool);
  ASSERT_TRUE(space.ok()) << space.status().ToString();
  auto file = (*space)->CreateTableFile("t");
  ASSERT_TRUE(file.ok()) << file.status().ToString();
  Schema schema;
  schema.AddColumn({.name = "id", .type = DataType::kInt64});
  schema.AddColumn({.name = "lane", .type = DataType::kInt32});
  schema.AddColumn({.name = "seq", .type = DataType::kString});
  HeapTable table(schema, Compression::kRow, std::move(*file), 512);

  FaultPlan plan;
  plan.kind = FaultPlan::Kind::kFail;
  plan.fail_at_op = 0;  // the first write-back
  vfs.Reset(plan);
  Status inserted;
  for (int i = 0; i < 5000 && inserted.ok(); ++i) {
    inserted = AppendRow(&table,
                         Row{Value::Int64(i), Value::Int32(i % 4),
                             Value::String("ACGTACGT" + std::to_string(i))});
  }
  ASSERT_FALSE(inserted.ok()) << "no seal failed";
  EXPECT_TRUE(vfs.fault_fired());
  const Status checked = table.CheckPageDirectory();
  EXPECT_TRUE(checked.ok()) << checked.ToString();
  // The table counts exactly the rows its sealed pages hold.
  auto scan = table.NewScan();
  uint64_t rows = 0;
  RowBatch batch;
  while (scan->NextBatch(&batch)) rows += batch.ActiveRows();
  EXPECT_TRUE(scan->status().ok()) << scan->status().ToString();
  EXPECT_EQ(rows, table.num_rows());
}

}  // namespace
}  // namespace htg::storage

// ---------------------------------------------------------------------
// Engine-level graceful degradation

namespace htg::sql {
namespace {

TEST(EngineDegradationTest, FailedStatementLeavesSessionUsable) {
  storage::FaultPlan plan;  // armed later via Reset
  storage::FaultInjectingVfs vfs(storage::Vfs::Default(), plan);

  DatabaseOptions options;
  options.filestream_root = "/tmp/htg_fi_engine";
  options.filestream_options.vfs = &vfs;
  options.filestream_options.retry.max_attempts = 1;
  auto db = Database::Open("faulty", options);
  ASSERT_TRUE(db.ok());
  ASSERT_TRUE((*db)->filestream()->Clear().ok());
  ASSERT_TRUE(genomics::RegisterGenomicsExtensions(db->get()).ok());
  SqlEngine engine(db->get());

  ASSERT_TRUE(engine
                  .Execute("CREATE TABLE files (id INT, "
                           "data VARBINARY(MAX) FILESTREAM)")
                  .ok());
  const uint64_t before = (*db)->filestream()->TotalBytes();

  // A hard (non-crash) I/O fault on the next blob write: the statement
  // fails, its partial effects roll back, the session keeps going.
  storage::FaultPlan hard;
  hard.kind = storage::FaultPlan::Kind::kNoSpace;
  hard.fail_at_op = 0;
  hard.crash_after_fault = false;
  vfs.Reset(hard);
  Result<QueryResult> failed =
      engine.Execute("INSERT INTO files VALUES (1, 'doomed-bytes')");
  ASSERT_FALSE(failed.ok());
  EXPECT_TRUE(vfs.fault_fired());
  EXPECT_EQ((*db)->filestream()->TotalBytes(), before);
  EXPECT_EQ((*engine.Execute("SELECT COUNT(*) FROM files"))
                .rows[0][0]
                .AsInt64(),
            0);

  // Device recovered: the same session succeeds without reopening.
  storage::FaultPlan healthy;
  vfs.Reset(healthy);
  ASSERT_TRUE(
      engine.Execute("INSERT INTO files VALUES (1, 'alive-again')").ok());
  EXPECT_EQ((*engine.Execute("SELECT COUNT(*) FROM files"))
                .rows[0][0]
                .AsInt64(),
            1);
  EXPECT_EQ((*engine.Execute("SELECT DATALENGTH(data) FROM files"))
                .rows[0][0]
                .AsInt64(),
            11);
}

TEST(EngineDegradationTest, TransientFaultRetriedAtStatementLevel) {
  storage::FaultPlan plan;
  storage::FaultInjectingVfs vfs(storage::Vfs::Default(), plan);

  DatabaseOptions options;
  options.filestream_root = "/tmp/htg_fi_engine_retry";
  options.filestream_options.vfs = &vfs;
  auto db = Database::Open("flaky", options);
  ASSERT_TRUE(db.ok());
  ASSERT_TRUE((*db)->filestream()->Clear().ok());
  SqlEngine engine(db->get());
  ASSERT_TRUE(engine
                  .Execute("CREATE TABLE files (id INT, "
                           "data VARBINARY(MAX) FILESTREAM)")
                  .ok());

  // The device flakes twice, then heals: the storage-level backoff (4
  // attempts) absorbs it and the statement succeeds on the first try.
  storage::FaultPlan flaky;
  flaky.kind = storage::FaultPlan::Kind::kTransientEio;
  flaky.fail_at_op = 1;
  flaky.transient_failures = 2;
  vfs.Reset(flaky);
  ASSERT_TRUE(
      engine.Execute("INSERT INTO files VALUES (7, 'persisted')").ok());
  EXPECT_TRUE(vfs.fault_fired());
  EXPECT_EQ((*engine.Execute("SELECT COUNT(*) FROM files"))
                .rows[0][0]
                .AsInt64(),
            1);
}

}  // namespace
}  // namespace htg::sql
