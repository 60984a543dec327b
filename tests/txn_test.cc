// Transaction and MVCC tests: the TxnManager / MvccTableState storage
// primitives, engine-level BEGIN/COMMIT/ABORT semantics (snapshot reads,
// first-writer-wins conflicts, rollback of heap and clustered tables,
// version GC), and full wire conversations — readers not blocking behind
// an open bulk-load transaction, auto-abort on statement failure with
// the session surviving, and implicit abort on client disconnect.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "catalog/database.h"
#include "common/metrics.h"
#include "server/client.h"
#include "server/server.h"
#include "server/session.h"
#include "sql/engine.h"
#include "sql/parser.h"
#include "storage/clustered_table.h"
#include "storage/heap_table.h"
#include "storage/mvcc.h"
#include "pooled_storage.h"

namespace htg {
namespace {

using server::Client;
using server::ClientResult;
using server::Server;
using server::ServerOptions;
using sql::SqlEngine;
using sql::TxnContext;
using storage::kFrozenTxn;
using storage::MvccTableState;
using storage::Snapshot;
using storage::TxnManager;

// ------------------------------------------------------------ TxnManager

TEST(TxnManagerTest, SnapshotExcludesActiveAndSelf) {
  TxnManager txns;
  const auto a = txns.Begin();
  const auto b = txns.Begin();
  // b's snapshot was taken while a was active: a is invisible, and so is
  // b itself (self-visibility is layered on top by the caller).
  EXPECT_FALSE(b.snapshot.Sees(a.id));
  EXPECT_FALSE(b.snapshot.Sees(b.id));
  EXPECT_TRUE(b.snapshot.Sees(kFrozenTxn));
  txns.Commit(a.id);
  // An existing snapshot never changes: a stays invisible to b.
  EXPECT_FALSE(b.snapshot.Sees(a.id));
  // But a fresh snapshot sees the committed a and not the active b.
  const Snapshot fresh = txns.TakeSnapshot();
  EXPECT_TRUE(fresh.Sees(a.id));
  EXPECT_FALSE(fresh.Sees(b.id));
  txns.Commit(b.id);
}

TEST(TxnManagerTest, AbortedStaysInvisibleToNewSnapshots) {
  TxnManager txns;
  const auto a = txns.Begin();
  txns.Abort(a.id);
  EXPECT_TRUE(txns.IsAborted(a.id));
  const Snapshot fresh = txns.TakeSnapshot();
  EXPECT_FALSE(fresh.Sees(a.id));
}

TEST(TxnManagerTest, HorizonHeldBackByOldestSnapshot) {
  TxnManager txns;
  const auto a = txns.Begin();
  const auto b = txns.Begin();
  txns.Commit(b.id);
  // a is still active, so nothing at or above a.id is settled.
  EXPECT_LE(txns.Horizon(), a.id);
  txns.Commit(a.id);
  // Everything allocated so far is now below the horizon.
  EXPECT_GT(txns.Horizon(), b.id);
}

TEST(TxnManagerTest, TrimAbortedBelowDropsSweptIds) {
  TxnManager txns;
  const auto a = txns.Begin();
  txns.Abort(a.id);
  ASSERT_EQ(txns.AbortedSet().size(), 1u);
  txns.TrimAbortedBelow(txns.Horizon());
  EXPECT_TRUE(txns.AbortedSet().empty());
  EXPECT_FALSE(txns.IsAborted(a.id));  // settled history, not "aborted"
}

// -------------------------------------------------------- MvccTableState

TEST(MvccTableStateTest, CommittedWatermarkVisibleToLaterSnapshots) {
  TxnManager txns;
  MvccTableState state;
  const auto writer = txns.Begin();
  const Snapshot before = txns.TakeSnapshot();
  ASSERT_TRUE(state.BeginWrite(writer.id, 0).ok());
  // Mid-write: a reader sees none of the pending rows; the writer sees
  // everything it appended.
  EXPECT_EQ(state.VisibleRows(before, kFrozenTxn, 100), 0u);
  EXPECT_EQ(state.VisibleRows(writer.snapshot, writer.id, 100), 100u);
  state.CommitWrite(writer.id, 100);
  txns.Commit(writer.id);
  // The old snapshot still predates the writer; a fresh one sees it.
  EXPECT_EQ(state.VisibleRows(before, kFrozenTxn, 100), 0u);
  EXPECT_EQ(state.VisibleRows(txns.TakeSnapshot(), kFrozenTxn, 100), 100u);
  EXPECT_EQ(state.LastCommittedWriter(), writer.id);
}

TEST(MvccTableStateTest, AbortTargetWhilePendingThenCollapse) {
  TxnManager txns;
  MvccTableState state;
  const auto w1 = txns.Begin();
  ASSERT_TRUE(state.BeginWrite(w1.id, 10).ok());
  // AbortTarget while pending reports the pre-write row count; the tail
  // stays hidden until AbortWrite clears the pending marker.
  EXPECT_EQ(state.AbortTarget(w1.id), 10u);
  EXPECT_EQ(state.VisibleRows(txns.TakeSnapshot(), kFrozenTxn, 25), 10u);
  EXPECT_EQ(state.AbortWrite(w1.id), 10u);
  txns.Abort(w1.id);

  const auto w2 = txns.Begin();
  ASSERT_TRUE(state.BeginWrite(w2.id, 10).ok());
  state.CommitWrite(w2.id, 40);
  txns.Commit(w2.id);
  // GC: collapsing below the horizon folds the range into frozen rows.
  EXPECT_EQ(state.CollapseBelow(txns.Horizon()), 1u);
  EXPECT_EQ(state.VisibleRows(txns.TakeSnapshot(), kFrozenTxn, 40), 40u);
}

TEST(MvccTableStateTest, UntrackedRowsFoldOnlyWithFullPrefix) {
  TxnManager txns;
  MvccTableState state;
  const auto writer = txns.Begin();
  const Snapshot before = txns.TakeSnapshot();
  ASSERT_TRUE(state.BeginWrite(writer.id, 0).ok());
  state.CommitWrite(writer.id, 50);
  txns.Commit(writer.id);
  // 10 untracked (library-mode) rows appended after the committed 50:
  // visible to snapshots that see the writer, not to older ones (prefix
  // semantics: you cannot see row 51 without seeing rows 0..49).
  EXPECT_EQ(state.VisibleRows(txns.TakeSnapshot(), kFrozenTxn, 60), 60u);
  EXPECT_EQ(state.VisibleRows(before, kFrozenTxn, 60), 0u);
}

// ----------------------------------------------------- clustered GC sweep

TEST(ClusteredSweepTest, SweepRemovesAbortedStampsWithoutDeadRowAccounting) {
  Schema schema;
  schema.AddColumn({.name = "k", .type = DataType::kInt64});
  schema.AddColumn({.name = "v", .type = DataType::kString});
  storage::PooledStorage storage("/tmp/htg_txn_test_sweep");
  storage::ClusteredTable table(schema, {0}, storage::Compression::kNone,
                                storage.NewFile("t"));
  ASSERT_TRUE(storage::AppendRow(
                  &table, Row{Value::Int64(1), Value::String("keep")})
                  .ok());
  // An entry stamped by an aborted txn whose MarkAborted accounting was
  // lost: dead_rows_ is zero, yet the sweep must still remove it — the
  // caller retires the id from the allocator's aborted set right after
  // the sweep, and a leftover entry would resurrect as committed data
  // the moment new snapshots stop recognizing the id as aborted.
  ASSERT_TRUE(storage::AppendRow(
                  &table, Row{Value::Int64(2), Value::String("dead")},
                  /*stamp=*/7)
                  .ok());
  EXPECT_EQ(table.SweepAborted({7}), 1u);
  EXPECT_EQ(table.num_rows(), 1u);
  auto iter = table.NewScan();
  const std::vector<Row> rows = storage::ScanRows(iter.get());
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0][0].AsInt64(), 1);
}

// ----------------------------------------------------------- GC cadence

TEST(GcCadenceTest, BatchedCompletionsCountTowardSweepThreshold) {
  DatabaseOptions options;
  options.filestream_root = "/tmp/htg_txn_gc_cadence";
  options.mvcc_gc_every = 4;
  auto db = Database::Open("gccadence", options);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  // Three completions the opportunistic trigger has not observed yet:
  // they sit in the TxnManager's since-sweep counter.
  for (int i = 0; i < 3; ++i) {
    const auto t = (*db)->txns()->Begin();
    (*db)->txns()->Commit(t.id);
  }
  const uint64_t before = HTG_METRIC_COUNTER("mvcc.gc.sweeps")->Value();
  // The fourth completion reaches the threshold exactly — the trigger
  // must count the whole batch it just folded in, not "pre-add + 1".
  const auto t = (*db)->txns()->Begin();
  (*db)->txns()->Commit(t.id);
  (*db)->MaybeSweepVersions();
  EXPECT_EQ(HTG_METRIC_COUNTER("mvcc.gc.sweeps")->Value(), before + 1);
}

// ------------------------------------------------------------ engine txn

class TxnEngineTest : public ::testing::Test {
 protected:
  void SetUp() override { Open(DatabaseOptions{}); }

  // (Re)opens the fixture's database; tests that must control version GC
  // reopen with their own options.
  void Open(DatabaseOptions options) {
    static int counter = 0;
    options.filestream_root = "/tmp/htg_txn_test_" + std::to_string(counter++);
    engine_.reset();
    auto db = Database::Open("txntest", options);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    db_ = std::move(*db);
    ASSERT_TRUE(db_->filestream()->Clear().ok());
    engine_ = std::make_unique<SqlEngine>(db_.get());
  }

  sql::QueryResult Exec(const std::string& sqltext, TxnContext* txn = nullptr) {
    sql::StatementOptions opts;
    opts.txn = txn;
    auto r = engine_->Execute(sqltext, opts);
    EXPECT_TRUE(r.ok()) << sqltext << "\n--> " << r.status().ToString();
    return r.ok() ? std::move(*r) : sql::QueryResult{};
  }

  int64_t Count(const std::string& table, TxnContext* txn = nullptr) {
    const sql::QueryResult r = Exec("SELECT COUNT(*) FROM " + table, txn);
    return r.rows.empty() ? -1 : r.rows[0][0].AsInt64();
  }

  // The row count on the `total: N rows` line of EXPLAIN ANALYZE.
  int64_t ExplainAnalyzeRows(const std::string& select,
                             TxnContext* txn = nullptr) {
    const std::string message = Exec("EXPLAIN ANALYZE " + select, txn).message;
    const size_t at = message.find("total: ");
    if (at == std::string::npos) {
      ADD_FAILURE() << "no total line in:\n" << message;
      return -1;
    }
    return std::stoll(message.substr(at + 7));
  }

  std::unique_ptr<Database> db_;
  std::unique_ptr<SqlEngine> engine_;
};

// EXPLAIN ANALYZE runs its plan through the same read view as SELECT:
// another transaction's uncommitted rows stay out of its row count, and
// so does a clustered table's aborted entry before any GC sweep.
TEST_F(TxnEngineTest, ExplainAnalyzeReadsThroughTheStatementsReadView) {
  DatabaseOptions options;
  options.mvcc_gc_every = 0;  // no automatic sweep: aborted entries stay
  Open(options);
  Exec("CREATE TABLE h (id INT, v INT)");
  Exec("CREATE TABLE c (id INT PRIMARY KEY, v INT)");
  Exec("INSERT INTO h VALUES (1, 10), (2, 20)");
  Exec("INSERT INTO c VALUES (1, 10), (2, 20)");
  auto txn = engine_->BeginTxn();
  ASSERT_TRUE(txn.ok()) << txn.status().ToString();
  Exec("INSERT INTO h VALUES (3, 30)", txn->get());
  Exec("INSERT INTO c VALUES (3, 30)", txn->get());
  for (const std::string table : {"h", "c"}) {
    const std::string select = "SELECT * FROM " + table;
    EXPECT_EQ(Exec(select).rows.size(), 2u) << table;
    EXPECT_EQ(ExplainAnalyzeRows(select), 2) << table;
    // Inside the writer, both see its own row.
    EXPECT_EQ(ExplainAnalyzeRows(select, txn->get()), 3) << table;
  }
  ASSERT_TRUE(engine_->AbortTxn(txn->get()).ok());
  ASSERT_FALSE(db_->txns()->AbortedSet().empty())
      << "the aborted entry must still be in the tree for this check";
  EXPECT_EQ(Exec("SELECT * FROM c").rows.size(), 2u);
  EXPECT_EQ(ExplainAnalyzeRows("SELECT * FROM c"), 2);
  EXPECT_EQ(ExplainAnalyzeRows("SELECT * FROM h"), 2);
}

// Readers racing a writer whose transactions split B+-tree leaves and a
// GC sweep after each one: EXPLAIN ANALYZE and SELECT read through their
// snapshots, and library NewScan() drains (which see every entry still in
// the tree) resume exactly across fills — every key once, in order, and
// none of the rows that predate the race missing.
TEST_F(TxnEngineTest, ScansRaceLeafSplitsAndSweeps) {
  DatabaseOptions options;
  options.mvcc_gc_every = 0;  // the writer sweeps explicitly
  Open(options);
  Exec("CREATE TABLE c (id INT PRIMARY KEY, v INT)");
  constexpr int kBase = 1000;  // even keys, committed before the race
  constexpr int kPerTxn = 50;  // odd keys, spread over the whole range
  constexpr int kTxns = kBase / kPerTxn;
  for (int i = 0; i < kBase; i += kPerTxn) {
    std::string values;
    for (int j = i; j < i + kPerTxn; ++j) {
      values += (j == i ? "(" : ", (") + std::to_string(2 * j) + ", 0)";
    }
    Exec("INSERT INTO c VALUES " + values);
  }
  auto table = db_->GetTable("c");
  ASSERT_TRUE(table.ok());
  storage::TableStorage* storage = (*table)->table.get();

  std::atomic<bool> writing{true};
  std::thread writer([&] {
    for (int t = 0; t < kTxns; ++t) {
      auto txn = engine_->BeginTxn();
      ASSERT_TRUE(txn.ok()) << txn.status().ToString();
      std::string values;
      for (int j = 0; j < kPerTxn; ++j) {
        // 37 is coprime with kBase: keys never repeat across txns.
        const int slot = (t * kPerTxn + j) * 37 % kBase;
        values += (j == 0 ? "(" : ", (") + std::to_string(2 * slot + 1) +
                  ", 1)";
      }
      Exec("INSERT INTO c VALUES " + values, txn->get());
      if (t % 3 == 2) {
        ASSERT_TRUE(engine_->AbortTxn(txn->get()).ok());
      } else {
        ASSERT_TRUE(engine_->CommitTxn(txn->get()).ok());
      }
      db_->SweepVersions();
    }
  });
  std::thread reader([&] {
    int64_t last_count = kBase;
    int rounds = 0;
    while (writing.load() || rounds < 2) {
      ++rounds;
      EXPECT_EQ(ExplainAnalyzeRows("SELECT COUNT(*) FROM c"), 1);
      // Whole transactions only, never fewer rows than an earlier read.
      const int64_t count = Count("c");
      EXPECT_EQ(count % kPerTxn, 0) << count;
      EXPECT_GE(count, last_count);
      last_count = count;
      auto scan = storage->NewScan();
      const std::vector<Row> rows = storage::ScanRows(scan.get());
      int64_t prev = -1;
      int base_seen = 0;
      for (const Row& row : rows) {
        const int64_t id = row[0].AsInt64();
        ASSERT_GT(id, prev) << "key repeated or out of order";
        prev = id;
        if (id % 2 == 0) ++base_seen;
      }
      EXPECT_EQ(base_seen, kBase);
    }
  });
  writer.join();
  writing.store(false);
  reader.join();
  EXPECT_EQ(Count("c"), kBase + (kTxns - kTxns / 3) * kPerTxn);
  db_->SweepVersions();  // the reader's pins may have held the last ones
  EXPECT_TRUE(db_->txns()->AbortedSet().empty());
}

TEST_F(TxnEngineTest, SnapshotReaderSeesNoneOfOpenTxnsRows) {
  Exec("CREATE TABLE t (id INT, v INT)");
  Exec("INSERT INTO t VALUES (1, 10), (2, 20)");
  auto txn = engine_->BeginTxn();
  ASSERT_TRUE(txn.ok()) << txn.status().ToString();
  Exec("INSERT INTO t VALUES (3, 30)", txn->get());
  Exec("INSERT INTO t VALUES (4, 40)", txn->get());
  // Autocommit reader: pre-transaction state. The writer: all its rows.
  EXPECT_EQ(Count("t"), 2);
  EXPECT_EQ(Count("t", txn->get()), 4);
  ASSERT_TRUE(engine_->CommitTxn(txn->get()).ok());
  EXPECT_EQ(Count("t"), 4);
}

TEST_F(TxnEngineTest, SnapshotTakenBeforeCommitStaysConsistent) {
  Exec("CREATE TABLE t (id INT, v INT)");
  Exec("INSERT INTO t VALUES (1, 10)");
  auto reader = engine_->BeginTxn();
  ASSERT_TRUE(reader.ok());
  auto writer = engine_->BeginTxn();
  ASSERT_TRUE(writer.ok());
  Exec("INSERT INTO t VALUES (2, 20)", writer->get());
  ASSERT_TRUE(engine_->CommitTxn(writer->get()).ok());
  // The reader's snapshot predates the writer's commit: repeatable reads.
  EXPECT_EQ(Count("t", reader->get()), 1);
  EXPECT_EQ(Count("t"), 2);
  ASSERT_TRUE(engine_->CommitTxn(reader->get()).ok());
}

TEST_F(TxnEngineTest, AbortRollsBackHeapAndClusteredCounts) {
  Exec("CREATE TABLE h (id INT, v INT)");
  Exec("CREATE TABLE c (id INT PRIMARY KEY, v INT)");
  Exec("INSERT INTO h VALUES (1, 10)");
  Exec("INSERT INTO c VALUES (1, 10)");
  auto txn = engine_->BeginTxn();
  ASSERT_TRUE(txn.ok());
  Exec("INSERT INTO h VALUES (2, 20), (3, 30)", txn->get());
  Exec("INSERT INTO c VALUES (2, 20), (3, 30)", txn->get());
  EXPECT_EQ(Count("h", txn->get()), 3);
  EXPECT_EQ(Count("c", txn->get()), 3);
  ASSERT_TRUE(engine_->AbortTxn(txn->get()).ok());
  EXPECT_EQ(Count("h"), 1);
  EXPECT_EQ(Count("c"), 1);
  // The tables stay writable after the rollback.
  Exec("INSERT INTO h VALUES (9, 90)");
  Exec("INSERT INTO c VALUES (9, 90)");
  EXPECT_EQ(Count("h"), 2);
  EXPECT_EQ(Count("c"), 2);
}

TEST_F(TxnEngineTest, FirstWriterWinsConflictIsTypedAborted) {
  Exec("CREATE TABLE t (id INT, v INT)");
  auto a = engine_->BeginTxn();
  auto b = engine_->BeginTxn();
  ASSERT_TRUE(a.ok() && b.ok());
  Exec("INSERT INTO t VALUES (1, 10)", a->get());
  ASSERT_TRUE(engine_->CommitTxn(a->get()).ok());
  // b's snapshot predates a's commit, and a wrote the same table: the
  // first writer won, b must abort rather than write blind.
  sql::StatementOptions opts;
  opts.txn = b->get();
  auto r = engine_->Execute("INSERT INTO t VALUES (2, 20)", opts);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kAborted);
  EXPECT_NE(r.status().message().find("write-write conflict"),
            std::string::npos)
      << r.status().ToString();
  ASSERT_TRUE(engine_->AbortTxn(b->get()).ok());
  EXPECT_EQ(Count("t"), 1);
}

TEST_F(TxnEngineTest, MidStatementFailureInTxnRollsBackOnAbort) {
  Exec("CREATE TABLE h (id INT, v INT)");
  Exec("CREATE TABLE c (id INT PRIMARY KEY, v INT)");
  Exec("INSERT INTO h VALUES (1, 10)");
  Exec("INSERT INTO c VALUES (1, 10)");
  auto txn = engine_->BeginTxn();
  ASSERT_TRUE(txn.ok());
  sql::StatementOptions opts;
  opts.txn = txn->get();
  // The second VALUES row has the wrong arity, so each statement fails
  // — and it is the txn's first (and only) write to that table. ABORT
  // must still find the table and clear the pending-writer marker.
  auto h = engine_->Execute("INSERT INTO h VALUES (2, 20), (3)", opts);
  ASSERT_FALSE(h.ok());
  auto c = engine_->Execute("INSERT INTO c VALUES (2, 20), (3)", opts);
  ASSERT_FALSE(c.ok());
  ASSERT_TRUE(engine_->AbortTxn(txn->get()).ok());
  EXPECT_EQ(Count("h"), 1);
  EXPECT_EQ(Count("c"), 1);
  // Both explicit-txn and autocommit writes work again afterwards (a
  // stuck pending marker would fail the former and hide the latter).
  auto txn2 = engine_->BeginTxn();
  ASSERT_TRUE(txn2.ok());
  Exec("INSERT INTO h VALUES (8, 80)", txn2->get());
  Exec("INSERT INTO c VALUES (8, 80)", txn2->get());
  ASSERT_TRUE(engine_->CommitTxn(txn2->get()).ok());
  Exec("INSERT INTO h VALUES (9, 90)");
  Exec("INSERT INTO c VALUES (9, 90)");
  EXPECT_EQ(Count("h"), 3);
  EXPECT_EQ(Count("c"), 3);
  // GC physically removes the aborted clustered entry; counts hold.
  db_->SweepVersions();
  EXPECT_EQ(Count("c"), 3);
  EXPECT_TRUE(db_->txns()->AbortedSet().empty());
}

// An INSERT ... SELECT appends each batch it pulls: one that fails in
// its third batch has already landed two, and ABORT must undo them on a
// heap and on a clustered table alike.
TEST_F(TxnEngineTest, MultiBatchInsertSelectFailureRollsBackOnAbort) {
  Exec("CREATE TABLE src (a INT, b INT)");
  Exec("CREATE TABLE h (a INT, b INT NOT NULL)");
  Exec("CREATE TABLE c (a INT PRIMARY KEY, b INT NOT NULL)");
  Exec("INSERT INTO h VALUES (-1, 0)");
  Exec("INSERT INTO c VALUES (-1, 0)");
  // 3000 source rows; row 2500 (in the third 1024-row batch) is NULL in b.
  RowBatch rows;
  for (int i = 0; i < 3000; ++i) {
    Row row{Value::Int32(i), Value::Int32(i % 7)};
    if (i == 2500) row[1] = Value::Null();
    rows.AppendRow(std::move(row));
  }
  ASSERT_TRUE(db_->AppendBatch(*db_->GetTable("src"), &rows).ok());
  const auto* heap =
      dynamic_cast<storage::HeapTable*>((*db_->GetTable("h"))->table.get());
  ASSERT_NE(heap, nullptr);
  auto txn = engine_->BeginTxn();
  ASSERT_TRUE(txn.ok());
  sql::StatementOptions opts;
  opts.txn = txn->get();
  for (const std::string table : {"h", "c"}) {
    auto failed = engine_->Execute(
        "INSERT INTO " + table + " SELECT a, b FROM src", opts);
    ASSERT_FALSE(failed.ok()) << table;
    EXPECT_TRUE(failed.status().IsInvalidArgument())
        << failed.status().ToString();
    // The writer sees the two batches that landed before the failure.
    EXPECT_EQ(Count(table, txn->get()), 1 + 2048) << table;
  }
  ASSERT_TRUE(engine_->AbortTxn(txn->get()).ok());
  EXPECT_EQ(Count("h"), 1);
  EXPECT_EQ(Count("c"), 1);
  EXPECT_EQ(heap->num_rows(), 1u);
  // The abort discounts exactly the clustered entries that landed.
  EXPECT_EQ((*db_->GetTable("c"))->table->num_rows(), 1u);
  EXPECT_TRUE(heap->CheckPageDirectory().ok());
  db_->SweepVersions();
  EXPECT_EQ(Count("c"), 1);
  EXPECT_EQ(Exec("SELECT SUM(a) FROM c").rows[0][0].AsInt64(), -1);
}

TEST_F(TxnEngineTest, GcSweepRemovesAbortedClusteredEntries) {
  Exec("CREATE TABLE c (id INT PRIMARY KEY, v INT)");
  Exec("INSERT INTO c VALUES (1, 10)");
  auto txn = engine_->BeginTxn();
  ASSERT_TRUE(txn.ok());
  Exec("INSERT INTO c VALUES (2, 20), (3, 30)", txn->get());
  ASSERT_TRUE(engine_->AbortTxn(txn->get()).ok());
  // The aborted entries are hidden logically; an unconditional sweep
  // removes them physically and retires the aborted id.
  EXPECT_EQ(db_->SweepVersions(), 2u);
  EXPECT_EQ(Count("c"), 1);
  EXPECT_TRUE(db_->txns()->AbortedSet().empty());
  // Idempotent: nothing left to sweep.
  EXPECT_EQ(db_->SweepVersions(), 0u);
}

TEST_F(TxnEngineTest, DdlInsideTxnRejected) {
  auto txn = engine_->BeginTxn();
  ASSERT_TRUE(txn.ok());
  sql::StatementOptions opts;
  opts.txn = txn->get();
  auto r = engine_->Execute("CREATE TABLE t (id INT)", opts);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  ASSERT_TRUE(engine_->AbortTxn(txn->get()).ok());
}

// Library mode has no lock manager to serialize writers. An autocommit
// INSERT arriving while a transaction has a pending write on the same
// heap must fail typed instead of appending rows whose fate is tied to
// the other transaction (an abort used to erase them after an OK).
TEST_F(TxnEngineTest, AutocommitInsertBehindPendingWriterFailsAborted) {
  Exec("CREATE TABLE h (id INT)");
  Exec("INSERT INTO h VALUES (1)");
  int64_t expected = 1;
  for (const bool commit : {false, true}) {
    auto txn = engine_->BeginTxn();
    ASSERT_TRUE(txn.ok());
    Exec("INSERT INTO h VALUES (2), (3)", txn->get());
    auto autocommit = engine_->Execute("INSERT INTO h VALUES (4), (5)");
    ASSERT_FALSE(autocommit.ok());
    EXPECT_EQ(autocommit.status().code(), StatusCode::kAborted)
        << autocommit.status().ToString();
    if (commit) {
      ASSERT_TRUE(engine_->CommitTxn(txn->get()).ok());
      expected += 2;
    } else {
      ASSERT_TRUE(engine_->AbortTxn(txn->get()).ok());
    }
    EXPECT_EQ(Count("h"), expected)
        << (commit ? "after commit" : "after abort");
  }
}

TEST_F(TxnEngineTest, AbortDeletesBlobsTheTxnCreated) {
  Exec("CREATE TABLE f (id INT, data VARBINARY(MAX) FILESTREAM)");
  Exec("INSERT INTO f VALUES (1, 'kept')");
  const uint64_t before = db_->filestream()->TotalBytes();
  auto txn = engine_->BeginTxn();
  ASSERT_TRUE(txn.ok());
  Exec("INSERT INTO f VALUES (2, 'blob-bytes')", txn->get());
  EXPECT_EQ(db_->filestream()->TotalBytes(), before + 10);
  ASSERT_TRUE(engine_->AbortTxn(txn->get()).ok());
  EXPECT_EQ(db_->filestream()->TotalBytes(), before);
  EXPECT_EQ(Count("f"), 1);
}

TEST_F(TxnEngineTest, CommitKeepsBlobsTheTxnCreated) {
  Exec("CREATE TABLE f (id INT, data VARBINARY(MAX) FILESTREAM)");
  const uint64_t before = db_->filestream()->TotalBytes();
  auto txn = engine_->BeginTxn();
  ASSERT_TRUE(txn.ok());
  Exec("INSERT INTO f VALUES (1, 'blob-bytes')", txn->get());
  ASSERT_TRUE(engine_->CommitTxn(txn->get()).ok());
  EXPECT_EQ(db_->filestream()->TotalBytes(), before + 10);
  const sql::QueryResult r = Exec("SELECT DATALENGTH(data) FROM f");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0][0].AsInt64(), 10);
}

// ------------------------------------------------------- lock footprints

TEST(TxnLockFootprintTest, MvccReadersTakeSchemaLocksNotTableLocks) {
  auto stmts = sql::ParseSql("SELECT * FROM t");
  ASSERT_TRUE(stmts.ok());
  const server::LockFootprint fp =
      server::DeriveLockFootprint(*stmts);
  EXPECT_TRUE(fp.writes.empty());
  // Schema-stability lock + catalog pseudo-lock; no plain "T" read lock,
  // which is exactly why a SELECT cannot block behind a bulk load.
  ASSERT_EQ(fp.reads.size(), 2u);
  EXPECT_EQ(fp.reads[0], std::string("\x02") + "T");
}

TEST(TxnLockFootprintTest, MvccInsertHoldsTableExclusiveAndSchemaShared) {
  auto stmts = sql::ParseSql("INSERT INTO t VALUES (1)");
  ASSERT_TRUE(stmts.ok());
  const server::LockFootprint fp =
      server::DeriveLockFootprint(*stmts);
  ASSERT_EQ(fp.writes.size(), 1u);
  EXPECT_EQ(fp.writes[0], "T");
  ASSERT_EQ(fp.reads.size(), 2u);
  EXPECT_EQ(fp.reads[0], std::string("\x02") + "T");
}

TEST(TxnLockFootprintTest, MvccTruncateTakesSchemaExclusive) {
  auto stmts = sql::ParseSql("TRUNCATE TABLE t");
  ASSERT_TRUE(stmts.ok());
  const server::LockFootprint fp =
      server::DeriveLockFootprint(*stmts);
  // Table exclusive + schema exclusive: waits out snapshot scans.
  ASSERT_EQ(fp.writes.size(), 2u);
  EXPECT_EQ(fp.writes[0], "T");
  EXPECT_EQ(fp.writes[1], std::string("\x02") + "T");
}

// ------------------------------------------------------------ wire level

class TxnServerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    static int counter = 0;
    options_.filestream_root =
        "/tmp/htg_txn_server_test_" + std::to_string(counter++);
  }

  void OpenAndStart(ServerOptions server_options = {}) {
    auto db = Database::Open("txnserver", options_);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    db_ = std::move(*db);
    ASSERT_TRUE(db_->filestream()->Clear().ok());
    server_ = std::make_unique<Server>(db_.get(), server_options);
    const Status started = server_->Start();
    ASSERT_TRUE(started.ok()) << started.ToString();
  }

  std::unique_ptr<Client> Connect() {
    auto client = Client::Connect(server_->port());
    EXPECT_TRUE(client.ok()) << client.status().ToString();
    return client.ok() ? std::move(*client) : nullptr;
  }

  ClientResult Query(Client* client, const std::string& sqltext) {
    Result<ClientResult> r = client->Query(sqltext);
    EXPECT_TRUE(r.ok()) << sqltext << "\n--> " << r.status().ToString();
    return r.ok() ? std::move(*r) : ClientResult{};
  }

  int64_t Count(Client* client, const std::string& table) {
    const ClientResult r = Query(client, "SELECT COUNT(*) FROM " + table);
    return r.rows.empty() ? -1 : r.rows[0][0].AsInt64();
  }

  DatabaseOptions options_;
  std::unique_ptr<Database> db_;
  std::unique_ptr<Server> server_;
};

TEST_F(TxnServerTest, BeginCommitAbortRoundTrip) {
  OpenAndStart();
  std::unique_ptr<Client> c = Connect();
  ASSERT_NE(c, nullptr);
  Query(c.get(), "CREATE TABLE t (id INT, v INT)");

  ASSERT_TRUE(c->Begin().ok());
  Query(c.get(), "INSERT INTO t VALUES (1, 10)");
  ASSERT_TRUE(c->Commit().ok());
  EXPECT_EQ(Count(c.get(), "t"), 1);

  ASSERT_TRUE(c->Begin().ok());
  Query(c.get(), "INSERT INTO t VALUES (2, 20)");
  ASSERT_TRUE(c->Abort().ok());
  EXPECT_EQ(Count(c.get(), "t"), 1);

  // Protocol misuse fails typed without killing the session.
  const Status no_txn = c->Commit();
  ASSERT_FALSE(no_txn.ok());
  EXPECT_EQ(no_txn.code(), StatusCode::kInvalidArgument);
  ASSERT_TRUE(c->Begin().ok());
  const Status nested = c->Begin();
  ASSERT_FALSE(nested.ok());
  EXPECT_EQ(nested.code(), StatusCode::kInvalidArgument);
  ASSERT_TRUE(c->Abort().ok());
  EXPECT_EQ(Count(c.get(), "t"), 1);
}

TEST_F(TxnServerTest, ReaderDoesNotBlockBehindOpenLoadTxn) {
  // A short lock timeout turns "the reader waited on the loader's table
  // lock" into a hard test failure instead of a slow pass.
  ServerOptions server_options;
  server_options.lock_timeout_ms = 250;
  OpenAndStart(server_options);
  std::unique_ptr<Client> loader = Connect();
  std::unique_ptr<Client> reader = Connect();
  ASSERT_NE(loader, nullptr);
  ASSERT_NE(reader, nullptr);
  Query(loader.get(), "CREATE TABLE reads (id INT, sample VARCHAR(20))");
  Query(loader.get(), "INSERT INTO reads VALUES (1, 'NA12878')");

  ASSERT_TRUE(loader->Begin().ok());
  Query(loader.get(), "INSERT INTO reads VALUES (2, 'NA12891')");
  Query(loader.get(), "INSERT INTO reads VALUES (3, 'NA12892')");
  // The loader holds the table exclusively (write locks to commit), yet
  // the reader completes within the 250 ms lock budget and sees the
  // consistent pre-load snapshot.
  EXPECT_EQ(Count(reader.get(), "reads"), 1);
  ASSERT_TRUE(loader->Commit().ok());
  EXPECT_EQ(Count(reader.get(), "reads"), 3);
}

TEST_F(TxnServerTest, StatementFailureAutoAbortsAndSessionSurvives) {
  OpenAndStart();
  std::unique_ptr<Client> c1 = Connect();
  std::unique_ptr<Client> c2 = Connect();
  ASSERT_NE(c1, nullptr);
  ASSERT_NE(c2, nullptr);
  Query(c1.get(), "CREATE TABLE t (id INT, v INT)");

  ASSERT_TRUE(c1->Begin().ok());
  ASSERT_TRUE(c2->Begin().ok());
  Query(c1.get(), "INSERT INTO t VALUES (1, 10)");
  ASSERT_TRUE(c1->Commit().ok());
  // c2's snapshot predates c1's commit: first-writer-wins aborts c2's
  // insert, typed, and the server auto-aborts the whole transaction.
  auto conflicted = c2->Query("INSERT INTO t VALUES (2, 20)");
  ASSERT_FALSE(conflicted.ok());
  EXPECT_EQ(conflicted.status().code(), StatusCode::kAborted);
  EXPECT_NE(conflicted.status().message().find("transaction aborted"),
            std::string::npos)
      << conflicted.status().ToString();
  // The transaction is gone (auto-aborted) but the session lives on.
  const Status commit_after = c2->Commit();
  ASSERT_FALSE(commit_after.ok());
  EXPECT_EQ(commit_after.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(Count(c2.get(), "t"), 1);
}

TEST_F(TxnServerTest, DdlInsideTxnAutoAborts) {
  OpenAndStart();
  std::unique_ptr<Client> c = Connect();
  ASSERT_NE(c, nullptr);
  Query(c.get(), "CREATE TABLE t (id INT, v INT)");
  ASSERT_TRUE(c->Begin().ok());
  Query(c.get(), "INSERT INTO t VALUES (1, 10)");
  auto ddl = c->Query("TRUNCATE TABLE t");
  ASSERT_FALSE(ddl.ok());
  EXPECT_EQ(ddl.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(ddl.status().message().find("transaction aborted"),
            std::string::npos);
  // The insert rolled back with the auto-abort.
  EXPECT_EQ(Count(c.get(), "t"), 0);
}

TEST_F(TxnServerTest, DisconnectMidTxnAbortsAndReleasesLocks) {
  OpenAndStart();
  std::unique_ptr<Client> doomed = Connect();
  std::unique_ptr<Client> survivor = Connect();
  ASSERT_NE(doomed, nullptr);
  ASSERT_NE(survivor, nullptr);
  Query(doomed.get(), "CREATE TABLE t (id INT, v INT)");
  Query(doomed.get(), "INSERT INTO t VALUES (1, 10)");

  ASSERT_TRUE(doomed->Begin().ok());
  Query(doomed.get(), "INSERT INTO t VALUES (2, 20)");
  // Hard disconnect mid-transaction: the session must abort implicitly
  // and release the accumulated table lock.
  doomed->Goodbye();
  doomed.reset();
  for (int i = 0; i < 100 && server_->locks()->LockedTableCount() > 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_EQ(server_->locks()->LockedTableCount(), 0u);
  // The write rolled back and the table is immediately writable.
  EXPECT_EQ(Count(survivor.get(), "t"), 1);
  Query(survivor.get(), "INSERT INTO t VALUES (3, 30)");
  EXPECT_EQ(Count(survivor.get(), "t"), 2);
}

TEST_F(TxnServerTest, DisconnectMidTxnDeletesItsBlobs) {
  OpenAndStart();
  std::unique_ptr<Client> doomed = Connect();
  ASSERT_NE(doomed, nullptr);
  Query(doomed.get(),
        "CREATE TABLE f (id INT, data VARBINARY(MAX) FILESTREAM)");
  const uint64_t before = db_->filestream()->TotalBytes();
  ASSERT_TRUE(doomed->Begin().ok());
  Query(doomed.get(), "INSERT INTO f VALUES (1, 'blob-bytes')");
  EXPECT_EQ(db_->filestream()->TotalBytes(), before + 10);
  doomed->Goodbye();
  doomed.reset();
  // The session aborts the transaction before it releases its locks.
  for (int i = 0; i < 100 && server_->locks()->LockedTableCount() > 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_EQ(server_->locks()->LockedTableCount(), 0u);
  EXPECT_EQ(db_->filestream()->TotalBytes(), before);
}

}  // namespace
}  // namespace htg
