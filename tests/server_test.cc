// Server subsystem tests: wire codecs, the table lock manager, and full
// client<->server conversations over loopback — session concurrency,
// lock conflict timeouts crossing the wire typed, prepared-statement
// cache eviction, mid-statement client disconnect, graceful-shutdown
// drain, and the statement dedupe token that keeps retries from
// re-executing committed loads.

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/metrics.h"
#include "server/client.h"
#include "server/lock_manager.h"
#include "server/server.h"
#include "server/session.h"
#include "server/wire.h"
#include "sql/engine.h"
#include "sql/parser.h"
#include "storage/heap_table.h"

namespace htg::server {
namespace {

class ServerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    static int counter = 0;
    DatabaseOptions options;
    options.filestream_root =
        "/tmp/htg_server_test_" + std::to_string(counter++);
    auto db = Database::Open("servertest", options);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    db_ = std::move(*db);
    ASSERT_TRUE(db_->filestream()->Clear().ok());
  }

  void StartServer(ServerOptions options = {}) {
    server_ = std::make_unique<Server>(db_.get(), options);
    const Status started = server_->Start();
    ASSERT_TRUE(started.ok()) << started.ToString();
  }

  std::unique_ptr<Client> Connect() {
    auto client = Client::Connect(server_->port());
    EXPECT_TRUE(client.ok()) << client.status().ToString();
    return client.ok() ? std::move(*client) : nullptr;
  }

  ClientResult Query(Client* client, const std::string& sql) {
    Result<ClientResult> r = client->Query(sql);
    EXPECT_TRUE(r.ok()) << sql << "\n--> " << r.status().ToString();
    return r.ok() ? std::move(*r) : ClientResult{};
  }

  std::unique_ptr<Database> db_;
  std::unique_ptr<Server> server_;
};

// ----------------------------------------------------------- wire codecs

// Encodes the live rows [begin, end) of `batch` as one ResultBatch
// payload.
std::string EncodePayload(const RowBatch& batch, size_t begin, size_t end) {
  std::string rows;
  EncodeRows(batch, begin, end, &rows);
  std::string payload;
  EncodeRowBatch(end - begin, rows, &payload);
  return payload;
}

TEST(WireCodec, ValueRoundTripAllTypes) {
  RowBatch batch;
  batch.AppendRow({Value::Null(), Value::Bool(true), Value::Int32(-7),
                   Value::Int64(1ll << 40), Value::Double(2.5),
                   Value::String("chr1"),
                   Value::Blob(std::string("\0\xff", 2)),
                   Value::Guid("0123456789abcdef")});
  batch.AppendRow({Value::Int64(0)});
  const std::string payload = EncodePayload(batch, 0, batch.ActiveRows());
  std::vector<Row> decoded;
  ASSERT_TRUE(DecodeRowBatch(payload, &decoded).ok());
  ASSERT_EQ(decoded.size(), 2u);
  EXPECT_TRUE(decoded[0][0].is_null());
  EXPECT_TRUE(decoded[0][1].AsBool());
  EXPECT_EQ(decoded[0][2].AsInt64(), -7);
  EXPECT_EQ(decoded[0][3].AsInt64(), 1ll << 40);
  EXPECT_EQ(decoded[0][4].AsDouble(), 2.5);
  EXPECT_EQ(decoded[0][5].AsString(), "chr1");
  EXPECT_EQ(decoded[0][6].AsString(), std::string("\0\xff", 2));
  EXPECT_EQ(decoded[0][7].type(), DataType::kGuid);
}

// The encoder walks a batch's live rows: the selection, in its order.
TEST(WireCodec, EncodesLiveRowRange) {
  RowBatch batch;
  for (int64_t i = 0; i < 6; ++i) batch.AppendRow({Value::Int64(i)});
  batch.SetSelection({5, 1, 4, 2});
  const std::string payload = EncodePayload(batch, 1, 3);
  std::vector<Row> decoded;
  ASSERT_TRUE(DecodeRowBatch(payload, &decoded).ok());
  ASSERT_EQ(decoded.size(), 2u);
  EXPECT_EQ(decoded[0][0].AsInt64(), 1);
  EXPECT_EQ(decoded[1][0].AsInt64(), 4);
}

TEST(WireCodec, TruncatedPayloadIsCorruption) {
  RowBatch batch;
  batch.AppendRow({Value::String("a long enough string")});
  const std::string payload = EncodePayload(batch, 0, 1);
  std::vector<Row> decoded;
  const Status s =
      DecodeRowBatch(std::string_view(payload).substr(0, payload.size() - 3),
                     &decoded);
  EXPECT_TRUE(s.IsCorruption()) << s.ToString();
}

TEST(WireCodec, SchemaRoundTrip) {
  Schema schema;
  schema.AddColumn({.name = "id", .type = DataType::kInt64});
  Column sample;
  sample.name = "sample";
  sample.type = DataType::kString;
  sample.nullable = true;
  schema.AddColumn(std::move(sample));
  std::string payload;
  EncodeSchema(schema, &payload);
  Schema decoded;
  ASSERT_TRUE(DecodeSchema(payload, &decoded).ok());
  ASSERT_EQ(decoded.num_columns(), 2);
  EXPECT_EQ(decoded.column(0).name, "id");
  EXPECT_TRUE(decoded.column(1).nullable);
}

// ---------------------------------------------------------- lock manager

TEST(LockManagerTest, SharedReadersCoexistWritersExclude) {
  LockManager locks;
  auto r1 = locks.Acquire({"T"}, {}, 100);
  auto r2 = locks.Acquire({"T"}, {}, 100);
  ASSERT_TRUE(r1.ok());
  ASSERT_TRUE(r2.ok());
  // A writer cannot get in while readers hold the table.
  auto w = locks.Acquire({}, {"T"}, 50);
  ASSERT_FALSE(w.ok());
  EXPECT_EQ(w.status().code(), StatusCode::kAborted);
  EXPECT_NE(w.status().message().find("lock timeout"), std::string::npos);
  r1->Release();
  r2->Release();
  auto w2 = locks.Acquire({}, {"T"}, 50);
  EXPECT_TRUE(w2.ok());
  EXPECT_EQ(locks.LockedTableCount(), 1u);
  w2->Release();
  EXPECT_EQ(locks.LockedTableCount(), 0u);
}

TEST(LockManagerTest, WriteLockUnblocksWaitingReader) {
  LockManager locks;
  auto w = locks.Acquire({}, {"T"}, 100);
  ASSERT_TRUE(w.ok());
  std::atomic<bool> acquired{false};
  std::thread reader([&] {
    auto r = locks.Acquire({"T"}, {}, 5000);
    EXPECT_TRUE(r.ok());
    acquired.store(true);
  });
  w->Release();
  reader.join();
  EXPECT_TRUE(acquired.load());
}

TEST(LockManagerTest, TableInBothSetsIsExclusive) {
  LockManager locks;
  // INSERT INTO T SELECT FROM T: T appears as read and write; the write
  // wins, so a concurrent reader must time out.
  auto both = locks.Acquire({"T"}, {"T"}, 100);
  ASSERT_TRUE(both.ok());
  auto r = locks.Acquire({"T"}, {}, 50);
  EXPECT_FALSE(r.ok());
}

TEST(LockFootprintTest, DerivedFromAst) {
  auto stmts = sql::ParseSql(
      "INSERT INTO dst SELECT r.id FROM src r JOIN other o ON r.id = o.id");
  ASSERT_TRUE(stmts.ok());
  const LockFootprint fp = DeriveLockFootprint(*stmts);
  EXPECT_TRUE(fp.has_writes);
  ASSERT_EQ(fp.writes.size(), 1u);
  EXPECT_EQ(fp.writes[0], "DST");
  // Schema-stability locks on the target and both sources (snapshot reads
  // take no table read lock) + the shared catalog pseudo-lock.
  ASSERT_EQ(fp.reads.size(), 4u);
  EXPECT_EQ(fp.reads[0], std::string("\x02") + "DST");
  EXPECT_EQ(fp.reads[1], std::string("\x02") + "SRC");
  EXPECT_EQ(fp.reads[2], std::string("\x02") + "OTHER");
}

// --------------------------------------------------------- conversations

TEST_F(ServerTest, QueryPrepareExecuteRoundTrip) {
  StartServer();
  std::unique_ptr<Client> client = Connect();
  ASSERT_NE(client, nullptr);
  Query(client.get(), "CREATE TABLE Read (id INT, sample VARCHAR(20))");
  const ClientResult ins = Query(
      client.get(),
      "INSERT INTO Read VALUES (1, 'NA12878'), (2, 'NA12891'), (3, 'NA12878')");
  EXPECT_EQ(ins.rows_affected, 3u);
  const ClientResult sel = Query(
      client.get(), "SELECT sample, COUNT(*) FROM Read GROUP BY sample");
  EXPECT_EQ(sel.rows.size(), 2u);
  EXPECT_EQ(sel.schema.num_columns(), 2);

  auto prepared = client->Prepare("SELECT COUNT(*) FROM Read");
  ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();
  auto executed = client->Execute(*prepared);
  ASSERT_TRUE(executed.ok()) << executed.status().ToString();
  ASSERT_EQ(executed->rows.size(), 1u);
  EXPECT_EQ(executed->rows[0][0].AsInt64(), 3);
  ASSERT_TRUE(client->CloseStatement(*prepared).ok());
  auto gone = client->Execute(*prepared);
  ASSERT_FALSE(gone.ok());
  EXPECT_TRUE(gone.status().IsNotFound()) << gone.status().ToString();
  client->Goodbye();
}

TEST_F(ServerTest, StatementErrorKeepsSessionUsable) {
  StartServer();
  std::unique_ptr<Client> client = Connect();
  ASSERT_NE(client, nullptr);
  auto bad = client->Query("SELECT * FROM NoSuchTable");
  ASSERT_FALSE(bad.ok());
  EXPECT_TRUE(bad.status().IsNotFound());
  auto parse = client->Query("SELEC oops");
  ASSERT_FALSE(parse.ok());
  EXPECT_TRUE(parse.status().IsParseError());
  // The session survives both failures.
  const ClientResult ok = Query(client.get(), "SELECT 1 + 1 AS two");
  ASSERT_EQ(ok.rows.size(), 1u);
  EXPECT_EQ(ok.rows[0][0].AsInt64(), 2);
}

// SUM over a VARCHAR column used to throw out of the aggregate and take
// the whole server down; now it is a typed error, ad hoc and prepared,
// and the session keeps serving (a clustered point read afterwards).
TEST_F(ServerTest, SumOverVarcharIsTypedErrorAndSessionServes) {
  StartServer();
  std::unique_ptr<Client> client = Connect();
  ASSERT_NE(client, nullptr);
  Query(client.get(), "CREATE TABLE kv (k BIGINT PRIMARY KEY, s VARCHAR(10))");
  Query(client.get(), "INSERT INTO kv VALUES (1, 'one'), (2, 'two')");
  auto bad = client->Query("SELECT SUM(s) FROM kv");
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kBindError)
      << bad.status().ToString();
  auto prepared = client->Prepare("SELECT AVG(s) FROM kv");
  if (prepared.ok()) {
    auto executed = client->Execute(*prepared);
    ASSERT_FALSE(executed.ok());
    EXPECT_EQ(executed.status().code(), StatusCode::kBindError)
        << executed.status().ToString();
  } else {
    EXPECT_EQ(prepared.status().code(), StatusCode::kBindError)
        << prepared.status().ToString();
  }
  const ClientResult point =
      Query(client.get(), "SELECT s FROM kv WHERE k = 2");
  ASSERT_EQ(point.rows.size(), 1u);
  EXPECT_EQ(point.rows[0][0].AsString(), "two");
  // A second client is served too: the server process survived.
  std::unique_ptr<Client> other = Connect();
  ASSERT_NE(other, nullptr);
  EXPECT_EQ(Query(other.get(), "SELECT COUNT(*) FROM kv").rows[0][0].AsInt64(),
            2);
  client->Goodbye();
  other->Goodbye();
}

TEST_F(ServerTest, ConcurrentReadersAndWriterInterleave) {
  ServerOptions options;
  options.threads = 8;
  StartServer(options);
  {
    std::unique_ptr<Client> admin = Connect();
    ASSERT_NE(admin, nullptr);
    Query(admin.get(), "CREATE TABLE hits (id INT, n INT)");
    Query(admin.get(), "INSERT INTO hits VALUES (0, 0)");
    admin->Goodbye();
  }
  constexpr int kReaders = 4;
  constexpr int kWrites = 25;
  std::atomic<int> reader_failures{0};
  std::atomic<bool> stop{false};
  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (int i = 0; i < kReaders; ++i) {
    readers.emplace_back([&] {
      auto client = Client::Connect(server_->port());
      if (!client.ok()) {
        ++reader_failures;
        return;
      }
      while (!stop.load(std::memory_order_acquire)) {
        auto r = (*client)->Query("SELECT COUNT(*) FROM hits");
        if (!r.ok()) ++reader_failures;
      }
      (*client)->Goodbye();
    });
  }
  {
    auto writer = Client::Connect(server_->port());
    ASSERT_TRUE(writer.ok());
    for (int i = 1; i <= kWrites; ++i) {
      auto r = (*writer)->Query(
          "INSERT INTO hits VALUES (" + std::to_string(i) + ", 1)");
      ASSERT_TRUE(r.ok()) << r.status().ToString();
    }
    (*writer)->Goodbye();
  }
  stop.store(true, std::memory_order_release);
  for (std::thread& t : readers) t.join();
  EXPECT_EQ(reader_failures.load(), 0);
  std::unique_ptr<Client> check = Connect();
  ASSERT_NE(check, nullptr);
  const ClientResult count =
      Query(check.get(), "SELECT COUNT(*) FROM hits");
  ASSERT_EQ(count.rows.size(), 1u);
  EXPECT_EQ(count.rows[0][0].AsInt64(), kWrites + 1);
  check->Goodbye();
  EXPECT_EQ(server_->locks()->LockedTableCount(), 0u);
}

TEST_F(ServerTest, LockConflictTimesOutTyped) {
  ServerOptions options;
  options.lock_timeout_ms = 100;
  StartServer(options);
  std::unique_ptr<Client> client = Connect();
  ASSERT_NE(client, nullptr);
  Query(client.get(), "CREATE TABLE busy (id INT)");
  // Hold the table exclusively out-of-band, then watch a writer's
  // bounded wait fail typed across the wire. (A reader would sail
  // through: under MVCC, scans take only the schema-stability lock —
  // see docs/CONCURRENCY.md.)
  auto held = server_->locks()->Acquire({}, {"BUSY"}, 1000);
  ASSERT_TRUE(held.ok());
  const ClientResult read = Query(client.get(), "SELECT COUNT(*) FROM busy");
  EXPECT_EQ(read.rows.size(), 1u);  // snapshot read never queues
  auto r = client->Query("INSERT INTO busy VALUES (1)");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kAborted) << r.status().ToString();
  EXPECT_NE(r.status().message().find("lock timeout"), std::string::npos);
  held->Release();
  // And with the conflict gone the same statement succeeds.
  auto ok = client->Query("INSERT INTO busy VALUES (1)");
  EXPECT_TRUE(ok.ok()) << ok.status().ToString();
}

TEST_F(ServerTest, PreparedStatementCacheEvicts) {
  ServerOptions options;
  options.stmt_cache_capacity = 2;
  StartServer(options);
  std::unique_ptr<Client> client = Connect();
  ASSERT_NE(client, nullptr);
  auto s1 = client->Prepare("SELECT 1");
  auto s2 = client->Prepare("SELECT 2");
  auto s3 = client->Prepare("SELECT 3");  // evicts s1 (LRU)
  ASSERT_TRUE(s1.ok() && s2.ok() && s3.ok());
  auto evicted = client->Execute(*s1);
  ASSERT_FALSE(evicted.ok());
  EXPECT_TRUE(evicted.status().IsNotFound()) << evicted.status().ToString();
  auto live = client->Execute(*s3);
  ASSERT_TRUE(live.ok());
  EXPECT_EQ(live->rows[0][0].AsInt64(), 3);
  // Executing s2 refreshes it; the next prepare evicts s3, not s2.
  ASSERT_TRUE(client->Execute(*s2).ok());
  auto s4 = client->Prepare("SELECT 4");
  ASSERT_TRUE(s4.ok());
  EXPECT_FALSE(client->Execute(*s3).ok());
  EXPECT_TRUE(client->Execute(*s2).ok());
}

TEST_F(ServerTest, MidStatementClientDisconnect) {
  StartServer();
  {
    std::unique_ptr<Client> admin = Connect();
    ASSERT_NE(admin, nullptr);
    Query(admin.get(), "CREATE TABLE big (id INT)");
    for (int i = 0; i < 20; ++i) {
      Query(admin.get(), "INSERT INTO big VALUES (" + std::to_string(i) + ")");
    }
    admin->Goodbye();
  }
  // Fire a query and slam the connection without reading the result. The
  // server must absorb the dead peer (no SIGPIPE, no leaked lock).
  {
    auto raw = ConnectLoopback(server_->port());
    ASSERT_TRUE(raw.ok());
    HelloMsg hello;
    std::string payload;
    EncodeHello(hello, &payload);
    ASSERT_TRUE(WriteFrame(raw->get(), MsgType::kHello, payload).ok());
    Frame ack;
    ASSERT_TRUE(ReadFrame(raw->get(), &ack).ok());
    QueryMsg query;
    query.sql = "SELECT * FROM big";
    payload.clear();
    EncodeQuery(query, &payload);
    ASSERT_TRUE(WriteFrame(raw->get(), MsgType::kQuery, payload).ok());
    (*raw)->Close();
  }
  // The server keeps serving other sessions and every lock drains.
  std::unique_ptr<Client> client = Connect();
  ASSERT_NE(client, nullptr);
  const ClientResult count = Query(client.get(), "SELECT COUNT(*) FROM big");
  ASSERT_EQ(count.rows.size(), 1u);
  EXPECT_EQ(count.rows[0][0].AsInt64(), 20);
  client->Goodbye();
  for (int i = 0; i < 100 && server_->locks()->LockedTableCount() > 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_EQ(server_->locks()->LockedTableCount(), 0u);
}

TEST_F(ServerTest, GracefulShutdownDrainsInFlightWrites) {
  StartServer();
  {
    std::unique_ptr<Client> admin = Connect();
    ASSERT_NE(admin, nullptr);
    Query(admin.get(), "CREATE TABLE load (id INT)");
    admin->Goodbye();
  }
  std::atomic<int> committed{0};
  std::thread loader([&] {
    auto client = Client::Connect(server_->port());
    if (!client.ok()) return;
    for (int i = 0; i < 100000; ++i) {
      auto r = (*client)->Query("INSERT INTO load VALUES (" +
                                std::to_string(i) + ")");
      if (!r.ok()) break;  // server drained; the wire said goodbye
      committed.fetch_add(1);
    }
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  server_->Shutdown();
  loader.join();
  EXPECT_GT(committed.load(), 0);
  // Nothing half-applied and nothing orphaned: every acknowledged insert
  // is in the table, no trailing partial row, and every lock released.
  EXPECT_EQ(server_->locks()->LockedTableCount(), 0u);
  sql::SqlEngine engine(db_.get());
  auto count = engine.Execute("SELECT COUNT(*) FROM load");
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(count->rows[0][0].AsInt64(), committed.load());
  // New connections are refused after shutdown.
  auto late = Client::Connect(server_->port());
  EXPECT_FALSE(late.ok());
}

TEST_F(ServerTest, IdleClientSeesGoodbyeOnShutdown) {
  StartServer();
  std::unique_ptr<Client> client = Connect();
  ASSERT_NE(client, nullptr);
  server_->Shutdown();
  auto r = client->Query("SELECT 1");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kAborted) << r.status().ToString();
}

// ----------------------------------------------- statement dedupe tokens

TEST_F(ServerTest, TokenDedupeDoesNotReExecuteCommittedLoad) {
  // Satellite regression: once the session layer owns retries, re-running
  // a committed non-idempotent load after a kTransient must return the
  // recorded result, not double the rows.
  sql::SqlEngine engine(db_.get());
  ASSERT_TRUE(engine.Execute("CREATE TABLE reads (id INT)").ok());
  sql::StatementOptions opts;
  opts.token = "load-1";
  opts.caller_owns_retries = true;
  auto first =
      engine.Execute("INSERT INTO reads VALUES (1), (2), (3)", opts);
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first->rows_affected, 3u);
  // The session-layer retry of the same statement (same token).
  auto retried =
      engine.Execute("INSERT INTO reads VALUES (1), (2), (3)", opts);
  ASSERT_TRUE(retried.ok());
  EXPECT_EQ(retried->rows_affected, 3u);
  auto count = engine.Execute("SELECT COUNT(*) FROM reads");
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(count->rows[0][0].AsInt64(), 3) << "committed load ran twice";
  // A different token is a different statement and does execute.
  opts.token = "load-2";
  ASSERT_TRUE(
      engine.Execute("INSERT INTO reads VALUES (4)", opts).ok());
  count = engine.Execute("SELECT COUNT(*) FROM reads");
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(count->rows[0][0].AsInt64(), 4);

  // A batch that writes and then reads, under one token: the retry skips
  // the committed INSERT and runs the SELECT again, so it sees a row a
  // later writer added (6), and not a second copy of its own (7).
  const char* kLoadThenCount =
      "INSERT INTO reads VALUES (5); SELECT COUNT(*) FROM reads";
  opts.token = "load-3";
  auto both = engine.Execute(kLoadThenCount, opts);
  ASSERT_TRUE(both.ok()) << both.status().ToString();
  ASSERT_EQ(both->rows.size(), 1u);
  EXPECT_EQ(both->rows[0][0].AsInt64(), 5);
  ASSERT_TRUE(engine.Execute("INSERT INTO reads VALUES (6)").ok());
  auto both_again = engine.Execute(kLoadThenCount, opts);
  ASSERT_TRUE(both_again.ok()) << both_again.status().ToString();
  ASSERT_EQ(both_again->rows.size(), 1u);
  EXPECT_EQ(both_again->rows[0][0].AsInt64(), 6);

  // A token on a read-only SELECT records nothing: the same token reads
  // the table as it is now.
  opts.token = "read-1";
  auto read = engine.Execute("SELECT COUNT(*) FROM reads", opts);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(read->rows[0][0].AsInt64(), 6);
  ASSERT_TRUE(engine.Execute("INSERT INTO reads VALUES (7)").ok());
  read = engine.Execute("SELECT COUNT(*) FROM reads", opts);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(read->rows[0][0].AsInt64(), 7);
}

TEST_F(ServerTest, ClientTokenDedupesAcrossWire) {
  StartServer();
  std::unique_ptr<Client> client = Connect();
  ASSERT_NE(client, nullptr);
  Query(client.get(), "CREATE TABLE t (id INT)");
  auto first = client->Query("INSERT INTO t VALUES (1)", "tok-a");
  ASSERT_TRUE(first.ok());
  // A client that never saw the ack retries with the same token.
  auto retry = client->Query("INSERT INTO t VALUES (1)", "tok-a");
  ASSERT_TRUE(retry.ok());
  const ClientResult count = Query(client.get(), "SELECT COUNT(*) FROM t");
  EXPECT_EQ(count.rows[0][0].AsInt64(), 1);
}

// SUM overflow is a typed kOutOfRange on the wire too, and the session
// keeps serving.
TEST_F(ServerTest, SumOverflowIsTypedErrorAndSessionServes) {
  StartServer();
  std::unique_ptr<Client> client = Connect();
  ASSERT_NE(client, nullptr);
  Query(client.get(), "CREATE TABLE n (v BIGINT)");
  Query(client.get(), "INSERT INTO n VALUES (9223372036854775807), (1)");
  auto bad = client->Query("SELECT SUM(v) FROM n");
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kOutOfRange)
      << bad.status().ToString();
  const ClientResult count = Query(client.get(), "SELECT COUNT(*) FROM n");
  ASSERT_EQ(count.rows.size(), 1u);
  EXPECT_EQ(count.rows[0][0].AsInt64(), 2);
  client->Goodbye();
}

// INT64_MIN / -1 used to trap with SIGFPE and take the server and every
// session down; it is a typed kOutOfRange Error frame, and the same
// session keeps serving.
TEST_F(ServerTest, DivisionOverflowIsTypedErrorAndSessionServes) {
  StartServer();
  std::unique_ptr<Client> client = Connect();
  ASSERT_NE(client, nullptr);
  auto bad = client->Query("SELECT (-9223372036854775807 - 1) / -1");
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kOutOfRange)
      << bad.status().ToString();
  const ClientResult one = Query(client.get(), "SELECT 1");
  ASSERT_EQ(one.rows.size(), 1u);
  EXPECT_EQ(one.rows[0][0].AsInt64(), 1);
  client->Goodbye();
}

// The session streams a SELECT from the plan root: when the client has
// read only the header and the first frame, the scan has not read the
// whole heap (the socket buffers hold the server back), and a client
// that then hangs up releases the statement's locks.
TEST_F(ServerTest, ResultStreamsAsTheClientReads) {
  constexpr int kRows = 200000;
  sql::SqlEngine engine(db_.get());
  ASSERT_TRUE(
      engine.Execute("CREATE TABLE wide (id BIGINT, pad VARCHAR(200))").ok());
  catalog::TableDef* table = *db_->GetTable("wide");
  const std::string pad(200, 'x');
  RowBatch batch;
  for (int i = 0; i < kRows;) {
    batch.Clear();
    for (int j = 0; j < 1000; ++j, ++i) {
      batch.AppendRow({Value::Int64(i), Value::String(pad)});
    }
    ASSERT_TRUE(db_->AppendBatch(table, &batch).ok());
  }
  const size_t pages =
      dynamic_cast<storage::HeapTable*>(table->table.get())->num_pages();
  ASSERT_GT(pages, 0u);
  StartServer();

  obs::Counter* page_reads =
      obs::MetricsRegistry::Global().GetCounter("heap.page.reads");
  const uint64_t reads_before = page_reads->Value();
  auto raw = ConnectLoopback(server_->port());
  ASSERT_TRUE(raw.ok());
  HelloMsg hello;
  std::string payload;
  EncodeHello(hello, &payload);
  ASSERT_TRUE(WriteFrame(raw->get(), MsgType::kHello, payload).ok());
  Frame frame;
  ASSERT_TRUE(ReadFrame(raw->get(), &frame).ok());
  QueryMsg query;
  query.sql = "SELECT id, pad FROM wide";
  payload.clear();
  EncodeQuery(query, &payload);
  ASSERT_TRUE(WriteFrame(raw->get(), MsgType::kQuery, payload).ok());
  ASSERT_TRUE(ReadFrame(raw->get(), &frame).ok());
  ASSERT_EQ(frame.type, MsgType::kResultHeader);
  ASSERT_TRUE(ReadFrame(raw->get(), &frame).ok());
  ASSERT_EQ(frame.type, MsgType::kResultBatch);
  std::vector<Row> first;
  ASSERT_TRUE(DecodeRowBatch(frame.payload, &first).ok());
  EXPECT_EQ(first.size(), kResultBatchRows);
  // Give the server time to run ahead until the socket buffers fill.
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  const uint64_t read = page_reads->Value() - reads_before;
  EXPECT_GT(read, 0u);
  EXPECT_LT(read, pages) << "the statement read the whole heap before the "
                            "client read its second frame";
  (*raw)->Close();
  for (int i = 0; i < 500 && server_->locks()->LockedTableCount() > 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_EQ(server_->locks()->LockedTableCount(), 0u);
}

// Per-session memory budgets surface as typed kResourceExhausted.
TEST_F(ServerTest, SessionMemoryBudgetIsEnforced) {
  ServerOptions options;
  options.session_mem_bytes = 16 * 1024;  // far too small for a big sort
  StartServer(options);
  std::unique_ptr<Client> client = Connect();
  ASSERT_NE(client, nullptr);
  Query(client.get(), "CREATE TABLE wide (id INT, label VARCHAR(64))");
  for (int i = 0; i < 40; ++i) {
    std::string values;
    for (int j = 0; j < 50; ++j) {
      const int v = i * 50 + j;
      values += (j > 0 ? "," : "");
      values += "(" + std::to_string(v) + ", 'sample_label_" +
                std::to_string(v) + "')";
    }
    Query(client.get(), "INSERT INTO wide VALUES " + values);
  }
  // Spilling keeps the statement alive under the tiny budget; what must
  // hold is that it either succeeds (degraded) or fails typed.
  auto r = client->Query("SELECT id, label FROM wide ORDER BY label");
  if (!r.ok()) {
    EXPECT_TRUE(r.status().IsResourceExhausted()) << r.status().ToString();
  } else {
    EXPECT_EQ(r->rows.size(), 2000u);
  }
}

}  // namespace
}  // namespace htg::server
