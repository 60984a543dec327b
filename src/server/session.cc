#include "server/session.h"

#include <algorithm>

#include "common/metrics.h"
#include "common/string_util.h"
#include "sql/parser.h"

namespace htg::server {

namespace {

// The catalog pseudo-lock. The \x01 prefix cannot appear in a SQL
// identifier, so it can never collide with a user table name.
const char kCatalogLock[] =
    "\x01"
    "catalog";

// Per-table schema-stability pseudo-locks. A snapshot reader holds
// "\x02<TABLE>" shared instead of locking the table itself: its
// snapshot already isolates it from concurrent inserts, but
// TRUNCATE/DROP physically destroy the rows the scan is walking, so
// those take the schema lock exclusively and wait readers out. Like
// \x01, the prefix cannot collide with a SQL identifier.
std::string SchemaLockName(const std::string& upper_table) {
  return std::string("\x02") + upper_table;
}

void CollectSelectReads(const sql::SelectStmt& stmt,
                        std::vector<std::string>* reads);

void CollectRefReads(const sql::TableRef& ref,
                     std::vector<std::string>* reads) {
  switch (ref.kind) {
    case sql::TableRef::Kind::kTable:
      reads->push_back(ToUpper(ref.name));
      break;
    case sql::TableRef::Kind::kSubquery:
      if (ref.subquery != nullptr) CollectSelectReads(*ref.subquery, reads);
      break;
    case sql::TableRef::Kind::kTvf:
    case sql::TableRef::Kind::kOpenRowset:
    case sql::TableRef::Kind::kNone:
      // TVFs and bulk rowsets read files, not catalog tables.
      break;
  }
}

void CollectSelectReads(const sql::SelectStmt& stmt,
                        std::vector<std::string>* reads) {
  CollectRefReads(stmt.from, reads);
  for (const sql::JoinClause& join : stmt.joins) {
    CollectRefReads(join.ref, reads);
  }
}

}  // namespace

LockFootprint DeriveLockFootprint(const std::vector<sql::Statement>& stmts) {
  LockFootprint fp;
  bool ddl = false;
  std::vector<std::string> scans;  // tables read through a snapshot
  for (const sql::Statement& stmt : stmts) {
    switch (stmt.kind) {
      case sql::Statement::Kind::kSelect:
      case sql::Statement::Kind::kExplain:
        if (stmt.select != nullptr) CollectSelectReads(*stmt.select, &scans);
        break;
      case sql::Statement::Kind::kInsert: {
        const std::string target = ToUpper(stmt.insert->table);
        fp.writes.push_back(target);
        // The writer needs the table to keep existing until its txn
        // finishes, exactly like a reader does.
        fp.reads.push_back(SchemaLockName(target));
        if (stmt.insert->select != nullptr) {
          CollectSelectReads(*stmt.insert->select, &scans);
        }
        fp.has_writes = true;
        break;
      }
      case sql::Statement::Kind::kCreateTable:
        fp.writes.push_back(ToUpper(stmt.create_table->name));
        fp.has_writes = true;
        ddl = true;
        break;
      case sql::Statement::Kind::kDropTable: {
        const std::string target = ToUpper(stmt.table_name);
        fp.writes.push_back(target);
        fp.writes.push_back(SchemaLockName(target));
        fp.has_writes = true;
        ddl = true;
        break;
      }
      case sql::Statement::Kind::kTruncate: {
        const std::string target = ToUpper(stmt.table_name);
        fp.writes.push_back(target);
        fp.writes.push_back(SchemaLockName(target));
        fp.has_writes = true;
        break;
      }
    }
  }
  // Scanned tables: the snapshot isolates the scan from concurrent
  // inserts, so readers take only the schema-stability lock (a SELECT
  // never blocks behind a bulk load).
  for (const std::string& table : scans) {
    fp.reads.push_back(SchemaLockName(table));
  }
  // Every statement participates in the catalog lock: DDL exclusively
  // (changing the table map), everything else shared (resolving pointers
  // into it). This is what keeps a TableDef* alive for a running scan.
  if (ddl) {
    fp.writes.push_back(kCatalogLock);
  } else {
    fp.reads.push_back(kCatalogLock);
  }
  return fp;
}

Session::Session(uint64_t id, sql::SqlEngine* engine, LockManager* locks,
                 SessionOptions options)
    : id_(id), engine_(engine), locks_(locks), options_(options) {}

void Session::Serve(Socket* socket, const std::atomic<bool>* draining) {
  // However the connection ends — hangup, drain, protocol error — an
  // open transaction aborts implicitly so its accumulated locks release
  // and its writes roll back; a vanished client must not leave a table
  // locked (or half-loaded) forever.
  struct AbortOnExit {
    Session* session;
    ~AbortOnExit() {
      if (session->txn_ != nullptr) {
        HTG_METRIC_COUNTER("server.txn.disconnect_aborts")->Add();
      }
      session->AbortActiveTxn();
    }
  } abort_on_exit{this};

  // Handshake: versions must match exactly.
  Frame frame;
  Status s = ReadFrame(socket, &frame);
  if (!s.ok() || frame.type != MsgType::kHello) return;
  HelloMsg hello;
  if (!DecodeHello(frame.payload, &hello).ok()) return;
  if (hello.version != kProtocolVersion) {
    HTG_IGNORE_STATUS(SendError(
        socket, Status::InvalidArgument(StringPrintf(
                    "protocol version mismatch: client %u, server %u",
                    hello.version, kProtocolVersion))));
    return;
  }
  HelloAckMsg ack;
  ack.server_name = "htgdb";
  ack.session_id = id_;
  std::string payload;
  EncodeHelloAck(ack, &payload);
  if (!WriteFrame(socket, MsgType::kHelloAck, payload).ok()) return;

  while (true) {
    s = ReadFrame(socket, &frame);
    if (!s.ok()) {
      // Peer hangup (or our own drain via ShutdownRead) surfaces as
      // kAborted "connection closed"; during a drain we still owe the
      // client a Goodbye so it can tell shutdown from a crash.
      if (draining != nullptr && draining->load(std::memory_order_relaxed)) {
        HTG_IGNORE_STATUS(WriteFrame(socket, MsgType::kGoodbye, {}));
      }
      return;
    }
    HTG_METRIC_COUNTER("server.requests")->Add();
    switch (frame.type) {
      case MsgType::kQuery:
        s = HandleQuery(socket, frame);
        break;
      case MsgType::kPrepare:
        s = HandlePrepare(socket, frame);
        break;
      case MsgType::kExecute:
        s = HandleExecute(socket, frame);
        break;
      case MsgType::kCloseStmt:
        s = HandleClose(socket, frame);
        break;
      case MsgType::kBegin:
        s = HandleBegin(socket);
        break;
      case MsgType::kCommit:
        s = HandleCommit(socket);
        break;
      case MsgType::kAbort:
        s = HandleAbort(socket);
        break;
      case MsgType::kGoodbye:
        return;
      default:
        // A frame type the server never expects is a protocol error, not
        // a statement error: close rather than guess at framing.
        HTG_IGNORE_STATUS(SendError(
            socket, Status::InvalidArgument(StringPrintf(
                        "unexpected frame type %u",
                        static_cast<unsigned>(frame.type)))));
        return;
    }
    // Handler errors are transport failures (the client vanished
    // mid-result) or protocol corruption; either way the conversation is
    // broken. Statement failures were already sent as Error frames and
    // return OK here.
    if (!s.ok()) return;
  }
}

Status Session::Run(Socket* socket, const std::vector<sql::Statement>& stmts,
                    const std::string& client_token) {
  LockFootprint fp = DeriveLockFootprint(stmts);

  sql::StatementOptions opts;
  opts.caller_owns_retries = true;
  opts.query_mem_bytes = options_.query_mem_bytes;
  if (txn_ != nullptr) {
    // In-transaction statements never touch the dedupe ledger (nothing
    // commits until COMMIT, so there is no committed result to replay)
    // and never retry — on any failure the whole transaction aborts.
    opts.txn = txn_.get();
  } else {
    opts.token = client_token;
    if (opts.token.empty() && fp.has_writes) {
      // The client sent no token but the batch mutates data: pin a
      // session-local token so our own kTransient retries cannot re-run a
      // load whose first attempt committed.
      opts.token = StringPrintf("s%llu:%llu",
                                static_cast<unsigned long long>(id_),
                                static_cast<unsigned long long>(++token_seq_));
    }
  }

  uint64_t lock_wait_ns = 0;
  LockSet stmt_locks;  // autocommit: held until the last ResultBatch frame
  if (txn_ == nullptr) {
    // Locks span the retry loop: a retry is the same statement, and
    // letting the lock drop between attempts would let another writer
    // interleave into what the client sees as one operation.
    Result<LockSet> acquired = locks_->Acquire(
        std::move(fp.reads), std::move(fp.writes), options_.lock_timeout_ms);
    if (!acquired.ok()) return SendError(socket, acquired.status());
    stmt_locks = std::move(*acquired);
    lock_wait_ns = stmt_locks.wait_ns();
  } else {
    // Fail DDL/TRUNCATE before lock acquisition: its footprint wants the
    // catalog (or schema) lock exclusively, which the transaction already
    // holds shared — waiting on ourselves would burn the full lock
    // timeout before the engine rejects the statement anyway.
    for (const sql::Statement& stmt : stmts) {
      if (stmt.kind == sql::Statement::Kind::kCreateTable ||
          stmt.kind == sql::Statement::Kind::kDropTable ||
          stmt.kind == sql::Statement::Kind::kTruncate) {
        AbortActiveTxn();
        HTG_METRIC_COUNTER("server.txn.auto_aborts")->Add();
        return SendError(socket,
                         Status::InvalidArgument(
                             "DDL and TRUNCATE are not allowed inside a "
                             "transaction (transaction aborted)"));
      }
    }
    // Accumulate only the locks the transaction does not already hold:
    // re-acquiring a held exclusive lock would self-deadlock. Inside a
    // transaction no upgrade is possible — exclusive locks are plain
    // table names, shared ones are \x01/\x02-prefixed pseudo-locks, and
    // the namespaces never meet.
    const auto held = [](const std::vector<std::string>& held_names,
                         const std::string& name) {
      return std::binary_search(held_names.begin(), held_names.end(), name);
    };
    std::vector<std::string> need_reads;
    std::vector<std::string> need_writes;
    for (const std::string& name : fp.reads) {
      if (!held(txn_held_reads_, name) && !held(txn_held_writes_, name)) {
        need_reads.push_back(name);
      }
    }
    for (const std::string& name : fp.writes) {
      if (!held(txn_held_writes_, name)) need_writes.push_back(name);
    }
    const auto sort_unique = [](std::vector<std::string>* names) {
      std::sort(names->begin(), names->end());
      names->erase(std::unique(names->begin(), names->end()), names->end());
    };
    sort_unique(&need_reads);
    sort_unique(&need_writes);
    Result<LockSet> acquired = locks_->Acquire(need_reads, need_writes,
                                               options_.lock_timeout_ms);
    if (!acquired.ok()) {
      // A lock timeout inside a transaction aborts it: the client's next
      // statement would otherwise run against a transaction whose lock
      // coverage silently has a hole.
      AbortActiveTxn();
      HTG_METRIC_COUNTER("server.txn.auto_aborts")->Add();
      return SendError(socket, Status(acquired.status().code(),
                                      acquired.status().message() +
                                          " (transaction aborted)"));
    }
    lock_wait_ns = acquired->wait_ns();
    txn_locks_.push_back(std::move(*acquired));
    for (std::string& name : need_reads) {
      txn_held_reads_.insert(
          std::upper_bound(txn_held_reads_.begin(), txn_held_reads_.end(),
                           name),
          std::move(name));
    }
    for (std::string& name : need_writes) {
      txn_held_writes_.insert(
          std::upper_bound(txn_held_writes_.begin(), txn_held_writes_.end(),
                           name),
          std::move(name));
    }
  }

  // A statement retries on kTransient only while nothing of it has been
  // written: once a frame is out the client has seen part of the result.
  Status failure;
  bool written = false;
  uint64_t rows_affected = 0;
  std::string message;
  for (int attempt = 1;; ++attempt) {
    Result<std::unique_ptr<sql::Cursor>> cursor = engine_->Start(stmts, opts);
    failure = cursor.status();
    if (cursor.ok()) {
      // A transport failure ends the session; the cursor closes on the
      // way out, and the locks release after it.
      HTG_RETURN_IF_ERROR(StreamRows(socket, cursor->get(), &written));
      failure = (*cursor)->status();
      rows_affected = (*cursor)->rows_affected();
      message = (*cursor)->message();
    }
    if (failure.ok() || written || txn_ != nullptr ||
        !failure.IsTransient() || attempt >= options_.statement_retries) {
      break;
    }
    HTG_METRIC_COUNTER("server.statement.retries")->Add();
  }
  statements_.fetch_add(1, std::memory_order_relaxed);
  // The cursor has closed. The locks go before the last frame, so a
  // client holding its answer finds the tables unlocked.
  stmt_locks.Release();
  if (!failure.ok()) {
    if (txn_ != nullptr) {
      // Any failure inside an explicit transaction — including
      // kTransient: re-executing one statement against the accumulated
      // effects of its earlier siblings is not a replay of the
      // transaction — aborts the whole transaction.
      AbortActiveTxn();
      HTG_METRIC_COUNTER("server.txn.auto_aborts")->Add();
      failure = Status(failure.code(),
                       failure.message() + " (transaction aborted)");
    }
    return SendError(socket, failure);
  }
  if (stmts.back().kind == sql::Statement::Kind::kExplain &&
      stmts.back().explain_analyze) {
    // Surface the concurrency cost alongside the engine's plan stats.
    message += StringPrintf("locks: wait=%.3f ms (timeout %lld ms)\n",
                            static_cast<double>(lock_wait_ns) / 1e6,
                            static_cast<long long>(options_.lock_timeout_ms));
  }
  return SendDone(socket, message, rows_affected);
}

Status Session::HandleQuery(Socket* socket, const Frame& frame) {
  QueryMsg msg;
  HTG_RETURN_IF_ERROR(DecodeQuery(frame.payload, &msg));
  Result<std::vector<sql::Statement>> parsed = sql::ParseSql(msg.sql);
  if (!parsed.ok()) return SendError(socket, parsed.status());
  return Run(socket, *parsed, msg.token);
}

Status Session::HandlePrepare(Socket* socket, const Frame& frame) {
  // Prepare reuses the Query payload shape (the token field is unused).
  QueryMsg msg;
  HTG_RETURN_IF_ERROR(DecodeQuery(frame.payload, &msg));
  Result<std::vector<sql::Statement>> parsed = sql::ParseSql(msg.sql);
  if (!parsed.ok()) return SendError(socket, parsed.status());
  if (parsed->empty()) {
    return SendError(socket, Status::ParseError("no statement to prepare"));
  }
  const uint64_t stmt_id = next_statement_id_++;
  prepared_[stmt_id] = Prepared{msg.sql, std::move(*parsed)};
  lru_.push_back(stmt_id);
  while (prepared_.size() > options_.stmt_cache_capacity) {
    prepared_.erase(lru_.front());
    lru_.pop_front();
    evictions_.fetch_add(1, std::memory_order_relaxed);
    HTG_METRIC_COUNTER("server.stmt_cache.evictions")->Add();
  }
  std::string payload;
  EncodeU64(stmt_id, &payload);
  return WriteFrame(socket, MsgType::kPrepareAck, payload);
}

Status Session::HandleExecute(Socket* socket, const Frame& frame) {
  ExecuteMsg msg;
  HTG_RETURN_IF_ERROR(DecodeExecute(frame.payload, &msg));
  const auto it = prepared_.find(msg.statement_id);
  if (it == prepared_.end()) {
    return SendError(
        socket, Status::NotFound(StringPrintf(
                    "prepared statement %llu not found (closed or evicted)",
                    static_cast<unsigned long long>(msg.statement_id))));
  }
  // Touch the LRU: this id moves to the back of the eviction order.
  lru_.erase(std::find(lru_.begin(), lru_.end(), msg.statement_id));
  lru_.push_back(msg.statement_id);
  return Run(socket, it->second.statements, msg.token);
}

Status Session::HandleClose(Socket* socket, const Frame& frame) {
  uint64_t stmt_id = 0;
  HTG_RETURN_IF_ERROR(DecodeU64(frame.payload, &stmt_id));
  const auto it = prepared_.find(stmt_id);
  if (it != prepared_.end()) {
    prepared_.erase(it);
    lru_.erase(std::find(lru_.begin(), lru_.end(), stmt_id));
  }
  return SendDone(socket, "closed");
}

Status Session::SendDone(Socket* socket, const std::string& message,
                         uint64_t rows_affected) {
  ResultDoneMsg done;
  done.rows_affected = rows_affected;
  done.message = message;
  std::string payload;
  EncodeResultDone(done, &payload);
  return WriteFrame(socket, MsgType::kResultDone, payload);
}

Status Session::HandleBegin(Socket* socket) {
  if (txn_ != nullptr) {
    return SendError(socket,
                     Status::InvalidArgument(
                         "already in a transaction (COMMIT or ABORT first)"));
  }
  Result<std::unique_ptr<sql::TxnContext>> txn = engine_->BeginTxn();
  if (!txn.ok()) return SendError(socket, txn.status());
  txn_ = std::move(*txn);
  HTG_METRIC_COUNTER("server.txn.begun")->Add();
  return SendDone(socket, "begin");
}

Status Session::HandleCommit(Socket* socket) {
  if (txn_ == nullptr) {
    return SendError(socket,
                     Status::InvalidArgument("no transaction in progress"));
  }
  const Status s = engine_->CommitTxn(txn_.get());
  // Committed or not, the transaction is over: drop the context and
  // release every accumulated lock (write locks to commit — this is the
  // moment the tables unlock).
  txn_.reset();
  txn_locks_.clear();
  txn_held_reads_.clear();
  txn_held_writes_.clear();
  if (!s.ok()) return SendError(socket, s);
  HTG_METRIC_COUNTER("server.txn.committed")->Add();
  return SendDone(socket, "commit");
}

Status Session::HandleAbort(Socket* socket) {
  if (txn_ == nullptr) {
    return SendError(socket,
                     Status::InvalidArgument("no transaction in progress"));
  }
  AbortActiveTxn();
  HTG_METRIC_COUNTER("server.txn.aborted")->Add();
  return SendDone(socket, "abort");
}

void Session::AbortActiveTxn() {
  if (txn_ == nullptr) return;
  // Rollback failures (a blob delete hitting I/O trouble) cannot cross
  // the wire from a disconnect path; the storage state is still
  // consistent — the txn id is marked aborted either way.
  HTG_IGNORE_STATUS(engine_->AbortTxn(txn_.get()));
  txn_.reset();
  txn_locks_.clear();
  txn_held_reads_.clear();
  txn_held_writes_.clear();
}

Status Session::StreamRows(Socket* socket, sql::Cursor* cursor,
                           bool* written) {
  std::string payload;
  std::string rows;  // the encoded rows of the frame being filled
  size_t frame_rows = 0;
  // Writes the header before the first frame, then the frame filled so
  // far. The header waits until a frame is full or the cursor ends, so a
  // statement that fails before then has written nothing.
  const auto flush = [&]() -> Status {
    if (!*written) {
      *written = true;
      EncodeSchema(cursor->schema(), &payload);
      HTG_RETURN_IF_ERROR(WriteFrame(socket, MsgType::kResultHeader, payload));
    }
    if (frame_rows == 0) return Status::OK();
    payload.clear();
    EncodeRowBatch(frame_rows, rows, &payload);
    rows.clear();
    frame_rows = 0;
    return WriteFrame(socket, MsgType::kResultBatch, payload);
  };
  RowBatch batch;
  while (cursor->NextBatch(&batch)) {
    // Frames hold exactly kResultBatchRows rows, carried across batches.
    for (size_t begin = 0, n = batch.ActiveRows(); begin < n;) {
      const size_t end = std::min(n, begin + kResultBatchRows - frame_rows);
      EncodeRows(batch, begin, end, &rows);
      frame_rows += end - begin;
      begin = end;
      if (frame_rows == kResultBatchRows) HTG_RETURN_IF_ERROR(flush());
    }
  }
  if (!cursor->status().ok() || cursor->schema().num_columns() == 0) {
    return Status::OK();
  }
  return flush();
}

Status Session::SendError(Socket* socket, const Status& status) {
  std::string payload;
  EncodeError(status, &payload);
  return WriteFrame(socket, MsgType::kError, payload);
}

}  // namespace htg::server
