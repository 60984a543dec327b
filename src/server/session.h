#pragma once

// One connected client. A Session owns the request loop for its socket:
// it parses each statement once, derives the lock set from the AST,
// acquires the locks for the statement's duration, starts it through
// the shared SqlEngine under the session's memory budget, and streams
// the cursor's rows to the client as 256-row frames while the plan
// produces them. Statement failures cross the wire as typed Error frames
// and the loop keeps serving; only protocol errors or a peer hangup end
// the session.
//
// Lock regime (see docs/CONCURRENCY.md): readers do not lock tables at
// all — their snapshot isolates them from concurrent inserts — they hold
// per-table schema-stability locks shared so TRUNCATE/DROP cannot destroy
// the rows a scan is walking; INSERT holds the table exclusively (one
// writer per table is what makes commit order equal append order).
//
// BEGIN/COMMIT/ABORT frames bracket a multi-statement transaction: the
// session owns the TxnContext, accumulates each statement's locks until
// the transaction finishes, auto-aborts the whole transaction on any
// statement failure (no silent retry inside a transaction), and aborts
// implicitly if the client disconnects mid-transaction.
//
// Retry discipline lives here, not in the engine: the session retries
// kTransient statements itself, pinning a dedupe token so a load whose
// first run committed is never executed twice (the engine's internal
// retry loop is disabled via StatementOptions::caller_owns_retries).
// It retries only while no frame of the statement has gone out.
//
// Prepared statements are a bounded per-session LRU of parsed ASTs:
// Prepare parses once, Execute replans/reruns under fresh locks, and an
// id evicted by capacity pressure (or Close) fails typed with kNotFound.

#include <atomic>
#include <cstdint>
#include <list>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "server/lock_manager.h"
#include "server/net_socket.h"
#include "server/wire.h"
#include "sql/ast.h"
#include "sql/engine.h"

namespace htg::server {

struct SessionOptions {
  // Bounded lock wait per statement (HTG_LOCK_TIMEOUT_MS).
  int64_t lock_timeout_ms = LockManager::kDefaultTimeoutMs;
  // Prepared statements cached per session before LRU eviction
  // (HTG_STMT_CACHE).
  size_t stmt_cache_capacity = 32;
  // Per-session query memory budget in bytes; 0 = database default.
  size_t query_mem_bytes = 0;
  // Session-owned whole-statement retries on kTransient.
  int statement_retries = sql::SqlEngine::kStatementRetries;
};

// The lock footprint of a parsed statement batch, in catalog-key
// (uppercased) table names.
struct LockFootprint {
  std::vector<std::string> reads;
  std::vector<std::string> writes;
  // Any statement in the batch mutates data (needs a dedupe token).
  bool has_writes = false;
};

// Derives the footprint by walking the AST: FROM/JOIN/subquery tables are
// reads, INSERT/TRUNCATE/CREATE/DROP targets are writes, and every
// statement takes the catalog pseudo-lock (shared for DML, exclusive for
// DDL) so a DROP cannot yank a TableDef out from under a running scan.
// Scanned tables (and INSERT targets) take shared schema-stability locks
// ("\x02"-prefixed) instead of table read locks — snapshot readers need
// the table to keep existing, not to stop moving — and TRUNCATE/DROP
// additionally take the schema lock exclusively to wait out every
// in-flight scan.
LockFootprint DeriveLockFootprint(const std::vector<sql::Statement>& stmts);

class Session {
 public:
  Session(uint64_t id, sql::SqlEngine* engine, LockManager* locks,
          SessionOptions options);

  uint64_t id() const { return id_; }

  // Serves the connection until the peer hangs up, a protocol error
  // occurs, or the socket's read side is shut down (graceful drain). The
  // in-flight statement always finishes; `draining` only changes the
  // goodbye: when set, the server is closing and the session sends
  // Goodbye{} before returning.
  void Serve(Socket* socket, const std::atomic<bool>* draining);

  // Observability for tests.
  uint64_t statements_executed() const {
    return statements_.load(std::memory_order_relaxed);
  }
  uint64_t cache_evictions() const {
    return evictions_.load(std::memory_order_relaxed);
  }
  size_t cached_statements() const { return prepared_.size(); }
  bool in_transaction() const { return txn_ != nullptr; }

 private:
  struct Prepared {
    std::string sql;
    std::vector<sql::Statement> statements;
  };

  // Lock + execute + (session-owned) retry for one parsed batch, with its
  // result or Error frame sent. Returns the transport status.
  Status Run(Socket* socket, const std::vector<sql::Statement>& stmts,
             const std::string& client_token);

  Status HandleQuery(Socket* socket, const Frame& frame);
  Status HandlePrepare(Socket* socket, const Frame& frame);
  Status HandleExecute(Socket* socket, const Frame& frame);
  Status HandleClose(Socket* socket, const Frame& frame);
  Status HandleBegin(Socket* socket);
  Status HandleCommit(Socket* socket);
  Status HandleAbort(Socket* socket);

  // Rolls back the open transaction (if any) and releases every lock it
  // accumulated. Safe to call with no transaction open.
  void AbortActiveTxn();

  // Sends the cursor's rows as ResultHeader and ResultBatch frames,
  // unless it fails; *written says whether any frame went out. Returns
  // the transport status.
  Status StreamRows(Socket* socket, sql::Cursor* cursor, bool* written);
  Status SendError(Socket* socket, const Status& status);
  Status SendDone(Socket* socket, const std::string& message,
                  uint64_t rows_affected = 0);

  const uint64_t id_;
  sql::SqlEngine* const engine_;
  LockManager* const locks_;
  const SessionOptions options_;

  // Prepared-statement cache: id -> parsed AST, LRU order front = oldest.
  // Only the session's own serve thread touches these.
  uint64_t next_statement_id_ = 1;
  std::map<uint64_t, Prepared> prepared_;
  std::list<uint64_t> lru_;
  uint64_t token_seq_ = 0;

  // Open explicit transaction (wire BEGIN), or null. The lock sets its
  // statements acquired stay held until COMMIT/ABORT (write locks to
  // commit is what keeps one writer per table); `txn_held_reads_` /
  // `txn_held_writes_` mirror the held names, sorted, so a later
  // statement never re-acquires — re-taking a held exclusive lock would
  // self-deadlock. Only the session's serve thread touches these.
  std::unique_ptr<sql::TxnContext> txn_;
  std::vector<LockSet> txn_locks_;
  std::vector<std::string> txn_held_reads_;
  std::vector<std::string> txn_held_writes_;

  std::atomic<uint64_t> statements_{0};
  std::atomic<uint64_t> evictions_{0};
};

}  // namespace htg::server
