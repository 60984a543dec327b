#pragma once

#include <deque>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "catalog/database.h"
#include "common/result.h"
#include "common/synchronization.h"
#include "exec/operator.h"
#include "sql/ast.h"
#include "storage/mvcc.h"

namespace htg::sql {

// A statement's result fetched whole: what Execute returns to in-process
// callers (examples, tests, benches, the shell).
struct QueryResult {
  Schema schema;
  std::vector<Row> rows;
  uint64_t rows_affected = 0;
  // EXPLAIN output / DDL acknowledgement.
  std::string message;

  // Renders an ASCII table (for examples and the shell).
  std::string ToString(size_t max_rows = 50) const;
};

// A started statement. A SELECT's cursor owns its bound plan, its
// ExecContext, its read view (the transaction's snapshot, or an
// autocommit pin on the GC horizon) and the open iterator, and streams
// rows a batch at a time. Any other statement has already run; its
// cursor yields no rows. Closing it (at the end of a fetch, or on
// destruction) tears the iterator down, sets `mem.query.peak`, and ends
// the read view. Not movable: the operators point into its ExecContext.
class Cursor : public storage::RowIterator {
 public:
  ~Cursor() override { Close(); }
  Cursor(const Cursor&) = delete;
  Cursor& operator=(const Cursor&) = delete;

  // Output columns; empty for statements that return no rows.
  const Schema& schema() const { return schema_; }
  bool NextBatch(RowBatch* batch) override;
  Status status() const override;
  // A SELECT's rows handed out so far, or the rows a write affected.
  uint64_t rows_affected() const { return rows_affected_; }
  const std::string& message() const { return message_; }

  // Reads every remaining row into a QueryResult and closes.
  Result<QueryResult> FetchAll();

 private:
  friend class SqlEngine;
  // Reads every remaining row, keeping none, and closes.
  Status Drain();
  void Close();
  Cursor(uint64_t rows_affected, std::string message)
      : rows_affected_(rows_affected), message_(std::move(message)) {}

  exec::OperatorPtr plan_;
  exec::ExecContext ctx_;
  storage::TxnManager::BeginResult pin_;  // id kFrozenTxn: no pin held
  std::unique_ptr<storage::RowIterator> iter_;
  Schema schema_;
  uint64_t rows_affected_;
  std::string message_;
  Status status_;  // the iterator's, kept once it is closed
};

// State of one transaction. An explicit one (wire BEGIN .. COMMIT/ABORT)
// is created by SqlEngine::BeginTxn, owned by the session, and threaded
// into every statement via StatementOptions::txn; an autocommit INSERT
// runs in an implicit one the engine begins and ends inside the
// statement. Either way it finishes through exactly one of
// CommitTxn/AbortTxn.
struct TxnContext {
  storage::TxnId id = storage::kFrozenTxn;
  // The consistent view every read in this transaction uses; writes the
  // transaction itself made are additionally visible (self-visibility).
  storage::Snapshot snapshot;
  // True for wire-level BEGIN transactions; false for the engine's
  // implicit per-statement transactions. Explicit transactions run the
  // first-writer-wins conflict check and never auto-retry.
  bool is_explicit = false;
  // Tables this transaction has written: commit publishes their
  // watermarks, abort truncates heaps / hides clustered stamps.
  struct WrittenTable {
    catalog::TableDef* table = nullptr;
    uint64_t rows_inserted = 0;  // clustered abort: entries to discount
  };
  std::vector<WrittenTable> written;
  // FILESTREAM blobs this transaction created, oldest first: abort
  // deletes them newest first, commit keeps them. (Row undo is not here —
  // it derives from `written` and the MVCC watermarks.)
  std::vector<std::string> created_blobs;
};

// Per-call execution knobs, threaded from the session layer.
struct StatementOptions {
  // Statement dedupe token. A batch that writes and succeeds is recorded
  // in a bounded ledger under it, and a later run with the same token
  // skips the writes: it returns the recorded rows_affected and message,
  // or runs a final SELECT again. This makes retry-after-kTransient safe
  // for non-idempotent loads: a transient fault *after* commit (say, while
  // the response crossed the wire) must not insert the rows twice.
  std::string token;
  // Per-statement memory budget override in bytes; 0 keeps the
  // database-wide DatabaseOptions::query_mem_bytes policy. Sessions use
  // this to carve the server budget per connection.
  size_t query_mem_bytes = 0;
  // The session layer owns transient-fault retries (it holds the dedupe
  // token); setting this disables the engine's internal whole-statement
  // retry loop so the two layers don't compound into retries².
  bool caller_owns_retries = false;
  // Explicit transaction this statement runs inside, or null for
  // autocommit. Inside a transaction the engine never silently re-executes
  // a failed statement (earlier statements' effects would replay into an
  // inconsistent interleaving); the whole transaction aborts instead.
  TxnContext* txn = nullptr;
};

// The SQL surface of the engine: parse → bind/plan → execute.
//
//   SqlEngine engine(db);
//   auto result = engine.Execute("SELECT COUNT(*) FROM Read");
//
// Execute is Start plus Cursor::FetchAll; the server streams the cursor.
//
// The engine itself is stateless apart from the committed-token ledger,
// which is internally synchronized: concurrent sessions may share one
// SqlEngine as long as catalog access is coordinated (the server's
// LockManager serializes DDL against DML).
class SqlEngine {
 public:
  // Whole-statement retry budget for transient I/O faults that survive the
  // storage layer's own RunWithRetries backoff. Rollback makes a failed
  // statement side-effect-free, so re-running it is safe.
  static constexpr int kStatementRetries = 3;
  // Committed dedupe tokens remembered (FIFO eviction). Sized to cover
  // every statement a reconnecting client could plausibly retry.
  static constexpr size_t kTokenLedgerCapacity = 256;

  explicit SqlEngine(Database* db) : db_(db) {}

  // Executes one or more ';'-separated statements; returns the last
  // statement's result.
  Result<QueryResult> Execute(std::string_view sql);
  Result<QueryResult> Execute(std::string_view sql,
                              const StatementOptions& opts);

  // Executes already-parsed statements (the prepared-statement path: parse
  // once at Prepare, run per Execute).
  Result<QueryResult> ExecuteParsed(const std::vector<Statement>& statements,
                                    const StatementOptions& opts);

  // Runs every statement of the batch but a final SELECT, which it opens
  // and returns unread; SELECTs before the last are drained and dropped.
  // A batch that does not end in a SELECT returns its last statement's
  // row-less cursor.
  Result<std::unique_ptr<Cursor>> Start(
      const std::vector<Statement>& statements, const StatementOptions& opts);

  // Plans a single SELECT without executing it (benchmarks stream the
  // iterator themselves).
  Result<exec::OperatorPtr> Plan(std::string_view sql);

  // Returns the EXPLAIN plan text for a single SELECT.
  Result<std::string> Explain(std::string_view sql);

  // Transactions ---------------------------------------------------------
  // Starts an explicit multi-statement transaction: allocates a txn id
  // and takes its snapshot.
  Result<std::unique_ptr<TxnContext>> BeginTxn();
  // Publishes every written table's watermark, then marks the txn
  // committed — its writes become visible to new snapshots atomically.
  Status CommitTxn(TxnContext* txn);
  // The one undo routine, for explicit transactions and failed autocommit
  // INSERTs alike: truncates heap tails to their pre-txn watermarks, hides
  // clustered stamps, deletes the blobs the txn created, marks the txn
  // aborted. Returns the first truncate failure; the table it hit stays
  // quarantined (its uncommitted tail hidden from every snapshot).
  Status AbortTxn(TxnContext* txn);

  Database* db() { return db_; }

 private:
  // What the dedupe ledger keeps of a batch that wrote.
  struct Recorded {
    uint64_t rows_affected = 0;
    std::string message;
  };

  // Starts one statement, retrying kTransient failures when the engine
  // owns retries; with `drain`, each attempt reads a SELECT to its end.
  Result<std::unique_ptr<Cursor>> StartStatement(const Statement& stmt,
                                                 const StatementOptions& opts,
                                                 bool drain);
  // The one place a SELECT plan gets its context, read view and iterator.
  Result<std::unique_ptr<Cursor>> OpenCursor(exec::OperatorPtr plan,
                                             const StatementOptions& opts,
                                             bool collect_stats);
  // The statements that return no rows.
  Result<QueryResult> ExecuteStatement(const Statement& stmt,
                                       const StatementOptions& opts);
  Result<QueryResult> ExecuteCreateTable(const CreateTableStmt& stmt);
  Result<QueryResult> ExecuteInsert(const InsertStmt& stmt,
                                    const StatementOptions& opts);
  // The INSERT's writes inside `txn`; the caller ends the transaction.
  Result<QueryResult> InsertInTxn(const InsertStmt& stmt,
                                  catalog::TableDef* table, TxnContext* txn,
                                  const StatementOptions& opts);

  // Returns true and fills *recorded when `token` already committed.
  bool LookupToken(const std::string& token, Recorded* recorded);
  void RecordToken(const std::string& token, Recorded recorded);

  Database* db_;

  Mutex ledger_mu_{"SqlEngine::ledger_mu_"};
  std::map<std::string, Recorded> committed_ HTG_GUARDED_BY(ledger_mu_);
  std::deque<std::string> committed_order_ HTG_GUARDED_BY(ledger_mu_);
};

}  // namespace htg::sql

