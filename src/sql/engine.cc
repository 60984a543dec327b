#include "sql/engine.h"

#include <algorithm>

#include "common/metrics.h"
#include "common/stopwatch.h"
#include "common/string_util.h"
#include "sql/binder.h"
#include "sql/parser.h"
#include "storage/clustered_table.h"
#include "storage/heap_table.h"

namespace htg::sql {

std::string QueryResult::ToString(size_t max_rows) const {
  if (schema.num_columns() == 0) {
    return message.empty()
               ? StringPrintf("(%llu rows affected)",
                              static_cast<unsigned long long>(rows_affected))
               : message;
  }
  const int ncols = schema.num_columns();
  std::vector<size_t> widths(ncols);
  std::vector<std::vector<std::string>> cells;
  for (int c = 0; c < ncols; ++c) widths[c] = schema.column(c).name.size();
  const size_t limit = std::min(rows.size(), max_rows);
  cells.reserve(limit);
  for (size_t r = 0; r < limit; ++r) {
    std::vector<std::string> line;
    line.reserve(ncols);
    for (int c = 0; c < ncols; ++c) {
      std::string text = rows[r][c].ToString();
      if (text.size() > 40) text = text.substr(0, 37) + "...";
      widths[c] = std::max(widths[c], text.size());
      line.push_back(std::move(text));
    }
    cells.push_back(std::move(line));
  }
  std::string out;
  for (int c = 0; c < ncols; ++c) {
    out += StringPrintf("%-*s ", static_cast<int>(widths[c]),
                        schema.column(c).name.c_str());
  }
  out += '\n';
  for (int c = 0; c < ncols; ++c) {
    out += std::string(widths[c], '-') + ' ';
  }
  out += '\n';
  for (const auto& line : cells) {
    for (int c = 0; c < ncols; ++c) {
      out += StringPrintf("%-*s ", static_cast<int>(widths[c]),
                          line[c].c_str());
    }
    out += '\n';
  }
  if (rows.size() > limit) {
    out += StringPrintf("... (%zu rows total)\n", rows.size());
  }
  return out;
}

bool Cursor::NextBatch(RowBatch* batch) {
  if (iter_ == nullptr || !iter_->NextBatch(batch)) return false;
  rows_affected_ += batch->ActiveRows();
  return true;
}

Status Cursor::status() const {
  return iter_ != nullptr ? iter_->status() : status_;
}

Status Cursor::Drain() {
  RowBatch batch;
  while (NextBatch(&batch)) {
  }
  Close();
  return status_;
}

Result<QueryResult> Cursor::FetchAll() {
  QueryResult result;
  const Status drained = exec::DrainIterator(this, &result.rows);
  Close();
  HTG_RETURN_IF_ERROR(drained);
  result.schema = schema_;
  result.rows_affected = rows_affected_;
  result.message = message_;
  return result;
}

void Cursor::Close() {
  if (iter_ != nullptr) {
    status_ = iter_->status();
    iter_.reset();  // operators release their charges before the peak is read
    HTG_METRIC_GAUGE("mem.query.peak")
        ->Set(static_cast<int64_t>(ctx_.mem->peak()));
  }
  if (pin_.id != storage::kFrozenTxn) ctx_.db->txns()->Commit(pin_.id);
  pin_.id = storage::kFrozenTxn;
}

namespace {

bool Writes(const Statement& stmt) {
  return stmt.kind != Statement::Kind::kSelect &&
         stmt.kind != Statement::Kind::kExplain;
}

// Inside an explicit transaction there is no silent re-execution: the
// statement may have built on the transaction's earlier writes, so the
// only sound recovery is aborting the whole transaction, which the
// session layer does on any statement error.
bool EngineRetries(const StatementOptions& opts) {
  return !opts.caller_owns_retries && opts.txn == nullptr;
}

}  // namespace

Result<QueryResult> SqlEngine::Execute(std::string_view sql) {
  return Execute(sql, StatementOptions{});
}

Result<QueryResult> SqlEngine::Execute(std::string_view sql,
                                       const StatementOptions& opts) {
  HTG_ASSIGN_OR_RETURN(std::vector<Statement> statements, ParseSql(sql));
  return ExecuteParsed(statements, opts);
}

Result<QueryResult> SqlEngine::ExecuteParsed(
    const std::vector<Statement>& statements, const StatementOptions& opts) {
  HTG_ASSIGN_OR_RETURN(std::unique_ptr<Cursor> cursor,
                       Start(statements, opts));
  Result<QueryResult> result = cursor->FetchAll();
  // A final SELECT that fails transiently while it is fetched has handed
  // out no row yet, so it reruns whole like any other statement.
  for (int attempt = 1; !result.ok() && result.status().IsTransient() &&
                        EngineRetries(opts) && attempt < kStatementRetries;
       ++attempt) {
    cursor.reset();
    HTG_ASSIGN_OR_RETURN(cursor, StartStatement(statements.back(), opts,
                                                /*drain=*/false));
    result = cursor->FetchAll();
  }
  return result;
}

Result<std::unique_ptr<Cursor>> SqlEngine::Start(
    const std::vector<Statement>& statements, const StatementOptions& opts) {
  if (statements.empty()) {
    return Status::ParseError("no statement to execute");
  }
  const bool ends_in_select =
      statements.back().kind == Statement::Kind::kSelect;
  const bool record = !opts.token.empty() &&
                      std::any_of(statements.begin(), statements.end(), Writes);
  // Dedupe before touching any table: a session retrying a batch whose
  // first run committed (the transient fault hit after the commit point)
  // must not write a second time.
  Recorded recorded;
  if (record && LookupToken(opts.token, &recorded)) {
    HTG_METRIC_COUNTER("sql.token.dedupe_hit")->Add();
    if (!ends_in_select) {
      return std::unique_ptr<Cursor>(
          new Cursor(recorded.rows_affected, std::move(recorded.message)));
    }
  } else {
    // Every statement but a final SELECT runs to completion; a failed one
    // has rolled back its partial writes (see ExecuteInsert), so the batch
    // stops there and the session stays usable.
    std::unique_ptr<Cursor> cursor;
    for (size_t i = 0; i + (ends_in_select ? 1 : 0) < statements.size(); ++i) {
      cursor.reset();  // one statement's read view ends before the next runs
      HTG_ASSIGN_OR_RETURN(cursor, StartStatement(statements[i], opts,
                                                  /*drain=*/true));
    }
    if (record) {
      RecordToken(opts.token, ends_in_select
                                  ? Recorded{}
                                  : Recorded{cursor->rows_affected(),
                                             cursor->message()});
    }
    if (!ends_in_select) return cursor;
  }
  return StartStatement(statements.back(), opts, /*drain=*/false);
}

Result<std::unique_ptr<Cursor>> SqlEngine::StartStatement(
    const Statement& stmt, const StatementOptions& opts, bool drain) {
  const auto attempt = [&]() -> Result<std::unique_ptr<Cursor>> {
    if (stmt.kind != Statement::Kind::kSelect) {
      HTG_ASSIGN_OR_RETURN(QueryResult done, ExecuteStatement(stmt, opts));
      return std::unique_ptr<Cursor>(
          new Cursor(done.rows_affected, std::move(done.message)));
    }
    Binder binder(db_);
    HTG_ASSIGN_OR_RETURN(exec::OperatorPtr plan,
                         binder.BindSelect(*stmt.select));
    HTG_ASSIGN_OR_RETURN(std::unique_ptr<Cursor> cursor,
                         OpenCursor(std::move(plan), opts,
                                    /*collect_stats=*/false));
    if (drain) HTG_RETURN_IF_ERROR(cursor->Drain());
    return cursor;
  };
  // A failed statement is side-effect-free, so a transient fault can be
  // retried whole-statement (unless the caller owns retries).
  Result<std::unique_ptr<Cursor>> result = attempt();
  for (int n = 1; !result.ok() && result.status().IsTransient() &&
                  EngineRetries(opts) && n < kStatementRetries;
       ++n) {
    result = attempt();
  }
  return result;
}

Result<std::unique_ptr<Cursor>> SqlEngine::OpenCursor(
    exec::OperatorPtr plan, const StatementOptions& opts,
    bool collect_stats) {
  std::unique_ptr<Cursor> cursor(new Cursor(0, ""));
  exec::ExecContext& ctx = cursor->ctx_;
  ctx = exec::ExecContext::For(db_);
  ctx.collect_stats = collect_stats;
  if (opts.query_mem_bytes > 0) {
    // Session-scoped budget: tighter than (and independent of) the
    // database-wide default, same spill policy.
    ctx.mem = std::make_shared<MemoryContext>(
        opts.query_mem_bytes, db_->options().ResolvedSpillEnabled());
  }
  // The read view: the transaction's snapshot, or an autocommit read
  // that pins the GC horizon so the sweep cannot collapse versions out
  // from under the scan until the cursor closes.
  if (opts.txn != nullptr) {
    ctx.snapshot = &opts.txn->snapshot;
    ctx.txn_id = opts.txn->id;
  } else {
    cursor->pin_ = db_->txns()->Begin();
    ctx.snapshot = &cursor->pin_.snapshot;
    ctx.txn_id = cursor->pin_.id;
  }
  cursor->schema_ = plan->output_schema();
  HTG_ASSIGN_OR_RETURN(cursor->iter_, plan->Open(&ctx));
  cursor->plan_ = std::move(plan);
  return cursor;
}

bool SqlEngine::LookupToken(const std::string& token, Recorded* recorded) {
  MutexLock lock(&ledger_mu_);
  const auto it = committed_.find(token);
  if (it == committed_.end()) return false;
  *recorded = it->second;
  return true;
}

void SqlEngine::RecordToken(const std::string& token, Recorded recorded) {
  MutexLock lock(&ledger_mu_);
  const auto [it, inserted] = committed_.emplace(token, std::move(recorded));
  (void)it;
  if (!inserted) return;
  committed_order_.push_back(token);
  while (committed_order_.size() > kTokenLedgerCapacity) {
    committed_.erase(committed_order_.front());
    committed_order_.pop_front();
  }
}

Result<exec::OperatorPtr> SqlEngine::Plan(std::string_view sql) {
  HTG_ASSIGN_OR_RETURN(Statement stmt, ParseStatement(sql));
  if (stmt.kind != Statement::Kind::kSelect) {
    return Status::InvalidArgument("Plan() expects a SELECT");
  }
  Binder binder(db_);
  return binder.BindSelect(*stmt.select);
}

Result<std::string> SqlEngine::Explain(std::string_view sql) {
  HTG_ASSIGN_OR_RETURN(exec::OperatorPtr plan, Plan(sql));
  return exec::ExplainPlan(*plan);
}

Result<QueryResult> SqlEngine::ExecuteStatement(const Statement& stmt,
                                                const StatementOptions& opts) {
  // DDL and TRUNCATE are not versioned: they rewrite storage in place,
  // which no snapshot could un-see on abort. Keep them out of explicit
  // transactions (autocommit DDL serializes via the catalog lock).
  if (opts.txn != nullptr && (stmt.kind == Statement::Kind::kCreateTable ||
                              stmt.kind == Statement::Kind::kDropTable ||
                              stmt.kind == Statement::Kind::kTruncate)) {
    return Status::InvalidArgument(
        "DDL and TRUNCATE are not allowed inside a transaction");
  }
  switch (stmt.kind) {
    case Statement::Kind::kSelect:
      return Status::Internal("a SELECT opens a cursor: StartStatement");
    case Statement::Kind::kExplain: {
      Binder binder(db_);
      HTG_ASSIGN_OR_RETURN(exec::OperatorPtr plan,
                           binder.BindSelect(*stmt.select));
      QueryResult result;
      if (!stmt.explain_analyze) {
        result.message = exec::ExplainPlan(*plan);
        return result;
      }
      // EXPLAIN ANALYZE: run the plan to completion with per-operator
      // stats collection on, then render the annotated tree. Rows are
      // counted, not kept — the plan is the output.
      const obs::MetricsSnapshot before = obs::MetricsRegistry::Global().Snapshot();
      Stopwatch total;
      HTG_ASSIGN_OR_RETURN(std::unique_ptr<Cursor> cursor,
                           OpenCursor(std::move(plan), opts,
                                      /*collect_stats=*/true));
      // Drain closes the cursor: iterator teardown lands in the timings.
      HTG_RETURN_IF_ERROR(cursor->Drain());
      result.message =
          exec::ExplainAnalyzePlan(*cursor->plan_) +
          StringPrintf("total: %llu rows in %.3f ms\n",
                       static_cast<unsigned long long>(cursor->rows_affected()),
                       total.ElapsedMillis());
      // Cache behaviour of this one statement: the pool counters' delta
      // across the run. Omitted when the plan never touched the pool.
      const obs::MetricsSnapshot delta =
          obs::MetricsRegistry::Global().Snapshot().Delta(before);
      const auto counter = [&delta](const char* name) -> uint64_t {
        const auto it = delta.counters.find(name);
        return it == delta.counters.end() ? 0 : it->second;
      };
      const uint64_t hits = counter("bufferpool.hit");
      const uint64_t misses = counter("bufferpool.miss");
      if (hits + misses > 0) {
        result.message += StringPrintf(
            "buffer pool: %llu hits, %llu misses (%.1f%% hit), "
            "%llu evictions, %llu write-backs\n",
            static_cast<unsigned long long>(hits),
            static_cast<unsigned long long>(misses),
            100.0 * static_cast<double>(hits) /
                static_cast<double>(hits + misses),
            static_cast<unsigned long long>(counter("bufferpool.evict")),
            static_cast<unsigned long long>(counter("bufferpool.writeback")));
      }
      // Per-statement memory governance summary: the query context's peak
      // charge, its budget, and any graceful-degradation spilling.
      const MemoryContext& mem = *cursor->ctx_.mem;
      std::string budget_text =
          mem.unlimited()
              ? std::string("unlimited")
              : StringPrintf("%.1f MiB",
                             static_cast<double>(mem.budget()) /
                                 (1024.0 * 1024.0));
      result.message += StringPrintf(
          "memory: peak=%.1f KiB (budget %s), spill runs=%llu, "
          "spill bytes=%llu\n",
          static_cast<double>(mem.peak()) / 1024.0, budget_text.c_str(),
          static_cast<unsigned long long>(counter("exec.spill.runs")),
          static_cast<unsigned long long>(counter("exec.spill.bytes")));
      return result;
    }
    case Statement::Kind::kCreateTable:
      return ExecuteCreateTable(*stmt.create_table);
    case Statement::Kind::kDropTable: {
      HTG_RETURN_IF_ERROR(db_->DropTable(stmt.table_name));
      QueryResult result;
      result.message = "DROP TABLE " + stmt.table_name;
      return result;
    }
    case Statement::Kind::kTruncate: {
      HTG_ASSIGN_OR_RETURN(catalog::TableDef * table,
                           db_->GetTable(stmt.table_name));
      table->table->Truncate();
      // Version history restarts from zero rows; the server's exclusive
      // schema lock guarantees no snapshot scan is mid-flight here.
      table->mvcc->ResetForTruncate();
      QueryResult result;
      result.message = "TRUNCATE TABLE " + stmt.table_name;
      return result;
    }
    case Statement::Kind::kInsert:
      return ExecuteInsert(*stmt.insert, opts);
  }
  return Status::Internal("unhandled statement kind");
}

Result<QueryResult> SqlEngine::ExecuteCreateTable(const CreateTableStmt& stmt) {
  catalog::TableDef def;
  def.name = stmt.name;
  std::vector<std::string> pk = stmt.primary_key;
  for (const ColumnDefAst& ast : stmt.columns) {
    Column col;
    col.name = ast.name;
    HTG_ASSIGN_OR_RETURN(col.type, DataTypeFromName(ast.type_name));
    // Only CHAR/NCHAR are fixed-length (blank padded).
    if (ast.length > 0 && (EqualsIgnoreCase(ast.type_name, "CHAR") ||
                           EqualsIgnoreCase(ast.type_name, "NCHAR"))) {
      col.fixed_length = ast.length;
    }
    // N-types store UTF-16 (2 bytes/char in SQL Server 2008).
    if (EqualsIgnoreCase(ast.type_name, "NCHAR") ||
        EqualsIgnoreCase(ast.type_name, "NVARCHAR") ||
        EqualsIgnoreCase(ast.type_name, "NTEXT")) {
      col.utf16 = true;
    }
    // Key columns are NOT NULL, whether the key is declared on the
    // column or as the table's PRIMARY KEY (...).
    const bool key =
        ast.primary_key ||
        std::any_of(stmt.primary_key.begin(), stmt.primary_key.end(),
                    [&](const std::string& name) {
                      return EqualsIgnoreCase(name, ast.name);
                    });
    col.nullable = !ast.not_null && !key;
    col.filestream = ast.filestream;
    col.rowguid = ast.rowguid;
    if (col.filestream && col.type != DataType::kBlob) {
      return Status::InvalidArgument(
          "FILESTREAM requires VARBINARY(MAX): " + col.name);
    }
    if (ast.primary_key) pk.push_back(ast.name);
    def.schema.AddColumn(std::move(col));
  }
  // Clustering: explicit CLUSTER BY wins, else the primary key (SQL
  // Server's PRIMARY KEY CLUSTERED default).
  const std::vector<std::string>& cluster =
      stmt.cluster_by.empty() ? pk : stmt.cluster_by;
  for (const std::string& name : cluster) {
    HTG_ASSIGN_OR_RETURN(int idx, def.schema.ResolveColumn(name));
    def.clustered_key.push_back(idx);
  }
  if (!stmt.compression.empty()) {
    if (EqualsIgnoreCase(stmt.compression, "NONE")) {
      def.compression = storage::Compression::kNone;
    } else if (EqualsIgnoreCase(stmt.compression, "ROW")) {
      def.compression = storage::Compression::kRow;
    } else if (EqualsIgnoreCase(stmt.compression, "PAGE")) {
      def.compression = storage::Compression::kPage;
    } else {
      return Status::InvalidArgument("bad DATA_COMPRESSION: " +
                                     stmt.compression);
    }
  }
  HTG_RETURN_IF_ERROR(db_->CreateTable(std::move(def)));
  QueryResult result;
  result.message = "CREATE TABLE " + stmt.name;
  return result;
}

namespace {

// Allocates the txn id and snapshot of a fresh transaction.
void StartTxn(storage::TxnManager* txns, TxnContext* txn) {
  storage::TxnManager::BeginResult begun = txns->Begin();
  txn->id = begun.id;
  txn->snapshot = std::move(begun.snapshot);
}

// The written-set entry for `table`, added on the transaction's first
// write to it.
TxnContext::WrittenTable& WrittenEntry(TxnContext* txn,
                                       catalog::TableDef* table) {
  for (TxnContext::WrittenTable& w : txn->written) {
    if (w.table == table) return w;
  }
  return txn->written.emplace_back(TxnContext::WrittenTable{table, 0});
}

}  // namespace

Result<std::unique_ptr<TxnContext>> SqlEngine::BeginTxn() {
  auto txn = std::make_unique<TxnContext>();
  StartTxn(db_->txns(), txn.get());
  txn->is_explicit = true;
  return txn;
}

Status SqlEngine::CommitTxn(TxnContext* txn) {
  // Watermarks first; the txn id flips visible for new snapshots only at
  // TxnManager::Commit, so the whole transaction appears atomically.
  for (const TxnContext::WrittenTable& w : txn->written) {
    w.table->mvcc->CommitWrite(txn->id, w.table->table->num_rows());
  }
  txn->created_blobs.clear();  // now referenced by committed rows
  db_->txns()->Commit(txn->id);
  HTG_IGNORE_STATUS(db_->filestream()->LogTxnOutcome(txn->id, true));
  db_->MaybeSweepVersions();
  return Status::OK();
}

Status SqlEngine::AbortTxn(TxnContext* txn) {
  Status status;
  for (const TxnContext::WrittenTable& w : txn->written) {
    bool undone = true;
    if (auto* heap =
            dynamic_cast<storage::HeapTable*>(w.table->table.get())) {
      // Truncate while the pending marker still hides the tail, so no
      // reader window exists where the doomed rows look committed.
      const uint64_t target = w.table->mvcc->AbortTarget(txn->id);
      const Status undo = heap->TruncateToRows(target);
      if (!undo.ok()) {
        undone = false;
        if (status.ok()) status = undo;
      }
    } else if (auto* clustered = dynamic_cast<storage::ClusteredTable*>(
                   w.table->table.get())) {
      clustered->MarkAborted(w.rows_inserted);
    }
    // Undo failure leaves the pending marker set: the table is
    // quarantined (its surviving uncommitted tail stays hidden from every
    // snapshot) rather than re-exposed as committed rows.
    if (undone) w.table->mvcc->AbortWrite(txn->id);
  }
  for (auto it = txn->created_blobs.rbegin(); it != txn->created_blobs.rend();
       ++it) {
    HTG_IGNORE_STATUS(db_->filestream()->Delete(*it));
  }
  txn->created_blobs.clear();
  db_->txns()->Abort(txn->id);
  HTG_IGNORE_STATUS(db_->filestream()->LogTxnOutcome(txn->id, false));
  db_->MaybeSweepVersions();
  return status;
}

Result<QueryResult> SqlEngine::ExecuteInsert(const InsertStmt& stmt,
                                             const StatementOptions& opts) {
  HTG_ASSIGN_OR_RETURN(catalog::TableDef * table, db_->GetTable(stmt.table));
  // Inside an explicit transaction a failed statement leaves rollback to
  // the session's ABORT (the appended tail is already invisible to every
  // snapshot).
  if (opts.txn != nullptr) return InsertInTxn(stmt, table, opts.txn, opts);
  // Autocommit: an implicit one-statement transaction, so concurrent
  // snapshot readers never see a partial statement and a failed one is
  // side-effect-free (safe to retry whole).
  TxnContext implicit;
  StartTxn(db_->txns(), &implicit);
  Result<QueryResult> result = InsertInTxn(stmt, table, &implicit, opts);
  if (!result.ok()) {
    HTG_IGNORE_STATUS(AbortTxn(&implicit));
    return result;
  }
  HTG_RETURN_IF_ERROR(CommitTxn(&implicit));
  return result;
}

Result<QueryResult> SqlEngine::InsertInTxn(const InsertStmt& stmt,
                                           catalog::TableDef* table,
                                           TxnContext* txn,
                                           const StatementOptions& opts) {
  const Schema& schema = table->schema;

  // Map the supplied column order to table positions.
  std::vector<int> positions;
  if (stmt.columns.empty()) {
    for (int i = 0; i < schema.num_columns(); ++i) positions.push_back(i);
  } else {
    for (const std::string& name : stmt.columns) {
      HTG_ASSIGN_OR_RETURN(int idx, schema.ResolveColumn(name));
      positions.push_back(idx);
    }
  }

  if (txn->is_explicit) {
    // First-writer-wins: another transaction committed this table after
    // our snapshot was taken; appending behind it would interleave with
    // writes this transaction cannot see. Typed kAborted so clients can
    // retry the whole transaction.
    const storage::TxnId last = table->mvcc->LastCommittedWriter();
    if (last != storage::kFrozenTxn && last != txn->id &&
        !txn->snapshot.Sees(last)) {
      return Status::Aborted(
          "write-write conflict: table " + table->name +
          " was modified by a transaction concurrent with this one");
    }
  }
  // Fails kAborted while another transaction has a pending write here
  // (possible only in library mode, where no lock manager serializes
  // writers): rows appended behind it would share its fate.
  HTG_RETURN_IF_ERROR(
      table->mvcc->BeginWrite(txn->id, table->table->num_rows()));
  // Into the written set the moment the table has a pending marker, not
  // only on success: if this statement fails mid-way, AbortTxn must still
  // find the table to truncate its tail and clear the marker — an
  // unrecorded pending writer would hide the table's tail from every
  // snapshot forever.
  TxnContext::WrittenTable& written = WrittenEntry(txn, table);

  // Each batch is validated whole before any of it lands; the rows that
  // did land are counted, so an abort after a mid-statement failure
  // discounts exactly the clustered entries that landed.
  uint64_t inserted = 0;
  RowBatch out;
  auto append = [&]() -> Status {
    uint64_t landed = 0;
    const Status status = db_->AppendBatch(table, &out, txn->id,
                                           &txn->created_blobs, &landed);
    written.rows_inserted += landed;
    inserted += landed;
    return status;
  };
  // Source rows supply one value per named column; `out` holds them in
  // table column order, with NULL in the columns the statement omits.
  auto check_width = [&](size_t width) -> Status {
    if (width == positions.size()) return Status::OK();
    return Status::InvalidArgument(
        StringPrintf("INSERT supplies %zu values for %zu columns", width,
                     positions.size()));
  };
  const size_t ncols = static_cast<size_t>(schema.num_columns());
  std::vector<bool> named(ncols, false);
  for (int p : positions) named[p] = true;
  auto null_unnamed = [&](size_t r) {
    for (size_t c = 0; c < ncols; ++c) {
      if (!named[c]) out.Slot(c, r) = Value::Null();
    }
  };

  if (!stmt.values_rows.empty()) {
    // One batch per statement.
    Binder binder(db_);
    udf::EvalContext eval = db_->MakeEvalContext();
    out.StartFill(ncols);
    size_t r = 0;
    for (const auto& exprs : stmt.values_rows) {
      HTG_RETURN_IF_ERROR(check_width(exprs.size()));
      for (size_t i = 0; i < exprs.size(); ++i) {
        // VALUES expressions are scalar (no column references).
        HTG_ASSIGN_OR_RETURN(exec::ExprPtr bound,
                             binder.BindValueExpr(*exprs[i]));
        HTG_ASSIGN_OR_RETURN(out.Slot(positions[i], r),
                             bound->Eval(&eval, Row{}));
      }
      null_unnamed(r++);
    }
    out.FinishFill(r);
    HTG_RETURN_IF_ERROR(append());
  } else if (stmt.select != nullptr) {
    Binder binder(db_);
    HTG_ASSIGN_OR_RETURN(exec::OperatorPtr plan,
                         binder.BindSelect(*stmt.select));
    // INSERT..SELECT reads through the writing transaction's snapshot
    // (and sees its own earlier writes via self-visibility).
    StatementOptions source_opts = opts;
    source_opts.txn = txn;
    HTG_ASSIGN_OR_RETURN(
        std::unique_ptr<Cursor> source,
        OpenCursor(std::move(plan), source_opts, /*collect_stats=*/false));
    // Appends each batch it pulls: the live source rows, moved into the
    // table's column order.
    RowBatch in;
    while (source->NextBatch(&in)) {
      HTG_RETURN_IF_ERROR(check_width(in.num_columns()));
      const size_t n = in.ActiveRows();
      out.StartFill(ncols);
      for (size_t r = 0; r < n; ++r) {
        const size_t src = in.ActiveIndex(r);
        for (size_t i = 0; i < positions.size(); ++i) {
          swap(out.Slot(positions[i], r), in.column(i)[src]);
        }
        null_unnamed(r);
      }
      out.FinishFill(n);
      HTG_RETURN_IF_ERROR(append());
    }
    HTG_RETURN_IF_ERROR(source->status());
  }

  QueryResult result;
  result.rows_affected = inserted;
  result.message = StringPrintf("(%llu rows affected)",
                                static_cast<unsigned long long>(inserted));
  return result;
}

}  // namespace htg::sql
