#include "catalog/database.h"

#include "common/metrics.h"
#include "common/string_util.h"
#include "storage/clustered_table.h"
#include "storage/heap_table.h"

#include <algorithm>
#include <cstdlib>

namespace htg {

size_t DatabaseOptions::ResolvedQueryMemBytes() const {
  if (query_mem_bytes >= 0) return static_cast<size_t>(query_mem_bytes);
  if (const char* env = std::getenv("HTG_QUERY_MEM_MB")) {
    char* end = nullptr;
    const long parsed = std::strtol(env, &end, 10);
    if (end != env && parsed >= 0) {
      return static_cast<size_t>(parsed) << 20;
    }
  }
  return size_t{256} << 20;
}

bool DatabaseOptions::ResolvedSpillEnabled() const {
  if (!enable_spill) return false;
  if (const char* env = std::getenv("HTG_SPILL")) {
    if (env[0] == '0' && env[1] == '\0') return false;
  }
  return true;
}

uint64_t DatabaseOptions::ResolvedMvccGcEvery() const {
  if (mvcc_gc_every >= 0) return static_cast<uint64_t>(mvcc_gc_every);
  if (const char* env = std::getenv("HTG_MVCC_GC_EVERY")) {
    char* end = nullptr;
    const long parsed = std::strtol(env, &end, 10);
    if (end != env && parsed >= 0) return static_cast<uint64_t>(parsed);
  }
  return 16;
}

Database::Database(std::string name, DatabaseOptions options)
    : name_(std::move(name)), options_(std::move(options)) {}

Database::~Database() = default;

Result<std::unique_ptr<Database>> Database::Open(const std::string& name,
                                                 DatabaseOptions options) {
  if (options.filestream_root.empty()) {
    options.filestream_root = "/tmp/htgdb_" + name + "_fs";
  }
  std::unique_ptr<Database> db(new Database(name, std::move(options)));
  storage::BufferPoolOptions pool_options;
  pool_options.capacity_bytes = db->options_.buffer_pool_bytes != 0
                                    ? db->options_.buffer_pool_bytes
                                    : storage::BufferPoolCapacityFromEnv();
  db->buffer_pool_ = std::make_unique<storage::BufferPool>(pool_options);
  storage::Vfs* vfs = db->options_.filestream_options.vfs != nullptr
                          ? db->options_.filestream_options.vfs
                          : storage::Vfs::Default();
  HTG_ASSIGN_OR_RETURN(
      db->tablespace_,
      storage::TableSpace::Open(vfs,
                                db->options_.filestream_root + "/tablespace",
                                db->buffer_pool_.get()));
  // Blob chunk reads share the same pool as table pages.
  db->options_.filestream_options.buffer_pool = db->buffer_pool_.get();
  HTG_ASSIGN_OR_RETURN(
      db->filestream_,
      storage::FileStreamStore::Open(db->options_.filestream_root,
                                     db->options_.filestream_options));
  HTG_RETURN_IF_ERROR(udf::RegisterBuiltins(&db->functions_));
  db->mvcc_gc_every_ = db->options_.ResolvedMvccGcEvery();
  return db;
}

Status Database::CreateTable(catalog::TableDef def) {
  const std::string key = ToUpper(def.name);
  {
    ReaderMutexLock lock(&catalog_mu_);
    if (tables_.count(key) > 0) {
      return Status::AlreadyExists("table exists: " + def.name);
    }
  }
  for (int c : def.clustered_key) {
    if (c < 0 || c >= def.schema.num_columns()) {
      return Status::InvalidArgument("clustered key column out of range");
    }
  }
  HTG_ASSIGN_OR_RETURN(std::unique_ptr<storage::TableFile> file,
                       tablespace_->CreateTableFile(def.name));
  if (def.clustered_key.empty()) {
    def.table = std::make_unique<storage::HeapTable>(
        def.schema, def.compression, std::move(file));
  } else {
    def.table = std::make_unique<storage::ClusteredTable>(
        def.schema, def.clustered_key, def.compression, std::move(file));
  }
  def.mvcc = std::make_unique<storage::MvccTableState>();
  MutexLock lock(&catalog_mu_);
  const auto [it, inserted] = tables_.emplace(
      key, std::make_unique<catalog::TableDef>(std::move(def)));
  (void)it;
  if (!inserted) {
    // Lost a create/create race since the pre-check above.
    return Status::AlreadyExists("table exists: " + key);
  }
  return Status::OK();
}

Status Database::DropTable(const std::string& name) {
  const std::string key = ToUpper(name);
  MutexLock lock(&catalog_mu_);
  auto it = tables_.find(key);
  if (it == tables_.end()) return Status::NotFound("no such table: " + name);
  tables_.erase(it);
  return Status::OK();
}

Result<catalog::TableDef*> Database::GetTable(const std::string& name) {
  ReaderMutexLock lock(&catalog_mu_);
  auto it = tables_.find(ToUpper(name));
  if (it == tables_.end()) return Status::NotFound("no such table: " + name);
  return it->second.get();
}

std::vector<std::string> Database::ListTables() const {
  ReaderMutexLock lock(&catalog_mu_);
  std::vector<std::string> names;
  names.reserve(tables_.size());
  for (const auto& [key, def] : tables_) names.push_back(def->name);
  return names;
}

namespace {

// A blob created for one of a batch's rows: the row's position among the
// batch's live rows, and the blob's path.
struct CreatedBlob {
  size_t row = 0;
  std::string path;
};

// Validates and casts the live rows of `batch` a column at a time, and
// moves FILESTREAM content into `store`. Blobs it creates go to `blobs`
// even when a later value fails, so the caller can delete them.
Status PrepareBatch(storage::FileStreamStore* store,
                    const catalog::TableDef& table, RowBatch* batch,
                    std::vector<CreatedBlob>* blobs) {
  const Schema& schema = table.schema;
  const size_t n = batch->ActiveRows();
  for (int c = 0; c < schema.num_columns(); ++c) {
    const Column& col = schema.column(c);
    std::vector<Value>& values = batch->column(c);
    for (size_t i = 0; i < n; ++i) {
      Value& v = values[batch->ActiveIndex(i)];
      if (v.is_null()) {
        if (!col.nullable) {
          return Status::InvalidArgument("NULL into NOT NULL column " +
                                         col.name);
        }
        continue;
      }
      if (col.filestream && v.IsStringKind()) {
        // A string value that is already a path into the store stays a
        // reference (rows copied between FILESTREAM tables); anything
        // else is content and moves out into the FileStream store, with
        // the row keeping the file path (PathName()/DATALENGTH resolve it
        // later).
        if (v.type() != DataType::kBlob &&
            v.AsString().rfind(store->root(), 0) == 0 &&
            store->BlobSize(v.AsString()).ok()) {
          continue;
        }
        HTG_ASSIGN_OR_RETURN(
            std::string path,
            store->CreateBlob(table.name + "_" + col.name, v.AsString()));
        blobs->push_back({i, path});
        v = Value::String(std::move(path));
        continue;
      }
      if (v.type() != col.type) {
        HTG_ASSIGN_OR_RETURN(v, v.CastTo(col.type));
      }
    }
  }
  return Status::OK();
}

}  // namespace

Status Database::AppendBatch(catalog::TableDef* table, RowBatch* batch,
                             storage::TxnId stamp,
                             std::vector<std::string>* created_blobs,
                             uint64_t* appended) {
  if (batch->ActiveRows() == 0) return Status::OK();
  if (static_cast<int>(batch->num_columns()) != table->schema.num_columns()) {
    return Status::InvalidArgument(StringPrintf(
        "INSERT supplies %zu values for %d columns", batch->num_columns(),
        table->schema.num_columns()));
  }
  std::vector<CreatedBlob> blobs;
  uint64_t landed = 0;
  Status status = PrepareBatch(filestream_.get(), *table, batch, &blobs);
  if (status.ok()) status = table->table->AppendBatch(*batch, stamp, &landed);
  if (appended != nullptr) *appended += landed;
  // Blobs of rows that did not land are referenced by nothing: delete
  // them, newest first. The rest belong to the rows.
  for (auto it = blobs.rbegin(); it != blobs.rend(); ++it) {
    if (it->row >= landed) HTG_IGNORE_STATUS(filestream_->Delete(it->path));
  }
  if (created_blobs != nullptr) {
    for (CreatedBlob& blob : blobs) {
      if (blob.row < landed) created_blobs->push_back(std::move(blob.path));
    }
  }
  return status;
}

Status Database::InsertRow(catalog::TableDef* table, Row row,
                           storage::TxnId stamp,
                           std::vector<std::string>* created_blobs) {
  RowBatch batch(1);
  batch.AppendRow(std::move(row));
  return AppendBatch(table, &batch, stamp, created_blobs);
}

void Database::MaybeSweepVersions() {
  if (mvcc_gc_every_ == 0) return;
  const uint64_t taken = txn_manager_.TakeCompletedSinceSweep();
  uint64_t pending =
      gc_pending_.fetch_add(taken, std::memory_order_acq_rel) + taken;
  // Claim one sweep's worth via CAS rather than store(0): completions
  // another thread folds in concurrently are never discarded, and two
  // racing triggers cannot both subtract below zero — the loser re-reads
  // the decremented count and backs off.
  while (pending >= mvcc_gc_every_) {
    if (gc_pending_.compare_exchange_weak(pending, pending - mvcc_gc_every_,
                                          std::memory_order_acq_rel)) {
      SweepVersions();
      return;
    }
  }
}

uint64_t Database::SweepVersions() {
  // Only ids below the horizon are settled for every live snapshot; a
  // concurrently-starting abort gets an id >= horizon, so trimming below
  // it cannot race a fresh abort.
  const storage::TxnId horizon = txn_manager_.Horizon();
  std::vector<storage::TxnId> aborted = txn_manager_.AbortedSet();
  aborted.erase(
      std::lower_bound(aborted.begin(), aborted.end(), horizon),
      aborted.end());
  uint64_t removed = 0;
  {
    // Holding the catalog lock keeps every TableDef alive for the sweep;
    // DropTable takes it exclusively. Lock order: catalog_mu_ before any
    // table latch.
    ReaderMutexLock lock(&catalog_mu_);
    for (const auto& [key, def] : tables_) {
      def->mvcc->CollapseBelow(horizon);
      if (!aborted.empty()) {
        if (auto* clustered =
                dynamic_cast<storage::ClusteredTable*>(def->table.get())) {
          removed += clustered->SweepAborted(aborted);
        }
      }
    }
  }
  if (!aborted.empty()) txn_manager_.TrimAbortedBelow(horizon);
  HTG_METRIC_COUNTER("mvcc.gc.sweeps")->Add(1);
  if (removed > 0) {
    HTG_METRIC_COUNTER("mvcc.gc.entries_removed")->Add(removed);
  }
  return removed;
}

udf::EvalContext Database::MakeEvalContext() {
  udf::EvalContext ctx;
  ctx.db = this;
  storage::FileStreamStore* store = filestream_.get();
  const std::string root = store->root();
  ctx.filestream_size =
      [store, root](const std::string& path) -> Result<uint64_t> {
    if (path.rfind(root, 0) != 0) {
      return Status::NotFound("not a filestream path");
    }
    return store->BlobSize(path);
  };
  return ctx;
}

}  // namespace htg
