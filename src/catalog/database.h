#pragma once

#include <atomic>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "catalog/table_def.h"
#include "common/result.h"
#include "common/synchronization.h"
#include "storage/buffer_pool.h"
#include "storage/filestream.h"
#include "storage/tablespace.h"
#include "types/row_batch.h"
#include "udf/registry.h"

namespace htg {

// Database-wide tunables.
struct DatabaseOptions {
  // Directory for FILESTREAM BLOBs. Empty = "<name>_fs" under /tmp.
  std::string filestream_root;
  // Durability knobs for the BLOB store (Vfs seam, retry policy, read
  // verification). Tests inject a FaultInjectingVfs here.
  storage::FileStreamOptions filestream_options;
  // Capacity of the buffer pool that every table page and BLOB chunk read
  // goes through (spill files under "<filestream_root>/tablespace"), in
  // bytes; 0 = HTG_BUFFER_POOL_MB (default 64 MiB).
  size_t buffer_pool_bytes = 0;
  // Degree of parallelism for eligible query plans (SQL Server's MAXDOP).
  int max_dop = 4;
  // Row-count threshold below which the planner stays serial.
  uint64_t parallel_threshold = 10000;
  // Per-query memory budget for materializing operators (sort, hash
  // aggregate including DISTINCT, hash join).
  //   -1 = use HTG_QUERY_MEM_MB (default 256 MiB)
  //    0 = unlimited
  //   >0 = that many bytes
  int64_t query_mem_bytes = -1;
  // Let over-budget operators degrade to disk spill runs through the
  // tablespace instead of failing. Off: over-budget statements fail
  // with kResourceExhausted. HTG_SPILL=0
  // disables it from the environment.
  bool enable_spill = true;
  // Completed (committed + aborted) transactions between opportunistic
  // version-GC sweeps. -1 = HTG_MVCC_GC_EVERY (default 16); 0 disables
  // the automatic sweep (SweepVersions can still be called directly).
  int64_t mvcc_gc_every = -1;

  // query_mem_bytes with the -1 = environment default applied; 0 means
  // unlimited.
  size_t ResolvedQueryMemBytes() const;
  // enable_spill combined with the HTG_SPILL environment override.
  bool ResolvedSpillEnabled() const;
  // mvcc_gc_every with the -1 = environment default applied.
  uint64_t ResolvedMvccGcEvery() const;
};

// The top-level engine object: catalog of tables, the function registry
// (built-ins plus any registered extension assemblies, e.g. the genomics
// library), and the FileStream BLOB store.
class Database {
 public:
  static Result<std::unique_ptr<Database>> Open(const std::string& name,
                                                DatabaseOptions options = {});
  ~Database();

  const std::string& name() const { return name_; }
  const DatabaseOptions& options() const { return options_; }
  void set_max_dop(int dop) { options_.max_dop = dop; }

  udf::FunctionRegistry* functions() { return &functions_; }
  const udf::FunctionRegistry* functions() const { return &functions_; }
  storage::FileStreamStore* filestream() { return filestream_.get(); }
  storage::BufferPool* buffer_pool() { return buffer_pool_.get(); }
  // Spill files for table pages and out-of-core operators.
  storage::TableSpace* tablespace() { return tablespace_.get(); }

  // DDL -----------------------------------------------------------------
  // The catalog map itself is internally synchronized (SharedMutex), so
  // concurrent sessions can resolve tables while one creates or drops.
  // Pointer lifetime is the caller's concern: a TableDef* stays valid
  // until DropTable, which the server's LockManager serializes against
  // in-flight statements (exclusive table + catalog locks).

  // Creates a table; `def.table` (heap, or clustered when
  // def.clustered_key is non-empty, paged through the buffer pool) and
  // `def.mvcc` are instantiated here.
  Status CreateTable(catalog::TableDef def);
  Status DropTable(const std::string& name);

  Result<catalog::TableDef*> GetTable(const std::string& name);
  std::vector<std::string> ListTables() const;

  // DML -----------------------------------------------------------------

  // The one append entry point. Validates and casts every live row of
  // `batch` first — arity, NOT NULL, CastTo of each value to its column's
  // type — and moves inline BLOB content bound for FILESTREAM columns
  // into store-managed files (the stored value becomes the file path, as
  // with SQL Server's PathName()); `batch` is rewritten in place. Only
  // then does it append the batch. A row that fails validation fails the
  // call with nothing of the batch appended and the blobs it created
  // deleted.
  //
  // Inside a transaction (SqlEngine's INSERT path), `stamp` is its id —
  // clustered tables record it on the B+-tree entry for snapshot scans to
  // filter on; heaps ignore it, their visibility is a row-count watermark
  // — and the paths of blobs that landed rows reference are appended to
  // `created_blobs` so the transaction's abort can delete them. The rows
  // that landed are added to *appended (when not null), also when the
  // append itself fails part-way.
  //
  // With the default frozen stamp this is the bulk-load API of the
  // loaders: the rows are visible to every later snapshot on return. No
  // transaction may be writing the same table concurrently.
  Status AppendBatch(catalog::TableDef* table, RowBatch* batch,
                     storage::TxnId stamp = storage::kFrozenTxn,
                     std::vector<std::string>* created_blobs = nullptr,
                     uint64_t* appended = nullptr);

  // A one-row AppendBatch.
  Status InsertRow(catalog::TableDef* table, Row row,
                   storage::TxnId stamp = storage::kFrozenTxn,
                   std::vector<std::string>* created_blobs = nullptr);

  // An EvalContext wired to this database (DATALENGTH on filestreams etc).
  udf::EvalContext MakeEvalContext();

  // MVCC ----------------------------------------------------------------

  storage::TxnManager* txns() { return &txn_manager_; }

  // Opportunistic version GC: once ResolvedMvccGcEvery() transactions
  // have completed since the last sweep, retires committed watermark
  // ranges below the oldest live snapshot and physically removes
  // aborted-transaction entries from clustered trees.
  void MaybeSweepVersions();
  // Unconditional sweep; returns the number of clustered entries removed.
  uint64_t SweepVersions();

 private:
  Database(std::string name, DatabaseOptions options);

  std::string name_;
  DatabaseOptions options_;
  // Declared before tables_ and filestream_: TableFiles and pooled blob
  // registrations must be destroyed before the pool and tablespace they
  // point into (members destruct in reverse declaration order).
  std::unique_ptr<storage::BufferPool> buffer_pool_;
  std::unique_ptr<storage::TableSpace> tablespace_;
  mutable SharedMutex catalog_mu_{"Database::catalog_mu_"};
  std::map<std::string, std::unique_ptr<catalog::TableDef>> tables_
      HTG_GUARDED_BY(catalog_mu_);
  udf::FunctionRegistry functions_;
  std::unique_ptr<storage::FileStreamStore> filestream_;
  storage::TxnManager txn_manager_;
  uint64_t mvcc_gc_every_ = 16;  // resolved once at Open
  std::atomic<uint64_t> gc_pending_{0};
};

}  // namespace htg

