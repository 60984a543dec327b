#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "storage/mvcc.h"
#include "storage/row_codec.h"
#include "types/row_batch.h"
#include "types/schema.h"
#include "types/value.h"

namespace htg::storage {

// Pull-based batch cursor, the engine's one scan and operator interface.
class RowIterator {
 public:
  virtual ~RowIterator() = default;

  // Produces the next batch: refills `batch` with up to its capacity
  // rows. Returns true iff at least one live row was produced; false
  // means end of stream or error (check status()).
  virtual bool NextBatch(RowBatch* batch) = 0;

  virtual Status status() const { return Status::OK(); }
};

// Physical storage accounting, the measurement behind Tables 1 and 2.
struct StorageStats {
  uint64_t rows = 0;
  uint64_t pages = 0;
  // Bytes of serialized page data (relational storage).
  uint64_t data_bytes = 0;
  // Bytes held externally in the FileStream store for this table.
  uint64_t filestream_bytes = 0;

  uint64_t TotalBytes() const { return data_bytes + filestream_bytes; }
};

// Base interface of heap and clustered (B+-tree) tables.
class TableStorage {
 public:
  virtual ~TableStorage() = default;

  virtual const Schema& schema() const = 0;
  virtual Compression compression() const = 0;

  // The one way rows enter a table: appends the live rows of `batch`
  // (schema-wide, each value NULL or of its column's type) in order.
  // Clustered entries carry `stamp`, the writing transaction's id
  // (kFrozenTxn outside one); heaps ignore it, their visibility is a
  // row-count watermark. Adds the rows that landed to *appended, also
  // when a later row fails. Validation, casts and FILESTREAM moves are
  // the caller's (Database::AppendBatch).
  virtual Status AppendBatch(const RowBatch& batch, TxnId stamp,
                             uint64_t* appended) = 0;
  virtual uint64_t num_rows() const = 0;
  virtual StorageStats Stats() const = 0;

  // Full scan of every row the table holds, outside any transaction:
  // heap order for heaps, key order for clustered tables. SQL reads
  // through a snapshot instead (exec::TableScanOp).
  virtual std::unique_ptr<RowIterator> NewScan() = 0;

  // Removes all rows.
  virtual void Truncate() = 0;

  // Key columns of the clustered index; empty for heaps.
  virtual const std::vector<int>& clustered_key() const {
    static const std::vector<int>& empty = *new std::vector<int>();
    return empty;
  }
};

}  // namespace htg::storage

