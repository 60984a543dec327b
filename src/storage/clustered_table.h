#pragma once

#include <memory>
#include <string>
#include <vector>

#include "common/synchronization.h"
#include "storage/bplus_tree.h"
#include "storage/mvcc.h"
#include "storage/table.h"
#include "storage/tablespace.h"

namespace htg::storage {

// A table stored in clustered-index order: rows live in a B+-tree keyed by
// the clustered key columns. Scans return rows in key order, which is what
// lets the planner pick merge joins (paper Fig. 10) and lets the
// consensus-calling UDA stream alignments in position order (§5.3.3).
//
// Rows are ROW-compression encoded in the leaves. (SQL Server would also
// allow PAGE compression on indexes; we restrict page compression to heaps
// and note it in DESIGN.md — the storage study of Tables 1/2 uses heaps.)
//
// Leaf payloads (each encoded row plus its CRC32C trailer) accumulate
// into ~8 KiB leaf pages sealed into a TableFile through the shared
// BufferPool; the tree keeps a fixed 12-byte (page, offset, length)
// reference per row, and scans pin leaf pages via PageGuard — the
// B+-tree's leaf level is cache-managed while the key level stays in
// memory. Sealed pages add the page-level CRC32C trailer the pool
// verifies on every miss-fill.
//
// Concurrency (MVCC): every tree entry carries the txn-id stamp of its
// inserting transaction (0 = frozen). Every scan reads through a
// snapshot: it holds an internal reader/writer latch only while filling
// part of one batch and re-seeks past the last entry it visited between
// fills, so it interleaves with a writer transaction's inserts and with
// GC sweeps. Entries of aborted transactions stay in the tree but are
// invisible to every transaction's snapshot until SweepAborted rebuilds
// without them.
class ClusteredTable : public TableStorage {
 public:
  // `file` (from TableSpace::CreateTableFile) receives the leaf pages.
  ClusteredTable(Schema schema, std::vector<int> key_columns,
                 Compression mode, std::unique_ptr<TableFile> file);

  const Schema& schema() const override { return schema_; }
  Compression compression() const override { return mode_; }
  const std::vector<int>& clustered_key() const override {
    return key_columns_;
  }

  // Takes the latch once per batch; every entry carries `stamp`.
  Status AppendBatch(const RowBatch& batch, TxnId stamp,
                     uint64_t* appended) override;
  uint64_t num_rows() const override;
  StorageStats Stats() const override;
  // Every entry in the tree: a scan through Snapshot::All().
  std::unique_ptr<RowIterator> NewScan() override;
  void Truncate() override;

  // Key-ordered scan of exactly the rows visible to `snap` (`self` sees
  // its own uncommitted inserts), optionally starting at the first key
  // >= `prefix` and ending before the first entry whose leading key
  // compares above `stop` (NULL: no stop). Decodes only the schema
  // columns in `columns` (ascending; AllColumns for full rows); each
  // payload's CRC still covers the whole row image. Safe against
  // concurrent AppendBatch and SweepAborted.
  std::unique_ptr<RowIterator> NewSnapshotScan(Snapshot snap, TxnId self,
                                               std::vector<int> columns);
  Result<std::unique_ptr<RowIterator>> NewSnapshotScanFrom(
      const Row& prefix, Snapshot snap, TxnId self, std::vector<int> columns,
      Value stop = Value::Null());

  // Transaction abort: `count` freshly inserted entries now belong to an
  // aborted txn. They stay in the tree (hidden by their stamps) until
  // SweepAborted; num_rows() discounts them immediately.
  void MarkAborted(uint64_t count);

  // GC: rebuilds the tree without entries stamped by a txn in `aborted`
  // (sorted). Returns the number of entries removed.
  uint64_t SweepAborted(const std::vector<TxnId>& aborted);

 private:
  class SnapshotIterator;

  // Seals leaf_buf_ into the backing file (page CRC trailer appended).
  Status SealLeafPage() HTG_REQUIRES(latch_);
  // Resolves one tree payload (a LeafRef) to the decoded `columns` of its
  // row, pinning its leaf page into `guard`.
  Status DecodeEntryLocked(const std::string& payload, PageGuard* guard,
                           const std::vector<int>& columns, Row* row) const
      HTG_REQUIRES_SHARED(latch_);

  Schema schema_;
  std::vector<int> key_columns_;
  Compression mode_;
  Compression row_mode_;  // encoding used in leaves (kNone or kRow)

  mutable SharedMutex latch_{"ClusteredTable::latch_"};
  BPlusTree tree_ HTG_GUARDED_BY(latch_);
  std::string leaf_buf_ HTG_GUARDED_BY(latch_);  // in-progress leaf page
  // Raw payload bytes stored (incl. per-row CRC trailers), the Table 1/2
  // storage accounting.
  uint64_t payload_bytes_total_ HTG_GUARDED_BY(latch_) = 0;
  // Entries inserted by aborted txns, pending SweepAborted.
  uint64_t dead_rows_ HTG_GUARDED_BY(latch_) = 0;

  const std::unique_ptr<TableFile> backing_;  // owns the leaf pages
};

}  // namespace htg::storage
