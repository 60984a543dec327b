#pragma once

#include <atomic>
#include <memory>
#include <string>
#include <vector>

#include "common/synchronization.h"
#include "storage/page.h"
#include "storage/scan_predicate.h"
#include "storage/table.h"
#include "storage/tablespace.h"

namespace htg::storage {

// An append-oriented heap table: rows accumulate into a PageBuilder and
// seal into immutable serialized pages. Scans stream page by page.
//
// Sealed pages go to the table's TableFile, i.e. into the shared
// BufferPool as dirty frames with the spill file behind them; scans pin
// pages via PageGuard, so every heap is cache-managed.
//
// Scans: one iterator reads a PageRange — a page span whose last page may
// be capped mid-page. Readers plan the range holding a snapshot's visible
// row prefix with PlanVisiblePrefix and scan it whole or cut into morsels;
// NewScan plans it over every row. An internal reader/writer lock covers
// the page directory and builder, so scans stream sealed pages while a
// writer transaction keeps appending. Sealed page images are immutable
// and pinned while scanned, so a scan never observes a page being torn
// down by a concurrent transaction abort (TruncateToRows) — visibility
// limits guarantee a snapshot reader only decodes rows that survive any
// abort.
//
// Zone maps: the page directory keeps, per page and per INT/BIGINT column,
// the min and max of the page's values as stored (in memory only; the page
// image does not change). A scan given a ScanPredicate skips, without
// pinning or decoding, every page whose summary excludes one of its terms.
// A summary covers all rows of its page, so for a scan capped mid-page or
// a page holding another writer's uncommitted rows it describes a superset
// of the visible rows, and skipping stays sound.
class HeapTable : public TableStorage {
 public:
  // `file` (from TableSpace::CreateTableFile) receives the sealed pages.
  HeapTable(Schema schema, Compression mode, std::unique_ptr<TableFile> file,
            size_t page_size = kDefaultPageSize);

  const Schema& schema() const override { return schema_; }
  Compression compression() const override { return mode_; }

  // Takes the table lock once per batch; the zone-map summaries of each
  // stretch of rows added to one page are updated a column at a time.
  Status AppendBatch(const RowBatch& batch, TxnId stamp,
                     uint64_t* appended) override;
  uint64_t num_rows() const override {
    return num_rows_.load(std::memory_order_acquire);
  }
  StorageStats Stats() const override;
  // Every row, including the pending tail of a writer transaction.
  std::unique_ptr<RowIterator> NewScan() override;
  void Truncate() override;

  // Pages [first_page, end_page); the last one is capped at tail_rows
  // rows (0 = the whole page).
  struct PageRange {
    size_t first_page = 0;
    size_t end_page = 0;
    uint64_t tail_rows = 0;
  };

  // The range holding exactly rows [0, row_limit), a snapshot's visible
  // prefix. Seals the in-progress page when the limit reaches into it
  // (the rows are committed; only their page image is pending) — the
  // only seal a reader performs.
  Result<PageRange> PlanVisiblePrefix(uint64_t row_limit);

  // Scan of `range`, immune to appends that land after it opens. Decodes
  // only the schema columns in `columns` (ascending; AllColumns for full
  // rows), so batches are columns.size() wide. Pages whose summaries
  // exclude a term of `predicate` are skipped; `counts` (may be null)
  // accumulates the pages read and skipped.
  std::unique_ptr<RowIterator> NewScanRange(
      const PageRange& range, std::vector<int> columns,
      const ScanPredicate& predicate = {}, PageCounts* counts = nullptr);

  // Pages holding rows, counting the in-progress page.
  size_t num_pages() const;

  // Drops rows from the tail until `target_rows` remain (transaction undo;
  // only supports undoing appends). Fails only if a surviving row from a
  // partially-dropped page cannot be re-read or re-encoded — the table is
  // left truncated to the rows that did survive.
  Status TruncateToRows(uint64_t target_rows);

  // Consistency check of the page directory: its arrays describe the same
  // pages, and every sealed page's summaries equal those recomputed from
  // its rows. Reads every page; for tests.
  Status CheckPageDirectory() const;

 private:
  class ScanIterator;

  // One page's summary of one INT/BIGINT column.
  struct Zone {
    enum State : uint8_t {
      kNoValues,  // every value NULL: no term can match
      kRange,     // non-NULL values lie in [min, max]
      kUnknown,   // a value of non-integer kind: never prunes
    };
    int64_t min = 0;
    int64_t max = 0;
    State state = kNoValues;

    void Add(const Value& v);
    bool operator==(const Zone& o) const {
      return state == o.state &&
             (state != kRange || (min == o.min && max == o.max));
    }
  };

  Status SealLocked() HTG_REQUIRES(mu_);
  Status AppendLocked(const RowBatch& batch, uint64_t* appended)
      HTG_REQUIRES(mu_);
  // True when the summaries of sealed page `page` exclude a term.
  bool PageExcludedLocked(size_t page, const ScanPredicate& predicate) const
      HTG_REQUIRES_SHARED(mu_);

  Schema schema_;
  Compression mode_;
  size_t page_size_;
  mutable SharedMutex mu_{"HeapTable::mu_"};
  std::vector<int> page_rows_ HTG_GUARDED_BY(mu_);  // row count per page
  std::vector<uint32_t> page_bytes_ HTG_GUARDED_BY(mu_);  // serialized size
  // Schema indexes of the summarized (INT/BIGINT) columns, and each schema
  // column's slot among them (-1 = not summarized).
  std::vector<int> zone_columns_;
  std::vector<int> zone_slot_;
  // zone_columns_.size() summaries per sealed page, page-major, in
  // lockstep with page_rows_; building_ summarizes the builder's rows.
  std::vector<Zone> zones_ HTG_GUARDED_BY(mu_);
  std::vector<Zone> building_ HTG_GUARDED_BY(mu_);
  uint64_t sealed_rows_ HTG_GUARDED_BY(mu_) = 0;
  PageBuilder builder_ HTG_GUARDED_BY(mu_);
  // Written under mu_ exclusive; read lock-free by num_rows().
  std::atomic<uint64_t> num_rows_{0};
  const std::unique_ptr<TableFile> backing_;  // owns the sealed pages
};

}  // namespace htg::storage
