#include "storage/heap_table.h"

#include <algorithm>
#include <limits>

#include "common/metrics.h"
#include "common/string_util.h"

namespace htg::storage {

class HeapTable::ScanIterator : public RowIterator {
 public:
  // Keeps only the terms on summarized columns: the others never prune.
  ScanIterator(HeapTable* table, const PageRange& range,
               std::vector<int> columns, const ScanPredicate& predicate,
               PageCounts* counts)
      : table_(table),
        page_index_(range.first_page),
        range_(range),
        columns_(std::move(columns)),
        counts_(counts) {
    for (const ScanTerm& t : predicate.terms) {
      if (table_->zone_slot_[t.column] >= 0) predicate_.terms.push_back(t);
    }
  }

  // Decodes the kept columns of page rows straight into the batch while
  // the page pin is held.
  bool NextBatch(RowBatch* batch) override {
    batch->StartFill(columns_.size());
    size_t n = 0;
    while (status_.ok()) {
      if (reader_ != nullptr) {
        while (n < batch->capacity() && rows_left_ > 0 &&
               reader_->Next(&row_)) {
          --rows_left_;
          batch->SwapRow(n++, &row_);
        }
        if (n == batch->capacity()) break;
        if (rows_left_ > 0) status_ = reader_->status();
      }
      if (!status_.ok() || !AdvancePage()) break;
    }
    batch->FinishFill(n);
    return status_.ok() && n > 0;
  }

  Status status() const override { return status_; }

 private:
  // Positions reader_ on the next page of the range that the predicate
  // does not exclude. Returns false at the end of the range or on error
  // (status_ distinguishes). Skipping and the page fetch run under the
  // table's shared lock so they cannot race a truncation rewriting the
  // page directory; the pin keeps the fetched image valid after the lock
  // drops.
  bool AdvancePage() {
    if (page_index_ >= range_.end_page) return false;
    Slice page;
    {
      ReaderMutexLock lock(&table_->mu_);
      const size_t end = std::min(range_.end_page, table_->page_rows_.size());
      const size_t first = page_index_;
      while (page_index_ < end &&
             table_->PageExcludedLocked(page_index_, predicate_)) {
        ++page_index_;
      }
      if (page_index_ > first) {
        const uint64_t skipped = page_index_ - first;
        HTG_METRIC_COUNTER("heap.page.skipped")->Add(skipped);
        if (counts_ != nullptr) {
          counts_->skipped.fetch_add(skipped, std::memory_order_relaxed);
        }
      }
      if (page_index_ >= end) return false;
      auto pinned = table_->backing_->ReadPage(page_index_);
      if (!pinned.ok()) {
        status_ = std::move(pinned).status();
        return false;
      }
      // Drop the reader into the old page before unpinning it.
      reader_.reset();
      guard_ = std::move(pinned).value();
      page = guard_.data();
    }
    ++page_index_;
    rows_left_ = (page_index_ == range_.end_page && range_.tail_rows > 0)
                     ? range_.tail_rows
                     : std::numeric_limits<uint64_t>::max();
    HTG_METRIC_COUNTER("heap.page.reads")->Add(1);
    if (counts_ != nullptr) {
      counts_->read.fetch_add(1, std::memory_order_relaxed);
    }
    reader_ = std::make_unique<PageReader>(&table_->schema_, page, columns_);
    status_ = reader_->Init();
    if (!status_.ok()) {
      reader_.reset();
      return false;
    }
    return true;
  }

  HeapTable* table_;
  size_t page_index_;
  const PageRange range_;
  const std::vector<int> columns_;  // schema columns decoded
  ScanPredicate predicate_;  // terms on summarized columns
  PageCounts* counts_;
  uint64_t rows_left_ = 0;  // cap on rows still to emit from this page
  PageGuard guard_;  // pin on the page reader_ is positioned on
  std::unique_ptr<PageReader> reader_;
  Row row_;  // decode target, swapped into the batch's value slots
  Status status_;
};

namespace {

// Scan stand-in for a table whose in-progress page failed to seal.
class FailedIterator : public RowIterator {
 public:
  explicit FailedIterator(Status status) : status_(std::move(status)) {}
  bool NextBatch(RowBatch*) override { return false; }
  Status status() const override { return status_; }

 private:
  Status status_;
};

}  // namespace

void HeapTable::Zone::Add(const Value& v) {
  if (v.is_null() || state == kUnknown) return;
  if (!v.IsIntegerKind()) {
    state = kUnknown;
    return;
  }
  const int64_t x = v.AsInt64();
  if (state == kNoValues) {
    min = max = x;
    state = kRange;
    return;
  }
  min = std::min(min, x);
  max = std::max(max, x);
}

HeapTable::HeapTable(Schema schema, Compression mode,
                     std::unique_ptr<TableFile> file, size_t page_size)
    : schema_(std::move(schema)),
      mode_(mode),
      page_size_(page_size),
      builder_(&schema_, mode, page_size),
      backing_(std::move(file)) {
  // DOUBLE gets no summary (NaN has no place in a min/max order), nor do
  // strings, BIT and blobs.
  zone_slot_.assign(schema_.num_columns(), -1);
  for (int c = 0; c < schema_.num_columns(); ++c) {
    const DataType type = schema_.column(c).type;
    if (type == DataType::kInt32 || type == DataType::kInt64) {
      zone_slot_[c] = static_cast<int>(zone_columns_.size());
      zone_columns_.push_back(c);
    }
  }
  MutexLock lock(&mu_);
  building_.assign(zone_columns_.size(), Zone());
}

Status HeapTable::AppendBatch(const RowBatch& batch, TxnId /*stamp*/,
                              uint64_t* appended) {
  MutexLock lock(&mu_);
  return AppendLocked(batch, appended);
}

Status HeapTable::AppendLocked(const RowBatch& batch, uint64_t* appended) {
  const size_t n = batch.ActiveRows();
  size_t i = 0;
  while (i < n) {
    // Fill the builder up to its flush boundary (or the batch's end),
    // then summarize that stretch column by column and seal.
    const size_t begin = i;
    Status added;
    while (i < n && !builder_.ShouldFlush()) {
      added = builder_.Add(batch, batch.ActiveIndex(i));
      if (!added.ok()) break;
      ++i;
    }
    for (size_t z = 0; z < zone_columns_.size(); ++z) {
      const std::vector<Value>& column = batch.column(zone_columns_[z]);
      Zone& zone = building_[z];
      for (size_t k = begin; k < i; ++k) {
        zone.Add(column[batch.ActiveIndex(k)]);
      }
    }
    num_rows_.fetch_add(i - begin, std::memory_order_acq_rel);
    *appended += i - begin;
    HTG_RETURN_IF_ERROR(added);
    if (builder_.ShouldFlush()) HTG_RETURN_IF_ERROR(SealLocked());
  }
  return Status::OK();
}

Status HeapTable::SealLocked() {
  if (builder_.empty()) return Status::OK();
  const int rows = builder_.row_count();
  std::string page = builder_.Finish();
  page_rows_.push_back(rows);
  page_bytes_.push_back(static_cast<uint32_t>(page.size()));
  zones_.insert(zones_.end(), building_.begin(), building_.end());
  building_.assign(zone_columns_.size(), Zone());
  auto page_no = backing_->AppendPage(std::move(page));
  if (!page_no.ok()) {
    // The rows of the failed page are gone; surface that rather than
    // pretending the table still holds them.
    page_rows_.pop_back();
    page_bytes_.pop_back();
    zones_.resize(zones_.size() - zone_columns_.size());
    num_rows_.fetch_sub(static_cast<uint64_t>(rows),
                        std::memory_order_acq_rel);
    return std::move(page_no).status();
  }
  sealed_rows_ += static_cast<uint64_t>(rows);
  return Status::OK();
}

StorageStats HeapTable::Stats() const {
  ReaderMutexLock lock(&mu_);
  StorageStats stats;
  stats.rows = num_rows();
  stats.pages = page_rows_.size() + (builder_.empty() ? 0 : 1);
  for (uint32_t bytes : page_bytes_) stats.data_bytes += bytes;
  stats.data_bytes += builder_.raw_bytes();
  return stats;
}

size_t HeapTable::num_pages() const {
  ReaderMutexLock lock(&mu_);
  return page_rows_.size() + (builder_.empty() ? 0 : 1);
}

std::unique_ptr<RowIterator> HeapTable::NewScan() {
  Result<PageRange> range = PlanVisiblePrefix(num_rows());
  if (!range.ok()) {
    return std::make_unique<FailedIterator>(std::move(range).status());
  }
  return NewScanRange(*range, AllColumns(schema_));
}

Result<HeapTable::PageRange> HeapTable::PlanVisiblePrefix(
    uint64_t row_limit) {
  MutexLock lock(&mu_);
  row_limit = std::min(row_limit, num_rows());
  // The limit counts committed rows; when it reaches into the builder,
  // seal so the rows have a scannable page image. (Appending writers are
  // unaffected: sealing mid-transaction just closes a page early.)
  if (row_limit > sealed_rows_) HTG_RETURN_IF_ERROR(SealLocked());
  PageRange range;
  uint64_t acc = 0;
  for (size_t i = 0; i < page_rows_.size() && acc < row_limit; ++i) {
    const uint64_t rows = static_cast<uint64_t>(page_rows_[i]);
    range.end_page = i + 1;
    range.tail_rows = acc + rows > row_limit ? row_limit - acc : 0;
    acc += rows;
  }
  return range;
}

std::unique_ptr<RowIterator> HeapTable::NewScanRange(
    const PageRange& range, std::vector<int> columns,
    const ScanPredicate& predicate, PageCounts* counts) {
  return std::make_unique<ScanIterator>(this, range, std::move(columns),
                                        predicate, counts);
}

bool HeapTable::PageExcludedLocked(size_t page,
                                   const ScanPredicate& predicate) const {
  const Zone* zones = zones_.data() + page * zone_columns_.size();
  for (const ScanTerm& t : predicate.terms) {
    const Zone& zone = zones[zone_slot_[t.column]];
    // A NULL never satisfies a comparison with a non-NULL literal.
    if (zone.state == Zone::kNoValues) return true;
    if (zone.state == Zone::kRange && RangeExcludes(zone.min, zone.max, t)) {
      return true;
    }
  }
  return false;
}

Status HeapTable::CheckPageDirectory() const {
  ReaderMutexLock lock(&mu_);
  const size_t width = zone_columns_.size();
  const size_t pages = page_rows_.size();
  if (page_bytes_.size() != pages || zones_.size() != pages * width ||
      building_.size() != width || backing_->num_pages() != pages) {
    return Status::Internal(StringPrintf(
        "heap page directory out of step: %zu row counts, %zu sizes, %zu "
        "summaries of %zu columns, %llu pages in the file",
        pages, page_bytes_.size(), zones_.size(), width,
        static_cast<unsigned long long>(backing_->num_pages())));
  }
  for (size_t p = 0; p < pages; ++p) {
    HTG_ASSIGN_OR_RETURN(PageGuard guard, backing_->ReadPage(p));
    PageReader reader(&schema_, guard.data(), zone_columns_);
    HTG_RETURN_IF_ERROR(reader.Init());
    std::vector<Zone> want(width);
    Row row;
    int rows = 0;
    while (reader.Next(&row)) {
      for (size_t z = 0; z < width; ++z) want[z].Add(row[z]);
      ++rows;
    }
    HTG_RETURN_IF_ERROR(reader.status());
    if (rows != page_rows_[p]) {
      return Status::Internal(StringPrintf(
          "heap page %zu holds %d rows, the directory says %d", p, rows,
          page_rows_[p]));
    }
    for (size_t z = 0; z < width; ++z) {
      if (!(want[z] == zones_[p * width + z])) {
        return Status::Internal(StringPrintf(
            "heap page %zu: summary of column %s does not match its rows", p,
            schema_.column(zone_columns_[z]).name.c_str()));
      }
    }
  }
  return Status::OK();
}

void HeapTable::Truncate() {
  MutexLock lock(&mu_);
  HTG_IGNORE_STATUS(backing_->DropTailPages(0));
  page_rows_.clear();
  page_bytes_.clear();
  zones_.clear();
  building_.assign(zone_columns_.size(), Zone());
  sealed_rows_ = 0;
  builder_ = PageBuilder(&schema_, mode_, page_size_);
  num_rows_.store(0, std::memory_order_release);
}

Status HeapTable::TruncateToRows(uint64_t target_rows) {
  MutexLock lock(&mu_);
  HTG_RETURN_IF_ERROR(SealLocked());
  if (target_rows >= num_rows()) return Status::OK();
  // Drop whole tail pages; if the boundary falls inside a page, re-insert
  // the surviving prefix of that page. Snapshot readers are safe: their
  // visible limit only covers committed rows, which are all below
  // target_rows, and any page image they already fetched stays pinned
  // with its surviving prefix intact.
  uint64_t rows = num_rows();
  size_t keep_pages = page_rows_.size();
  RowBatch survivors;
  Status status;
  while (keep_pages > 0 && rows > target_rows) {
    const uint64_t page_rows =
        static_cast<uint64_t>(page_rows_[keep_pages - 1]);
    if (rows - page_rows < target_rows) {
      // Partial page: keep its first (target_rows - rows_before_it) rows.
      const uint64_t keep = target_rows - (rows - page_rows);
      auto pinned = backing_->ReadPage(keep_pages - 1);
      if (!pinned.ok()) {
        status = std::move(pinned).status();
      } else {
        PageReader reader(&schema_, pinned->data(), AllColumns(schema_));
        status = reader.Init();
        if (status.ok()) {
          Row row;
          for (uint64_t i = 0; i < keep; ++i) {
            if (!reader.Next(&row)) {
              status = reader.status().ok()
                           ? Status::Internal("heap page ended before "
                                              "surviving rows were recovered")
                           : reader.status();
              break;
            }
            survivors.AppendRow(std::move(row));
          }
        }
      }
    }
    rows -= page_rows;
    --keep_pages;
  }
  Status dropped = backing_->DropTailPages(keep_pages);
  if (!dropped.ok() && status.ok()) status = dropped;
  uint64_t kept_sealed = 0;
  for (size_t i = 0; i < keep_pages; ++i) {
    kept_sealed += static_cast<uint64_t>(page_rows_[i]);
  }
  page_rows_.resize(keep_pages);
  page_bytes_.resize(keep_pages);
  zones_.resize(keep_pages * zone_columns_.size());
  sealed_rows_ = kept_sealed;
  num_rows_.store(rows, std::memory_order_release);
  // Re-encoding rows that were valid on the dropped page; a failure here
  // means the undo lost rows and must not be silently swallowed.
  uint64_t reappended = 0;
  Status insert = AppendLocked(survivors, &reappended);
  if (!insert.ok() && status.ok()) status = insert;
  Status sealed = SealLocked();
  if (!sealed.ok() && status.ok()) status = sealed;
  return status;
}

}  // namespace htg::storage
