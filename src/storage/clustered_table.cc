#include "storage/clustered_table.h"

#include <algorithm>
#include <cstring>
#include <tuple>

#include "common/crc32c.h"
#include "common/string_util.h"
#include "storage/page.h"

namespace htg::storage {

namespace {

// Leaf reference: where one row's payload lives in the table's
// leaf-page file.
struct LeafRef {
  uint32_t page_no = 0;
  uint32_t offset = 0;
  uint32_t length = 0;
};

constexpr size_t kLeafRefBytes = 12;

std::string EncodeLeafRef(const LeafRef& ref) {
  std::string out(kLeafRefBytes, '\0');
  std::memcpy(out.data(), &ref.page_no, 4);
  std::memcpy(out.data() + 4, &ref.offset, 4);
  std::memcpy(out.data() + 8, &ref.length, 4);
  return out;
}

Status DecodeLeafRef(const std::string& payload, LeafRef* ref) {
  if (payload.size() != kLeafRefBytes) {
    return Status::Corruption("clustered leaf reference has wrong size");
  }
  std::memcpy(&ref->page_no, payload.data(), 4);
  std::memcpy(&ref->offset, payload.data() + 4, 4);
  std::memcpy(&ref->length, payload.data() + 8, 4);
  return Status::OK();
}

// Verifies the per-row CRC32C trailer over the whole row image, then
// decodes its `columns`.
Status DecodePayload(const Schema& schema, Compression row_mode,
                     Slice payload, const std::vector<int>& columns,
                     Row* row) {
  if (payload.size() < 4) {
    return Status::Corruption("clustered leaf payload too small");
  }
  const size_t body = payload.size() - 4;
  uint32_t expected = 0;
  for (int i = 0; i < 4; ++i) {
    expected |= static_cast<uint32_t>(
                    static_cast<unsigned char>(payload[body + i]))
                << (8 * i);
  }
  const uint32_t actual = Crc32c(payload.data(), body);
  if (expected != actual) {
    return Status::Corruption(
        StringPrintf("clustered leaf checksum mismatch "
                     "(stored %08x, computed %08x)",
                     expected, actual));
  }
  return DecodeRow(schema, row_mode, Slice(payload.data(), body), columns,
                   row);
}

// Full-key comparison, shorter keys sort first on ties (mirrors the
// B+-tree's internal ordering; scans use it to resume).
int CompareFull(const Row& a, const Row& b) {
  const size_t n = std::min(a.size(), b.size());
  for (size_t i = 0; i < n; ++i) {
    const int r = a[i].Compare(b[i]);
    if (r != 0) return r;
  }
  if (a.size() < b.size()) return -1;
  if (a.size() > b.size()) return 1;
  return 0;
}

// Insertion order of two leaf references: payloads append to the leaf
// file, so a later insert has a later (page, offset).
bool After(const LeafRef& a, const LeafRef& b) {
  return std::tie(a.page_no, a.offset) > std::tie(b.page_no, b.offset);
}

}  // namespace

Status ClusteredTable::DecodeEntryLocked(const std::string& payload,
                                         PageGuard* guard,
                                         const std::vector<int>& columns,
                                         Row* row) const {
  LeafRef ref;
  HTG_RETURN_IF_ERROR(DecodeLeafRef(payload, &ref));
  Slice page;
  if (ref.page_no == backing_->num_pages()) {
    // Still in the in-progress leaf page; the latch (held by the caller)
    // keeps the buffer stable against concurrent inserts.
    page = Slice(leaf_buf_);
  } else {
    // Key order visits runs of rows on the same leaf page; keep the
    // pin across the run instead of re-fetching per row.
    if (!guard->valid() || guard->page_no() != ref.page_no) {
      auto pinned = backing_->ReadPage(ref.page_no);
      if (!pinned.ok()) return std::move(pinned).status();
      *guard = std::move(pinned).value();
    }
    page = guard->data();
  }
  if (static_cast<uint64_t>(ref.offset) + ref.length > page.size()) {
    return Status::Corruption("clustered leaf reference out of bounds");
  }
  return DecodePayload(schema_, row_mode_,
                       Slice(page.data() + ref.offset, ref.length), columns,
                       row);
}

// The clustered scan: key order, entries filtered by snapshot
// visibility. The latch is held only while one refill decodes up to
// kFillRows entries straight into the batch; between refills the scan
// keeps the (key, leaf reference) of the last entry it visited and
// re-seeks past it, so a concurrent writer's inserts (and the splits
// they trigger) and GC sweeps never invalidate scan state. Equal keys
// order by insertion, and leaf references grow with insertion, so the
// resume point is exact even when the entry it names was swept.
class ClusteredTable::SnapshotIterator : public RowIterator {
 public:
  // An empty `seek` scans from the first key; a NULL `stop` to the last.
  SnapshotIterator(const ClusteredTable* table, Snapshot snap, TxnId self,
                   Row seek, Value stop, std::vector<int> columns)
      : table_(table),
        snap_(std::move(snap)),
        self_(self),
        seek_(std::move(seek)),
        stop_(std::move(stop)),
        columns_(std::move(columns)) {}

  bool NextBatch(RowBatch* batch) override {
    batch->StartFill(columns_.size());
    size_t n = 0;
    while (n < batch->capacity() && Refill(batch, &n)) {
    }
    batch->FinishFill(n);
    return status_.ok() && n > 0;
  }

  Status status() const override { return status_; }

 private:
  static constexpr size_t kFillRows = 256;

  bool Visible(TxnId stamp) const {
    return stamp == kFrozenTxn || stamp == self_ || snap_.Sees(stamp);
  }

  // Visits up to kFillRows more entries under one latch hold, decoding
  // the visible ones into rows *n, *n + 1, ... of the batch. Returns
  // false once the scan is exhausted or failed.
  bool Refill(RowBatch* batch, size_t* n) {
    if (done_ || !status_.ok()) return false;
    ReaderMutexLock lock(&table_->latch_);
    BPlusTree::Cursor cur = PositionLocked();
    BPlusTree::Cursor last;
    for (size_t visited = 0; visited < kFillRows && cur.Valid() &&
                             *n < batch->capacity();
         ++visited) {
      if (!stop_.is_null() && cur.key()[0].Compare(stop_) > 0) {
        done_ = true;
        break;
      }
      if (Visible(cur.stamp())) {
        status_ = table_->DecodeEntryLocked(cur.payload(), &guard_, columns_,
                                            &row_);
        if (!status_.ok()) return false;
        batch->SwapRow((*n)++, &row_);
      }
      last = cur;
      cur.Advance();
    }
    if (last.Valid()) {
      last_key_ = last.key();
      status_ = DecodeLeafRef(last.payload(), &last_ref_);
      started_ = true;
    }
    if (!cur.Valid()) done_ = true;
    // Drop the pin between refills: a long-lived scan should not hold
    // buffer-pool frames while the caller processes the batch.
    guard_ = PageGuard();
    return status_.ok() && !done_;
  }

  // Rebuilds a cursor at the first entry not yet visited: lower-bound
  // seek to the last visited key, then past the equal-key entries
  // inserted no later than the last visited one.
  BPlusTree::Cursor PositionLocked() HTG_REQUIRES_SHARED(table_->latch_) {
    if (!started_) {
      return seek_.empty() ? table_->tree_.First()
                           : table_->tree_.Seek(seek_);
    }
    BPlusTree::Cursor cur = table_->tree_.Seek(last_key_);
    LeafRef ref;
    while (cur.Valid() && CompareFull(cur.key(), last_key_) == 0 &&
           DecodeLeafRef(cur.payload(), &ref).ok() &&
           !After(ref, last_ref_)) {
      cur.Advance();
    }
    return cur;
  }

  const ClusteredTable* table_;
  const Snapshot snap_;
  const TxnId self_;
  const Row seek_;
  const Value stop_;  // last leading key to visit
  const std::vector<int> columns_;  // schema columns decoded

  bool started_ = false;
  bool done_ = false;
  Row last_key_;      // key of the last entry visited
  LeafRef last_ref_;  // and its leaf reference
  Row row_;  // decode target, swapped into the batch's value slots
  PageGuard guard_;
  Status status_;
};

ClusteredTable::ClusteredTable(Schema schema, std::vector<int> key_columns,
                               Compression mode,
                               std::unique_ptr<TableFile> file)
    : schema_(std::move(schema)),
      key_columns_(std::move(key_columns)),
      mode_(mode),
      row_mode_(mode == Compression::kNone ? Compression::kNone
                                           : Compression::kRow),
      backing_(std::move(file)) {}

Status ClusteredTable::AppendBatch(const RowBatch& batch, TxnId stamp,
                                   uint64_t* appended) {
  const size_t n = batch.ActiveRows();
  if (n > 0 && static_cast<int>(batch.num_columns()) != schema_.num_columns()) {
    return Status::Internal("batch width does not match schema");
  }
  MutexLock lock(&latch_);
  for (size_t i = 0; i < n; ++i) {
    const size_t r = batch.ActiveIndex(i);
    Row key;
    key.reserve(key_columns_.size());
    for (int c : key_columns_) key.push_back(batch.column(c)[r]);
    // The payload encodes straight into the leaf page, followed by its
    // CRC32C trailer: leaf payloads are the clustered table's durable row
    // images, so scans detect cached or spilled corruption the same way
    // page decodes do.
    LeafRef ref;
    ref.page_no = static_cast<uint32_t>(backing_->num_pages());
    ref.offset = static_cast<uint32_t>(leaf_buf_.size());
    EncodeRowValues(
        schema_, [&](int c) -> const Value& { return batch.column(c)[r]; },
        row_mode_, &leaf_buf_);
    const uint32_t crc =
        Crc32c(leaf_buf_.data() + ref.offset, leaf_buf_.size() - ref.offset);
    for (int b = 0; b < 4; ++b) {
      leaf_buf_.push_back(static_cast<char>((crc >> (8 * b)) & 0xff));
    }
    ref.length = static_cast<uint32_t>(leaf_buf_.size() - ref.offset);
    payload_bytes_total_ += ref.length;
    tree_.Insert(std::move(key), EncodeLeafRef(ref), stamp);
    ++*appended;
    if (leaf_buf_.size() >= kDefaultPageSize) {
      HTG_RETURN_IF_ERROR(SealLeafPage());
    }
  }
  return Status::OK();
}

Status ClusteredTable::SealLeafPage() {
  if (leaf_buf_.empty()) return Status::OK();
  // Page-level CRC32C trailer, the format the pool verifies on miss-fill.
  const uint32_t crc = Crc32c(leaf_buf_.data(), leaf_buf_.size());
  for (int i = 0; i < 4; ++i) {
    leaf_buf_.push_back(static_cast<char>((crc >> (8 * i)) & 0xff));
  }
  const uint64_t expected_page = backing_->num_pages();
  HTG_ASSIGN_OR_RETURN(const uint64_t page_no,
                       backing_->AppendPage(std::move(leaf_buf_)));
  leaf_buf_.clear();
  if (page_no != expected_page) {
    return Status::Internal("clustered leaf page numbering out of sync");
  }
  return Status::OK();
}

uint64_t ClusteredTable::num_rows() const {
  ReaderMutexLock lock(&latch_);
  return tree_.size() - std::min(tree_.size(), dead_rows_);
}

StorageStats ClusteredTable::Stats() const {
  ReaderMutexLock lock(&latch_);
  StorageStats stats;
  stats.rows = tree_.size() - std::min(tree_.size(), dead_rows_);
  stats.pages = tree_.num_nodes();
  stats.data_bytes = payload_bytes_total_ + tree_.ApproxNodeBytes();
  return stats;
}

std::unique_ptr<RowIterator> ClusteredTable::NewScan() {
  return NewSnapshotScan(Snapshot::All(), kFrozenTxn, AllColumns(schema_));
}

std::unique_ptr<RowIterator> ClusteredTable::NewSnapshotScan(
    Snapshot snap, TxnId self, std::vector<int> columns) {
  return std::make_unique<SnapshotIterator>(this, std::move(snap), self,
                                            Row(), Value::Null(),
                                            std::move(columns));
}

Result<std::unique_ptr<RowIterator>> ClusteredTable::NewSnapshotScanFrom(
    const Row& prefix, Snapshot snap, TxnId self, std::vector<int> columns,
    Value stop) {
  if (prefix.size() > key_columns_.size()) {
    return Status::InvalidArgument("seek key longer than clustered key");
  }
  return {std::make_unique<SnapshotIterator>(this, std::move(snap), self,
                                             prefix, std::move(stop),
                                             std::move(columns))};
}

void ClusteredTable::MarkAborted(uint64_t count) {
  MutexLock lock(&latch_);
  dead_rows_ += count;
}

uint64_t ClusteredTable::SweepAborted(const std::vector<TxnId>& aborted) {
  if (aborted.empty()) return 0;
  MutexLock lock(&latch_);
  // Sweep by stamp match alone — never gate on dead_rows_. The caller
  // retires an aborted id from the allocator's set right after this
  // sweep, so any entry it missed (say, an abort whose MarkAborted
  // accounting was lost) would become visible to every later snapshot
  // once Snapshot::Sees stops recognizing the id as aborted. A scan that
  // matches nothing is read-only and cheap.
  std::vector<std::tuple<Row, std::string, uint64_t>> keep;
  keep.reserve(tree_.size());
  uint64_t removed = 0;
  uint64_t removed_bytes = 0;
  for (BPlusTree::Cursor cur = tree_.First(); cur.Valid(); cur.Advance()) {
    if (std::binary_search(aborted.begin(), aborted.end(), cur.stamp())) {
      ++removed;
      LeafRef ref;
      if (DecodeLeafRef(cur.payload(), &ref).ok()) {
        removed_bytes += ref.length;
      }
      continue;
    }
    keep.emplace_back(cur.key(), cur.payload(), cur.stamp());
  }
  if (removed == 0) return 0;
  tree_.Clear();
  for (auto& [key, payload, stamp] : keep) {
    tree_.Insert(std::move(key), std::move(payload), stamp);
  }
  // The swept payload bytes stay as dead space in the leaf pages
  // (accounting only; the space is not reclaimed).
  payload_bytes_total_ -= std::min(payload_bytes_total_, removed_bytes);
  dead_rows_ -= std::min(dead_rows_, removed);
  return removed;
}

void ClusteredTable::Truncate() {
  MutexLock lock(&latch_);
  tree_.Clear();
  leaf_buf_.clear();
  payload_bytes_total_ = 0;
  dead_rows_ = 0;
  HTG_IGNORE_STATUS(backing_->DropTailPages(0));
}

}  // namespace htg::storage
