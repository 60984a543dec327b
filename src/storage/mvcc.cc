#include "storage/mvcc.h"

#include <limits>

#include "common/metrics.h"

namespace htg::storage {

const Snapshot& Snapshot::All() {
  static const Snapshot all{std::numeric_limits<TxnId>::max(), {}, {}};
  return all;
}

TxnManager::BeginResult TxnManager::Begin() {
  MutexLock lock(&mu_);
  BeginResult out;
  out.id = next_++;
  out.snapshot.next = next_;
  out.snapshot.active.reserve(active_.size() + 1);
  TxnId low = out.id;
  for (const auto& [id, snap_low] : active_) {
    out.snapshot.active.push_back(id);
    low = std::min(low, id);
  }
  out.snapshot.active.push_back(out.id);  // already sorted: ids ascend
  out.snapshot.aborted = aborted_;
  active_.emplace_back(out.id, low);
  HTG_METRIC_COUNTER("txn.begun")->Add(1);
  return out;
}

Snapshot TxnManager::TakeSnapshot() const {
  MutexLock lock(&mu_);
  Snapshot snap;
  snap.next = next_;
  snap.active.reserve(active_.size());
  for (const auto& [id, low] : active_) snap.active.push_back(id);
  snap.aborted = aborted_;
  return snap;
}

void TxnManager::Commit(TxnId id) {
  MutexLock lock(&mu_);
  for (auto it = active_.begin(); it != active_.end(); ++it) {
    if (it->first == id) {
      active_.erase(it);
      break;
    }
  }
  ++completed_since_sweep_;
  HTG_METRIC_COUNTER("txn.committed")->Add(1);
}

void TxnManager::Abort(TxnId id) {
  MutexLock lock(&mu_);
  for (auto it = active_.begin(); it != active_.end(); ++it) {
    if (it->first == id) {
      active_.erase(it);
      break;
    }
  }
  aborted_.insert(std::lower_bound(aborted_.begin(), aborted_.end(), id), id);
  ++completed_since_sweep_;
  HTG_METRIC_COUNTER("txn.aborted")->Add(1);
}

bool TxnManager::IsAborted(TxnId id) const {
  MutexLock lock(&mu_);
  return std::binary_search(aborted_.begin(), aborted_.end(), id);
}

std::vector<TxnId> TxnManager::AbortedSet() const {
  MutexLock lock(&mu_);
  return aborted_;
}

TxnId TxnManager::Horizon() const {
  MutexLock lock(&mu_);
  TxnId horizon = next_;
  for (const auto& [id, low] : active_) horizon = std::min(horizon, low);
  return horizon;
}

void TxnManager::TrimAbortedBelow(TxnId horizon) {
  MutexLock lock(&mu_);
  aborted_.erase(
      aborted_.begin(),
      std::lower_bound(aborted_.begin(), aborted_.end(), horizon));
}

uint64_t TxnManager::TakeCompletedSinceSweep() {
  MutexLock lock(&mu_);
  const uint64_t n = completed_since_sweep_;
  completed_since_sweep_ = 0;
  return n;
}

uint64_t TxnManager::active_count() const {
  MutexLock lock(&mu_);
  return active_.size();
}

Status MvccTableState::BeginWrite(TxnId txn, uint64_t current_rows) {
  MutexLock lock(&mu_);
  if (pending_txn_ != kFrozenTxn && pending_txn_ != txn) {
    return Status::Aborted("table already has a pending writer transaction");
  }
  if (pending_txn_ == txn) return Status::OK();  // second write, same txn
  // Fold untracked (library-mode) rows into the frozen base: they were
  // inserted outside any transaction and are committed by definition.
  const uint64_t tracked =
      ranges_.empty() ? frozen_rows_ : ranges_.back().upto_rows;
  if (current_rows > tracked) {
    if (ranges_.empty()) {
      frozen_rows_ = current_rows;
    } else {
      ranges_.back().upto_rows = current_rows;
    }
  }
  pending_txn_ = txn;
  pending_start_rows_ = current_rows;
  return Status::OK();
}

void MvccTableState::CommitWrite(TxnId txn, uint64_t rows_now) {
  MutexLock lock(&mu_);
  if (pending_txn_ != txn) return;
  if (rows_now > pending_start_rows_) {
    ranges_.push_back(Range{rows_now, txn});
  }
  pending_txn_ = kFrozenTxn;
  pending_start_rows_ = 0;
}

uint64_t MvccTableState::AbortTarget(TxnId txn) const {
  MutexLock lock(&mu_);
  if (pending_txn_ != txn) {
    return ranges_.empty() ? frozen_rows_ : ranges_.back().upto_rows;
  }
  return pending_start_rows_;
}

uint64_t MvccTableState::AbortWrite(TxnId txn) {
  MutexLock lock(&mu_);
  if (pending_txn_ != txn) {
    return ranges_.empty() ? frozen_rows_ : ranges_.back().upto_rows;
  }
  const uint64_t target = pending_start_rows_;
  pending_txn_ = kFrozenTxn;
  pending_start_rows_ = 0;
  return target;
}

uint64_t MvccTableState::VisibleRows(const Snapshot& snap, TxnId self,
                                     uint64_t current_rows) const {
  MutexLock lock(&mu_);
  if (self != kFrozenTxn && pending_txn_ == self) {
    // The table's writer sees everything: first-writer-wins guarantees
    // every committed row is in its snapshot, and its own appends are
    // the only uncommitted ones.
    return current_rows;
  }
  uint64_t visible = frozen_rows_;
  for (const Range& r : ranges_) {
    if (!(snap.Sees(r.txn) || r.txn == self)) break;
    visible = r.upto_rows;
  }
  // Untracked rows beyond the watermarks (library-mode inserts) are
  // committed-by-definition, but only extend visibility when every
  // tracked range below them is visible too (prefix semantics).
  const uint64_t tracked =
      ranges_.empty() ? frozen_rows_ : ranges_.back().upto_rows;
  if (pending_txn_ == kFrozenTxn && visible == tracked &&
      current_rows > tracked) {
    visible = current_rows;
  }
  return visible;
}

TxnId MvccTableState::LastCommittedWriter() const {
  MutexLock lock(&mu_);
  return ranges_.empty() ? kFrozenTxn : ranges_.back().txn;
}

TxnId MvccTableState::PendingWriter() const {
  MutexLock lock(&mu_);
  return pending_txn_;
}

void MvccTableState::ResetForTruncate() {
  MutexLock lock(&mu_);
  frozen_rows_ = 0;
  ranges_.clear();
  pending_txn_ = kFrozenTxn;
  pending_start_rows_ = 0;
}

size_t MvccTableState::CollapseBelow(TxnId horizon) {
  MutexLock lock(&mu_);
  size_t retired = 0;
  while (!ranges_.empty() && ranges_.front().txn < horizon) {
    frozen_rows_ = ranges_.front().upto_rows;
    ranges_.erase(ranges_.begin());
    ++retired;
  }
  return retired;
}

}  // namespace htg::storage
