#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/result.h"
#include "common/synchronization.h"

namespace htg::storage {

// Row-version MVCC primitives layered over the heap/clustered tables.
//
// The design exploits an invariant the server's lock manager already
// provides: write locks are held to commit, so at most one transaction
// writes a given table at a time, and therefore *commit order equals
// append order*. A heap never needs per-row begin/end stamps — the rows
// visible to a snapshot are always a prefix of the heap, described by a
// short list of (row-watermark, txn) ranges per table (MvccTableState).
// Clustered tables insert in key order, not append order, so their
// B+-tree entries carry a per-entry txn stamp instead.
//
// Aborts physically truncate heap tails (append-only undo) and logically
// hide clustered entries via the allocator's aborted set until a GC
// sweep rebuilds the tree without them.

// Process-wide transaction id. 0 is reserved for "frozen" rows — rows
// that predate MVCC tracking (library-mode inserts, recovered data) and
// are visible to every snapshot.
using TxnId = uint64_t;
inline constexpr TxnId kFrozenTxn = 0;

// A consistent point-in-time view: every txn id allocated before `next`
// is visible unless it was still active (or already aborted) when the
// snapshot was taken. Self-visibility is the caller's job: a transaction
// never "sees" itself through its own snapshot.
struct Snapshot {
  TxnId next = 0;
  std::vector<TxnId> active;   // sorted, ids < next
  std::vector<TxnId> aborted;  // sorted, ids < next, not yet swept

  bool Sees(TxnId id) const {
    if (id == kFrozenTxn) return true;
    if (id >= next) return false;
    return !std::binary_search(active.begin(), active.end(), id) &&
           !std::binary_search(aborted.begin(), aborted.end(), id);
  }

  bool valid() const { return next != kFrozenTxn; }

  // Sees every stamp, committed or not: the view of readers outside any
  // transaction (ExecContext's default, ClusteredTable::NewScan). A
  // heap's visible prefix under it still ends at the last committed
  // watermark while a writer is pending (MvccTableState::VisibleRows).
  static const Snapshot& All();
};

// Process-wide transaction-id allocator and active-set tracker. One per
// Database; sessions and the engine's implicit per-statement transactions
// share it.
class TxnManager {
 public:
  struct BeginResult {
    TxnId id = kFrozenTxn;
    Snapshot snapshot;
  };

  // Allocates a txn id and takes its snapshot atomically. The new txn is
  // in its own snapshot's active list (Sees(self) is false by design).
  BeginResult Begin();

  // Snapshot without starting a transaction (diagnostics only: the
  // returned view is not pinned against GC).
  Snapshot TakeSnapshot() const;

  void Commit(TxnId id);
  void Abort(TxnId id);

  bool IsAborted(TxnId id) const;

  // Sorted ids of aborted-but-unswept txns — what the clustered GC sweep
  // removes from trees before TrimAbortedBelow retires them.
  std::vector<TxnId> AbortedSet() const;

  // Every txn id below the horizon is settled (committed or aborted) for
  // every live snapshot: no active txn, and no snapshot held by an active
  // txn, can distinguish it from frozen history. The GC sweeps below this.
  TxnId Horizon() const;

  // Drops aborted ids < `horizon` from the set once their stamped rows
  // have been physically swept from every table.
  void TrimAbortedBelow(TxnId horizon);

  // Completed (committed + aborted) txns since the last GC sweep; the
  // opportunistic sweep trigger reads and resets it.
  uint64_t TakeCompletedSinceSweep();

  uint64_t active_count() const;

 private:
  mutable Mutex mu_;
  TxnId next_ HTG_GUARDED_BY(mu_) = 1;
  // Active txn id -> the low bound of its snapshot (the smallest txn id
  // it can still consider in-flight). The horizon is the min over these.
  std::vector<std::pair<TxnId, TxnId>> active_ HTG_GUARDED_BY(mu_);
  std::vector<TxnId> aborted_ HTG_GUARDED_BY(mu_);  // sorted
  uint64_t completed_since_sweep_ HTG_GUARDED_BY(mu_) = 0;
};

// Per-table MVCC bookkeeping: which row-count watermarks were published
// by which transactions. Because write locks serialize writers per table,
// the committed history is a monotone sequence of (upto_rows, txn)
// ranges; a snapshot's visible row count is the longest prefix of ranges
// whose txns it sees.
class MvccTableState {
 public:
  // Registers `txn` as the table's writer. `current_rows` is the row
  // count at first write — the undo target if the txn aborts. Folds any
  // untracked rows (library-mode inserts bypassing the txn layer) into
  // the frozen base first. Fails kAborted if another writer is already
  // pending (impossible under the server's write locks; in library mode
  // the second writer must retry once the first finishes).
  Status BeginWrite(TxnId txn, uint64_t current_rows);

  // Publishes the writer's watermark. Call before TxnManager::Commit so
  // the range is in place the moment the txn id becomes visible.
  void CommitWrite(TxnId txn, uint64_t rows_now);

  // The row count a heap must truncate back to if `txn` aborts. Read it
  // and truncate BEFORE AbortWrite: while the pending marker is still
  // set, VisibleRows keeps hiding the doomed tail from every reader.
  uint64_t AbortTarget(TxnId txn) const;

  // Abandons the pending write; returns the row count to truncate back
  // to (heap) — the clustered path instead hides the txn's stamps via
  // the aborted set. Returns current row count if no write was pending.
  uint64_t AbortWrite(TxnId txn);

  // Rows of this table visible to `snap`, given the table currently
  // holds `current_rows` rows. `self` (the caller's txn id, or
  // kFrozenTxn) sees its own pending writes in full.
  uint64_t VisibleRows(const Snapshot& snap, TxnId self,
                       uint64_t current_rows) const;

  // The id of the most recent committed writer (kFrozenTxn if none since
  // the last GC collapse) — the first-writer-wins conflict probe.
  TxnId LastCommittedWriter() const;

  TxnId PendingWriter() const;

  // TRUNCATE drops every version; history restarts from zero rows.
  void ResetForTruncate();

  // Collapses committed ranges whose txn is below `horizon` into the
  // frozen base. Returns the number of ranges retired.
  size_t CollapseBelow(TxnId horizon);

 private:
  struct Range {
    uint64_t upto_rows = 0;  // rows [prev.upto_rows, upto_rows) ...
    TxnId txn = kFrozenTxn;  // ... were committed by this txn
  };

  mutable Mutex mu_;
  // Rows below this count are visible to everyone (pre-MVCC history and
  // GC-collapsed ranges).
  uint64_t frozen_rows_ HTG_GUARDED_BY(mu_) = 0;
  std::vector<Range> ranges_ HTG_GUARDED_BY(mu_);  // monotone upto_rows
  TxnId pending_txn_ HTG_GUARDED_BY(mu_) = kFrozenTxn;
  uint64_t pending_start_rows_ HTG_GUARDED_BY(mu_) = 0;
};

}  // namespace htg::storage
