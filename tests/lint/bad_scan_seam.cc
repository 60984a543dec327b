// Lint fixture: SQL code opening table scans directly instead of through
// TableScanOp, bypassing the statement's snapshot. NOT compiled; scanned
// only by `htg_lint.py --selftest`, which asserts each annotated rule fires.
#include "storage/clustered_table.h"
#include "storage/heap_table.h"

namespace htg::sql {

uint64_t CountBehindTheSnapshot(storage::HeapTable* heap,
                                storage::ClusteredTable* clustered,
                                const storage::Snapshot& snap) {
  auto all = heap->NewScan();  // expect-lint: exec-scan-seam
  auto range = heap->NewScanRange({0, 1, 0});  // expect-lint: exec-scan-seam
  auto keyed = clustered->NewSnapshotScan(snap, 0);  // expect-lint: exec-scan-seam
  return all != nullptr && range != nullptr && keyed != nullptr ? 3 : 0;
}

}  // namespace htg::sql
