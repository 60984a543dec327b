// Lint fixture: workflow code appending to table storage directly instead
// of through Database::AppendBatch, skipping its validation, casts and
// FILESTREAM moves. NOT compiled; scanned only by `htg_lint.py
// --selftest`, which asserts each annotated rule fires.
#include "catalog/database.h"
#include "storage/heap_table.h"

namespace htg::workflow {

Status AppendBehindTheCatalog(Database* db, catalog::TableDef* def,
                              storage::HeapTable* heap, RowBatch* batch) {
  uint64_t n = 0;
  HTG_RETURN_IF_ERROR(def->table->AppendBatch(*batch, 0, &n));  // expect-lint: storage-append-seam
  HTG_RETURN_IF_ERROR(heap->AppendBatch(*batch, 0, &n));  // expect-lint: storage-append-seam
  // The one entry point does not fire.
  return db->AppendBatch(def, batch);
}

}  // namespace htg::workflow
