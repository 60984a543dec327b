#pragma once

#include <memory>
#include <string>
#include <vector>

#include "storage/mvcc.h"
#include "storage/table.h"
#include "types/schema.h"

namespace htg::catalog {

// Catalog entry for one table: logical definition plus physical storage.
struct TableDef {
  std::string name;
  Schema schema;
  // Clustered key column indexes; empty means the table is a heap.
  std::vector<int> clustered_key;
  storage::Compression compression = storage::Compression::kNone;
  std::unique_ptr<storage::TableStorage> table;
  // Per-table MVCC bookkeeping (writer watermarks, first-writer-wins
  // probe). Created by Database::CreateTable.
  std::unique_ptr<storage::MvccTableState> mvcc;

  bool HasFilestreamColumns() const {
    for (const Column& c : schema.columns()) {
      if (c.filestream) return true;
    }
    return false;
  }
};

}  // namespace htg::catalog

