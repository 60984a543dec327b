#pragma once

// A buffer pool plus tablespace for tests that construct HeapTable /
// ClusteredTable directly instead of through Database::CreateTable.
// Declare it before the tables it feeds: a table's file must be destroyed
// before the tablespace and pool it points into.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "storage/buffer_pool.h"
#include "storage/page.h"
#include "storage/table.h"
#include "storage/tablespace.h"
#include "storage/vfs.h"

namespace htg::storage {

class PooledStorage {
 public:
  // `root` is the spill directory; any files in it are swept.
  explicit PooledStorage(const std::string& root) {
    auto space = TableSpace::Open(Vfs::Default(), root, &pool_);
    EXPECT_TRUE(space.ok()) << space.status().ToString();
    if (space.ok()) space_ = std::move(*space);
  }

  // A fresh page file for one table.
  std::unique_ptr<TableFile> NewFile(const std::string& name) {
    auto file = space_->CreateTableFile(name);
    EXPECT_TRUE(file.ok()) << file.status().ToString();
    return file.ok() ? std::move(*file) : nullptr;
  }

 private:
  BufferPool pool_;
  std::unique_ptr<TableSpace> space_;
};

// Appends one row to `table` as a one-row batch stamped `stamp`.
inline Status AppendRow(TableStorage* table, Row row,
                        TxnId stamp = kFrozenTxn) {
  RowBatch batch(1);
  batch.AppendRow(std::move(row));
  uint64_t appended = 0;
  return table->AppendBatch(batch, stamp, &appended);
}

// Adds one row to `builder` through a one-row batch.
inline Status AddRow(PageBuilder* builder, const Row& row) {
  RowBatch batch(1);
  batch.AppendRow(Row(row));
  return builder->Add(batch, 0);
}

// Every row of a scan, drained batch by batch; a failed scan fails the
// calling test.
inline std::vector<Row> ScanRows(RowIterator* iter) {
  std::vector<Row> rows;
  RowBatch batch;
  while (iter->NextBatch(&batch)) {
    for (size_t i = 0; i < batch.ActiveRows(); ++i) {
      batch.FillRow(i, &rows.emplace_back());
    }
  }
  EXPECT_TRUE(iter->status().ok()) << iter->status().ToString();
  return rows;
}

}  // namespace htg::storage
