#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "storage/table.h"
#include "storage/tablespace.h"
#include "types/value.h"

namespace htg::storage {

// Spill-run storage for memory-governed operators (external sort, hash
// aggregate / hash join partition spills). Runs are sequences of rows
// written as checksummed pages through a TableSpace TableFile, so spilled
// bytes ride the same BufferPool + WAL-ordered write-back path as table
// pages: CRC32C trailers verified on re-read, injected VFS faults surface
// as typed statuses, and the file is deleted with its TableFile.
//
// Page layout (self-contained, like every engine page):
//   [varint row_count] [row records...] [4-byte CRC32C trailer]
// Row records are self-describing (a column count, then each value's kind
// tag, type and bytes), so readers need no schema — operators spill
// heterogeneous (keys ++ payload) rows freely.

// Target payload bytes per spill page. Larger than table pages: spill
// I/O is sequential, and fewer pages mean fewer WAL records.
inline constexpr size_t kSpillPageBytes = 64 * 1024;

// One run: the rows one writer sealed, in write order. Pages are listed
// (not a contiguous range) because several partition writers interleave
// their pages in one shared file.
struct SpillRun {
  std::vector<uint64_t> pages;
  uint64_t rows = 0;
  // Encoded record bytes (excludes page headers/trailers).
  uint64_t bytes = 0;
};

// Owns the spill TableFile of one operator. Destroying the SpillFile
// deletes the file (TableFile semantics) — spill data never outlives the
// statement, even on error paths.
class SpillFile {
 public:
  static Result<std::unique_ptr<SpillFile>> Create(TableSpace* space,
                                                   const std::string& label);

  TableFile* file() { return file_.get(); }

  // Writes back every dirty page now, so injected write faults fail the
  // owning statement instead of hiding in background eviction.
  Status Flush() { return file_->Flush(); }

 private:
  explicit SpillFile(std::unique_ptr<TableFile> file)
      : file_(std::move(file)) {}

  std::unique_ptr<TableFile> file_;
};

// Accumulates rows into pages and appends them to the shared file. One
// writer per run; callers serialize writers that share a file (the
// TableFile single-writer contract).
class SpillRunWriter {
 public:
  explicit SpillRunWriter(SpillFile* file, size_t page_bytes = kSpillPageBytes)
      : file_(file), page_bytes_(page_bytes) {}

  // Appends row `row` of `columns` (columns[c][row] for every c) as one
  // record.
  Status Add(const std::vector<std::vector<Value>>& columns, size_t row);

  // Seals the buffered tail page and returns the finished run. The
  // writer is spent afterwards. Ticks exec.spill.runs / exec.spill.bytes.
  Result<SpillRun> Finish();

  // Rows added so far, counting those still buffered in the open page —
  // callers use rows() == 0 to skip never-used writers at Finish time.
  uint64_t rows() const { return run_.rows + buf_rows_; }

 private:
  Status SealPage();

  SpillFile* file_;
  size_t page_bytes_;
  std::string buf_;  // encoded records of the open page
  uint64_t buf_rows_ = 0;
  SpillRun run_;
};

// Streams one run back in batches, pinning pages through the buffer pool
// (CRC verified on any miss fill). Records decode straight into the
// batch's retained value slots; a batch is as wide as its records.
class SpillRunReader : public RowIterator {
 public:
  SpillRunReader(SpillFile* file, SpillRun run)
      : file_(file), run_(std::move(run)) {}

  bool NextBatch(RowBatch* batch) override;
  Status status() const override { return status_; }

 private:
  bool LoadNextPage();

  SpillFile* file_;
  SpillRun run_;
  size_t next_page_index_ = 0;
  PageGuard guard_;
  const char* pos_ = nullptr;
  const char* limit_ = nullptr;
  uint64_t page_rows_left_ = 0;
  Status status_;
};

}  // namespace htg::storage
