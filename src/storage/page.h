#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "common/slice.h"
#include "storage/row_codec.h"
#include "types/row_batch.h"
#include "types/schema.h"
#include "types/value.h"

namespace htg::storage {

// Storage-engine page size (matches SQL Server's 8 KiB pages).
inline constexpr size_t kDefaultPageSize = 8192;

// Every serialized page carries a CRC32C trailer (PAGE_VERIFY CHECKSUM):
// PageBuilder::Finish appends it, PageReader::Init verifies it and returns
// Status::Corruption on any mismatch — torn pages and bit flips are typed
// errors, never undefined behaviour at decode time.
inline constexpr size_t kPageChecksumBytes = 4;

// Accumulates rows for one page and serializes it.
//
// For NONE and ROW compression the page is a simple row stream. For PAGE
// compression the builder buffers the ROW-encoded fields of each row and,
// at Finish(), applies per-column common-prefix extraction and (when it
// pays off) per-column dictionary encoding — the "row, prefix, and
// dictionary compression over several rows" of the paper's §2.3.5. The
// dictionary scope is one page, which is exactly why page compression is
// effective on repetitive DGE tags and weak on nearly-unique 1000-Genomes
// reads (paper §5.1.2).
//
// Rows go into arenas that keep their capacity across pages, so adding
// one allocates nothing once a page or two is built. Finish() builds
// each column's dictionary in an open-addressing table, hashing every
// entry once and assigning ids in first-seen order.
class PageBuilder {
 public:
  PageBuilder(const Schema* schema, Compression mode,
              size_t page_size = kDefaultPageSize);

  // Adds physical row `r` of `batch` (schema-wide). Callers should check
  // ShouldFlush() after each Add.
  Status Add(const RowBatch& batch, size_t r);

  // True once the buffered (pre-page-compression) bytes reach the page size.
  bool ShouldFlush() const { return raw_bytes_ >= page_size_; }

  int row_count() const { return row_count_; }
  bool empty() const { return row_count_ == 0; }
  size_t raw_bytes() const { return raw_bytes_; }

  // Serializes the page and resets the builder for the next page.
  std::string Finish();

 private:
  static constexpr uint32_t kFree = ~uint32_t{0};
  // One dictionary slot: an entry's cached hash and its id.
  struct Slot {
    uint32_t hash = 0;
    uint32_t id = kFree;
  };

  void FinishColumn(int c, std::string* page);

  const Schema* schema_;
  Compression mode_;
  size_t page_size_;

  // NONE/ROW: the row stream, each row's encoding length-prefixed.
  std::string rows_;
  std::string row_scratch_;  // one row's encoding
  // PAGE: the rows' null bitmaps back to back; per column, its non-NULL
  // ROW-encoded fields back to back and the end offset of each.
  std::string bitmaps_;
  std::vector<std::string> fields_;
  std::vector<std::vector<uint32_t>> field_ends_;
  // Finish() scratch: the dictionary's slots, each entry's id and the
  // distinct suffixes in id order.
  std::vector<Slot> slots_;
  std::vector<uint32_t> ids_;
  std::vector<std::string_view> dict_;

  int row_count_ = 0;
  size_t raw_bytes_ = 0;
};

// Iterates the rows of one serialized page, decoding only the schema
// columns in `columns` (ascending indexes; AllColumns for full rows).
// Rows come out columns.size() wide.
class PageReader {
 public:
  PageReader(const Schema* schema, Slice page, std::vector<int> columns);

  // Parses the page header (and for PAGE compression, reconstructs the
  // kept columns of every row; skipped columns are walked, not decoded).
  Status Init();

  // Fetches the next row; returns false at end of page. `row`'s values
  // are overwritten in place (NONE/ROW) or swapped out for the decoded
  // row (PAGE).
  bool Next(Row* row);

  Status status() const { return status_; }
  int row_count() const { return row_count_; }

 private:
  Status InitPageCompressed(const char* p, const char* limit);

  const Schema* schema_;
  Slice page_;
  std::vector<int> columns_;
  Compression mode_ = Compression::kNone;
  int row_count_ = 0;
  int next_row_ = 0;
  const char* cursor_ = nullptr;
  const char* limit_ = nullptr;
  // PAGE mode: eagerly reconstructed rows, each emitted once.
  std::vector<Row> decoded_;
  Status status_;
};

}  // namespace htg::storage

