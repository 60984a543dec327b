#pragma once

#include <string>
#include <vector>

#include "common/result.h"
#include "common/slice.h"
#include "types/schema.h"
#include "types/value.h"

namespace htg::storage {

// Table compression levels, mirroring SQL Server 2008's
// `WITH (DATA_COMPRESSION = NONE | ROW | PAGE)`:
//
//  * kNone — fixed-width storage: INT is 4 bytes, BIGINT 8, CHAR(n) is blank
//    padded to n, variable strings carry a 4-byte length.
//  * kRow  — variable-length storage for numeric types and fixed-length
//    character strings (varints, trimmed CHAR), per the paper's §2.3.5.
//  * kPage — row compression plus per-page column-prefix and dictionary
//    compression, applied by PageBuilder over the rows sharing a page.
enum class Compression { kNone = 0, kRow = 1, kPage = 2 };

std::string_view CompressionName(Compression c);

// Encodes one field (without null information) at the given level.
// kPage fields use the kRow field encoding; the prefix/dictionary stage
// happens in PageBuilder over these encoded fields.
void EncodeField(const Column& column, const Value& value, Compression mode,
                 std::string* out);

// Decodes one field written by EncodeField into *value; a null `value`
// walks past the field with the same bounds checks. Returns the byte past
// the field or nullptr on corruption.
const char* DecodeField(const Column& column, Compression mode, const char* p,
                        const char* limit, Value* value);

// The column list of a full-width decode: every index of `schema`.
std::vector<int> AllColumns(const Schema& schema);

// Appends the encoding of a full row to `out`: null bitmap followed by
// the non-null fields. `value_at(c)` yields the row's value of schema
// column c, so rows encode straight from a Row or a RowBatch.
template <typename ValueAt>
void EncodeRowValues(const Schema& schema, ValueAt&& value_at,
                     Compression mode, std::string* out) {
  const int ncols = schema.num_columns();
  const size_t bitmap_offset = out->size();
  out->append((ncols + 7) / 8, '\0');
  for (int i = 0; i < ncols; ++i) {
    const Value& v = value_at(i);
    if (v.is_null()) {
      (*out)[bitmap_offset + i / 8] |= static_cast<char>(1 << (i % 8));
    } else {
      EncodeField(schema.column(i), v, mode, out);
    }
  }
}

// Encodes a full row (EncodeRowValues over `row`, width-checked).
Status EncodeRow(const Schema& schema, const Row& row, Compression mode,
                 std::string* out);

// Decodes the fields `columns` (ascending schema indexes) of a row written
// by EncodeRow into `row`, which ends up columns.size() wide. Skipped
// fields are walked, not materialised; the row's values are assigned in
// place, so a reused row keeps its string buffers.
Status DecodeRow(const Schema& schema, Compression mode, Slice data,
                 const std::vector<int>& columns, Row* row);

// Parses a canonical 36-char GUID into 16 raw bytes ("" on failure).
std::string GuidToBytes(const std::string& guid);
// Formats 16 raw bytes as a canonical GUID string.
std::string BytesToGuid(std::string_view bytes);

}  // namespace htg::storage

