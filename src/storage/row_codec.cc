#include "storage/row_codec.h"

#include <cstring>

#include "common/string_util.h"
#include "common/varint.h"

namespace htg::storage {

namespace {

void PutFixed32(std::string* dst, uint32_t v) {
  char buf[4];
  memcpy(buf, &v, 4);
  dst->append(buf, 4);
}

const char* GetFixed32(const char* p, const char* limit, uint32_t* v) {
  if (limit - p < 4) return nullptr;
  memcpy(v, p, 4);
  return p + 4;
}

void PutFixed64(std::string* dst, uint64_t v) {
  char buf[8];
  memcpy(buf, &v, 8);
  dst->append(buf, 8);
}

const char* GetFixed64(const char* p, const char* limit, uint64_t* v) {
  if (limit - p < 8) return nullptr;
  memcpy(v, p, 8);
  return p + 8;
}

// Expands ASCII text to UTF-16LE (the NVARCHAR on-disk form).
void AppendUtf16(std::string_view s, std::string* out) {
  // std::string's reserve grows geometrically, unlike std::vector's.
  out->reserve(out->size() + s.size() * 2);  // NOLINT(htg-exact-reserve)
  for (char c : s) {
    out->push_back(c);
    out->push_back('\0');
  }
}

// Collapses UTF-16LE back to ASCII text.
std::string FromUtf16(std::string_view wide) {
  std::string out;
  out.reserve(wide.size() / 2);
  for (size_t i = 0; i + 1 < wide.size(); i += 2) {
    out.push_back(wide[i]);
  }
  return out;
}

int HexDigit(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  return -1;
}

}  // namespace

std::string_view CompressionName(Compression c) {
  switch (c) {
    case Compression::kNone:
      return "NONE";
    case Compression::kRow:
      return "ROW";
    case Compression::kPage:
      return "PAGE";
  }
  return "?";
}

std::string GuidToBytes(const std::string& guid) {
  std::string out;
  out.reserve(16);
  int hi = -1;
  for (char c : guid) {
    if (c == '-') continue;
    const int d = HexDigit(c);
    if (d < 0) return "";
    if (hi < 0) {
      hi = d;
    } else {
      out.push_back(static_cast<char>((hi << 4) | d));
      hi = -1;
    }
  }
  if (out.size() != 16 || hi >= 0) return "";
  return out;
}

std::string BytesToGuid(std::string_view bytes) {
  static const char* kHex = "0123456789abcdef";
  std::string out;
  out.reserve(36);
  for (size_t i = 0; i < bytes.size(); ++i) {
    if (i == 4 || i == 6 || i == 8 || i == 10) out.push_back('-');
    const unsigned char b = static_cast<unsigned char>(bytes[i]);
    out.push_back(kHex[b >> 4]);
    out.push_back(kHex[b & 0xf]);
  }
  return out;
}

void EncodeField(const Column& column, const Value& value, Compression mode,
                 std::string* out) {
  const bool compact = mode != Compression::kNone;
  switch (column.type) {
    case DataType::kBool:
      out->push_back(value.AsBool() ? 1 : 0);
      return;
    case DataType::kInt32:
      if (compact) {
        PutVarintSigned64(out, value.AsInt64());
      } else {
        PutFixed32(out, static_cast<uint32_t>(value.AsInt64()));
      }
      return;
    case DataType::kInt64:
      if (compact) {
        PutVarintSigned64(out, value.AsInt64());
      } else {
        PutFixed64(out, static_cast<uint64_t>(value.AsInt64()));
      }
      return;
    case DataType::kDouble: {
      uint64_t bits;
      const double d = value.AsDouble();
      memcpy(&bits, &d, 8);
      PutFixed64(out, bits);
      return;
    }
    case DataType::kString: {
      const std::string& s = value.AsString();
      if (column.fixed_length > 0 && !compact) {
        // CHAR(n): blank-pad (or truncate) to the declared width.
        std::string padded = s.substr(0, column.fixed_length);
        padded.resize(column.fixed_length, ' ');
        if (column.utf16) {
          AppendUtf16(padded, out);
        } else {
          out->append(padded);
        }
        return;
      }
      std::string_view body = s;
      if (column.fixed_length > 0 && compact) {
        // ROW compression stores fixed-length character data trimmed.
        size_t end = std::min<size_t>(s.size(), column.fixed_length);
        while (end > 0 && s[end - 1] == ' ') --end;
        body = std::string_view(s).substr(0, end);
      }
      // NVARCHAR stores two bytes per character (no Unicode compression
      // in SQL Server 2008).
      std::string wide;
      if (column.utf16) {
        AppendUtf16(body, &wide);
        body = wide;
      }
      if (compact) {
        PutLengthPrefixed(out, body);
      } else {
        PutFixed32(out, static_cast<uint32_t>(body.size()));
        out->append(body);
      }
      return;
    }
    case DataType::kBlob: {
      const std::string& s = value.AsString();
      if (compact) {
        PutLengthPrefixed(out, s);
      } else {
        PutFixed32(out, static_cast<uint32_t>(s.size()));
        out->append(s);
      }
      return;
    }
    case DataType::kGuid: {
      const std::string bytes = GuidToBytes(value.AsString());
      if (bytes.size() == 16) {
        out->push_back(1);
        out->append(bytes);
      } else {
        // Non-canonical GUID text: store verbatim, length-prefixed.
        out->push_back(0);
        PutLengthPrefixed(out, value.AsString());
      }
      return;
    }
  }
}

const char* DecodeField(const Column& column, Compression mode, const char* p,
                        const char* limit, Value* value) {
  const bool compact = mode != Compression::kNone;
  switch (column.type) {
    case DataType::kBool: {
      if (p >= limit) return nullptr;
      if (value != nullptr) *value = Value::Bool(*p != 0);
      return p + 1;
    }
    case DataType::kInt32:
    case DataType::kInt64: {
      int64_t v = 0;
      if (compact) {
        p = GetVarintSigned64(p, limit, &v);
      } else if (column.type == DataType::kInt32) {
        uint32_t fixed = 0;
        p = GetFixed32(p, limit, &fixed);
        v = static_cast<int32_t>(fixed);
      } else {
        uint64_t fixed = 0;
        p = GetFixed64(p, limit, &fixed);
        v = static_cast<int64_t>(fixed);
      }
      if (p == nullptr) return nullptr;
      if (value != nullptr) {
        *value = column.type == DataType::kInt32
                     ? Value::Int32(static_cast<int32_t>(v))
                     : Value::Int64(v);
      }
      return p;
    }
    case DataType::kDouble: {
      uint64_t bits = 0;
      p = GetFixed64(p, limit, &bits);
      if (p == nullptr) return nullptr;
      if (value != nullptr) {
        double d;
        memcpy(&d, &bits, 8);
        *value = Value::Double(d);
      }
      return p;
    }
    case DataType::kString:
    case DataType::kBlob: {
      std::string_view body;
      if (column.type == DataType::kString && column.fixed_length > 0 &&
          !compact) {
        const int width =
            column.utf16 ? column.fixed_length * 2 : column.fixed_length;
        if (limit - p < width) return nullptr;
        body = std::string_view(p, width);
        p += width;
      } else if (compact) {
        p = GetLengthPrefixed(p, limit, &body);
        if (p == nullptr) return nullptr;
      } else {
        uint32_t len = 0;
        p = GetFixed32(p, limit, &len);
        if (p == nullptr || static_cast<uint32_t>(limit - p) < len) {
          return nullptr;
        }
        body = std::string_view(p, len);
        p += len;
      }
      if (value == nullptr) return p;
      if (column.type == DataType::kString && column.utf16) {
        *value = Value::String(FromUtf16(body));
      } else {
        value->AssignString(column.type, body);
      }
      return p;
    }
    case DataType::kGuid: {
      if (p >= limit) return nullptr;
      const char tag = *p++;
      if (tag == 1) {
        if (limit - p < 16) return nullptr;
        if (value != nullptr) {
          *value = Value::Guid(BytesToGuid(std::string_view(p, 16)));
        }
        return p + 16;
      }
      std::string_view body;
      p = GetLengthPrefixed(p, limit, &body);
      if (p == nullptr) return nullptr;
      if (value != nullptr) value->AssignString(DataType::kGuid, body);
      return p;
    }
  }
  return nullptr;
}

namespace {

// Walks past one field without materialising it, making every bounds
// check DecodeField makes: a skipped field that is truncated or overruns
// the row is corruption just like a decoded one.
const char* SkipField(const Column& column, Compression mode, const char* p,
                      const char* limit) {
  return DecodeField(column, mode, p, limit, nullptr);
}

}  // namespace

std::vector<int> AllColumns(const Schema& schema) {
  std::vector<int> columns(static_cast<size_t>(schema.num_columns()));
  for (size_t i = 0; i < columns.size(); ++i) {
    columns[i] = static_cast<int>(i);
  }
  return columns;
}

Status EncodeRow(const Schema& schema, const Row& row, Compression mode,
                 std::string* out) {
  const int ncols = schema.num_columns();
  if (static_cast<int>(row.size()) != ncols) {
    return Status::Internal(StringPrintf(
        "row width %zu does not match schema width %d", row.size(), ncols));
  }
  EncodeRowValues(
      schema, [&](int c) -> const Value& { return row[c]; }, mode, out);
  return Status::OK();
}

Status DecodeRow(const Schema& schema, Compression mode, Slice data,
                 const std::vector<int>& columns, Row* row) {
  const int ncols = schema.num_columns();
  const int bitmap_bytes = (ncols + 7) / 8;
  if (static_cast<int>(data.size()) < bitmap_bytes) {
    return Status::Corruption("row shorter than null bitmap");
  }
  const char* bitmap = data.data();
  const char* p = data.data() + bitmap_bytes;
  const char* limit = data.data() + data.size();
  // Assign into the row's existing values so their string buffers are
  // reused; every field is walked, kept or not, so the whole image is
  // bounds-checked.
  row->resize(columns.size());
  size_t k = 0;
  for (int i = 0; i < ncols; ++i) {
    const bool keep = k < columns.size() && columns[k] == i;
    const bool is_null = (bitmap[i / 8] >> (i % 8)) & 1;
    if (is_null) {
      if (keep) (*row)[k++] = Value::Null();
      continue;
    }
    p = keep ? DecodeField(schema.column(i), mode, p, limit, &(*row)[k++])
             : SkipField(schema.column(i), mode, p, limit);
    if (p == nullptr) {
      return Status::Corruption("truncated field in row: " +
                                schema.column(i).name);
    }
  }
  if (k != columns.size()) {
    return Status::Internal("decode column list is not ascending in range");
  }
  return Status::OK();
}

}  // namespace htg::storage
