#include "storage/page.h"

#include <algorithm>
#include <map>

#include "common/crc32c.h"
#include "common/metrics.h"
#include "common/string_util.h"
#include "common/varint.h"

namespace htg::storage {

namespace {

void PutU16(std::string* dst, uint16_t v) {
  dst->push_back(static_cast<char>(v & 0xff));
  dst->push_back(static_cast<char>(v >> 8));
}

uint16_t GetU16(const char* p) {
  return static_cast<uint16_t>(static_cast<unsigned char>(p[0]) |
                               (static_cast<unsigned char>(p[1]) << 8));
}

void PutU32(std::string* dst, uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    dst->push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

uint32_t GetU32(const char* p) {
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<uint32_t>(static_cast<unsigned char>(p[i])) << (8 * i);
  }
  return v;
}

// Longest common prefix of a set of strings.
size_t CommonPrefixLength(const std::vector<const std::string*>& values) {
  if (values.empty()) return 0;
  size_t lcp = values[0]->size();
  for (size_t i = 1; i < values.size() && lcp > 0; ++i) {
    const std::string& s = *values[i];
    const size_t max = std::min(lcp, s.size());
    size_t j = 0;
    while (j < max && s[j] == (*values[0])[j]) ++j;
    lcp = j;
  }
  return lcp;
}

}  // namespace

PageBuilder::PageBuilder(const Schema* schema, Compression mode,
                         size_t page_size)
    : schema_(schema), mode_(mode), page_size_(page_size) {}

Status PageBuilder::Add(const Row& row) {
  const int ncols = schema_->num_columns();
  if (static_cast<int>(row.size()) != ncols) {
    return Status::Internal("row width does not match schema");
  }
  if (mode_ != Compression::kPage) {
    std::string encoded;
    HTG_RETURN_IF_ERROR(EncodeRow(*schema_, row, mode_, &encoded));
    raw_bytes_ += encoded.size() + VarintLength(encoded.size());
    encoded_rows_.push_back(std::move(encoded));
  } else {
    std::string bitmap((ncols + 7) / 8, '\0');
    std::vector<std::string> row_fields(ncols);
    for (int i = 0; i < ncols; ++i) {
      if (row[i].is_null()) {
        bitmap[i / 8] |= static_cast<char>(1 << (i % 8));
      } else {
        EncodeField(schema_->column(i), row[i], Compression::kRow,
                    &row_fields[i]);
      }
      raw_bytes_ += row_fields[i].size() + 1;
    }
    raw_bytes_ += bitmap.size();
    bitmaps_.push_back(std::move(bitmap));
    fields_.push_back(std::move(row_fields));
  }
  ++row_count_;
  return Status::OK();
}

std::string PageBuilder::Finish() {
  std::string page = mode_ == Compression::kPage ? FinishPageCompressed()
                                                 : FinishRowStream();
  // PAGE_VERIFY CHECKSUM: a CRC32C trailer over the whole page, so a torn
  // or bit-flipped page is a typed Status::Corruption at decode time, not
  // undefined behaviour.
  PutU32(&page, Crc32c(page));
  HTG_METRIC_COUNTER("page.build.ops")->Add(1);
  HTG_METRIC_COUNTER("page.build.bytes")->Add(page.size());
  encoded_rows_.clear();
  bitmaps_.clear();
  fields_.clear();
  row_count_ = 0;
  raw_bytes_ = 0;
  return page;
}

std::string PageBuilder::FinishRowStream() {
  std::string page;
  page.push_back(static_cast<char>(mode_));
  PutU16(&page, static_cast<uint16_t>(row_count_));
  for (const std::string& r : encoded_rows_) {
    PutLengthPrefixed(&page, r);
  }
  return page;
}

std::string PageBuilder::FinishPageCompressed() {
  const int ncols = schema_->num_columns();
  std::string page;
  page.push_back(static_cast<char>(Compression::kPage));
  PutU16(&page, static_cast<uint16_t>(row_count_));
  PutU16(&page, static_cast<uint16_t>(ncols));
  // Null bitmaps, back to back.
  for (const std::string& bm : bitmaps_) page.append(bm);

  for (int c = 0; c < ncols; ++c) {
    // Collect the encoded field of every non-null row in row order.
    std::vector<const std::string*> entries;
    entries.reserve(fields_.size());
    for (size_t r = 0; r < fields_.size(); ++r) {
      const bool is_null = (bitmaps_[r][c / 8] >> (c % 8)) & 1;
      if (!is_null) entries.push_back(&fields_[r][c]);
    }
    const size_t prefix_len = CommonPrefixLength(entries);
    const std::string prefix =
        entries.empty() ? std::string() : entries[0]->substr(0, prefix_len);

    // Candidate 1: dictionary of distinct suffixes.
    std::map<std::string_view, int> dict;
    size_t dict_entry_bytes = 0;
    for (const std::string* e : entries) {
      std::string_view suffix(*e);
      suffix.remove_prefix(prefix_len);
      auto [it, inserted] = dict.emplace(suffix, static_cast<int>(dict.size()));
      if (inserted) {
        dict_entry_bytes += VarintLength(suffix.size()) + suffix.size();
      }
    }
    size_t dict_ref_bytes = 0;
    for (const std::string* e : entries) {
      std::string_view suffix(*e);
      suffix.remove_prefix(prefix_len);
      dict_ref_bytes += VarintLength(dict.find(suffix)->second);
    }
    const size_t dict_cost = dict_entry_bytes + dict_ref_bytes +
                             VarintLength(dict.size());
    // Candidate 2: plain prefix-stripped suffixes.
    size_t plain_cost = 0;
    for (const std::string* e : entries) {
      const size_t n = e->size() - prefix_len;
      plain_cost += VarintLength(n) + n;
    }

    const bool use_dict = dict_cost < plain_cost;
    page.push_back(use_dict ? 1 : 0);
    PutLengthPrefixed(&page, prefix);
    if (use_dict) {
      PutVarint64(&page, dict.size());
      // Entries in id order.
      std::vector<std::string_view> by_id(dict.size());
      for (const auto& [suffix, id] : dict) by_id[id] = suffix;
      for (std::string_view s : by_id) PutLengthPrefixed(&page, s);
      for (const std::string* e : entries) {
        std::string_view suffix(*e);
        suffix.remove_prefix(prefix_len);
        PutVarint64(&page, dict.find(suffix)->second);
      }
    } else {
      for (const std::string* e : entries) {
        std::string_view suffix(*e);
        suffix.remove_prefix(prefix_len);
        PutLengthPrefixed(&page, suffix);
      }
    }
  }
  return page;
}

PageReader::PageReader(const Schema* schema, Slice page,
                       std::vector<int> columns)
    : schema_(schema), page_(page), columns_(std::move(columns)) {}

Status PageReader::Init() {
  // Verify the CRC32C trailer before trusting a single header byte: any
  // flipped bit anywhere in the page (including in the trailer itself)
  // surfaces here as Status::Corruption.
  if (page_.size() < 3 + kPageChecksumBytes) {
    return Status::Corruption("page too small");
  }
  const size_t body = page_.size() - kPageChecksumBytes;
  const uint32_t expected = GetU32(page_.data() + body);
  const uint32_t actual = Crc32c(page_.data(), body);
  if (expected != actual) {
    HTG_METRIC_COUNTER("page.checksum.failures")->Add(1);
    return Status::Corruption(StringPrintf(
        "page checksum mismatch (stored %08x, computed %08x)", expected,
        actual));
  }
  HTG_METRIC_COUNTER("page.read.ops")->Add(1);
  mode_ = static_cast<Compression>(page_[0]);
  if (mode_ != Compression::kNone && mode_ != Compression::kRow &&
      mode_ != Compression::kPage) {
    return Status::Corruption("page compression byte invalid");
  }
  row_count_ = GetU16(page_.data() + 1);
  if (mode_ == Compression::kPage) {
    return InitPageCompressed(page_.data() + 3, page_.data() + body);
  }
  cursor_ = page_.data() + 3;
  limit_ = page_.data() + body;
  return Status::OK();
}

Status PageReader::InitPageCompressed(const char* p, const char* limit) {
  if (limit - p < 2) return Status::Corruption("page header truncated");
  const int ncols = GetU16(p);
  p += 2;
  if (ncols != schema_->num_columns()) {
    return Status::Corruption("page column count does not match schema");
  }
  const int bitmap_bytes = (ncols + 7) / 8;
  if (limit - p < static_cast<ptrdiff_t>(row_count_) * bitmap_bytes) {
    return Status::Corruption("page bitmaps truncated");
  }
  const char* bitmaps = p;
  p += static_cast<size_t>(row_count_) * bitmap_bytes;

  decoded_.assign(row_count_, Row(columns_.size()));
  size_t k = 0;  // next entry of columns_
  std::string field;
  for (int c = 0; c < ncols; ++c) {
    // A skipped column is walked entry by entry with the same bounds
    // checks, but no field is assembled or decoded.
    const bool keep = k < columns_.size() && columns_[k] == c;
    if (p >= limit) return Status::Corruption("page column truncated");
    const bool use_dict = *p++ != 0;
    std::string_view prefix;
    p = GetLengthPrefixed(p, limit, &prefix);
    if (p == nullptr) return Status::Corruption("page prefix truncated");

    std::vector<std::string_view> dict_entries;
    if (use_dict) {
      uint64_t dict_size = 0;
      p = GetVarint64(p, limit, &dict_size);
      if (p == nullptr) return Status::Corruption("page dict truncated");
      dict_entries.resize(dict_size);
      for (uint64_t i = 0; i < dict_size; ++i) {
        p = GetLengthPrefixed(p, limit, &dict_entries[i]);
        if (p == nullptr) return Status::Corruption("page dict truncated");
      }
    }
    for (int r = 0; r < row_count_; ++r) {
      const char* bm = bitmaps + static_cast<size_t>(r) * bitmap_bytes;
      const bool is_null = (bm[c / 8] >> (c % 8)) & 1;
      if (is_null) {
        if (keep) decoded_[r][k] = Value::Null();
        continue;
      }
      std::string_view suffix;
      if (use_dict) {
        uint64_t id = 0;
        p = GetVarint64(p, limit, &id);
        if (p == nullptr || id >= dict_entries.size()) {
          return Status::Corruption("page dict reference corrupt");
        }
        suffix = dict_entries[id];
      } else {
        p = GetLengthPrefixed(p, limit, &suffix);
        if (p == nullptr) return Status::Corruption("page field truncated");
      }
      if (!keep) continue;
      field.assign(prefix);
      field.append(suffix);
      const char* end =
          DecodeField(schema_->column(c), Compression::kRow, field.data(),
                      field.data() + field.size(), &decoded_[r][k]);
      if (end == nullptr) {
        return Status::Corruption("page field undecodable: " +
                                  schema_->column(c).name);
      }
    }
    if (keep) ++k;
  }
  if (k != columns_.size()) {
    return Status::Internal("decode column list is not ascending in range");
  }
  return Status::OK();
}

bool PageReader::Next(Row* row) {
  if (!status_.ok()) return false;
  if (next_row_ >= row_count_) return false;
  if (mode_ == Compression::kPage) {
    row->swap(decoded_[next_row_++]);
    return true;
  }
  std::string_view encoded;
  cursor_ = GetLengthPrefixed(cursor_, limit_, &encoded);
  if (cursor_ == nullptr) {
    status_ = Status::Corruption("page row stream truncated");
    return false;
  }
  status_ = DecodeRow(*schema_, mode_, Slice(encoded), columns_, row);
  if (!status_.ok()) return false;
  ++next_row_;
  return true;
}

}  // namespace htg::storage
