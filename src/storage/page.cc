#include "storage/page.h"

#include <algorithm>
#include <functional>

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

}  // namespace

PageBuilder::PageBuilder(const Schema* schema, Compression mode,
                         size_t page_size)
    : schema_(schema), mode_(mode), page_size_(page_size) {
  if (mode_ == Compression::kPage) {
    fields_.resize(schema_->num_columns());
    field_ends_.resize(schema_->num_columns());
  }
}

Status PageBuilder::Add(const RowBatch& batch, size_t r) {
  const int ncols = schema_->num_columns();
  if (static_cast<int>(batch.num_columns()) != ncols) {
    return Status::Internal("batch width does not match schema");
  }
  if (mode_ != Compression::kPage) {
    row_scratch_.clear();
    EncodeRowValues(
        *schema_, [&](int c) -> const Value& { return batch.column(c)[r]; },
        mode_, &row_scratch_);
    PutLengthPrefixed(&rows_, row_scratch_);
    raw_bytes_ += row_scratch_.size() + VarintLength(row_scratch_.size());
  } else {
    // Each column counts its field plus one byte (a NULL counts one),
    // then the row's bitmap: the flush boundaries depend on it.
    const size_t bitmap_at = bitmaps_.size();
    bitmaps_.append((ncols + 7) / 8, '\0');
    for (int c = 0; c < ncols; ++c) {
      const Value& v = batch.column(c)[r];
      if (v.is_null()) {
        bitmaps_[bitmap_at + c / 8] |= static_cast<char>(1 << (c % 8));
        raw_bytes_ += 1;
        continue;
      }
      std::string& arena = fields_[c];
      const size_t before = arena.size();
      EncodeField(schema_->column(c), v, Compression::kRow, &arena);
      field_ends_[c].push_back(static_cast<uint32_t>(arena.size()));
      raw_bytes_ += arena.size() - before + 1;
    }
    raw_bytes_ += (ncols + 7) / 8;
  }
  ++row_count_;
  return Status::OK();
}

std::string PageBuilder::Finish() {
  std::string page;
  page.reserve(raw_bytes_ + 16);
  page.push_back(static_cast<char>(mode_));
  PutU16(&page, static_cast<uint16_t>(row_count_));
  if (mode_ == Compression::kPage) {
    PutU16(&page, static_cast<uint16_t>(schema_->num_columns()));
    page.append(bitmaps_);  // null bitmaps, back to back
    for (int c = 0; c < schema_->num_columns(); ++c) FinishColumn(c, &page);
  } else {
    page.append(rows_);
  }
  // PAGE_VERIFY CHECKSUM: a CRC32C trailer over the whole page, so a torn
  // or bit-flipped page is a typed Status::Corruption at decode time, not
  // undefined behaviour.
  PutU32(&page, Crc32c(page));
  // The image lives on in the buffer pool at its exact size.
  page.shrink_to_fit();
  HTG_METRIC_COUNTER("page.build.ops")->Add(1);
  HTG_METRIC_COUNTER("page.build.bytes")->Add(page.size());
  rows_.clear();
  bitmaps_.clear();
  for (std::string& arena : fields_) arena.clear();
  for (std::vector<uint32_t>& ends : field_ends_) ends.clear();
  row_count_ = 0;
  raw_bytes_ = 0;
  return page;
}

// One column's section: a dictionary flag, the entries' common prefix,
// then either the distinct suffixes and each entry's id, or each
// entry's suffix — whichever is smaller.
void PageBuilder::FinishColumn(int c, std::string* page) {
  const std::string& arena = fields_[c];
  const std::vector<uint32_t>& ends = field_ends_[c];
  const size_t n = ends.size();
  auto entry = [&](size_t k) {
    const size_t begin = k == 0 ? 0 : ends[k - 1];
    return std::string_view(arena.data() + begin, ends[k] - begin);
  };
  const std::string_view first = n == 0 ? std::string_view() : entry(0);
  size_t prefix_len = first.size();
  for (size_t k = 1; k < n && prefix_len > 0; ++k) {
    const std::string_view e = entry(k);
    const size_t max = std::min(prefix_len, e.size());
    size_t j = 0;
    while (j < max && e[j] == first[j]) ++j;
    prefix_len = j;
  }
  size_t plain_cost = 0;
  for (size_t k = 0; k < n; ++k) {
    const size_t len = entry(k).size() - prefix_len;
    plain_cost += VarintLength(len) + len;
  }

  // The dictionary's cost only grows as entries are added (its entry
  // count's varint takes at least a byte), so the build stops as soon as
  // it can no longer beat the plain layout.
  size_t nslots = 16;
  while (nslots < 2 * n) nslots *= 2;
  slots_.assign(nslots, Slot());
  ids_.resize(n);
  dict_.clear();
  const size_t mask = nslots - 1;
  size_t dict_bytes = 0;  // distinct suffixes plus references so far
  bool use_dict = true;
  for (size_t k = 0; k < n && use_dict; ++k) {
    const std::string_view suffix = entry(k).substr(prefix_len);
    const auto hash =
        static_cast<uint32_t>(std::hash<std::string_view>()(suffix));
    size_t i = hash & mask;
    while (slots_[i].id != kFree &&
           (slots_[i].hash != hash || dict_[slots_[i].id] != suffix)) {
      i = (i + 1) & mask;
    }
    if (slots_[i].id == kFree) {
      slots_[i] = Slot{hash, static_cast<uint32_t>(dict_.size())};
      dict_.push_back(suffix);
      dict_bytes += VarintLength(suffix.size()) + suffix.size();
    }
    ids_[k] = slots_[i].id;
    dict_bytes += VarintLength(ids_[k]);
    use_dict = dict_bytes + 1 < plain_cost;
  }
  use_dict = use_dict && dict_bytes + VarintLength(dict_.size()) < plain_cost;

  page->push_back(use_dict ? 1 : 0);
  PutLengthPrefixed(page, first.substr(0, prefix_len));
  if (use_dict) {
    PutVarint64(page, dict_.size());
    for (std::string_view s : dict_) PutLengthPrefixed(page, s);
    for (size_t k = 0; k < n; ++k) PutVarint64(page, ids_[k]);
  } else {
    for (size_t k = 0; k < n; ++k) {
      PutLengthPrefixed(page, entry(k).substr(prefix_len));
    }
  }
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
