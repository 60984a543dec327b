#include "storage/spill.h"

#include <cstring>

#include "common/crc32c.h"
#include "common/metrics.h"
#include "common/string_util.h"
#include "common/varint.h"
#include "storage/page.h"

namespace htg::storage {

namespace {

// Record kind tags (first byte of every value record).
constexpr char kTagNull = 0;
constexpr char kTagInt = 1;     // bool / int32 / int64, zig-zag varint
constexpr char kTagDouble = 2;  // 8 raw little-endian bytes
constexpr char kTagString = 3;  // string / blob / guid, length-prefixed

void PutFixed32(std::string* dst, uint32_t v) {
  dst->push_back(static_cast<char>(v & 0xff));
  dst->push_back(static_cast<char>((v >> 8) & 0xff));
  dst->push_back(static_cast<char>((v >> 16) & 0xff));
  dst->push_back(static_cast<char>((v >> 24) & 0xff));
}

Status Truncated() {
  return Status::Corruption("spill record truncated");
}

// Appends `v` in the record format.
void EncodeValue(const Value& v, std::string* out) {
  if (v.is_null()) {
    out->push_back(kTagNull);
    return;
  }
  out->push_back(v.IsIntegerKind()  ? kTagInt
                 : v.IsDoubleKind() ? kTagDouble
                                    : kTagString);
  out->push_back(static_cast<char>(v.type()));
  if (v.IsIntegerKind()) {
    PutVarintSigned64(out, v.AsInt64());
  } else if (v.IsDoubleKind()) {
    const double d = v.AsDouble();
    out->append(reinterpret_cast<const char*>(&d), sizeof(d));
  } else {
    PutLengthPrefixed(out, v.AsString());
  }
}

// Decodes one value from [*p, limit) into `v`, reusing its string buffer,
// and advances *p past it. Corruption on malformed input.
Status DecodeValue(const char** p, const char* limit, Value* v) {
  const char* cur = *p;
  if (cur >= limit) return Truncated();
  const char tag = *cur++;
  if (tag == kTagNull) {
    *v = Value::Null();
    *p = cur;
    return Status::OK();
  }
  if (cur >= limit) return Truncated();
  const auto type = static_cast<DataType>(*cur++);
  if (tag == kTagInt) {
    int64_t i = 0;
    cur = GetVarintSigned64(cur, limit, &i);
    if (cur == nullptr) return Truncated();
    *v = type == DataType::kBool    ? Value::Bool(i != 0)
         : type == DataType::kInt32 ? Value::Int32(static_cast<int32_t>(i))
                                    : Value::Int64(i);
  } else if (tag == kTagDouble) {
    double d = 0;
    if (limit - cur < static_cast<ptrdiff_t>(sizeof(d))) return Truncated();
    std::memcpy(&d, cur, sizeof(d));
    cur += sizeof(d);
    *v = Value::Double(d);
  } else if (tag == kTagString) {
    std::string_view s;
    cur = GetLengthPrefixed(cur, limit, &s);
    if (cur == nullptr) return Truncated();
    const bool binary = type == DataType::kBlob || type == DataType::kGuid;
    v->AssignString(binary ? type : DataType::kString, s);
  } else {
    return Status::Corruption(
        StringPrintf("spill record has unknown tag %d", tag));
  }
  *p = cur;
  return Status::OK();
}

}  // namespace

Result<std::unique_ptr<SpillFile>> SpillFile::Create(
    TableSpace* space, const std::string& label) {
  if (space == nullptr) {
    return Status::Internal("spill requested without a tablespace");
  }
  HTG_ASSIGN_OR_RETURN(std::unique_ptr<TableFile> file,
                       space->CreateTableFile("spill_" + label));
  return {std::unique_ptr<SpillFile>(new SpillFile(std::move(file)))};
}

Status SpillRunWriter::Add(const std::vector<std::vector<Value>>& columns,
                           size_t row) {
  PutVarint64(&buf_, columns.size());
  for (const std::vector<Value>& column : columns) {
    EncodeValue(column[row], &buf_);
  }
  ++buf_rows_;
  if (buf_.size() >= page_bytes_) return SealPage();
  return Status::OK();
}

Status SpillRunWriter::SealPage() {
  if (buf_rows_ == 0) return Status::OK();
  std::string page;
  page.reserve(buf_.size() + 16);
  PutVarint64(&page, buf_rows_);
  page.append(buf_);
  PutFixed32(&page, Crc32c(page));
  HTG_ASSIGN_OR_RETURN(const uint64_t page_no,
                       file_->file()->AppendPage(std::move(page)));
  run_.pages.push_back(page_no);
  run_.rows += buf_rows_;
  run_.bytes += buf_.size();
  buf_.clear();
  buf_rows_ = 0;
  return Status::OK();
}

Result<SpillRun> SpillRunWriter::Finish() {
  HTG_RETURN_IF_ERROR(SealPage());
  HTG_METRIC_COUNTER("exec.spill.runs")->Add(1);
  HTG_METRIC_COUNTER("exec.spill.bytes")->Add(run_.bytes);
  return std::move(run_);
}

bool SpillRunReader::LoadNextPage() {
  while (page_rows_left_ == 0) {
    guard_.Release();
    if (next_page_index_ >= run_.pages.size()) return false;
    auto page = file_->file()->ReadPage(run_.pages[next_page_index_++]);
    if (!page.ok()) {
      status_ = std::move(page).status();
      return false;
    }
    guard_ = std::move(page).value();
    const Slice data = guard_.data();
    if (data.size() < kPageChecksumBytes) {
      status_ = Status::Corruption("spill page shorter than its trailer");
      return false;
    }
    pos_ = data.data();
    limit_ = data.data() + data.size() - kPageChecksumBytes;
    pos_ = GetVarint64(pos_, limit_, &page_rows_left_);
    if (pos_ == nullptr) {
      status_ = Status::Corruption("spill page header truncated");
      return false;
    }
  }
  return true;
}

bool SpillRunReader::NextBatch(RowBatch* batch) {
  size_t n = 0;
  while (status_.ok() && n < batch->capacity() && LoadNextPage()) {
    uint64_t width = 0;
    pos_ = GetVarint64(pos_, limit_, &width);
    if (pos_ == nullptr) {
      status_ = Truncated();
      break;
    }
    if (n == 0) batch->StartFill(width);
    if (width != batch->num_columns()) {
      status_ = Status::Corruption("spill records of one run differ in width");
      break;
    }
    for (size_t c = 0; c < width && status_.ok(); ++c) {
      status_ = DecodeValue(&pos_, limit_, &batch->Slot(c, n));
    }
    --page_rows_left_;
    ++n;
  }
  if (n > 0) batch->FinishFill(n);
  return n > 0 && status_.ok();
}

}  // namespace htg::storage
