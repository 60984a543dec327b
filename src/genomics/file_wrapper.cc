#include "genomics/file_wrapper.h"

#include <cstring>

#include "catalog/database.h"
#include "common/string_util.h"

namespace htg::genomics {

Schema ShortReadSchema(ShortReadFormat format) {
  Schema schema;
  schema.AddColumn({.name = "read_name", .type = DataType::kString});
  schema.AddColumn({.name = "short_read_seq", .type = DataType::kString});
  if (format == ShortReadFormat::kFastq) {
    schema.AddColumn({.name = "quality", .type = DataType::kString});
  }
  return schema;
}

ShortReadStreamIterator::ShortReadStreamIterator(
    std::unique_ptr<storage::FileStreamReader> stream, ShortReadFormat format,
    size_t chunk_bytes)
    : stream_(std::move(stream)), format_(format) {
  buffer_.resize(std::max<size_t>(chunk_bytes, 4096));
}

bool ShortReadStreamIterator::ReadChunk() {
  // Paging algorithm (Fig. 5): move the incomplete tail entry to the
  // buffer start, then fill the remainder from the stream.
  const size_t tail = buffer_filled_ - buffer_pos_;
  if (tail > 0 && buffer_pos_ > 0) {
    memmove(buffer_.data(), buffer_.data() + buffer_pos_, tail);
  }
  buffer_pos_ = 0;
  buffer_filled_ = tail;
  if (at_eof_) return false;
  if (buffer_filled_ == buffer_.size()) {
    // One record larger than the buffer: grow (rare; long FASTA records).
    buffer_.resize(buffer_.size() * 2);
  }
  Result<size_t> read = stream_->GetBytes(
      file_pos_, buffer_.data() + buffer_filled_,
      buffer_.size() - buffer_filled_);
  if (!read.ok()) {
    status_ = read.status();
    return false;
  }
  if (*read == 0) {
    at_eof_ = true;
    fasta_.set_at_eof(true);
    return false;
  }
  file_pos_ += *read;
  buffer_filled_ += *read;
  return true;
}

bool ShortReadStreamIterator::Next(Row* row) {
  if (!status_.ok()) return false;
  ShortRead read;
  for (;;) {
    bool parsed;
    if (format_ == ShortReadFormat::kFastq) {
      parsed = fastq_.ParseRecord(buffer_.data(), buffer_filled_,
                                  &buffer_pos_, &read);
      if (!fastq_.status().ok()) {
        status_ = fastq_.status();
        return false;
      }
    } else {
      parsed = fasta_.ParseRecord(buffer_.data(), buffer_filled_,
                                  &buffer_pos_, &read);
      if (!fasta_.status().ok()) {
        status_ = fasta_.status();
        return false;
      }
    }
    if (parsed) break;
    if (!ReadChunk()) {
      if (!status_.ok()) return false;
      if (at_eof_ && buffer_pos_ < buffer_filled_ &&
          format_ == ShortReadFormat::kFasta) {
        // One more attempt with the EOF flag set (final FASTA record).
        if (fasta_.ParseRecord(buffer_.data(), buffer_filled_, &buffer_pos_,
                               &read)) {
          break;
        }
      }
      return false;
    }
  }
  // FillRow: convert the parsed record into engine values.
  row->clear();
  row->push_back(Value::String(std::move(read.name)));
  row->push_back(Value::String(std::move(read.sequence)));
  if (format_ == ShortReadFormat::kFastq) {
    row->push_back(Value::String(std::move(read.quality)));
  }
  return true;
}

Result<std::string> FindShortReadBlob(Database* db, int64_t sample,
                                      int64_t lane) {
  HTG_ASSIGN_OR_RETURN(catalog::TableDef * table,
                       db->GetTable("ShortReadFiles"));
  const int sample_col = table->schema.FindColumn("sample");
  const int lane_col = table->schema.FindColumn("lane");
  const int reads_col = table->schema.FindColumn("reads");
  if (sample_col < 0 || lane_col < 0 || reads_col < 0) {
    return Status::BindError(
        "ShortReadFiles must have (sample, lane, reads) columns");
  }
  std::unique_ptr<storage::RowIterator> scan = table->table->NewScan();
  RowBatch batch;
  while (scan->NextBatch(&batch)) {
    for (size_t i = 0; i < batch.ActiveRows(); ++i) {
      const size_t r = batch.ActiveIndex(i);
      const Value& s = batch.column(sample_col)[r];
      const Value& l = batch.column(lane_col)[r];
      const Value& reads = batch.column(reads_col)[r];
      if (!s.is_null() && !l.is_null() && s.AsInt64() == sample &&
          l.AsInt64() == lane && !reads.is_null()) {
        return reads.AsString();
      }
    }
  }
  HTG_RETURN_IF_ERROR(scan->status());
  return Status::NotFound(StringPrintf(
      "no ShortReadFiles row for sample %lld lane %lld",
      static_cast<long long>(sample), static_cast<long long>(lane)));
}

namespace {

Result<ShortReadFormat> FormatFromName(const Value& v) {
  if (v.is_null()) return ShortReadFormat::kFastq;
  const std::string& name = v.AsString();
  if (EqualsIgnoreCase(name, "FASTQ")) return ShortReadFormat::kFastq;
  if (EqualsIgnoreCase(name, "FASTA")) return ShortReadFormat::kFasta;
  return Status::InvalidArgument("unknown short-read format: " + name);
}

size_t ChunkBytesArg(const std::vector<Value>& args, size_t index) {
  if (args.size() > index && !args[index].is_null()) {
    return static_cast<size_t>(args[index].AsInt64()) * 1024;
  }
  return kDefaultChunkBytes;
}

}  // namespace

Result<Schema> ListShortReadsTvf::BindSchema(
    const std::vector<Value>& args) const {
  ShortReadFormat format = ShortReadFormat::kFastq;
  if (args.size() >= 3) {
    HTG_ASSIGN_OR_RETURN(format, FormatFromName(args[2]));
  }
  return ShortReadSchema(format);
}

Result<std::unique_ptr<udf::RowSource>> ListShortReadsTvf::Open(
    const std::vector<Value>& args, Database* db) const {
  if (args.size() < 2 || args.size() > 4) {
    return Status::InvalidArgument(
        "ListShortReads(sample, lane [, format [, chunk_kb]])");
  }
  if (db == nullptr) return Status::ExecError("no database");
  ShortReadFormat format = ShortReadFormat::kFastq;
  if (args.size() >= 3) {
    HTG_ASSIGN_OR_RETURN(format, FormatFromName(args[2]));
  }
  HTG_ASSIGN_OR_RETURN(
      std::string path,
      FindShortReadBlob(db, args[0].AsInt64(), args[1].AsInt64()));
  HTG_ASSIGN_OR_RETURN(std::unique_ptr<storage::FileStreamReader> stream,
                       db->filestream()->OpenStream(path));
  return {std::make_unique<ShortReadStreamIterator>(
      std::move(stream), format, ChunkBytesArg(args, 3))};
}

Result<Schema> ReadFastqFileTvf::BindSchema(const std::vector<Value>&) const {
  return ShortReadSchema(ShortReadFormat::kFastq);
}

Result<std::unique_ptr<udf::RowSource>> ReadFastqFileTvf::Open(
    const std::vector<Value>& args, Database* db) const {
  if (args.empty() || args[0].is_null()) {
    return Status::InvalidArgument("ReadFastqFile(path [, chunk_kb])");
  }
  if (db == nullptr) return Status::ExecError("no database");
  HTG_ASSIGN_OR_RETURN(std::unique_ptr<storage::FileStreamReader> stream,
                       db->filestream()->OpenStream(args[0].AsString()));
  return {std::make_unique<ShortReadStreamIterator>(
      std::move(stream), ShortReadFormat::kFastq, ChunkBytesArg(args, 1))};
}

Result<Schema> ReadFastaFileTvf::BindSchema(const std::vector<Value>&) const {
  return ShortReadSchema(ShortReadFormat::kFasta);
}

Result<std::unique_ptr<udf::RowSource>> ReadFastaFileTvf::Open(
    const std::vector<Value>& args, Database* db) const {
  if (args.empty() || args[0].is_null()) {
    return Status::InvalidArgument("ReadFastaFile(path [, chunk_kb])");
  }
  if (db == nullptr) return Status::ExecError("no database");
  HTG_ASSIGN_OR_RETURN(std::unique_ptr<storage::FileStreamReader> stream,
                       db->filestream()->OpenStream(args[0].AsString()));
  return {std::make_unique<ShortReadStreamIterator>(
      std::move(stream), ShortReadFormat::kFasta, ChunkBytesArg(args, 1))};
}

}  // namespace htg::genomics
