#pragma once

#include <memory>
#include <string>
#include <vector>

#include "genomics/formats.h"
#include "storage/filestream.h"
#include "storage/table.h"
#include "udf/function.h"

namespace htg::genomics {

// The default ReadChunk() size of the streaming file wrappers.
inline constexpr size_t kDefaultChunkBytes = 64 * 1024;

enum class ShortReadFormat { kFastq, kFasta };

// The schema a wrapper TVF exposes for a format: FASTQ yields
// (read_name, short_read_seq, quality), FASTA omits quality.
Schema ShortReadSchema(ShortReadFormat format);

// Streaming row iterator over a FileStream BLOB containing FASTQ/FASTA
// records: the engine-side realization of the paper's Fig. 5. The iterator
// pulls the file in large chunks (ReadChunk), parses records out of its
// buffer, and pages incomplete trailing entries to the buffer front before
// refilling — exactly the pseudo-code of §4.1. Each Next() performs the
// FillRow-style conversion of parsed fields into engine Values.
class ShortReadStreamIterator : public udf::RowSource {
 public:
  ShortReadStreamIterator(std::unique_ptr<storage::FileStreamReader> stream,
                          ShortReadFormat format,
                          size_t chunk_bytes = kDefaultChunkBytes);

  bool Next(Row* row) override;
  Status status() const override { return status_; }

  // Bytes pulled from the stream so far (observability for benches).
  uint64_t bytes_read() const { return file_pos_; }

 private:
  // Refills the buffer, preserving [buffer_pos_, buffer_filled_) at the
  // front (the paging algorithm). Returns false at end of file.
  bool ReadChunk();

  std::unique_ptr<storage::FileStreamReader> stream_;
  ShortReadFormat format_;
  std::string buffer_;
  size_t buffer_pos_ = 0;
  size_t buffer_filled_ = 0;
  uint64_t file_pos_ = 0;
  bool at_eof_ = false;
  FastqChunkParser fastq_;
  FastaChunkParser fasta_;
  Status status_;
};

// ListShortReads(sample, lane, format): the paper's wrapper TVF over the
// ShortReadFiles FileStream table — finds the BLOB for (sample, lane) and
// streams its records as rows.
class ListShortReadsTvf : public udf::TableFunction {
 public:
  std::string_view name() const override { return "ListShortReads"; }
  Result<Schema> BindSchema(const std::vector<Value>& args) const override;
  Result<std::unique_ptr<udf::RowSource>> Open(
      const std::vector<Value>& args, Database* db) const override;
};

// ReadFastqFile(path [, chunk_kb]): streams any FASTQ file by path.
class ReadFastqFileTvf : public udf::TableFunction {
 public:
  std::string_view name() const override { return "ReadFastqFile"; }
  Result<Schema> BindSchema(const std::vector<Value>& args) const override;
  Result<std::unique_ptr<udf::RowSource>> Open(
      const std::vector<Value>& args, Database* db) const override;
};

// ReadFastaFile(path [, chunk_kb]): streams any FASTA file by path.
class ReadFastaFileTvf : public udf::TableFunction {
 public:
  std::string_view name() const override { return "ReadFastaFile"; }
  Result<Schema> BindSchema(const std::vector<Value>& args) const override;
  Result<std::unique_ptr<udf::RowSource>> Open(
      const std::vector<Value>& args, Database* db) const override;
};

// Looks up the FileStream path stored in ShortReadFiles for (sample, lane).
Result<std::string> FindShortReadBlob(Database* db, int64_t sample,
                                      int64_t lane);

}  // namespace htg::genomics

