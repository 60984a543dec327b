#include "genomics/align_tvf.h"

#include <map>

#include "catalog/database.h"
#include "common/synchronization.h"
#include "genomics/aligner.h"
#include "genomics/file_wrapper.h"

namespace htg::genomics {

namespace {

struct CachedReference {
  ReferenceGenome reference;
  std::unique_ptr<Aligner> aligner;
  AlignerOptions options;
};

// Process-wide reference/index cache keyed by (path, max_mismatches).
// Function-local static reference: never destroyed (per style rules on
// static storage duration).
//
// Thread-safety (parallel executor opens this TVF from many workers):
// CacheMutex() serializes every map lookup/insert; entries are never
// erased, so the `const CachedReference*` handed out stays valid and is
// immutable after GetOrBuild returns. Concurrent iterators then share one
// Aligner through that pointer, which is safe because AlignRead() is
// const over an index built once in the constructor.
Mutex& CacheMutex() {
  static Mutex& mu = *new Mutex("align_tvf::CacheMutex");
  return mu;
}

std::map<std::pair<std::string, int>, CachedReference>& Cache()
    HTG_REQUIRES(CacheMutex()) {
  static std::map<std::pair<std::string, int>, CachedReference>& cache =
      *new std::map<std::pair<std::string, int>, CachedReference>();
  return cache;
}

Result<const CachedReference*> GetOrBuild(const std::string& path,
                                          int max_mismatches) {
  MutexLock lock(&CacheMutex());
  auto key = std::make_pair(path, max_mismatches);
  auto it = Cache().find(key);
  if (it != Cache().end()) return &it->second;
  HTG_ASSIGN_OR_RETURN(ReferenceGenome reference,
                       ReferenceGenome::LoadFasta(path));
  CachedReference entry;
  entry.reference = std::move(reference);
  entry.options.max_mismatches = max_mismatches;
  it = Cache().emplace(std::move(key), std::move(entry)).first;
  // Build the index only after the entry has its final address: the
  // aligner keeps a pointer to the cached ReferenceGenome.
  it->second.aligner =
      std::make_unique<Aligner>(&it->second.reference, it->second.options);
  return &it->second;
}

// Pulls reads from the lane stream, aligns, and emits aligned rows.
class AlignIterator : public udf::RowSource {
 public:
  AlignIterator(std::unique_ptr<udf::RowSource> reads,
                const CachedReference* cached)
      : reads_(std::move(reads)), cached_(cached) {}

  bool Next(Row* row) override {
    while (reads_->Next(&read_row_)) {
      ShortRead read;
      read.name = read_row_[0].AsString();
      read.sequence = read_row_[1].AsString();
      if (read_row_.size() > 2 && !read_row_[2].is_null()) {
        read.quality = read_row_[2].AsString();
      }
      Result<Alignment> aligned = cached_->aligner->AlignRead(read);
      if (!aligned.ok()) continue;  // unaligned reads are dropped
      row->clear();
      row->push_back(Value::String(std::move(read.name)));
      row->push_back(Value::String(
          cached_->reference.chromosome(aligned->chromosome).name));
      row->push_back(Value::Int64(aligned->position));
      row->push_back(Value::Bool(aligned->reverse_strand));
      row->push_back(Value::Int32(aligned->mismatches));
      row->push_back(Value::Int32(aligned->mapping_quality));
      return true;
    }
    status_ = reads_->status();
    return false;
  }

  Status status() const override { return status_; }

 private:
  std::unique_ptr<udf::RowSource> reads_;
  const CachedReference* cached_;
  Row read_row_;
  Status status_;
};

}  // namespace

Result<Schema> AlignReadsTvf::BindSchema(const std::vector<Value>&) const {
  Schema schema;
  schema.AddColumn({.name = "read_name", .type = DataType::kString});
  schema.AddColumn({.name = "chromosome", .type = DataType::kString});
  schema.AddColumn({.name = "position", .type = DataType::kInt64});
  schema.AddColumn({.name = "reverse_strand", .type = DataType::kBool});
  schema.AddColumn({.name = "mismatches", .type = DataType::kInt32});
  schema.AddColumn({.name = "mapq", .type = DataType::kInt32});
  return schema;
}

Result<std::unique_ptr<udf::RowSource>> AlignReadsTvf::Open(
    const std::vector<Value>& args, Database* db) const {
  if (args.size() < 3 || args[2].is_null()) {
    return Status::InvalidArgument(
        "AlignReads(sample, lane, reference_fasta [, max_mismatches])");
  }
  if (db == nullptr) return Status::ExecError("no database");
  const int max_mismatches =
      args.size() > 3 && !args[3].is_null()
          ? static_cast<int>(args[3].AsInt64())
          : 2;
  HTG_ASSIGN_OR_RETURN(const CachedReference* cached,
                       GetOrBuild(args[2].AsString(), max_mismatches));
  HTG_ASSIGN_OR_RETURN(
      std::string blob,
      FindShortReadBlob(db, args[0].AsInt64(), args[1].AsInt64()));
  HTG_ASSIGN_OR_RETURN(std::unique_ptr<storage::FileStreamReader> stream,
                       db->filestream()->OpenStream(blob));
  auto reads = std::make_unique<ShortReadStreamIterator>(
      std::move(stream), ShortReadFormat::kFastq);
  return {std::make_unique<AlignIterator>(std::move(reads), cached)};
}

}  // namespace htg::genomics
