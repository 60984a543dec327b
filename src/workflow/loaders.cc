#include "workflow/loaders.h"

#include <string_view>

#include "common/string_util.h"

namespace htg::workflow {

using genomics::Alignment;
using genomics::ReferenceGenome;
using genomics::ShortRead;
using genomics::TagCount;

namespace {

// Appends a loader's rows to its table RowBatch::kDefaultRows at a time.
// Each row is written through the batch's retained value slots, so
// string buffers are reused from batch to batch; EndRow appends the
// batch once it is full.
class BatchAppender {
 public:
  BatchAppender(Database* db, catalog::TableDef* table)
      : db_(db), table_(table) {
    batch_.StartFill(table->schema.num_columns());
  }

  // The value slot of column `c` in the row being written.
  Value& operator[](int c) { return batch_.Slot(c, rows_); }
  void SetString(int c, std::string_view s) {
    (*this)[c].AssignString(DataType::kString, s);
  }
  // An empty string is stored as NULL.
  void SetStringOrNull(int c, std::string_view s) {
    if (s.empty()) {
      (*this)[c] = Value::Null();
    } else {
      SetString(c, s);
    }
  }

  Status EndRow() {
    return ++rows_ == batch_.capacity() ? Append() : Status::OK();
  }
  // Counts a malformed source record.
  void Reject() { ++result_.rejected; }
  // Appends the rows still buffered and returns the load's counts.
  Result<LoadResult> Finish() {
    HTG_RETURN_IF_ERROR(Append());
    return result_;
  }

 private:
  Status Append() {
    batch_.FinishFill(rows_);
    rows_ = 0;
    const Status appended = db_->AppendBatch(
        table_, &batch_, storage::kFrozenTxn, nullptr, &result_.loaded);
    batch_.StartFill(batch_.num_columns());
    return appended;
  }

  Database* db_;
  catalog::TableDef* table_;
  RowBatch batch_;
  size_t rows_ = 0;
  LoadResult result_;
};

}  // namespace

Result<LoadResult> LoadReads(Database* db, const std::string& table,
                             const std::vector<ShortRead>& reads,
                             const SampleKey& key, int64_t first_id) {
  HTG_ASSIGN_OR_RETURN(catalog::TableDef * def, db->GetTable(table));
  BatchAppender out(db, def);
  for (size_t i = 0; i < reads.size(); ++i) {
    const ShortRead& r = reads[i];
    Result<genomics::ReadCoordinates> coords = genomics::ParseReadName(r.name);
    out[0] = Value::Int64(first_id + static_cast<int64_t>(i));
    out[1] = Value::Int32(key.e_id);
    out[2] = Value::Int32(key.sg_id);
    out[3] = Value::Int32(key.s_id);
    if (coords.ok()) {
      out[4] = Value::Int32(coords->tile);
      out[5] = Value::Int32(coords->x);
      out[6] = Value::Int32(coords->y);
    } else {
      // The read still loads (sequence + quality are intact) but its name
      // did not decompose; surface that in the rejected count instead of
      // silently absorbing it.
      out.Reject();
      out[4] = out[5] = out[6] = Value::Null();
    }
    out.SetString(7, r.sequence);
    out.SetStringOrNull(8, r.quality);
    HTG_RETURN_IF_ERROR(out.EndRow());
  }
  return out.Finish();
}

Result<LoadResult> LoadReadsOneToOne(Database* db, const std::string& table,
                                     const std::vector<ShortRead>& reads) {
  HTG_ASSIGN_OR_RETURN(catalog::TableDef * def, db->GetTable(table));
  BatchAppender out(db, def);
  for (const ShortRead& r : reads) {
    out.SetString(0, r.name);
    out.SetString(1, r.sequence);
    out.SetStringOrNull(2, r.quality);
    HTG_RETURN_IF_ERROR(out.EndRow());
  }
  return out.Finish();
}

Result<LoadResult> LoadTags(Database* db, const std::string& table,
                            const std::vector<TagCount>& tags,
                            const SampleKey& key) {
  HTG_ASSIGN_OR_RETURN(catalog::TableDef * def, db->GetTable(table));
  BatchAppender out(db, def);
  for (const TagCount& t : tags) {
    out[0] = Value::Int64(t.rank);
    out[1] = Value::Int32(key.e_id);
    out[2] = Value::Int32(key.sg_id);
    out[3] = Value::Int32(key.s_id);
    out.SetString(4, t.sequence);
    out[5] = Value::Int64(t.frequency);
    HTG_RETURN_IF_ERROR(out.EndRow());
  }
  return out.Finish();
}

Result<LoadResult> LoadReferenceCatalog(Database* db, const std::string& table,
                                        const ReferenceGenome& ref) {
  HTG_ASSIGN_OR_RETURN(catalog::TableDef * def, db->GetTable(table));
  BatchAppender out(db, def);
  for (int i = 0; i < ref.num_chromosomes(); ++i) {
    out[0] = Value::Int32(i);
    out.SetString(1, ref.chromosome(i).name);
    out[2] =
        Value::Int64(static_cast<int64_t>(ref.chromosome(i).sequence.size()));
    HTG_RETURN_IF_ERROR(out.EndRow());
  }
  return out.Finish();
}

Result<LoadResult> LoadAlignments(Database* db, const std::string& table,
                                  const std::vector<Alignment>& alignments,
                                  const SampleKey& key) {
  HTG_ASSIGN_OR_RETURN(catalog::TableDef * def, db->GetTable(table));
  BatchAppender out(db, def);
  for (const Alignment& a : alignments) {
    out[0] = Value::Int32(key.e_id);
    out[1] = Value::Int32(key.sg_id);
    out[2] = Value::Int32(key.s_id);
    out[3] = Value::Int64(a.read_id);
    out[4] = Value::Int32(a.chromosome);
    out[5] = Value::Int64(a.position);
    out[6] = Value::Bool(a.reverse_strand);
    out[7] = Value::Int32(a.mismatches);
    out[8] = Value::Int32(a.mapping_quality);
    HTG_RETURN_IF_ERROR(out.EndRow());
  }
  return out.Finish();
}

Result<LoadResult> LoadAlignmentsOneToOne(
    Database* db, const std::string& table,
    const std::vector<Alignment>& alignments,
    const std::vector<ShortRead>& reads, const ReferenceGenome& ref) {
  HTG_ASSIGN_OR_RETURN(catalog::TableDef * def, db->GetTable(table));
  BatchAppender out(db, def);
  for (const Alignment& a : alignments) {
    // Dangling foreign keys are data defects in the source, not engine
    // failures: count and skip rather than aborting the whole load.
    if (a.read_id < 0 || a.read_id >= static_cast<int64_t>(reads.size()) ||
        a.chromosome < 0 || a.chromosome >= ref.num_chromosomes()) {
      out.Reject();
      continue;
    }
    out.SetString(0, reads[a.read_id].name);
    out.SetString(1, ref.chromosome(a.chromosome).name);
    out[2] = Value::Int64(a.position);
    out.SetString(3, a.reverse_strand ? "-" : "+");
    out[4] = Value::Int32(a.mismatches);
    out[5] = Value::Int32(a.mapping_quality);
    HTG_RETURN_IF_ERROR(out.EndRow());
  }
  return out.Finish();
}

Status ImportFastqAsFileStream(sql::SqlEngine* engine,
                               const std::string& table,
                               const std::string& fastq_path, int sample,
                               int lane) {
  const std::string sql = StringPrintf(
      "INSERT INTO %s (guid, sample, lane, reads) "
      "SELECT NEWID(), %d, %d, * "
      "FROM OPENROWSET(BULK '%s', SINGLE_BLOB)",
      table.c_str(), sample, lane, fastq_path.c_str());
  Result<sql::QueryResult> result = engine->Execute(sql);
  return result.ok() ? Status::OK() : result.status();
}

}  // namespace htg::workflow
