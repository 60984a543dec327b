#include "exec/join_ops.h"

#include <algorithm>
#include <unordered_map>

#include "common/string_util.h"
#include "exec/batch.h"
#include "exec/spill_util.h"
#include "storage/spill.h"

namespace htg::exec {

namespace {

using BuildMap = std::unordered_map<Row, std::vector<Row>, RowHash, RowEq>;

// Rough accounting overhead per build-table entry (hash node + bucket
// vector slot) on top of the key's and row's own bytes.
constexpr size_t kJoinEntryOverheadBytes = 96;

// Evaluates the join keys of `row` into `out`, assigning into its
// existing values.
Status EvalKeysInto(const std::vector<ExprPtr>& keys, udf::EvalContext* eval,
                    const Row& row, Row* out) {
  out->resize(keys.size());
  for (size_t k = 0; k < keys.size(); ++k) {
    HTG_ASSIGN_OR_RETURN((*out)[k], keys[k]->Eval(eval, row));
  }
  return Status::OK();
}

Result<Row> EvalKeys(const std::vector<ExprPtr>& keys, udf::EvalContext* eval,
                     const Row& row) {
  Row out;
  HTG_RETURN_IF_ERROR(EvalKeysInto(keys, eval, row, &out));
  return out;
}

// Writes left ++ right into `out`, copy-assigning into its existing
// values so a reused output row keeps its string buffers.
void AssignConcat(const Row& left, const Row& right, Row* out) {
  out->resize(left.size() + right.size());
  std::copy(left.begin(), left.end(), out->begin());
  std::copy(right.begin(), right.end(),
            out->begin() + static_cast<ptrdiff_t>(left.size()));
}

std::string DescribeJoinKeys(const std::vector<ExprPtr>& l,
                             const std::vector<ExprPtr>& r) {
  std::string out = "[";
  for (size_t i = 0; i < l.size(); ++i) {
    if (i > 0) out += " AND ";
    out += l[i]->ToString() + " = " + r[i]->ToString();
  }
  out += "]";
  return out;
}

class HashJoinIterator : public storage::RowSource {
 public:
  HashJoinIterator(std::unique_ptr<storage::RowIterator> left, BuildMap build,
                   const std::vector<ExprPtr>* left_keys,
                   udf::EvalContext* eval, bool left_outer, int right_width,
                   MemoryCharge charge)
      : left_(std::move(left)),
        left_rows_(left_.get()),
        build_(std::move(build)),
        left_keys_(left_keys),
        eval_(eval),
        left_outer_(left_outer),
        null_right_(right_width, Value::Null()),
        charge_(std::move(charge)) {}

  bool Next(Row* row) override {
    for (;;) {
      if (matches_ != nullptr && match_index_ < matches_->size()) {
        AssignConcat(left_row_, (*matches_)[match_index_++], row);
        return true;
      }
      if (!left_rows_.Next(&left_row_)) {
        status_ = left_rows_.status();
        return false;
      }
      status_ = EvalKeysInto(*left_keys_, eval_, left_row_, &left_key_);
      if (!status_.ok()) return false;
      // SQL equi-join: NULL keys never match.
      bool has_null = false;
      for (const Value& v : left_key_) has_null = has_null || v.is_null();
      auto it = has_null ? build_.end() : build_.find(left_key_);
      if (it == build_.end()) {
        if (left_outer_) {
          // Unmatched left row: pad the right side with NULLs.
          AssignConcat(left_row_, null_right_, row);
          matches_ = nullptr;
          return true;
        }
        matches_ = nullptr;
        continue;
      }
      matches_ = &it->second;
      match_index_ = 0;
    }
  }

  Status status() const override { return status_; }

 private:
  std::unique_ptr<storage::RowIterator> left_;
  BatchReader left_rows_;
  BuildMap build_;
  const std::vector<ExprPtr>* left_keys_;
  udf::EvalContext* eval_;
  bool left_outer_;
  Row null_right_;  // right-side padding of unmatched left-outer rows
  MemoryCharge charge_;  // keeps the build table accounted while live
  Row left_row_;
  Row left_key_;
  const std::vector<Row>* matches_ = nullptr;
  size_t match_index_ = 0;
  Status status_;
};

// One spilled join partition: a build run and a probe run on the same
// spill file, paired by partition index. `level` is the recursion depth
// of the pass that will process it.
struct JoinSpillWork {
  storage::SpillFile* file;
  storage::SpillRun build;
  storage::SpillRun probe;
  int level;
};

// Partitioned spill sink for a grace hash join (build rows and probe
// rows hashed into paired runs, plus an optional run for NULL-keyed
// probe rows that a left-outer join must still pad and emit).
class JoinSpill {
 public:
  JoinSpill(storage::TableSpace* space, size_t nparts, int level,
            OperatorStats* stats, bool with_null_run)
      : space_(space),
        nparts_(nparts == 0 ? 1 : nparts),
        level_(level),
        stats_(stats),
        with_null_run_(with_null_run) {}

  Status Open() {
    HTG_ASSIGN_OR_RETURN(file_, storage::SpillFile::Create(space_, "join"));
    build_writers_.reserve(nparts_);
    probe_writers_.reserve(nparts_);
    for (size_t p = 0; p < nparts_; ++p) {
      build_writers_.push_back(
          std::make_unique<storage::SpillRunWriter>(file_.get()));
      probe_writers_.push_back(
          std::make_unique<storage::SpillRunWriter>(file_.get()));
    }
    if (with_null_run_) {
      null_writer_ = std::make_unique<storage::SpillRunWriter>(file_.get());
    }
    return Status::OK();
  }

  int level() const { return level_; }
  storage::SpillFile* file() { return file_.get(); }
  std::unique_ptr<storage::SpillFile> TakeFile() { return std::move(file_); }
  storage::SpillRun TakeNullRun() { return std::move(null_run_); }

  Status AddBuild(const Row& key, const Row& row) {
    return build_writers_[SpillRowHash(key, level_) % nparts_]->Add(row);
  }
  Status AddProbe(const Row& key, const Row& row) {
    return probe_writers_[SpillRowHash(key, level_) % nparts_]->Add(row);
  }
  Status AddNullProbe(const Row& row) { return null_writer_->Add(row); }

  // Seals all partitions and flushes the file, so injected write faults
  // surface inside the statement. A partition with no probe rows can
  // never produce output and is dropped here.
  Result<std::vector<JoinSpillWork>> Finish() {
    std::vector<JoinSpillWork> work;
    for (size_t p = 0; p < nparts_; ++p) {
      storage::SpillRun build;
      storage::SpillRun probe;
      if (build_writers_[p]->rows() > 0) {
        HTG_ASSIGN_OR_RETURN(build, FinishOne(build_writers_[p].get()));
      }
      if (probe_writers_[p]->rows() > 0) {
        HTG_ASSIGN_OR_RETURN(probe, FinishOne(probe_writers_[p].get()));
      }
      if (probe.rows == 0) continue;
      work.push_back(JoinSpillWork{file_.get(), std::move(build),
                                   std::move(probe), level_ + 1});
    }
    build_writers_.clear();
    probe_writers_.clear();
    if (null_writer_ != nullptr && null_writer_->rows() > 0) {
      HTG_ASSIGN_OR_RETURN(null_run_, FinishOne(null_writer_.get()));
    }
    null_writer_.reset();
    HTG_RETURN_IF_ERROR(file_->Flush());
    return work;
  }

 private:
  Result<storage::SpillRun> FinishOne(storage::SpillRunWriter* writer) {
    HTG_ASSIGN_OR_RETURN(storage::SpillRun run, writer->Finish());
    if (stats_ != nullptr) {
      stats_->spill_runs.fetch_add(1, std::memory_order_relaxed);
      stats_->spill_bytes.fetch_add(run.bytes, std::memory_order_relaxed);
    }
    return run;
  }

  storage::TableSpace* space_;
  size_t nparts_;
  int level_;
  OperatorStats* stats_;
  bool with_null_run_;
  std::unique_ptr<storage::SpillFile> file_;
  std::vector<std::unique_ptr<storage::SpillRunWriter>> build_writers_;
  std::vector<std::unique_ptr<storage::SpillRunWriter>> probe_writers_;
  std::unique_ptr<storage::SpillRunWriter> null_writer_;
  storage::SpillRun null_run_;
};

// Streams a spilled (grace) hash join: per partition, the build run is
// loaded into an in-memory table under the budget charge and the probe
// run streamed against it; partitions whose build side still exceeds the
// budget re-partition both runs with a deeper hash salt and re-queue.
// Output order differs from the in-memory join. Owns every spill file,
// so the data is deleted with the iterator.
class GraceHashJoinIterator : public storage::RowSource {
 public:
  GraceHashJoinIterator(std::vector<std::unique_ptr<storage::SpillFile>> files,
                        std::vector<JoinSpillWork> work,
                        storage::SpillRun null_run,
                        const std::vector<ExprPtr>* left_keys,
                        const std::vector<ExprPtr>* right_keys,
                        ExecContext* ctx, OperatorStats* stats,
                        bool left_outer, int right_width, const char* op_name,
                        MemoryCharge charge)
      : files_(std::move(files)),
        worklist_(std::move(work)),
        left_keys_(left_keys),
        right_keys_(right_keys),
        ctx_(ctx),
        stats_(stats),
        left_outer_(left_outer),
        null_right_(right_width, Value::Null()),
        op_name_(op_name),
        charge_(std::move(charge)) {
    if (left_outer_ && null_run.rows > 0 && !files_.empty()) {
      null_reader_ = std::make_unique<storage::SpillRunReader>(
          files_.front().get(), std::move(null_run));
    }
  }

  bool Next(Row* out) override {
    if (!status_.ok()) return false;
    for (;;) {
      if (matches_ != nullptr && match_index_ < matches_->size()) {
        AssignConcat(probe_row_, (*matches_)[match_index_++], out);
        return true;
      }
      matches_ = nullptr;
      if (probe_ != nullptr) {
        if (probe_->Next(&probe_row_)) {
          Result<Row> key = EvalKeys(*left_keys_, &ctx_->eval, probe_row_);
          if (!key.ok()) {
            status_ = key.status();
            return false;
          }
          auto it = build_.find(*key);
          if (it == build_.end()) {
            if (left_outer_) {
              AssignConcat(probe_row_, null_right_, out);
              return true;
            }
            continue;
          }
          matches_ = &it->second;
          match_index_ = 0;
          continue;
        }
        status_ = probe_->status();
        if (!status_.ok()) return false;
        probe_.reset();
        build_.clear();
        charge_.ReleaseAll();
      }
      if (null_reader_ != nullptr) {
        if (null_reader_->Next(&probe_row_)) {
          AssignConcat(probe_row_, null_right_, out);
          return true;
        }
        status_ = null_reader_->status();
        if (!status_.ok()) return false;
        null_reader_.reset();
      }
      if (worklist_.empty()) return false;
      const Status s = LoadNextPartition();
      if (!s.ok()) {
        status_ = s;
        return false;
      }
    }
  }

  Status status() const override { return status_; }

 private:
  Status LoadNextPartition() {
    JoinSpillWork work = std::move(worklist_.back());
    worklist_.pop_back();
    if (work.level > kMaxSpillDepth) return SpillDepthError(op_name_);
    build_.clear();
    charge_.ReleaseAll();
    storage::SpillRunReader build_reader(work.file, std::move(work.build));
    std::unique_ptr<JoinSpill> sub;
    Row row;
    while (build_reader.Next(&row)) {
      HTG_ASSIGN_OR_RETURN(Row key, EvalKeys(*right_keys_, &ctx_->eval, row));
      if (sub != nullptr) {
        HTG_RETURN_IF_ERROR(sub->AddBuild(key, row));
        continue;
      }
      const size_t bytes =
          ApproxRowBytes(key) + ApproxRowBytes(row) + kJoinEntryOverheadBytes;
      const Status charged = charge_.Add(bytes);
      if (charged.ok()) {
        build_[std::move(key)].push_back(std::move(row));
        continue;
      }
      charge_.Release(bytes);
      if (!charged.IsResourceExhausted()) return charged;
      // This partition's build side alone busts the budget: push the
      // resident table (and everything still unread) one level deeper.
      sub = std::make_unique<JoinSpill>(ctx_->tablespace,
                                        ctx_->spill_partitions, work.level,
                                        stats_, /*with_null_run=*/false);
      HTG_RETURN_IF_ERROR(sub->Open());
      for (auto& [bkey, brows] : build_) {
        for (const Row& brow : brows) {
          HTG_RETURN_IF_ERROR(sub->AddBuild(bkey, brow));
        }
      }
      build_.clear();
      charge_.ReleaseAll();
      HTG_RETURN_IF_ERROR(sub->AddBuild(key, row));
    }
    HTG_RETURN_IF_ERROR(build_reader.status());
    if (sub == nullptr) {
      if (stats_ != nullptr) RecordPeakMem(stats_, charge_.peak());
      probe_ = std::make_unique<storage::SpillRunReader>(work.file,
                                                         std::move(work.probe));
      return Status::OK();
    }
    storage::SpillRunReader probe_reader(work.file, std::move(work.probe));
    while (probe_reader.Next(&row)) {
      HTG_ASSIGN_OR_RETURN(Row key, EvalKeys(*left_keys_, &ctx_->eval, row));
      HTG_RETURN_IF_ERROR(sub->AddProbe(key, row));
    }
    HTG_RETURN_IF_ERROR(probe_reader.status());
    HTG_ASSIGN_OR_RETURN(std::vector<JoinSpillWork> sub_work, sub->Finish());
    for (JoinSpillWork& w : sub_work) worklist_.push_back(std::move(w));
    files_.push_back(sub->TakeFile());
    return Status::OK();
  }

  // Files outlive the readers below (destruction is reverse order).
  std::vector<std::unique_ptr<storage::SpillFile>> files_;
  std::vector<JoinSpillWork> worklist_;
  const std::vector<ExprPtr>* left_keys_;
  const std::vector<ExprPtr>* right_keys_;
  ExecContext* ctx_;
  OperatorStats* stats_;
  bool left_outer_;
  Row null_right_;  // right-side padding of unmatched left-outer rows
  const char* op_name_;
  MemoryCharge charge_;
  BuildMap build_;
  std::unique_ptr<storage::SpillRunReader> probe_;
  std::unique_ptr<storage::SpillRunReader> null_reader_;
  Row probe_row_;
  const std::vector<Row>* matches_ = nullptr;
  size_t match_index_ = 0;
  Status status_;
};

// Streaming merge join. Both inputs ascend on their keys; buffers the
// right-side group matching the current key (charged against the query
// budget — a pathological key group can be arbitrarily wide).
class MergeJoinIterator : public storage::RowSource {
 public:
  MergeJoinIterator(std::unique_ptr<storage::RowIterator> left,
                    std::unique_ptr<storage::RowIterator> right,
                    const std::vector<ExprPtr>* left_keys,
                    const std::vector<ExprPtr>* right_keys,
                    udf::EvalContext* eval, MemoryContext* mem)
      : left_(std::move(left)),
        right_(std::move(right)),
        left_rows_(left_.get()),
        right_rows_(right_.get()),
        left_keys_(left_keys),
        right_keys_(right_keys),
        eval_(eval),
        charge_(mem, "Merge Join") {}

  bool Next(Row* row) override {
    if (!status_.ok()) return false;
    for (;;) {
      if (emitting_ && group_index_ < right_group_.size()) {
        AssignConcat(left_row_, right_group_[group_index_++], row);
        return true;
      }
      emitting_ = false;
      // Advance the left side.
      if (!AdvanceLeft()) return false;
      // Align the right side's buffered group to the new left key.
      for (;;) {
        const int cmp = group_valid_
                            ? CompareKeys(left_key_, right_group_key_)
                            : 1;
        if (group_valid_ && cmp == 0) {
          emitting_ = true;
          group_index_ = 0;
          break;
        }
        if (group_valid_ && cmp < 0) {
          // Left key smaller: this left row has no match.
          break;
        }
        if (!LoadNextRightGroup()) {
          if (!status_.ok()) return false;
          return false;  // right exhausted: no further matches possible
        }
      }
      if (!emitting_) continue;
    }
  }

  Status status() const override { return status_; }

 private:
  static int CompareKeys(const Row& a, const Row& b) {
    for (size_t i = 0; i < a.size(); ++i) {
      const int r = a[i].Compare(b[i]);
      if (r != 0) return r;
    }
    return 0;
  }

  bool AdvanceLeft() {
    if (!left_rows_.Next(&left_row_)) {
      status_ = left_rows_.status();
      return false;
    }
    status_ = EvalKeysInto(*left_keys_, eval_, left_row_, &left_key_);
    return status_.ok();
  }

  bool BufferRightRow(Row row) {
    const Status charged = charge_.Add(ApproxRowBytes(row));
    if (!charged.ok()) {
      status_ = charged;
      return false;
    }
    right_group_.push_back(std::move(row));
    return true;
  }

  // Reads the next run of equal-keyed rows from the right input.
  bool LoadNextRightGroup() {
    right_group_.clear();
    charge_.ReleaseAll();
    if (!pending_valid_) {
      if (!right_rows_.Next(&pending_row_)) {
        status_ = right_rows_.status();
        group_valid_ = false;
        return false;
      }
      status_ = EvalKeysInto(*right_keys_, eval_, pending_row_, &pending_key_);
      if (!status_.ok()) return false;
      pending_valid_ = true;
    }
    right_group_key_ = pending_key_;
    if (!BufferRightRow(std::move(pending_row_))) return false;
    pending_valid_ = false;
    // Pull until the key changes.
    for (;;) {
      if (!right_rows_.Next(&pending_row_)) {
        status_ = right_rows_.status();
        break;
      }
      status_ = EvalKeysInto(*right_keys_, eval_, pending_row_, &pending_key_);
      if (!status_.ok()) return false;
      if (CompareKeys(pending_key_, right_group_key_) == 0) {
        if (!BufferRightRow(std::move(pending_row_))) return false;
        continue;
      }
      pending_valid_ = true;
      break;
    }
    group_valid_ = true;
    return true;
  }

  std::unique_ptr<storage::RowIterator> left_;
  std::unique_ptr<storage::RowIterator> right_;
  BatchReader left_rows_;
  BatchReader right_rows_;
  const std::vector<ExprPtr>* left_keys_;
  const std::vector<ExprPtr>* right_keys_;
  udf::EvalContext* eval_;
  MemoryCharge charge_;

  Row left_row_;
  Row left_key_;
  std::vector<Row> right_group_;
  Row right_group_key_;
  bool group_valid_ = false;
  size_t group_index_ = 0;
  bool emitting_ = false;
  Row pending_row_;
  Row pending_key_;
  bool pending_valid_ = false;
  Status status_;
};

class NestedLoopIterator : public storage::RowSource {
 public:
  NestedLoopIterator(std::unique_ptr<storage::RowIterator> left,
                     std::vector<Row> right, const Expr* predicate,
                     udf::EvalContext* eval, MemoryCharge charge)
      : left_(std::move(left)),
        left_rows_(left_.get()),
        right_(std::move(right)),
        predicate_(predicate),
        eval_(eval),
        charge_(std::move(charge)) {}

  bool Next(Row* row) override {
    for (;;) {
      while (right_index_ < right_.size()) {
        AssignConcat(left_row_, right_[right_index_++], row);
        if (predicate_ == nullptr) return true;
        Result<bool> keep = EvalPredicate(*predicate_, eval_, *row);
        if (!keep.ok()) {
          status_ = keep.status();
          return false;
        }
        if (*keep) return true;
      }
      if (!left_rows_.Next(&left_row_)) {
        status_ = left_rows_.status();
        return false;
      }
      right_index_ = 0;
    }
  }

  Status status() const override { return status_; }

 private:
  std::unique_ptr<storage::RowIterator> left_;
  BatchReader left_rows_;
  std::vector<Row> right_;
  const Expr* predicate_;
  udf::EvalContext* eval_;
  MemoryCharge charge_;  // keeps the inner table accounted while live
  Row left_row_;
  size_t right_index_ = static_cast<size_t>(-1);
  Status status_;
};

}  // namespace

Schema ConcatSchemas(const Schema& left, const Schema& right) {
  Schema out = left;
  for (const Column& c : right.columns()) out.AddColumn(c);
  return out;
}

HashJoinOp::HashJoinOp(OperatorPtr left, OperatorPtr right,
                       std::vector<ExprPtr> left_keys,
                       std::vector<ExprPtr> right_keys, bool left_outer)
    : left_(std::move(left)),
      right_(std::move(right)),
      left_keys_(std::move(left_keys)),
      right_keys_(std::move(right_keys)),
      left_outer_(left_outer),
      schema_(ConcatSchemas(left_->output_schema(), right_->output_schema())) {
  if (left_outer_) {
    // Outer-padded right columns are nullable in the output schema.
    Schema padded = left_->output_schema();
    for (Column col : right_->output_schema().columns()) {
      col.nullable = true;
      padded.AddColumn(std::move(col));
    }
    schema_ = std::move(padded);
  }
}

Result<std::unique_ptr<storage::RowIterator>> HashJoinOp::OpenImpl(
    ExecContext* ctx) {
  const char* op_name = left_outer_ ? "Hash Match (Left Outer Join)"
                                    : "Hash Match (Inner Join)";
  HTG_ASSIGN_OR_RETURN(std::unique_ptr<storage::RowIterator> right,
                       right_->Open(ctx));
  OperatorStats* stats = mutable_stats();
  MemoryCharge charge(ctx->mem.get(), op_name);
  BuildMap build;
  std::unique_ptr<JoinSpill> spill;  // engaged when the build overflows
  BatchReader right_rows(right.get());
  Row row;
  while (right_rows.Next(&row)) {
    HTG_ASSIGN_OR_RETURN(Row key, EvalKeys(right_keys_, &ctx->eval, row));
    // NULL build keys never match; drop them here.
    bool has_null = false;
    for (const Value& v : key) has_null = has_null || v.is_null();
    if (has_null) continue;
    if (spill != nullptr) {
      HTG_RETURN_IF_ERROR(spill->AddBuild(key, row));
      row.clear();
      continue;
    }
    const size_t bytes =
        ApproxRowBytes(key) + ApproxRowBytes(row) + kJoinEntryOverheadBytes;
    const Status charged = charge.Add(bytes);
    if (charged.ok()) {
      build[std::move(key)].push_back(std::move(row));
      row.clear();
      continue;
    }
    charge.Release(bytes);
    if (!charged.IsResourceExhausted()) return charged;
    if (!ctx->CanSpill()) return SpillUnavailableError(op_name, *ctx->mem);
    // Degrade to a grace hash join: dump the resident build table into
    // hash partitions and keep routing the rest of both inputs there.
    spill = std::make_unique<JoinSpill>(ctx->tablespace, ctx->spill_partitions,
                                        /*level=*/0, stats,
                                        /*with_null_run=*/left_outer_);
    HTG_RETURN_IF_ERROR(spill->Open());
    for (auto& [bkey, brows] : build) {
      for (const Row& brow : brows) {
        HTG_RETURN_IF_ERROR(spill->AddBuild(bkey, brow));
      }
    }
    build.clear();
    charge.ReleaseAll();
    HTG_RETURN_IF_ERROR(spill->AddBuild(key, row));
    row.clear();
  }
  HTG_RETURN_IF_ERROR(right->status());
  HTG_ASSIGN_OR_RETURN(std::unique_ptr<storage::RowIterator> left,
                       left_->Open(ctx));
  if (spill == nullptr) {
    RecordPeakMem(stats, charge.peak());
    return {std::make_unique<HashJoinIterator>(
        std::move(left), std::move(build), &left_keys_, &ctx->eval,
        left_outer_, right_->output_schema().num_columns(),
        std::move(charge))};
  }
  // Route the probe side into the matching partitions. NULL-keyed probe
  // rows match nothing: an inner join drops them, a left-outer join
  // parks them in a dedicated run to pad later.
  BatchReader left_rows(left.get());
  while (left_rows.Next(&row)) {
    HTG_ASSIGN_OR_RETURN(Row key, EvalKeys(left_keys_, &ctx->eval, row));
    bool has_null = false;
    for (const Value& v : key) has_null = has_null || v.is_null();
    if (has_null) {
      if (left_outer_) HTG_RETURN_IF_ERROR(spill->AddNullProbe(row));
      continue;
    }
    HTG_RETURN_IF_ERROR(spill->AddProbe(key, row));
  }
  HTG_RETURN_IF_ERROR(left->status());
  HTG_ASSIGN_OR_RETURN(std::vector<JoinSpillWork> work, spill->Finish());
  storage::SpillRun null_run = spill->TakeNullRun();
  std::vector<std::unique_ptr<storage::SpillFile>> files;
  files.push_back(spill->TakeFile());
  RecordPeakMem(stats, charge.peak());
  return {std::make_unique<GraceHashJoinIterator>(
      std::move(files), std::move(work), std::move(null_run), &left_keys_,
      &right_keys_, ctx, stats, left_outer_,
      right_->output_schema().num_columns(), op_name, std::move(charge))};
}

std::string HashJoinOp::Describe() const {
  return std::string(left_outer_ ? "Hash Match (Left Outer Join) "
                                 : "Hash Match (Inner Join) ") +
         DescribeJoinKeys(left_keys_, right_keys_);
}

MergeJoinOp::MergeJoinOp(OperatorPtr left, OperatorPtr right,
                         std::vector<ExprPtr> left_keys,
                         std::vector<ExprPtr> right_keys)
    : left_(std::move(left)),
      right_(std::move(right)),
      left_keys_(std::move(left_keys)),
      right_keys_(std::move(right_keys)),
      schema_(ConcatSchemas(left_->output_schema(), right_->output_schema())) {}

Result<std::unique_ptr<storage::RowIterator>> MergeJoinOp::OpenImpl(
    ExecContext* ctx) {
  HTG_ASSIGN_OR_RETURN(std::unique_ptr<storage::RowIterator> left,
                       left_->Open(ctx));
  HTG_ASSIGN_OR_RETURN(std::unique_ptr<storage::RowIterator> right,
                       right_->Open(ctx));
  return {std::make_unique<MergeJoinIterator>(std::move(left), std::move(right),
                                              &left_keys_, &right_keys_,
                                              &ctx->eval, ctx->mem.get())};
}

std::string MergeJoinOp::Describe() const {
  return "Merge Join (Inner Join) " +
         DescribeJoinKeys(left_keys_, right_keys_);
}

NestedLoopJoinOp::NestedLoopJoinOp(OperatorPtr left, OperatorPtr right,
                                   ExprPtr predicate)
    : left_(std::move(left)),
      right_(std::move(right)),
      predicate_(std::move(predicate)),
      schema_(ConcatSchemas(left_->output_schema(), right_->output_schema())) {}

Result<std::unique_ptr<storage::RowIterator>> NestedLoopJoinOp::OpenImpl(
    ExecContext* ctx) {
  HTG_ASSIGN_OR_RETURN(std::unique_ptr<storage::RowIterator> right,
                       right_->Open(ctx));
  std::vector<Row> right_rows;
  HTG_RETURN_IF_ERROR(DrainIterator(right.get(), &right_rows));
  // The inner table has no out-of-core fallback; over budget is a typed
  // statement error.
  MemoryCharge charge(ctx->mem.get(), "Nested Loops (Inner Join)");
  size_t total = 0;
  for (const Row& r : right_rows) total += ApproxRowBytes(r);
  const Status charged = charge.Add(total);
  if (!charged.ok()) return charged;
  RecordPeakMem(mutable_stats(), charge.peak());
  HTG_ASSIGN_OR_RETURN(std::unique_ptr<storage::RowIterator> left,
                       left_->Open(ctx));
  return {std::make_unique<NestedLoopIterator>(
      std::move(left), std::move(right_rows), predicate_.get(), &ctx->eval,
      std::move(charge))};
}

std::string NestedLoopJoinOp::Describe() const {
  return "Nested Loops (Inner Join) [" +
         (predicate_ ? predicate_->ToString() : std::string("true")) + "]";
}

}  // namespace htg::exec
