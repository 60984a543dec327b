#include "exec/join_ops.h"

#include <algorithm>
#include <optional>
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

bool HasNull(const Row& key) {
  bool has_null = false;
  for (const Value& v : key) has_null = has_null || v.is_null();
  return has_null;
}

// Writes the `columns` of left ++ right into `out`, copy-assigning into
// its existing values so a reused output row keeps its string buffers.
void AssignJoined(const Row& left, const Row& right,
                  const JoinColumns& columns, Row* out) {
  out->resize(columns.left.size() + columns.right.size());
  auto it = out->begin();
  for (int c : columns.left) *it++ = left[c];
  for (int c : columns.right) *it++ = right[c];
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

// Streams a hash join, in memory or partitioned to disk. A pass builds
// the table from the right child (level 0) or a spilled build run, then
// streams the left child or the paired probe run against it. When the
// build busts the budget, the pass dumps its table into a PartitionSpill
// at its level and routes the rest of the build and all its probe rows
// there; each partition is a later pass one level deeper. The in-memory
// join is the case where nothing spilled. Output order of a spilled join
// differs from the in-memory join's.
class HashJoinIterator : public storage::RowSource {
 public:
  HashJoinIterator(const std::vector<ExprPtr>* left_keys,
                   const std::vector<ExprPtr>* right_keys, ExecContext* ctx,
                   OperatorStats* stats, bool left_outer, int right_width,
                   const JoinColumns* columns, const char* op)
      : left_keys_(left_keys),
        right_keys_(right_keys),
        ctx_(ctx),
        stats_(stats),
        left_outer_(left_outer),
        columns_(columns),
        null_right_(right_width, Value::Null()),
        op_(op),
        charge_(ctx->mem.get(), op) {}

  // Loads the build table of a pass at `level` from `input`: each row is
  // charged, or, once the budget refuses one, the resident table is
  // dumped into this level's partitions and the rest of the input routed
  // there.
  Status Build(storage::RowIterator* input, int level) {
    matches_ = nullptr;  // pointed into the previous pass's table
    build_.clear();
    charge_.ReleaseAll();
    spill_ = std::make_unique<PartitionSpill>(ctx_, stats_, op_, level,
                                              /*sides=*/2);
    BatchReader rows(input);
    Row row;
    Row key;
    while (rows.Next(&row)) {
      HTG_RETURN_IF_ERROR(EvalKeysInto(*right_keys_, &ctx_->eval, row, &key));
      if (HasNull(key)) continue;  // NULL build keys never match
      if (spill_->engaged()) {
        HTG_RETURN_IF_ERROR(spill_->Add(0, key, row));
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
      for (auto& [bkey, brows] : build_) {
        for (const Row& brow : brows) {
          HTG_RETURN_IF_ERROR(spill_->Add(0, bkey, brow));
        }
      }
      build_.clear();
      charge_.ReleaseAll();
      HTG_RETURN_IF_ERROR(spill_->Add(0, key, row));
    }
    RecordPeakMem(stats_, charge_.peak());
    return rows.status();
  }

  // Streams `input` against the table Build loaded, or, when the build
  // spilled, routes it into the same partitions and queues them. NULL
  // keys match nothing: an inner join drops those rows, a left-outer join
  // routes them like any other and pads them in their partition.
  Status Probe(std::unique_ptr<storage::RowIterator> input) {
    if (!spill_->engaged()) {
      probe_ = std::move(input);
      probe_rows_.emplace(probe_.get());
      return Status::OK();
    }
    BatchReader rows(input.get());
    Row row;
    Row key;
    while (rows.Next(&row)) {
      HTG_RETURN_IF_ERROR(EvalKeysInto(*left_keys_, &ctx_->eval, row, &key));
      if (!left_outer_ && HasNull(key)) continue;
      HTG_RETURN_IF_ERROR(spill_->Add(1, key, row));
    }
    HTG_RETURN_IF_ERROR(rows.status());
    return spill_->Finish(&worklist_);
  }

  bool Next(Row* row) override {
    for (;;) {
      if (matches_ != nullptr && match_index_ < matches_->size()) {
        AssignJoined(probe_row_, (*matches_)[match_index_++], *columns_, row);
        return true;
      }
      if (!probe_rows_.has_value() || !probe_rows_->Next(&probe_row_)) {
        if (probe_rows_.has_value()) status_ = probe_rows_->status();
        probe_rows_.reset();
        if (!status_.ok() || worklist_.empty()) return false;
        status_ = NextPartition();
        if (!status_.ok()) return false;
        continue;
      }
      status_ = EvalKeysInto(*left_keys_, &ctx_->eval, probe_row_, &probe_key_);
      if (!status_.ok()) return false;
      // SQL equi-join: NULL keys never match.
      auto it = HasNull(probe_key_) ? build_.end() : build_.find(probe_key_);
      if (it == build_.end()) {
        matches_ = nullptr;
        if (left_outer_) {
          // Unmatched left row: pad the right side with NULLs.
          AssignJoined(probe_row_, null_right_, *columns_, row);
          return true;
        }
        continue;
      }
      matches_ = &it->second;
      match_index_ = 0;
    }
  }

  Status status() const override { return status_; }

 private:
  // One pass over the next spilled partition.
  Status NextPartition() {
    HTG_ASSIGN_OR_RETURN(SpillWork work, worklist_.Pop(op_));
    storage::SpillRunReader build(work.file, std::move(work.runs[0]));
    HTG_RETURN_IF_ERROR(Build(&build, work.level));
    return Probe(std::make_unique<storage::SpillRunReader>(
        work.file, std::move(work.runs[1])));
  }

  const std::vector<ExprPtr>* left_keys_;
  const std::vector<ExprPtr>* right_keys_;
  ExecContext* ctx_;
  OperatorStats* stats_;
  bool left_outer_;
  const JoinColumns* columns_;
  Row null_right_;  // right-side padding of unmatched left-outer rows
  const char* op_;
  MemoryCharge charge_;  // keeps the build table accounted while live
  BuildMap build_;
  // The worklist owns the spill files, so it outlives their readers.
  SpillWorklist worklist_;
  std::unique_ptr<PartitionSpill> spill_;  // this pass's partitions
  std::unique_ptr<storage::RowIterator> probe_;
  std::optional<BatchReader> probe_rows_;  // over probe_; empty when spilled
  Row probe_row_;
  Row probe_key_;
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
                    const JoinColumns* columns, udf::EvalContext* eval,
                    MemoryContext* mem)
      : left_(std::move(left)),
        right_(std::move(right)),
        left_rows_(left_.get()),
        right_rows_(right_.get()),
        left_keys_(left_keys),
        right_keys_(right_keys),
        columns_(columns),
        eval_(eval),
        charge_(mem, "Merge Join") {}

  bool Next(Row* row) override {
    if (!status_.ok()) return false;
    for (;;) {
      if (emitting_ && group_index_ < right_group_.size()) {
        AssignJoined(left_row_, right_group_[group_index_++], *columns_, row);
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
  const JoinColumns* columns_;
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
                     const JoinColumns* columns, udf::EvalContext* eval,
                     MemoryCharge charge)
      : left_(std::move(left)),
        left_rows_(left_.get()),
        right_(std::move(right)),
        predicate_(predicate),
        columns_(columns),
        eval_(eval),
        charge_(std::move(charge)) {}

  bool Next(Row* row) override {
    for (;;) {
      while (right_index_ < right_.size()) {
        AssignJoined(left_row_, right_[right_index_++], *columns_, row);
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
  const JoinColumns* columns_;
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

JoinColumns::JoinColumns(const std::vector<int>& columns, int left_width) {
  for (int c : columns) {
    if (c < left_width) {
      left.push_back(c);
    } else {
      right.push_back(c - left_width);
    }
  }
}

HashJoinOp::HashJoinOp(OperatorPtr left, OperatorPtr right,
                       std::vector<ExprPtr> left_keys,
                       std::vector<ExprPtr> right_keys,
                       const std::vector<int>& columns, bool left_outer)
    : left_(std::move(left)),
      right_(std::move(right)),
      left_keys_(std::move(left_keys)),
      right_keys_(std::move(right_keys)),
      left_outer_(left_outer),
      columns_(columns, left_->output_schema().num_columns()) {
  Schema joined = left_->output_schema();
  for (Column col : right_->output_schema().columns()) {
    // Outer-padded right columns are nullable in the output schema.
    if (left_outer_) col.nullable = true;
    joined.AddColumn(std::move(col));
  }
  schema_ = joined.Project(columns);
}

Result<std::unique_ptr<storage::RowIterator>> HashJoinOp::OpenImpl(
    ExecContext* ctx) {
  HTG_ASSIGN_OR_RETURN(std::unique_ptr<storage::RowIterator> right,
                       right_->Open(ctx));
  auto join = std::make_unique<HashJoinIterator>(
      &left_keys_, &right_keys_, ctx, mutable_stats(), left_outer_,
      right_->output_schema().num_columns(), &columns_,
      left_outer_ ? "Hash Match (Left Outer Join)" : "Hash Match (Inner Join)");
  HTG_RETURN_IF_ERROR(join->Build(right.get(), /*level=*/0));
  HTG_ASSIGN_OR_RETURN(std::unique_ptr<storage::RowIterator> left,
                       left_->Open(ctx));
  HTG_RETURN_IF_ERROR(join->Probe(std::move(left)));
  return {std::move(join)};
}

std::string HashJoinOp::Describe() const {
  return std::string(left_outer_ ? "Hash Match (Left Outer Join) "
                                 : "Hash Match (Inner Join) ") +
         DescribeJoinKeys(left_keys_, right_keys_) + DescribeColumns(schema_);
}

MergeJoinOp::MergeJoinOp(OperatorPtr left, OperatorPtr right,
                         std::vector<ExprPtr> left_keys,
                         std::vector<ExprPtr> right_keys,
                         const std::vector<int>& columns)
    : left_(std::move(left)),
      right_(std::move(right)),
      left_keys_(std::move(left_keys)),
      right_keys_(std::move(right_keys)),
      columns_(columns, left_->output_schema().num_columns()),
      schema_(ConcatSchemas(left_->output_schema(), right_->output_schema())
                  .Project(columns)) {}

Result<std::unique_ptr<storage::RowIterator>> MergeJoinOp::OpenImpl(
    ExecContext* ctx) {
  HTG_ASSIGN_OR_RETURN(std::unique_ptr<storage::RowIterator> left,
                       left_->Open(ctx));
  HTG_ASSIGN_OR_RETURN(std::unique_ptr<storage::RowIterator> right,
                       right_->Open(ctx));
  return {std::make_unique<MergeJoinIterator>(std::move(left), std::move(right),
                                              &left_keys_, &right_keys_,
                                              &columns_, &ctx->eval,
                                              ctx->mem.get())};
}

std::string MergeJoinOp::Describe() const {
  return "Merge Join (Inner Join) " +
         DescribeJoinKeys(left_keys_, right_keys_) + DescribeColumns(schema_);
}

NestedLoopJoinOp::NestedLoopJoinOp(OperatorPtr left, OperatorPtr right,
                                   ExprPtr predicate,
                                   const std::vector<int>& columns)
    : left_(std::move(left)),
      right_(std::move(right)),
      predicate_(std::move(predicate)),
      columns_(columns, left_->output_schema().num_columns()),
      schema_(ConcatSchemas(left_->output_schema(), right_->output_schema())
                  .Project(columns)) {}

Result<std::unique_ptr<storage::RowIterator>> NestedLoopJoinOp::OpenImpl(
    ExecContext* ctx) {
  HTG_ASSIGN_OR_RETURN(std::unique_ptr<storage::RowIterator> right,
                       right_->Open(ctx));
  // The inner table has no out-of-core fallback; over budget is a typed
  // statement error, raised by the batch that crosses the budget rather
  // than after the whole inner side is read.
  MemoryCharge charge(ctx->mem.get(), "Nested Loops (Inner Join)");
  std::vector<Row> right_rows;
  HTG_RETURN_IF_ERROR(DrainIterator(right.get(), &right_rows, &charge));
  RecordPeakMem(mutable_stats(), charge.peak());
  HTG_ASSIGN_OR_RETURN(std::unique_ptr<storage::RowIterator> left,
                       left_->Open(ctx));
  return {std::make_unique<NestedLoopIterator>(
      std::move(left), std::move(right_rows), predicate_.get(), &columns_,
      &ctx->eval, std::move(charge))};
}

std::string NestedLoopJoinOp::Describe() const {
  return "Nested Loops (Inner Join) [" +
         (predicate_ ? predicate_->ToString() : std::string("true")) + "]" +
         DescribeColumns(schema_);
}

}  // namespace htg::exec
