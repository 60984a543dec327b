#include "exec/join_ops.h"

#include <algorithm>
#include <bit>
#include <numeric>
#include <utility>

#include "exec/batch.h"
#include "exec/spill_util.h"
#include "storage/spill.h"

namespace htg::exec {

namespace {

constexpr size_t kLeft = 0;
constexpr size_t kRight = 1;
constexpr uint32_t kNoRow = ~uint32_t{0};

// Evaluates `exprs` over the live rows of `batch`: (*keys)[k][j] is key
// k of live row j.
Status EvalKeys(const std::vector<ExprPtr>& exprs, udf::EvalContext* eval,
                const RowBatch& batch, KeyCols* keys) {
  keys->resize(exprs.size());
  for (size_t k = 0; k < exprs.size(); ++k) {
    HTG_RETURN_IF_ERROR(exprs[k]->EvalBatch(eval, batch, batch.selection_data(),
                                            batch.ActiveRows(), &(*keys)[k]));
  }
  return Status::OK();
}

bool HasNullKey(const KeyCols& keys, size_t j) {
  return std::any_of(keys.begin(), keys.end(),
                     [j](const std::vector<Value>& key) {
                       return key[j].is_null();
                     });
}

// Narrows `batch` to its live rows whose keys hold no NULL, compacting
// the evaluated keys to match: SQL equi-joins never match a NULL key.
void DropNullKeys(KeyCols* keys, RowBatch* batch) {
  std::vector<uint32_t> live;
  for (size_t j = 0; j < batch->ActiveRows(); ++j) {
    if (HasNullKey(*keys, j)) continue;
    for (std::vector<Value>& key : *keys) swap(key[live.size()], key[j]);
    live.push_back(static_cast<uint32_t>(batch->ActiveIndex(j)));
  }
  if (live.size() == batch->ActiveRows()) return;
  for (std::vector<Value>& key : *keys) key.resize(live.size());
  batch->SetSelection(std::move(live));
}

// Writes output row `r` of the fill in progress: the columns `left` of
// physical row `lr` of `batch`, then the `width` columns after the keys
// of row `rr` of `right`, or NULLs when `rr` is kNoRow.
void WriteJoined(const RowBatch& batch, const std::vector<int>& left,
                 size_t lr, const KeyedColumns& right, size_t width,
                 uint32_t rr, RowBatch* out, size_t r) {
  size_t c = 0;
  for (int col : left) out->Slot(c++, r) = batch.column(col)[lr];
  for (size_t p = right.num_keys(); p < right.num_keys() + width; ++p) {
    out->Slot(c++, r) = rr == kNoRow ? Value::Null() : right.column(p)[rr];
  }
}

// What a hash join charges per build row besides its values: the cached
// hash, the chain link, and up to two bucket heads.
constexpr size_t kIndexBytesPerRow = 4 * sizeof(uint32_t);

// Streams a hash join, in memory or partitioned to disk, in passes. A
// pass buffers the build side (per row its keys, then the right columns
// the join emits) from the right child (level 0) or a spilled build run,
// indexes it, and streams the left child or the paired probe run against
// it. When the budget refuses a build batch, the buffered rows, the rest
// of the build and every probe row go to the pass's partitions as (keys
// ++ emitted columns) records; each partition is a pass one level
// deeper, which reads its keys from the records. The in-memory join
// (nothing spilled) emits in probe order, and a key's build rows in build
// order; a spilled join's order differs.
class HashJoinIterator : public BatchIterator {
 public:
  HashJoinIterator(const JoinSpec* spec, bool left_outer, ExecContext* ctx,
                   OperatorStats* stats, const char* op)
      : spec_(spec),
        left_outer_(left_outer),
        ctx_(ctx),
        stats_(stats),
        op_(op),
        charge_(ctx->mem.get(), op),
        build_(spec->keys[kRight].size()),
        scratch_(build_.num_keys()) {
    // Below level 0, a side's emitted columns follow the record's keys.
    for (size_t side : {kLeft, kRight}) {
      spilled_[side].resize(Emitted(side)->size());
      std::iota(spilled_[side].begin(), spilled_[side].end(),
                static_cast<int>(build_.num_keys()));
    }
  }

  // Buffers and indexes the build side of a pass at `level`, charging it
  // per batch. Once the budget refuses a batch, the buffered rows and
  // the rest of `input` go to this level's partitions.
  Status Build(storage::RowIterator* input, int level) {
    level_ = level;
    build_.Reset(0);
    charge_.ReleaseAll();
    spill_ = std::make_unique<PartitionSpill>(ctx_, stats_, op_, level,
                                              /*sides=*/2);
    RowBatch batch;
    while (input->NextBatch(&batch)) {
      HTG_RETURN_IF_ERROR(KeysOf(kRight, &batch));
      DropNullKeys(&keys_, &batch);  // NULL build keys never match
      if (spill_->engaged()) {
        scratch_.Append(&keys_, &batch, Emitted(kRight));
        HTG_RETURN_IF_ERROR(Spill(0, &scratch_));
        continue;
      }
      const Status charged =
          charge_.Add(build_.Append(&keys_, &batch, Emitted(kRight)) +
                      batch.ActiveRows() * kIndexBytesPerRow);
      if (charged.ok()) continue;
      if (!charged.IsResourceExhausted()) return charged;
      HTG_RETURN_IF_ERROR(Spill(0, &build_));
      charge_.ReleaseAll();
    }
    RecordPeakMem(stats_, charge_.peak());
    HTG_RETURN_IF_ERROR(input->status());
    if (!spill_->engaged()) Index();
    return Status::OK();
  }

  // Streams `input` against the table Build loaded or, when the build
  // spilled, routes it into the same partitions and queues them. NULL
  // keys never match: an inner join drops those rows, a left-outer join
  // routes them like any other and pads them in their partition.
  Status Probe(std::unique_ptr<storage::RowIterator> input) {
    probe_rows_ = pos_ = 0;
    if (!spill_->engaged()) {
      probe_ = std::move(input);
      return Status::OK();
    }
    RowBatch batch;
    while (input->NextBatch(&batch)) {
      HTG_RETURN_IF_ERROR(KeysOf(kLeft, &batch));
      if (!left_outer_) DropNullKeys(&keys_, &batch);
      scratch_.Append(&keys_, &batch, Emitted(kLeft));
      HTG_RETURN_IF_ERROR(Spill(1, &scratch_));
    }
    HTG_RETURN_IF_ERROR(input->status());
    return spill_->Finish(&worklist_);
  }

 protected:
  bool ProduceBatch(RowBatch* out) override {
    out->StartFill(spec_->columns.left.size() + spec_->columns.right.size());
    size_t n = 0;
    while (n < out->capacity() && status_.ok()) {
      if (pos_ < probe_rows_) {
        n = ProbeRows(out, n);
      } else if (probe_ != nullptr) {
        if (!NextProbeBatch()) probe_.reset();
      } else if (!worklist_.empty()) {
        status_ = NextPartition();
      } else {
        break;
      }
    }
    out->FinishFill(n);
    return n > 0 && status_.ok();
  }

 private:
  // The columns a side's rows carry into the output and into spill
  // records: the join's at level 0, the record's after its keys below.
  const std::vector<int>* Emitted(size_t side) const {
    if (level_ > 0) return &spilled_[side];
    return side == kLeft ? &spec_->columns.left : &spec_->columns.right;
  }

  // The keys of `batch` into keys_: evaluated at level 0, a (dense)
  // record batch's leading columns below.
  Status KeysOf(size_t side, RowBatch* batch) {
    if (level_ == 0) {
      return EvalKeys(spec_->keys[side], &ctx_->eval, *batch, &keys_);
    }
    keys_.resize(build_.num_keys());
    for (size_t k = 0; k < keys_.size(); ++k) keys_[k].swap(batch->column(k));
    return Status::OK();
  }

  // Moves every row of `rows` to its partition on `side`.
  Status Spill(size_t side, KeyedColumns* rows) {
    for (size_t i = 0; i < rows->rows(); ++i) {
      const size_t hash =
          HashKeyAt(rows->columns(), rows->num_keys(), i, spill_->salt());
      HTG_RETURN_IF_ERROR(spill_->Add(side, hash, rows->columns(), i));
    }
    rows->Reset(0);
    return Status::OK();
  }

  // Links every build row into the chain of its bucket, in build order.
  void Index() {
    const size_t n = build_.rows();
    const size_t buckets = std::bit_ceil(std::max<size_t>(n, 1));
    mask_ = buckets - 1;
    heads_.assign(buckets, kNoRow);
    next_.resize(n);
    hashes_.resize(n);
    for (size_t i = n; i-- > 0;) {
      hashes_[i] = static_cast<uint32_t>(
          HashKeyAt(build_.columns(), build_.num_keys(), i));
      next_[i] = std::exchange(heads_[hashes_[i] & mask_],
                               static_cast<uint32_t>(i));
    }
  }

  // Pulls the next probe batch and evaluates its keys. False at the end
  // or on error.
  bool NextProbeBatch() {
    probe_rows_ = pos_ = 0;
    if (!probe_->NextBatch(&probe_batch_)) {
      status_ = probe_->status();
      return false;
    }
    status_ = KeysOf(kLeft, &probe_batch_);
    if (!status_.ok()) return false;
    probe_rows_ = probe_batch_.ActiveRows();
    StartRow();
    return true;
  }

  // Hashes probe row pos_ and points cursor_ at its chain (none for a
  // NULL key).
  void StartRow() {
    matched_ = false;
    if (pos_ == probe_rows_) return;
    hash_ = static_cast<uint32_t>(HashKeyAt(keys_, keys_.size(), pos_));
    cursor_ = HasNullKey(keys_, pos_) ? kNoRow : heads_[hash_ & mask_];
  }

  // Writes the pairs of the probe rows from pos_ on into `out` from row
  // n, until the batch or the probe rows run out; returns the new row
  // count. A probe row whose matches do not all fit resumes at cursor_.
  size_t ProbeRows(RowBatch* out, size_t n) {
    const std::vector<int>& left = *Emitted(kLeft);
    const size_t width = spec_->columns.right.size();
    for (; pos_ < probe_rows_; ++pos_, StartRow()) {
      const size_t lr = probe_batch_.ActiveIndex(pos_);
      while (cursor_ != kNoRow && n < out->capacity()) {
        const uint32_t b = std::exchange(cursor_, next_[cursor_]);
        if (hashes_[b] == hash_ &&
            KeysEqual(build_.columns(), b, keys_, pos_, keys_.size())) {
          WriteJoined(probe_batch_, left, lr, build_, width, b, out, n++);
          matched_ = true;
        }
      }
      if (cursor_ != kNoRow || n == out->capacity()) break;
      // Unmatched left-outer row: pad the right side with NULLs.
      if (!matched_ && left_outer_) {
        WriteJoined(probe_batch_, left, lr, build_, width, kNoRow, out, n++);
      }
    }
    return n;
  }

  // One pass over the next spilled partition.
  Status NextPartition() {
    HTG_ASSIGN_OR_RETURN(SpillWork work, worklist_.Pop(op_));
    storage::SpillRunReader build(work.file, std::move(work.runs[0]));
    HTG_RETURN_IF_ERROR(Build(&build, work.level));
    return Probe(std::make_unique<storage::SpillRunReader>(
        work.file, std::move(work.runs[1])));
  }

  const JoinSpec* spec_;
  bool left_outer_;
  ExecContext* ctx_;
  OperatorStats* stats_;
  const char* op_;
  MemoryCharge charge_;  // keeps the build side accounted while live
  int level_ = 0;
  std::vector<int> spilled_[2];  // Emitted() below level 0, by side
  KeyedColumns build_;    // keys ++ emitted right columns
  KeyedColumns scratch_;  // rows on their way to the partitions
  KeyCols keys_;          // the current batch's keys
  // The index over build_: bucket heads, and per build row its chain link
  // and cached hash.
  std::vector<uint32_t> heads_;
  size_t mask_ = 0;
  std::vector<uint32_t> next_;
  std::vector<uint32_t> hashes_;
  // The worklist owns the spill files, so it outlives their readers.
  SpillWorklist worklist_;
  std::unique_ptr<PartitionSpill> spill_;  // this pass's partitions
  std::unique_ptr<storage::RowIterator> probe_;  // null once drained
  RowBatch probe_batch_;
  size_t probe_rows_ = 0;     // its live rows
  size_t pos_ = 0;            // the probe row being joined
  uint32_t hash_ = 0;         // its cached hash
  uint32_t cursor_ = kNoRow;  // the next build row of its chain
  bool matched_ = false;      // it has matched a build row
};

// Streaming merge join. Both inputs ascend on their keys; batches are
// pulled with their keys evaluated and NULL-keyed rows dropped, and the
// right side's rows are buffered one key group at a time, charged as the
// group grows (a key group can be arbitrarily wide). With no keys it is
// the nested loop: every left row matches the one group, the whole inner
// side, and `predicate` (over the output row) narrows each output batch.
class MergeJoinIterator : public BatchIterator {
 public:
  MergeJoinIterator(std::unique_ptr<storage::RowIterator> left,
                    std::unique_ptr<storage::RowIterator> right,
                    const JoinSpec* spec, const Expr* predicate,
                    ExecContext* ctx, OperatorStats* stats, const char* op)
      : inputs_{std::move(left), std::move(right)},
        spec_(spec),
        predicate_(predicate),
        eval_(&ctx->eval),
        stats_(stats),
        charge_(ctx->mem.get(), op),
        group_(spec->keys[kRight].size()) {}

 protected:
  bool ProduceBatch(RowBatch* out) override {
    const size_t width = spec_->columns.right.size();
    do {
      out->StartFill(spec_->columns.left.size() + width);
      const size_t n = Fill(out, width);
      out->FinishFill(n);
      if (n == 0 || !status_.ok()) return false;
      if (predicate_ != nullptr) {
        status_ = FilterBatch(*predicate_, eval_, out, &scratch_);
      }
    } while (status_.ok() && out->ActiveRows() == 0);
    return status_.ok();
  }

 private:
  // Writes joined rows into `out` until it is full or the join ends;
  // returns how many.
  size_t Fill(RowBatch* out, size_t width) {
    size_t n = 0;
    while (n < out->capacity() && status_.ok() && !done_) {
      if (emitting_) {
        const size_t lr = batches_[kLeft].ActiveIndex(pos_[kLeft]);
        for (; gpos_ < group_.rows() && n < out->capacity(); ++gpos_) {
          WriteJoined(batches_[kLeft], spec_->columns.left, lr, group_, width,
                      static_cast<uint32_t>(gpos_), out, n++);
        }
        if (gpos_ < group_.rows()) break;
        emitting_ = false;
        ++pos_[kLeft];
      } else if (pos_[kLeft] >= rows_[kLeft]) {
        done_ = !Pull(kLeft);
      } else {
        // Align the buffered right group with the left row's key.
        const int cmp =
            group_.rows() == 0
                ? 1
                : CompareKeys(keys_[kLeft], pos_[kLeft], group_.columns(), 0);
        if (cmp == 0) {
          emitting_ = true;
          gpos_ = 0;
        } else if (cmp < 0) {
          ++pos_[kLeft];  // no right row has this left row's key
        } else {
          done_ = !LoadNextRightGroup();  // false: no more right rows
        }
      }
    }
    return n;
  }

  // Orders row i of `a` against row j of `b` on the join keys.
  int CompareKeys(const KeyCols& a, size_t i, const KeyCols& b,
                  size_t j) const {
    for (size_t k = 0; k < group_.num_keys(); ++k) {
      const int cmp = a[k][i].Compare(b[k][j]);
      if (cmp != 0) return cmp;
    }
    return 0;
  }

  // Pulls the next batch of `side` with its keys. False at the end or on
  // error (kept in status_).
  bool Pull(size_t side) {
    rows_[side] = pos_[side] = 0;
    if (!inputs_[side]->NextBatch(&batches_[side])) {
      status_ = inputs_[side]->status();
      return false;
    }
    status_ = EvalKeys(spec_->keys[side], eval_, batches_[side], &keys_[side]);
    if (!status_.ok()) return false;
    DropNullKeys(&keys_[side], &batches_[side]);
    rows_[side] = batches_[side].ActiveRows();
    return true;
  }

  // Buffers the next run of equal-keyed right rows, which may span
  // batches, charging each batch's share before the next is read. False
  // when the right side is exhausted, or on error.
  bool LoadNextRightGroup() {
    group_.Clear();
    charge_.ReleaseAll();
    for (;;) {
      if (pos_[kRight] >= rows_[kRight]) {
        if (!right_done_ && Pull(kRight)) continue;
        right_done_ = true;
        return status_.ok() && group_.rows() > 0;
      }
      // Rows [begin, end) of this batch carry the group's key.
      const size_t begin = pos_[kRight];
      const bool open = group_.rows() == 0;
      const KeyCols& key = open ? keys_[kRight] : group_.columns();
      size_t end = open ? begin + 1 : begin;
      while (end < rows_[kRight] &&
             CompareKeys(keys_[kRight], end, key, open ? begin : 0) == 0) {
        ++end;
      }
      status_ = charge_.Add(group_.Append(&keys_[kRight], &batches_[kRight],
                                          &spec_->columns.right, begin, end));
      RecordPeakMem(stats_, charge_.peak());
      if (!status_.ok()) return false;
      pos_[kRight] = end;
      if (end < rows_[kRight]) return true;
    }
  }

  std::unique_ptr<storage::RowIterator> inputs_[2];  // by side
  const JoinSpec* spec_;
  const Expr* predicate_;  // null: keep every pair
  udf::EvalContext* eval_;
  OperatorStats* stats_;
  MemoryCharge charge_;  // the buffered group
  // Each side's current batch, its keys, its live rows and the next row:
  // the left row being joined, the first right row not yet buffered.
  RowBatch batches_[2];
  KeyCols keys_[2];
  size_t rows_[2] = {0, 0};
  size_t pos_[2] = {0, 0};
  bool right_done_ = false;
  KeyedColumns group_;  // keys ++ emitted right columns of one key
  size_t gpos_ = 0;     // the group row the left row joins next
  bool emitting_ = false;
  bool done_ = false;
  std::vector<Value> scratch_;  // predicate values
};

}  // namespace

Schema ConcatSchemas(const Schema& left, const Schema& right,
                     bool right_nullable) {
  Schema out = left;
  for (Column c : right.columns()) {
    c.nullable = c.nullable || right_nullable;
    out.AddColumn(std::move(c));
  }
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

JoinOp::JoinOp(OperatorPtr left, OperatorPtr right,
               std::vector<ExprPtr> left_keys, std::vector<ExprPtr> right_keys,
               const std::vector<int>& columns, bool right_nullable)
    : left_(std::move(left)),
      right_(std::move(right)),
      spec_{{std::move(left_keys), std::move(right_keys)},
            JoinColumns(columns, left_->output_schema().num_columns())},
      schema_(ConcatSchemas(left_->output_schema(), right_->output_schema(),
                            right_nullable)
                  .Project(columns)) {}

std::string JoinOp::DescribeKeys(const char* label) const {
  std::string out = std::string(label) + " [";
  for (size_t i = 0; i < spec_.keys[kLeft].size(); ++i) {
    if (i > 0) out += " AND ";
    out += spec_.keys[kLeft][i]->ToString() + " = " +
           spec_.keys[kRight][i]->ToString();
  }
  return out + "]" + DescribeColumns(schema_);
}

HashJoinOp::HashJoinOp(OperatorPtr left, OperatorPtr right,
                       std::vector<ExprPtr> left_keys,
                       std::vector<ExprPtr> right_keys,
                       const std::vector<int>& columns, bool left_outer)
    : JoinOp(std::move(left), std::move(right), std::move(left_keys),
             std::move(right_keys), columns, left_outer),
      left_outer_(left_outer) {}

Result<std::unique_ptr<storage::RowIterator>> HashJoinOp::OpenImpl(
    ExecContext* ctx) {
  HTG_ASSIGN_OR_RETURN(std::unique_ptr<storage::RowIterator> right,
                       right_->Open(ctx));
  auto join = std::make_unique<HashJoinIterator>(
      &spec_, left_outer_, ctx, mutable_stats(),
      left_outer_ ? "Hash Match (Left Outer Join)" : "Hash Match (Inner Join)");
  HTG_RETURN_IF_ERROR(join->Build(right.get(), /*level=*/0));
  HTG_ASSIGN_OR_RETURN(std::unique_ptr<storage::RowIterator> left,
                       left_->Open(ctx));
  HTG_RETURN_IF_ERROR(join->Probe(std::move(left)));
  return {std::move(join)};
}

std::string HashJoinOp::Describe() const {
  return DescribeKeys(left_outer_ ? "Hash Match (Left Outer Join)"
                                  : "Hash Match (Inner Join)");
}

MergeJoinOp::MergeJoinOp(OperatorPtr left, OperatorPtr right,
                         std::vector<ExprPtr> left_keys,
                         std::vector<ExprPtr> right_keys,
                         const std::vector<int>& columns)
    : JoinOp(std::move(left), std::move(right), std::move(left_keys),
             std::move(right_keys), columns) {}

MergeJoinOp::MergeJoinOp(OperatorPtr left, OperatorPtr right,
                         ExprPtr predicate, const std::vector<int>& columns)
    : JoinOp(std::move(left), std::move(right), {}, {}, columns),
      predicate_(std::move(predicate)) {}

// A nested loop's inner side has no out-of-core fallback: over budget is
// a typed statement error, raised by the batch that crosses the budget
// before the next one is read.
Result<std::unique_ptr<storage::RowIterator>> MergeJoinOp::OpenImpl(
    ExecContext* ctx) {
  HTG_ASSIGN_OR_RETURN(std::unique_ptr<storage::RowIterator> left,
                       left_->Open(ctx));
  HTG_ASSIGN_OR_RETURN(std::unique_ptr<storage::RowIterator> right,
                       right_->Open(ctx));
  return {std::make_unique<MergeJoinIterator>(
      std::move(left), std::move(right), &spec_, predicate_.get(), ctx,
      mutable_stats(),
      spec_.keys[kLeft].empty() ? "Nested Loops (Inner Join)" : "Merge Join")};
}

std::string MergeJoinOp::Describe() const {
  return DescribeKeys("Merge Join (Inner Join)");
}

std::string NestedLoopJoinOp::Describe() const {
  return "Nested Loops (Inner Join) [" +
         (predicate_ ? predicate_->ToString() : std::string("true")) + "]" +
         DescribeColumns(schema_);
}

}  // namespace htg::exec
