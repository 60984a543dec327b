#include "exec/aggregate_ops.h"

#include <algorithm>
#include <unordered_set>

#include "common/metrics.h"
#include "common/string_util.h"
#include "exec/batch.h"
#include "exec/spill_util.h"
#include "storage/spill.h"

namespace htg::exec {

namespace {

// Rough per-group accounting on top of the key values' own bytes (which
// sit in the table's flat key vector): the group's share of the slot
// array, 4 slots of 8 bytes at the lowest load factor (1/4, right after
// a doubling), plus the flat vectors' growth slack; and per aggregate an
// 8-byte pointer in the flat instance vector plus the heap instance with
// its allocator header.
constexpr size_t kGroupOverheadBytes = 64;
constexpr size_t kInstanceOverheadBytes = 64;

// The group table behind every hash aggregate (and SELECT DISTINCT): the
// serial build, the parallel partial tables and their partitioned final
// merge, and the spill re-aggregation passes. Open addressing with linear
// probing over 8-byte slots of (cached hash, group index); group keys
// and aggregate instances live in flat per-table vectors indexed by
// group. Slots keep the low 32 bits of the key's hash, and group indexes
// fit 32 bits (4 G groups, far past any memory budget).
// A probe compares cached hashes before it touches a key, and growth
// re-slots by cached hash without re-hashing any key. Rows probe through
// a reused scratch key, so a row whose group exists allocates nothing.
class GroupTable {
 public:
  static constexpr size_t kNone = ~size_t{0};

  GroupTable(size_t key_width, const std::vector<AggSpec>* aggs)
      : width_(key_width),
        aggs_(aggs),
        scratch_(key_width),
        slots_(kInitialSlots) {}

  size_t size() const { return num_groups_; }

  // The probe key: callers assign a row's group key values here, then
  // call FindOrCreate.
  Row& scratch() { return scratch_; }

  udf::AggregateInstance* instance(size_t group, size_t agg) {
    return instances_[group * aggs_->size() + agg].get();
  }

  // Returns the group of the scratch key, creating it when absent. Group
  // creation is charged against the query budget; once the budget
  // rejects a new group, rows of unseen keys are routed to `spill`
  // instead — keys already resident keep accumulating, so every resident
  // group is complete and disjoint from the spilled keys. Returns kNone
  // when the row was routed (the caller skips it); `make_input`
  // materializes the input row only on that path.
  template <typename InputFn>
  Result<size_t> FindOrCreate(MemoryCharge* charge, PartitionSpill* spill,
                              InputFn&& make_input) {
    const auto hash =
        static_cast<uint32_t>(HashKey(scratch_.data(), width_));
    size_t slot = 0;
    const size_t found = Find(hash, scratch_.data(), &slot);
    if (found != kNone) return found;
    const size_t bytes = GroupBytes(scratch_.data());
    Status charged = charge->Add(bytes);
    if (!charged.ok()) {
      charge->Release(bytes);  // the group is not being created
      if (!charged.IsResourceExhausted()) return charged;
      HTG_RETURN_IF_ERROR(spill->Add(0, scratch_, make_input()));
      return kNone;
    }
    const size_t group = AddGroup(hash, slot, scratch_.data());
    for (const AggSpec& a : *aggs_) instances_.push_back(a.NewInstance());
    return group;
  }

  // Folds the groups of `from` whose cached hash falls in partition
  // `part` of `nparts` into this table: instances of keys already here
  // merge, new keys move in with their instances. A call moves only its
  // own partition's entries out of `from`, so concurrent calls over
  // disjoint partitions need no locking.
  Status MergeFrom(GroupTable* from, size_t part, size_t nparts) {
    const size_t naggs = aggs_->size();
    for (const Slot& s : from->slots_) {
      if (s.group == kFree || PartitionOf(s.hash, nparts) != part) continue;
      Value* key = from->keys_.data() + s.group * width_;
      std::unique_ptr<udf::AggregateInstance>* theirs =
          from->instances_.data() + s.group * naggs;
      size_t slot = 0;
      const size_t found = Find(s.hash, key, &slot);
      if (found == kNone) {
        AddGroup(s.hash, slot, key);
        for (size_t a = 0; a < naggs; ++a) {
          instances_.push_back(std::move(theirs[a]));
        }
        continue;
      }
      for (size_t a = 0; a < naggs; ++a) {
        HTG_RETURN_IF_ERROR(instance(found, a)->Merge(*theirs[a]));
      }
    }
    return Status::OK();
  }

  // What FindOrCreate charged for every resident group.
  size_t ChargedBytes() const {
    size_t bytes = 0;
    for (size_t g = 0; g < num_groups_; ++g) {
      bytes += GroupBytes(keys_.data() + g * width_);
    }
    return bytes;
  }

  // Output batches, each row the group key then each aggregate's result,
  // in group creation order. Consumes the keys and instances.
  Result<std::vector<RowBatch>> Finalize(bool global_aggregate) {
    std::vector<RowBatch> out;
    const size_t naggs = aggs_->size();
    if (num_groups_ == 0 && global_aggregate) {
      // SELECT COUNT(*) over an empty input still yields one row.
      Row row;
      for (const AggSpec& a : *aggs_) {
        HTG_ASSIGN_OR_RETURN(Value v, a.NewInstance()->Terminate());
        row.push_back(std::move(v));
      }
      out.emplace_back().AppendRow(std::move(row));
      return out;
    }
    for (size_t begin = 0; begin < num_groups_;
         begin += RowBatch::kDefaultRows) {
      const size_t end = std::min(num_groups_, begin + RowBatch::kDefaultRows);
      RowBatch& batch = out.emplace_back();
      batch.ResetColumns(width_ + naggs);
      for (size_t c = 0; c < width_ + naggs; ++c) {
        batch.column(c).reserve(end - begin);
      }
      for (size_t g = begin; g < end; ++g) {
        for (size_t i = 0; i < width_; ++i) {
          batch.column(i).push_back(std::move(keys_[g * width_ + i]));
        }
        for (size_t a = 0; a < naggs; ++a) {
          std::unique_ptr<udf::AggregateInstance>& inst =
              instances_[g * naggs + a];
          HTG_ASSIGN_OR_RETURN(Value v, inst->Terminate());
          inst.reset();
          batch.column(width_ + a).push_back(std::move(v));
        }
      }
      batch.set_num_rows(end - begin);
    }
    return out;
  }

 private:
  static constexpr uint32_t kFree = ~uint32_t{0};  // empty slot
  struct Slot {
    uint32_t hash = 0;
    uint32_t group = kFree;
  };
  static constexpr size_t kInitialSlots = 16;

  // Partition of a cached hash in the parallel final merge: its top
  // bits, independent of the low bits the slot mask uses.
  static size_t PartitionOf(uint32_t hash, size_t nparts) {
    return static_cast<size_t>((uint64_t{hash} * nparts) >> 32);
  }

  size_t GroupBytes(const Value* key) const {
    size_t bytes = kGroupOverheadBytes + aggs_->size() * kInstanceOverheadBytes;
    for (size_t i = 0; i < width_; ++i) bytes += key[i].ApproxBytes();
    return bytes;
  }

  // The group of `key`, or kNone with *slot at the empty slot that ended
  // the probe.
  size_t Find(uint32_t hash, const Value* key, size_t* slot) const {
    const size_t mask = slots_.size() - 1;
    for (size_t i = hash & mask;; i = (i + 1) & mask) {
      const Slot& s = slots_[i];
      if (s.group == kFree) {
        *slot = i;
        return kNone;
      }
      if (s.hash == hash &&
          KeysEqual(keys_.data() + s.group * width_, key, width_)) {
        return s.group;
      }
    }
  }

  // Appends a group, moving its key values in from `key`; `slot` is the
  // empty slot from the failed Find. Keeps the load factor at most 1/2.
  size_t AddGroup(uint32_t hash, size_t slot, Value* key) {
    if (2 * (num_groups_ + 1) > slots_.size()) {
      Grow();
      slot = EmptySlot(hash);
    }
    slots_[slot] = Slot{hash, static_cast<uint32_t>(num_groups_)};
    for (size_t i = 0; i < width_; ++i) keys_.push_back(std::move(key[i]));
    return num_groups_++;
  }

  size_t EmptySlot(uint32_t hash) const {
    const size_t mask = slots_.size() - 1;
    size_t i = hash & mask;
    while (slots_[i].group != kFree) i = (i + 1) & mask;
    return i;
  }

  // Doubles the slot array, re-slotting every group by its cached hash.
  void Grow() {
    std::vector<Slot> old(slots_.size() * 2);
    old.swap(slots_);
    for (const Slot& s : old) {
      if (s.group != kFree) slots_[EmptySlot(s.hash)] = s;
    }
  }

  size_t width_;
  const std::vector<AggSpec>* aggs_;
  Row scratch_;
  std::vector<Slot> slots_;  // power-of-two size
  std::vector<Value> keys_;  // width_ values per group
  // aggs_->size() instances per group.
  std::vector<std::unique_ptr<udf::AggregateInstance>> instances_;
  size_t num_groups_ = 0;
};

// One reusable argument vector per aggregate.
std::vector<std::vector<Value>> ArgScratch(const std::vector<AggSpec>& aggs) {
  std::vector<std::vector<Value>> args(aggs.size());
  for (size_t i = 0; i < aggs.size(); ++i) args[i].resize(aggs[i].args.size());
  return args;
}

// Drains a child fully into a group table, charging new groups to
// `charge` and spilling the rows of keys it refuses to `spill`. Group
// keys and aggregate arguments evaluate as batch kernels, so only the
// hash probe and the UDA Accumulate call (the per-row seam — udf.uda
// instances accumulate row-at-a-time by contract) remain per-row work.
// Spilled rows are reassembled from the (untouched) batch columns.
Status BuildGroupsBatch(storage::RowIterator* iter,
                        const std::vector<ExprPtr>& group_exprs,
                        const std::vector<AggSpec>& aggs,
                        udf::EvalContext* eval, GroupTable* groups,
                        MemoryCharge* charge, PartitionSpill* spill) {
  RowBatch batch;
  std::vector<std::vector<Value>> key_cols(group_exprs.size());
  std::vector<std::vector<std::vector<Value>>> agg_cols(aggs.size());
  for (size_t i = 0; i < aggs.size(); ++i) {
    agg_cols[i].resize(aggs[i].args.size());
  }
  Row& key = groups->scratch();
  std::vector<std::vector<Value>> args = ArgScratch(aggs);
  while (iter->NextBatch(&batch)) {
    const size_t n = batch.ActiveRows();
    const uint32_t* sel = batch.selection_data();
    for (size_t g = 0; g < group_exprs.size(); ++g) {
      HTG_RETURN_IF_ERROR(
          group_exprs[g]->EvalBatch(eval, batch, sel, n, &key_cols[g]));
    }
    for (size_t i = 0; i < aggs.size(); ++i) {
      for (size_t a = 0; a < aggs[i].args.size(); ++a) {
        HTG_RETURN_IF_ERROR(
            aggs[i].args[a]->EvalBatch(eval, batch, sel, n, &agg_cols[i][a]));
      }
    }
    for (size_t j = 0; j < n; ++j) {
      for (size_t g = 0; g < group_exprs.size(); ++g) {
        key[g] = std::move(key_cols[g][j]);
      }
      HTG_ASSIGN_OR_RETURN(
          const size_t group, groups->FindOrCreate(charge, spill, [&]() {
            const size_t r = batch.ActiveIndex(j);
            Row input;
            input.reserve(batch.num_columns());
            for (size_t c = 0; c < batch.num_columns(); ++c) {
              input.push_back(batch.column(c)[r]);
            }
            return input;
          }));
      if (group == GroupTable::kNone) continue;
      for (size_t i = 0; i < aggs.size(); ++i) {
        for (size_t a = 0; a < args[i].size(); ++a) {
          args[i][a] = std::move(agg_cols[i][a][j]);
        }
        HTG_RETURN_IF_ERROR(groups->instance(group, i)->Accumulate(args[i]));
      }
    }
  }
  return iter->status();
}

std::string DescribeAggs(const std::vector<ExprPtr>& group_exprs,
                         const std::vector<AggSpec>& aggs) {
  std::string out = "[";
  if (!group_exprs.empty()) {
    out += "GROUP BY: ";
    for (size_t i = 0; i < group_exprs.size(); ++i) {
      if (i > 0) out += ", ";
      out += group_exprs[i]->ToString();
    }
    if (!aggs.empty()) out += "; ";
  }
  for (size_t i = 0; i < aggs.size(); ++i) {
    if (i > 0) out += ", ";
    out += aggs[i].display;
  }
  out += "]";
  return out;
}

// One re-aggregation pass: pops the next spilled partition and folds its
// rows into a fresh group table under `charge`. Rows of keys the budget
// still refuses spill one level deeper and queue on the worklist.
Result<GroupTable> AggregateSpilledPartition(
    SpillWorklist* worklist, const std::vector<ExprPtr>& group_exprs,
    const std::vector<AggSpec>* aggs, ExecContext* ctx, OperatorStats* stats,
    MemoryCharge* charge, const char* op) {
  HTG_ASSIGN_OR_RETURN(SpillWork work, worklist->Pop(op));
  PartitionSpill sub(ctx, stats, op, work.level);
  GroupTable groups(group_exprs.size(), aggs);
  storage::SpillRunReader reader(work.file, std::move(work.runs[0]));
  HTG_RETURN_IF_ERROR(BuildGroupsBatch(&reader, group_exprs, *aggs,
                                       &ctx->eval, &groups, charge, &sub));
  RecordPeakMem(stats, charge->peak());
  HTG_RETURN_IF_ERROR(sub.Finish(worklist));
  return groups;
}

// Streams the aggregate's output when the build spilled: emits the
// finalized in-memory groups first, then lazily re-aggregates one spill
// partition at a time, each under the budget the previous one released.
class SpilledAggIterator : public BatchIterator {
 public:
  SpilledAggIterator(std::vector<RowBatch> ready, MemoryCharge charge,
                     SpillWorklist worklist,
                     const std::vector<ExprPtr>* group_exprs,
                     const std::vector<AggSpec>* aggs, ExecContext* ctx,
                     OperatorStats* stats)
      : ready_(std::move(ready)),
        charge_(std::move(charge)),
        worklist_(std::move(worklist)),
        group_exprs_(group_exprs),
        aggs_(aggs),
        ctx_(ctx),
        stats_(stats) {}

 protected:
  bool ProduceBatch(RowBatch* batch) override {
    if (!status_.ok()) return false;
    for (;;) {
      while (next_ready_ < ready_.size()) {
        *batch = std::move(ready_[next_ready_++]);
        if (batch->ActiveRows() > 0) return true;
      }
      if (worklist_.empty()) return false;
      status_ = NextPartition();
      if (!status_.ok()) return false;
    }
  }

 private:
  Status NextPartition() {
    ready_.clear();
    next_ready_ = 0;
    charge_.ReleaseAll();  // the previous partition's rows are consumed
    HTG_ASSIGN_OR_RETURN(
        GroupTable groups,
        AggregateSpilledPartition(&worklist_, *group_exprs_, aggs_, ctx_,
                                  stats_, &charge_, "Hash Match (Aggregate)"));
    HTG_ASSIGN_OR_RETURN(ready_, groups.Finalize(false));
    return Status::OK();
  }

  std::vector<RowBatch> ready_;
  size_t next_ready_ = 0;
  MemoryCharge charge_;
  SpillWorklist worklist_;
  const std::vector<ExprPtr>* group_exprs_;
  const std::vector<AggSpec>* aggs_;
  ExecContext* ctx_;
  OperatorStats* stats_;
};

}  // namespace

namespace {

// Wraps an aggregate with DISTINCT semantics: argument tuples are
// deduplicated under the hash operators' key equality (Value::Compare, so
// 1 = 1.0 and NULL = NULL, as in GROUP BY) and replayed into a fresh inner
// instance at Terminate, so that Merge (set union) stays correct under
// parallel plans. The replay runs in Value::Compare order, so order-
// sensitive results such as SUM over doubles do not depend on which
// morsel saw a tuple first.
class DistinctAggregateInstance : public udf::AggregateInstance {
 public:
  explicit DistinctAggregateInstance(const udf::AggregateFunction* fn)
      : fn_(fn) {}

  Status Accumulate(const std::vector<Value>& args) override {
    distinct_.insert(args);
    return Status::OK();
  }

  Status Merge(const udf::AggregateInstance& other) override {
    const auto& o = static_cast<const DistinctAggregateInstance&>(other);
    distinct_.insert(o.distinct_.begin(), o.distinct_.end());
    return Status::OK();
  }

  Result<Value> Terminate() override {
    std::vector<const Row*> order;
    order.reserve(distinct_.size());
    for (const Row& args : distinct_) order.push_back(&args);
    std::sort(order.begin(), order.end(), [](const Row* a, const Row* b) {
      for (size_t i = 0; i < a->size(); ++i) {
        const int cmp = (*a)[i].Compare((*b)[i]);
        if (cmp != 0) return cmp < 0;
      }
      return false;
    });
    std::unique_ptr<udf::AggregateInstance> inner = fn_->NewInstance();
    for (const Row* args : order) HTG_RETURN_IF_ERROR(inner->Accumulate(*args));
    return inner->Terminate();
  }

 private:
  const udf::AggregateFunction* fn_;
  std::unordered_set<Row, RowHash, RowEq> distinct_;
};

}  // namespace

AggSpec AggSpec::Clone() const {
  AggSpec copy;
  copy.fn = fn;
  copy.display = display;
  copy.distinct = distinct;
  copy.args.reserve(args.size());
  for (const ExprPtr& a : args) copy.args.push_back(a->Clone());
  return copy;
}

std::unique_ptr<udf::AggregateInstance> AggSpec::NewInstance() const {
  HTG_METRIC_COUNTER("udf.uda.instances")->Add(1);
  if (distinct) return std::make_unique<DistinctAggregateInstance>(fn);
  return fn->NewInstance();
}

DataType AggSpec::result_type() const {
  std::vector<DataType> types;
  types.reserve(args.size());
  for (const ExprPtr& a : args) types.push_back(a->result_type());
  return fn->result_type(types);
}

Schema MakeAggregateSchema(const std::vector<ExprPtr>& group_exprs,
                           const std::vector<std::string>& group_names,
                           const std::vector<AggSpec>& aggs) {
  Schema schema;
  for (size_t i = 0; i < group_exprs.size(); ++i) {
    Column col;
    col.name = i < group_names.size() ? group_names[i]
                                      : StringPrintf("group%zu", i);
    col.type = group_exprs[i]->result_type();
    schema.AddColumn(col);
  }
  for (const AggSpec& a : aggs) {
    Column col;
    col.name = a.display;
    col.type = a.result_type();
    schema.AddColumn(col);
  }
  return schema;
}

HashAggregateOp::HashAggregateOp(OperatorPtr child,
                                 std::vector<ExprPtr> group_exprs,
                                 std::vector<std::string> group_names,
                                 std::vector<AggSpec> aggs)
    : child_(std::move(child)),
      group_exprs_(std::move(group_exprs)),
      aggs_(std::move(aggs)),
      schema_(MakeAggregateSchema(group_exprs_, group_names, aggs_)) {}

Result<std::unique_ptr<storage::RowIterator>> HashAggregateOp::OpenImpl(
    ExecContext* ctx) {
  HTG_ASSIGN_OR_RETURN(std::unique_ptr<storage::RowIterator> child,
                       child_->Open(ctx));
  OperatorStats* stats = mutable_stats();
  const char* op = "Hash Match (Aggregate)";
  MemoryCharge charge(ctx->mem.get(), op);
  PartitionSpill spill(ctx, stats, op, 0);
  GroupTable groups(group_exprs_.size(), &aggs_);
  HTG_RETURN_IF_ERROR(BuildGroupsBatch(child.get(), group_exprs_, aggs_,
                                       &ctx->eval, &groups, &charge, &spill));
  RecordPeakMem(stats, charge.peak());
  HTG_ASSIGN_OR_RETURN(std::vector<RowBatch> batches,
                       groups.Finalize(group_exprs_.empty()));
  if (!spill.engaged()) {
    return {std::make_unique<MaterializedBatchesIterator>(std::move(batches),
                                                          std::move(charge))};
  }
  SpillWorklist worklist;
  HTG_RETURN_IF_ERROR(spill.Finish(&worklist));
  return {std::make_unique<SpilledAggIterator>(
      std::move(batches), std::move(charge), std::move(worklist),
      &group_exprs_, &aggs_, ctx, stats)};
}

std::string HashAggregateOp::Describe() const {
  return "Hash Match (Aggregate) " + DescribeAggs(group_exprs_, aggs_);
}

StreamAggregateOp::StreamAggregateOp(OperatorPtr child,
                                     std::vector<ExprPtr> group_exprs,
                                     std::vector<std::string> group_names,
                                     std::vector<AggSpec> aggs)
    : child_(std::move(child)),
      group_exprs_(std::move(group_exprs)),
      aggs_(std::move(aggs)),
      schema_(MakeAggregateSchema(group_exprs_, group_names, aggs_)) {}

namespace {

// Emits one row per run of equal group keys in the (ordered) input.
class StreamAggIterator : public storage::RowSource {
 public:
  StreamAggIterator(std::unique_ptr<storage::RowIterator> child,
                    const std::vector<ExprPtr>* group_exprs,
                    const std::vector<AggSpec>* aggs, udf::EvalContext* eval)
      : child_(std::move(child)),
        input_(child_.get()),
        group_exprs_(group_exprs),
        aggs_(aggs),
        eval_(eval),
        key_(group_exprs->size()),
        args_(ArgScratch(*aggs)) {}

  bool Next(Row* out) override {
    if (done_) return false;
    for (;;) {
      if (!input_.Next(&row_)) {
        status_ = input_.status();
        done_ = true;
        if (!status_.ok() || !has_group_) return false;
        return EmitCurrent(out);
      }
      for (size_t g = 0; g < group_exprs_->size(); ++g) {
        Result<Value> v = (*group_exprs_)[g]->Eval(eval_, row_);
        if (!v.ok()) {
          status_ = v.status();
          return false;
        }
        key_[g] = std::move(*v);
      }
      const bool same = has_group_ && RowEq()(key_, current_key_);
      if (!same && has_group_) {
        // Close the previous group, then start the new one with this row.
        if (!EmitCurrent(out)) return false;
        StartGroup();
        return Accumulate();
      }
      if (!has_group_) StartGroup();
      if (!Accumulate()) return false;
    }
  }

  Status status() const override { return status_; }

 private:
  void StartGroup() {
    current_key_.swap(key_);
    key_.resize(current_key_.size());
    has_group_ = true;
    instances_.clear();
    for (const AggSpec& a : *aggs_) instances_.push_back(a.NewInstance());
  }

  bool Accumulate() {
    for (size_t i = 0; i < aggs_->size(); ++i) {
      for (size_t a = 0; a < args_[i].size(); ++a) {
        Result<Value> v = (*aggs_)[i].args[a]->Eval(eval_, row_);
        if (!v.ok()) {
          status_ = v.status();
          return false;
        }
        args_[i][a] = std::move(*v);
      }
      const Status s = instances_[i]->Accumulate(args_[i]);
      if (!s.ok()) {
        status_ = s;
        return false;
      }
    }
    return true;
  }

  bool EmitCurrent(Row* out) {
    *out = current_key_;
    for (auto& instance : instances_) {
      Result<Value> v = instance->Terminate();
      if (!v.ok()) {
        status_ = v.status();
        return false;
      }
      out->push_back(std::move(*v));
    }
    return true;
  }

  std::unique_ptr<storage::RowIterator> child_;
  BatchReader input_;
  const std::vector<ExprPtr>* group_exprs_;
  const std::vector<AggSpec>* aggs_;
  udf::EvalContext* eval_;
  Row row_;          // the input row being folded in
  Row key_;          // its group key (scratch)
  Row current_key_;  // the open group's key
  bool has_group_ = false;
  bool done_ = false;
  std::vector<std::unique_ptr<udf::AggregateInstance>> instances_;
  std::vector<std::vector<Value>> args_;  // reused per row
  Status status_;
};

}  // namespace

Result<std::unique_ptr<storage::RowIterator>> StreamAggregateOp::OpenImpl(
    ExecContext* ctx) {
  HTG_ASSIGN_OR_RETURN(std::unique_ptr<storage::RowIterator> child,
                       child_->Open(ctx));
  return {std::make_unique<StreamAggIterator>(std::move(child), &group_exprs_,
                                              &aggs_, &ctx->eval)};
}

std::string StreamAggregateOp::Describe() const {
  return "Stream Aggregate " + DescribeAggs(group_exprs_, aggs_);
}

ParallelAggregateOp::ParallelAggregateOp(catalog::TableDef* table,
                                         std::vector<int> columns,
                                         std::vector<ParallelStage> stages,
                                         std::vector<ExprPtr> group_exprs,
                                         std::vector<std::string> group_names,
                                         std::vector<AggSpec> aggs, int dop,
                                         size_t morsel_pages)
    : table_(table),
      columns_(std::move(columns)),
      stages_(std::move(stages)),
      group_exprs_(std::move(group_exprs)),
      aggs_(std::move(aggs)),
      dop_(dop < 1 ? 1 : dop),
      morsel_pages_(morsel_pages == 0 ? kDefaultMorselPages : morsel_pages),
      schema_(MakeAggregateSchema(group_exprs_, group_names, aggs_)),
      repr_(BuildExplainPipeline(table_, columns_, stages_, dop_,
                                 morsel_pages_)) {}

int64_t ParallelAggregateOp::EstimateRows() const {
  // A global aggregate yields exactly one row; grouped cardinality is
  // unknown without column statistics.
  return group_exprs_.empty() ? 1 : -1;
}

Result<std::unique_ptr<storage::RowIterator>> ParallelAggregateOp::OpenImpl(
    ExecContext* ctx) {
  HTG_ASSIGN_OR_RETURN(const std::vector<Morsel> morsels,
                       PlanHeapMorsels(table_, *ctx, morsel_pages_));
  const int dop =
      std::min(static_cast<size_t>(dop_), std::max<size_t>(1, morsels.size()));

  OperatorStats* stats = mutable_stats();
  if (ctx->collect_stats) {
    stats->worker_rows.assign(dop, 0);
    stats->worker_morsels.assign(dop, 0);
    stats->worker_batches.assign(dop, 0);
  }

  // Shared governance: one charge ledger and one partition-spill sink
  // for all workers. A worker that cannot create a new group (budget
  // crossed) spills its input rows; keys resident in *its* partial map
  // keep accumulating. The same key may then live in one worker's map
  // and in the spill partitions, so the spill path below merges
  // everything (maps and re-aggregated partitions) into one final map.
  const char* op = "Parallel Hash Match (Aggregate)";
  MemoryCharge charge(ctx->mem.get(), op);
  PartitionSpill spill(ctx, stats, op, 0);

  // Partial phase: workers steal morsels off the shared counter, replay
  // the stage pipeline over each page range, and accumulate into
  // thread-local partial tables. Expression trees are immutable and
  // shared; each worker evaluates through its own EvalContext copy.
  std::vector<GroupTable> partials;
  partials.reserve(dop);
  for (int w = 0; w < dop; ++w) {
    partials.emplace_back(group_exprs_.size(), &aggs_);
  }
  std::vector<ExecContext> worker_ctx(dop, *ctx);
  HTG_RETURN_IF_ERROR(ParallelDrainMorsels(
      ctx->pool, dop, morsels.size(), [&](int worker, size_t m) -> Status {
        OperatorPtr pipeline =
            BuildMorselPipeline(table_, columns_, morsels[m], stages_);
        if (ctx->collect_stats) {
          LinkPipelineStats(pipeline.get(), repr_.get());
        }
        HTG_ASSIGN_OR_RETURN(std::unique_ptr<storage::RowIterator> iter,
                             pipeline->Open(&worker_ctx[worker]));
        if (ctx->collect_stats) {
          // Count the rows (and batches) this worker feeds its partial
          // table, for the per-worker skew lines under the exchange in
          // ANALYZE output.
          iter = WrapCounting(std::move(iter), &stats->worker_rows[worker],
                              &stats->worker_batches[worker]);
          ++stats->worker_morsels[worker];
        }
        return BuildGroupsBatch(iter.get(), group_exprs_, aggs_,
                                &worker_ctx[worker].eval, &partials[worker],
                                &charge, &spill);
      }));
  RecordPeakMem(stats, charge.peak());

  size_t total_groups = 0;
  for (const GroupTable& p : partials) total_groups += p.size();
  if (total_groups == 0 && !spill.engaged()) {
    // SELECT COUNT(*) over an empty input still yields one row.
    HTG_ASSIGN_OR_RETURN(std::vector<RowBatch> batches,
                         partials[0].Finalize(group_exprs_.empty()));
    return {std::make_unique<MaterializedBatchesIterator>(std::move(batches))};
  }

  if (spill.engaged()) {
    // Degraded path: fold every partial table into one final table, then
    // re-aggregate each spill partition and merge its groups in too — the
    // only ordering that is correct when a key sits in one worker's table
    // and in the spill. Keys are owned by exactly one partition per level,
    // so a pass's groups can only collide with build-time residents.
    GroupTable merged(group_exprs_.size(), &aggs_);
    for (GroupTable& partial : partials) {
      HTG_RETURN_IF_ERROR(merged.MergeFrom(&partial, 0, 1));
    }
    partials.clear();
    // The resident merged table was sized by the budget during the build;
    // release its charges so each partition pass below gets the full
    // budget — otherwise a pass could never admit a group and rows would
    // re-spill until the depth limit. The table is re-accounted (and the
    // peak recorded) once the passes are done.
    charge.ReleaseAll();
    SpillWorklist worklist;
    HTG_RETURN_IF_ERROR(spill.Finish(&worklist));
    while (!worklist.empty()) {
      MemoryCharge pass_charge(ctx->mem.get(), op);
      HTG_ASSIGN_OR_RETURN(
          GroupTable part_groups,
          AggregateSpilledPartition(&worklist, group_exprs_, &aggs_, ctx,
                                    stats, &pass_charge, op));
      HTG_RETURN_IF_ERROR(merged.MergeFrom(&part_groups, 0, 1));
    }
    charge.AddUnchecked(merged.ChargedBytes());
    RecordPeakMem(stats, charge.peak());
    HTG_ASSIGN_OR_RETURN(std::vector<RowBatch> batches,
                         merged.Finalize(group_exprs_.empty()));
    return {std::make_unique<MaterializedBatchesIterator>(std::move(batches),
                                                          std::move(charge))};
  }

  // Final phase: a parallel partitioned merge instead of a serial fold.
  // Groups are owned by partition of their cached hash; each partition
  // worker walks every partial table, merges the entries it owns, and
  // finalizes them. Entries are only read (cached hash) or moved by their
  // owning partition, so the partial tables need no locking.
  const size_t nparts = static_cast<size_t>(dop);
  std::vector<std::vector<RowBatch>> out_parts(nparts);
  HTG_RETURN_IF_ERROR(ParallelDrainMorsels(
      ctx->pool, dop, nparts, [&](int, size_t part) -> Status {
        GroupTable merged(group_exprs_.size(), &aggs_);
        for (GroupTable& partial : partials) {
          HTG_RETURN_IF_ERROR(merged.MergeFrom(&partial, part, nparts));
        }
        HTG_ASSIGN_OR_RETURN(out_parts[part], merged.Finalize(false));
        return Status::OK();
      }));

  std::vector<RowBatch> batches;
  for (std::vector<RowBatch>& part : out_parts) {
    for (RowBatch& b : part) batches.push_back(std::move(b));
  }
  RecordPeakMem(stats, charge.peak());
  return {std::make_unique<MaterializedBatchesIterator>(std::move(batches),
                                                        std::move(charge))};
}

std::string ParallelAggregateOp::Describe() const {
  return StringPrintf(
             "Parallelism (Gather Streams) + Hash Match "
             "(Partial/Final Aggregate), DOP=%d ",
             dop_) +
         DescribeAggs(group_exprs_, aggs_);
}

}  // namespace htg::exec
