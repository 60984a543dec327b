#include "exec/aggregate_ops.h"

#include <algorithm>
#include <bit>
#include <climits>
#include <cstddef>
#include <cstring>
#include <unordered_set>

#include "common/metrics.h"
#include "common/string_util.h"
#include "exec/batch.h"
#include "exec/parallel.h"
#include "exec/spill_util.h"
#include "storage/spill.h"

namespace htg::exec {

namespace {

size_t AlignUp(size_t n, size_t align) {
  return (n + align - 1) / align * align;
}

// COUNT(DISTINCT x) and the other DISTINCT aggregates: argument tuples
// are deduplicated under the hash operators' key equality
// (Value::Compare, so 1 = 1.0 and NULL = NULL, as in GROUP BY) and
// replayed into the inner aggregate at Terminate, so that Merge (set
// union) stays correct under parallel plans. The replay runs in
// Value::Compare order, so order-sensitive results such as SUM over
// doubles do not depend on which morsel saw a tuple first. The set
// reports its bytes, so the query budget sees it grow.
struct DistinctSet {
  const udf::AggregateFunction* inner = nullptr;
  std::unordered_set<Row, RowHash, RowEq> rows;
  size_t bytes = 0;

  template <class Args>
  Status Accumulate(const Args& args) {
    Row row(args.size());
    for (size_t i = 0; i < args.size(); ++i) row[i] = args[i];
    const size_t row_bytes = RowBytes(row);
    if (rows.insert(std::move(row)).second) bytes += row_bytes;
    return Status::OK();
  }

  Status Merge(DistinctSet& other) {
    while (!other.rows.empty()) {
      auto node = other.rows.extract(other.rows.begin());
      const size_t row_bytes = RowBytes(node.value());
      other.bytes -= row_bytes;
      if (rows.insert(std::move(node)).inserted) bytes += row_bytes;
    }
    return Status::OK();
  }

  Result<Value> Terminate() {
    std::vector<const Row*> order;
    order.reserve(rows.size());
    for (const Row& args : rows) order.push_back(&args);
    std::sort(order.begin(), order.end(), [](const Row* a, const Row* b) {
      for (size_t i = 0; i < a->size(); ++i) {
        const int cmp = (*a)[i].Compare((*b)[i]);
        if (cmp != 0) return cmp < 0;
      }
      return false;
    });
    udf::AggregateState replay(inner);
    for (const Row* args : order) HTG_RETURN_IF_ERROR(replay.Accumulate(*args));
    return replay.Terminate();
  }

  size_t HeapBytes() const { return bytes; }

  // A set node: the row, its next pointer and cached hash, and a bucket.
  static size_t RowBytes(const Row& row) {
    return ApproxRowBytes(row) + 3 * sizeof(void*);
  }
};

class DistinctAggregate : public udf::TypedAggregate<DistinctSet> {
 public:
  explicit DistinctAggregate(const udf::AggregateFunction* inner)
      : inner_(inner) {}

  std::string_view name() const override { return inner_->name(); }
  int min_args() const override { return inner_->min_args(); }
  int max_args() const override { return inner_->max_args(); }
  DataType result_type(const std::vector<DataType>& args) const override {
    return inner_->result_type(args);
  }
  void Init(void* state) const override {
    auto* set = new (state) DistinctSet();
    set->inner = inner_;
  }

 private:
  const udf::AggregateFunction* inner_;
};

// The aggregates of one plan as group entries hold them: each one's
// function (COUNT(DISTINCT x) runs a DistinctAggregate around COUNT) and
// the offset of its state in a group's state block.
class AggLayout {
 public:
  explicit AggLayout(const std::vector<AggSpec>& aggs) {
    for (const AggSpec& a : aggs) {
      const udf::AggregateFunction* fn = a.fn;
      if (a.distinct) {
        distinct_.push_back(std::make_unique<DistinctAggregate>(a.fn));
        fn = distinct_.back().get();
      }
      bytes_ = AlignUp(bytes_, fn->state_align());
      offsets_.push_back(bytes_);
      bytes_ += fn->state_size();
      align_ = std::max(align_, fn->state_align());
      fns_.push_back(fn);
    }
  }

  size_t size() const { return fns_.size(); }
  const udf::AggregateFunction* fn(size_t i) const { return fns_[i]; }
  size_t offset(size_t i) const { return offsets_[i]; }
  size_t bytes() const { return bytes_; }
  size_t align() const { return align_; }

  // Fresh states, one per aggregate, outside any group table (a stream
  // aggregate's group, the empty global aggregate's one row).
  std::vector<udf::AggregateState> NewStates() const {
    HTG_METRIC_COUNTER("udf.uda.instances")->Add(fns_.size());
    std::vector<udf::AggregateState> states;
    states.reserve(fns_.size());
    for (const udf::AggregateFunction* fn : fns_) states.emplace_back(fn);
    return states;
  }

 private:
  std::vector<std::unique_ptr<udf::AggregateFunction>> distinct_;
  std::vector<const udf::AggregateFunction*> fns_;
  std::vector<size_t> offsets_;
  size_t bytes_ = 0;
  size_t align_ = 1;
};

// One group-key column of a batch: row j's value is
// (*values)[rows == nullptr ? j : rows[j]].
struct KeyColumn {
  const std::vector<Value>* values = nullptr;
  const uint32_t* rows = nullptr;

  const Value& at(size_t j) const {
    return (*values)[rows == nullptr ? j : rows[j]];
  }
};

// The batch columns aggregate k's arguments read: args[k][i] is argument
// i's column, indexed by a row's position among the batch's live rows.
using ArgColumns = std::vector<std::vector<const std::vector<Value>*>>;

// The integer value a packed key word decodes to, under the key
// expression's declared type.
Value IntKeyValue(DataType declared, int64_t v) {
  if (declared == DataType::kBool && (v == 0 || v == 1)) {
    return Value::Bool(v != 0);
  }
  if (declared == DataType::kInt32 && v >= INT32_MIN && v <= INT32_MAX) {
    return Value::Int32(static_cast<int32_t>(v));
  }
  return Value::Int64(v);
}

// The group table behind every hash aggregate (and SELECT DISTINCT): the
// serial build, the parallel partial tables and their partitioned final
// merge, and the spill re-aggregation passes. Open addressing with linear
// probing over 8-byte slots of (cached hash, group index). Slots keep the
// low 32 bits of the key's hash, and group indexes fit 32 bits (4 G
// groups, far past any memory budget).
//
// Each group is one entry in an arena of chunks: its packed key, then
// every aggregate's state at its declared alignment, so a group costs no
// allocation of its own and states never move. Chunks double from 16
// groups up to 1024, as a vector's capacity would, and each is charged
// to the query budget (with its groups' share of the slot array) when it
// is allocated.
//
// When every group expression binds to an integer type, keys are packed:
// one int64 word per column plus a NULL mask word, compared as words.
// Other keys keep Values, in a flat vector indexed by group. A batch that
// brings a key that is neither NULL nor an integer re-encodes the
// table's keys into Values once; entries keep their unused packed words,
// so no state moves. Packed keys hash to exactly HashKey's value for the
// same keys as Values, so partition routing and merges do not depend on
// the layout.
//
// A probe compares cached hashes before it touches a key, and growth
// re-slots by cached hash without re-hashing any key. Each batch's keys
// are hashed before it probes.
class GroupTable {
 public:
  static constexpr uint32_t kNone = ~uint32_t{0};

  GroupTable(const std::vector<ExprPtr>& group_exprs, const AggLayout* aggs)
      : width_(group_exprs.size()), aggs_(aggs), slots_(kInitialSlots) {
    packed_ = width_ < 64;
    for (const ExprPtr& e : group_exprs) {
      const DataType type = e->result_type();
      types_.push_back(type);
      packed_ = packed_ && (type == DataType::kBool ||
                            type == DataType::kInt32 ||
                            type == DataType::kInt64);
    }
    key_bytes_ = packed_ ? sizeof(int64_t) * (width_ + 1) : 0;
    states_at_ = AlignUp(key_bytes_, aggs->align());
    stride_ = AlignUp(states_at_ + aggs->bytes(),
                      std::max(alignof(int64_t), aggs->align()));
  }

  ~GroupTable() {
    for (size_t g = finalized_; g < num_groups_; ++g) DestroyStates(g);
    CountInstances();
  }

  GroupTable(const GroupTable&) = delete;
  GroupTable& operator=(const GroupTable&) = delete;

  size_t size() const { return num_groups_; }
  bool packed() const { return packed_; }

  // Sets groups[j] to the group of row j's key (columns `keys`, n rows),
  // creating the groups of new keys. Memory is charged per arena chunk
  // (plus, for Value keys, each key's bytes); once the budget refuses a
  // charge, the table takes no new group for the rest of the build and
  // rows of unseen keys are routed to `spill` with groups[j] = kNone.
  // Resident keys keep accumulating, so every resident group is complete
  // and disjoint from the spilled keys. `batch` supplies spilled rows.
  Status FindOrCreate(const std::vector<KeyColumn>& keys,
                      const RowBatch& batch, size_t n, MemoryCharge* charge,
                      PartitionSpill* spill, uint32_t* groups) {
    HashKeys(keys, n, charge);
    for (size_t j = 0; j < n; ++j) {
      // Probes miss cache once tables outgrow it: load the slot of the
      // row 2 * kAhead on, and the entry that slot names for the row
      // kAhead on, while this row probes.
      if (j + 2 * kAhead < n) {
        __builtin_prefetch(
            &slots_[hashes_[j + 2 * kAhead] & (slots_.size() - 1)]);
      }
      if (j + kAhead < n) {
        PrefetchEntry(static_cast<uint32_t>(hashes_[j + kAhead]));
      }
      const auto hash = static_cast<uint32_t>(hashes_[j]);
      size_t slot = 0;
      uint32_t group = Find(
          hash, packed_ ? &packed_keys_[j * (width_ + 1)] : nullptr,
          [&](size_t c) -> const Value& { return keys[c].at(j); }, &slot);
      if (group == kNone) {
        HTG_ASSIGN_OR_RETURN(group, Create(hash, slot, keys, j, charge));
        if (group == kNone) {
          Row key(width_);
          for (size_t c = 0; c < width_; ++c) key[c] = keys[c].at(j);
          Row input;
          batch.FillRow(j, &input);
          HTG_RETURN_IF_ERROR(spill->Add(0, key, input));
        }
      }
      groups[j] = group;
    }
    return Status::OK();
  }

  // Accumulates the n rows of a batch into their groups (groups[j] from
  // FindOrCreate; kNone rows were spilled), one AccumulateBatch call per
  // aggregate. An aggregate whose states grow on the heap runs row by
  // row, and its growth is charged unchecked: the peak stays honest, and
  // new keys then spill under the rule above.
  Status Accumulate(const ArgColumns& args, const uint32_t* groups, size_t n,
                    MemoryCharge* charge) {
    rows_.clear();
    for (uint32_t j = 0; j < n; ++j) {
      if (groups[j] != kNone) rows_.push_back(j);
    }
    const size_t m = rows_.size();
    states_.resize(m);
    for (size_t i = 0; i < aggs_->size(); ++i) {
      const udf::AggregateFunction* fn = aggs_->fn(i);
      for (size_t k = 0; k < m; ++k) states_[k] = State(groups[rows_[k]], i);
      if (!fn->HoldsHeap()) {
        HTG_RETURN_IF_ERROR(
            fn->AccumulateBatch(states_.data(), args[i], rows_.data(), m));
        continue;
      }
      size_t grown = 0;
      Status status;
      for (size_t k = 0; k < m && status.ok(); ++k) {
        const size_t before = fn->HeapBytes(states_[k]);
        status = fn->AccumulateBatch(&states_[k], args[i], &rows_[k], 1);
        const size_t after = fn->HeapBytes(states_[k]);
        if (after > before) grown += after - before;
      }
      charge->AddUnchecked(grown);
      HTG_RETURN_IF_ERROR(status);
    }
    return Status::OK();
  }

  // Folds the groups of `from` whose cached hash falls in partition
  // `part` of `nparts` into this table: states of keys already here
  // merge, new keys get fresh states that merge theirs in. A call moves
  // only its own partition's entries out of `from`, so concurrent calls
  // over disjoint partitions need no locking. Merged groups are not
  // charged; callers account the merged table with ChargedBytes().
  Status MergeFrom(GroupTable* from, size_t part, size_t nparts) {
    if (packed_ && !from->packed_) Reencode(nullptr);
    Row decoded(width_);
    for (const Slot& s : from->slots_) {
      if (s.group == kFree || PartitionOf(s.hash, nparts) != part) continue;
      Value* key = nullptr;
      if (!packed_) {
        key = from->packed_ ? from->DecodeKey(s.group, decoded.data())
                            : &from->value_keys_[s.group * width_];
      }
      size_t slot = 0;
      uint32_t group = Find(
          s.hash, from->Entry(s.group),
          [&](size_t c) -> const Value& { return key[c]; }, &slot);
      if (group == kNone) {
        group = AddGroup(s.hash, slot);
        if (packed_) {
          std::memcpy(Entry(group), from->Entry(s.group), key_bytes_);
        } else {
          for (size_t c = 0; c < width_; ++c) {
            value_key_bytes_ += key[c].ApproxBytes();
            value_keys_.push_back(std::move(key[c]));
          }
        }
        InitStates(group);
      }
      for (size_t i = 0; i < aggs_->size(); ++i) {
        HTG_RETURN_IF_ERROR(
            aggs_->fn(i)->Merge(State(group, i), from->State(s.group, i)));
      }
    }
    return Status::OK();
  }

  // What a build charges for every resident group: its arena chunks, its
  // Value keys, and the heap its states hold.
  size_t ChargedBytes() const {
    size_t bytes = capacity_ * GroupBytes() + value_key_bytes_;
    for (size_t i = 0; i < aggs_->size(); ++i) {
      const udf::AggregateFunction* fn = aggs_->fn(i);
      if (!fn->HoldsHeap()) continue;
      for (size_t g = 0; g < num_groups_; ++g) {
        bytes += fn->HeapBytes(State(g, i));
      }
    }
    return bytes;
  }

  // Output batches, each row the group key then each aggregate's result,
  // in group creation order. Consumes the keys and states, releasing each
  // arena chunk once its groups are out.
  Result<std::vector<RowBatch>> Finalize(bool global_aggregate) {
    std::vector<RowBatch> out;
    const size_t naggs = aggs_->size();
    if (num_groups_ == 0 && global_aggregate) {
      // SELECT COUNT(*) over an empty input still yields one row.
      Row row;
      for (udf::AggregateState& state : aggs_->NewStates()) {
        HTG_ASSIGN_OR_RETURN(Value v, state.Terminate());
        row.push_back(std::move(v));
      }
      out.emplace_back().AppendRow(std::move(row));
      return out;
    }
    Row key(width_);
    for (size_t begin = 0; begin < num_groups_;
         begin += RowBatch::kDefaultRows) {
      const size_t end = std::min(num_groups_, begin + RowBatch::kDefaultRows);
      RowBatch& batch = out.emplace_back();
      batch.ResetColumns(width_ + naggs);
      for (size_t c = 0; c < width_ + naggs; ++c) {
        batch.column(c).reserve(end - begin);
      }
      for (size_t g = begin; g < end; ++g) {
        Value* values = packed_ ? DecodeKey(g, key.data())
                                : &value_keys_[g * width_];
        for (size_t c = 0; c < width_; ++c) {
          batch.column(c).push_back(std::move(values[c]));
        }
        for (size_t i = 0; i < naggs; ++i) {
          HTG_ASSIGN_OR_RETURN(Value v, aggs_->fn(i)->Terminate(State(g, i)));
          batch.column(width_ + i).push_back(std::move(v));
        }
        DestroyStates(g);
        finalized_ = g + 1;
        const auto [chunk, index] = ChunkOf(g);
        if (index + 1 == ChunkGroups(chunk)) chunks_[chunk].reset();
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
  static constexpr size_t kAhead = 8;  // prefetch distance, in rows
  // Groups in the first arena chunk, and in every chunk from the
  // doubling that reaches kMaxChunkGroups on.
  static constexpr size_t kFirstChunkGroups = 16;
  static constexpr size_t kMaxChunkGroups = 1024;
  // A group's share of the slot array: 4 slots of 8 bytes at the lowest
  // load factor (1/4, right after a doubling).
  static constexpr size_t kSlotBytesPerGroup = 4 * sizeof(Slot);

  // Partition of a cached hash in the parallel final merge: its top
  // bits, independent of the low bits the slot mask uses.
  static size_t PartitionOf(uint32_t hash, size_t nparts) {
    return static_cast<size_t>((uint64_t{hash} * nparts) >> 32);
  }

  // What a group's arena entry and slot share are charged.
  size_t GroupBytes() const { return stride_ + kSlotBytesPerGroup; }

  static size_t ChunkGroups(size_t chunk) {
    return std::min(kFirstChunkGroups << std::min<size_t>(chunk, 16),
                    kMaxChunkGroups);
  }
  // The chunk holding `group`, and its index there.
  static std::pair<size_t, size_t> ChunkOf(size_t group) {
    constexpr size_t kDoubling = kMaxChunkGroups - kFirstChunkGroups;
    if (group < kDoubling) {
      const size_t chunk = std::bit_width(group / kFirstChunkGroups + 1) - 1;
      return {chunk, group - (ChunkGroups(chunk) - kFirstChunkGroups)};
    }
    constexpr size_t kDoublingChunks =
        std::bit_width(kMaxChunkGroups / kFirstChunkGroups) - 1;
    return {kDoublingChunks + (group - kDoubling) / kMaxChunkGroups,
            (group - kDoubling) % kMaxChunkGroups};
  }

  std::byte* Entry(size_t group) const {
    const auto [chunk, index] = ChunkOf(group);
    return reinterpret_cast<std::byte*>(chunks_[chunk].get()) + index * stride_;
  }
  void* State(size_t group, size_t agg) const {
    return Entry(group) + states_at_ + aggs_->offset(agg);
  }

  void InitStates(size_t group) {
    for (size_t i = 0; i < aggs_->size(); ++i) {
      aggs_->fn(i)->Init(State(group, i));
    }
  }
  void DestroyStates(size_t group) {
    for (size_t i = 0; i < aggs_->size(); ++i) {
      aggs_->fn(i)->Destroy(State(group, i));
    }
  }

  // Hashes the batch's keys to HashKey's value for them and, while the
  // table is packed, packs them into packed_keys_: width_ words and a
  // NULL mask word per row. A key value that is neither NULL nor an
  // integer re-encodes the table.
  void HashKeys(const std::vector<KeyColumn>& keys, size_t n,
                MemoryCharge* charge) {
    const size_t words = width_ + 1;
    bool fits = packed_;
    if (packed_) packed_keys_.assign(n * words, 0);
    hashes_.assign(n, KeyHashSeed());
    for (size_t c = 0; c < width_; ++c) {
      for (size_t j = 0; j < n; ++j) {
        const Value& v = keys[c].at(j);
        size_t hash = 0;
        if (v.IsIntegerKind()) {
          hash = Value::HashInt64(v.AsInt64());
          if (fits) packed_keys_[j * words + c] = v.AsInt64();
        } else if (v.is_null()) {
          hash = Value::kNullHash;
          if (fits) packed_keys_[j * words + width_] |= int64_t{1} << c;
        } else {
          hash = v.Hash();
          fits = false;
        }
        hashes_[j] = KeyHashStep(hashes_[j], hash);
      }
    }
    for (size_t& h : hashes_) h = KeyHashFinish(h);
    if (packed_ && !fits) Reencode(charge);
  }

  // Writes group `group`'s packed key into out[0, width_) as Values, and
  // returns `out`.
  Value* DecodeKey(size_t group, Value* out) const {
    const std::byte* entry = Entry(group);
    int64_t nulls = 0;
    std::memcpy(&nulls, entry + width_ * sizeof(int64_t), sizeof(nulls));
    for (size_t c = 0; c < width_; ++c) {
      int64_t word = 0;
      std::memcpy(&word, entry + c * sizeof(int64_t), sizeof(word));
      out[c] = ((nulls >> c) & 1) != 0 ? Value::Null()
                                        : IntKeyValue(types_[c], word);
    }
    return out;
  }

  // Switches to Value keys, once: decodes every resident group's key.
  void Reencode(MemoryCharge* charge) {
    value_keys_.resize(num_groups_ * width_);
    for (size_t g = 0; g < num_groups_; ++g) {
      DecodeKey(g, &value_keys_[g * width_]);
    }
    value_key_bytes_ = value_keys_.size() * sizeof(Value);
    if (charge != nullptr) charge->AddUnchecked(value_key_bytes_);
    packed_ = false;
  }

  void PrefetchEntry(uint32_t hash) const {
    const Slot& s = slots_[hash & (slots_.size() - 1)];
    if (s.group != kFree && s.hash == hash) __builtin_prefetch(Entry(s.group));
  }

  // The group of a key, or kNone with *slot at the empty slot that ended
  // the probe. Packed tables compare the key_bytes_ bytes at `packed`,
  // Value tables each column c's key_at(c).
  template <typename KeyAt>
  uint32_t Find(uint32_t hash, const void* packed, KeyAt&& key_at,
                size_t* slot) const {
    const size_t mask = slots_.size() - 1;
    for (size_t i = hash & mask;; i = (i + 1) & mask) {
      const Slot& s = slots_[i];
      if (s.group == kFree) {
        *slot = i;
        return kNone;
      }
      if (s.hash != hash) continue;
      if (packed_) {
        if (std::memcmp(Entry(s.group), packed, key_bytes_) == 0) {
          return s.group;
        }
        continue;
      }
      const Value* resident = &value_keys_[s.group * width_];
      size_t c = 0;
      while (c < width_ && KeysEqual(&resident[c], &key_at(c), 1)) ++c;
      if (c == width_) return s.group;
    }
  }

  // Charges and creates the group of row j's key, at `slot` from the
  // failed probe; kNone when the budget refuses it.
  Result<uint32_t> Create(uint32_t hash, size_t slot,
                          const std::vector<KeyColumn>& keys, size_t j,
                          MemoryCharge* charge) {
    if (full_) return kNone;
    size_t key_bytes = 0;
    if (!packed_) {
      for (size_t c = 0; c < width_; ++c) {
        key_bytes += keys[c].at(j).ApproxBytes();
      }
    }
    const size_t bytes =
        key_bytes +
        (NeedsChunk() ? ChunkGroups(chunks_.size()) * GroupBytes() : 0);
    if (bytes > 0) {
      Status charged = charge->Add(bytes);
      if (!charged.ok()) {
        charge->Release(bytes);  // the group is not being created
        if (!charged.IsResourceExhausted()) return charged;
        full_ = true;
        return kNone;
      }
    }
    if (NeedsChunk()) CountInstances();
    const uint32_t group = AddGroup(hash, slot);
    if (packed_) {
      std::memcpy(Entry(group), &packed_keys_[j * (width_ + 1)], key_bytes_);
    } else {
      for (size_t c = 0; c < width_; ++c) value_keys_.push_back(keys[c].at(j));
      value_key_bytes_ += key_bytes;
    }
    InitStates(group);
    ++uncounted_;
    return group;
  }

  bool NeedsChunk() const { return num_groups_ == capacity_; }

  // Appends a group, with an arena entry whose states are not yet
  // initialized; `slot` is the empty slot from the failed probe. Keeps
  // the load factor at most 1/2.
  uint32_t AddGroup(uint32_t hash, size_t slot) {
    if (NeedsChunk()) {
      const size_t groups = ChunkGroups(chunks_.size());
      chunks_.push_back(std::make_unique_for_overwrite<std::max_align_t[]>(
          1 + groups * stride_ / sizeof(std::max_align_t)));
      capacity_ += groups;
    }
    if (2 * (num_groups_ + 1) > slots_.size()) {
      Grow();
      slot = EmptySlot(hash);
    }
    const auto group = static_cast<uint32_t>(num_groups_++);
    slots_[slot] = Slot{hash, group};
    return group;
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

  // udf.uda.instances counts one instance per group per aggregate the
  // build created, reported a chunk at a time.
  void CountInstances() {
    if (uncounted_ > 0 && aggs_->size() > 0) {
      HTG_METRIC_COUNTER("udf.uda.instances")->Add(uncounted_ * aggs_->size());
    }
    uncounted_ = 0;
  }

  size_t width_;
  const AggLayout* aggs_;
  std::vector<DataType> types_;  // the group expressions' declared types
  bool packed_ = false;
  size_t key_bytes_ = 0;  // packed key words at the head of each entry
  size_t states_at_ = 0;  // offset of the state block in an entry
  size_t stride_ = 0;     // bytes per entry
  std::vector<Slot> slots_;  // power-of-two size
  std::vector<std::unique_ptr<std::max_align_t[]>> chunks_;
  size_t capacity_ = 0;  // groups the chunks hold
  std::vector<Value> value_keys_;  // width_ per group, Value layout only
  size_t value_key_bytes_ = 0;
  size_t num_groups_ = 0;
  size_t finalized_ = 0;  // groups [0, finalized_) are destroyed
  size_t uncounted_ = 0;
  bool full_ = false;  // the budget refused a charge: no new groups
  // Per-batch scratch.
  std::vector<int64_t> packed_keys_;
  std::vector<size_t> hashes_;
  std::vector<uint32_t> rows_;
  std::vector<void*> states_;
};

// Credits a finalized table to its operator's EXPLAIN ANALYZE line.
void RecordGroups(OperatorStats* stats, const GroupTable& table) {
  stats->agg_groups.fetch_add(table.size(), std::memory_order_relaxed);
  stats->agg_key_layouts.fetch_or(table.packed() ? OperatorStats::kPackedKeys
                                                 : OperatorStats::kValueKeys,
                                  std::memory_order_relaxed);
}

// The batch column a plain column reference reads, so the build reads
// keys and arguments in place; null for other expressions, which
// evaluate into scratch columns.
const std::vector<Value>* ColumnOf(const Expr& expr, const RowBatch& batch) {
  const auto* ref = dynamic_cast<const ColumnRefExpr*>(&expr);
  if (ref == nullptr || ref->index() < 0 ||
      static_cast<size_t>(ref->index()) >= batch.num_columns()) {
    return nullptr;
  }
  return &batch.column(static_cast<size_t>(ref->index()));
}

// Drains a child fully into a group table, charging new groups to
// `charge` and spilling the rows of keys it refuses to `spill`. Per
// batch: group keys and arguments evaluate as batch kernels (plain
// column references are read in place), the keys are hashed and probed,
// then each aggregate accumulates the batch in one AccumulateBatch call.
// Spilled rows are reassembled from the (untouched) batch columns.
Status BuildGroupsBatch(storage::RowIterator* iter,
                        const std::vector<ExprPtr>& group_exprs,
                        const std::vector<AggSpec>& aggs,
                        udf::EvalContext* eval, GroupTable* groups,
                        MemoryCharge* charge, PartitionSpill* spill) {
  RowBatch batch;
  std::vector<std::vector<Value>> key_cols(group_exprs.size());
  std::vector<KeyColumn> keys(group_exprs.size());
  std::vector<std::vector<std::vector<Value>>> arg_cols(aggs.size());
  ArgColumns args(aggs.size());
  for (size_t i = 0; i < aggs.size(); ++i) {
    arg_cols[i].resize(aggs[i].args.size());
    args[i].resize(aggs[i].args.size());
  }
  std::vector<uint32_t> group_of;
  while (iter->NextBatch(&batch)) {
    const size_t n = batch.ActiveRows();
    if (n == 0) continue;
    const uint32_t* sel = batch.selection_data();
    for (size_t g = 0; g < group_exprs.size(); ++g) {
      keys[g] = {ColumnOf(*group_exprs[g], batch), sel};
      if (keys[g].values == nullptr) {
        HTG_RETURN_IF_ERROR(
            group_exprs[g]->EvalBatch(eval, batch, sel, n, &key_cols[g]));
        keys[g] = {&key_cols[g], nullptr};
      }
    }
    for (size_t i = 0; i < aggs.size(); ++i) {
      for (size_t a = 0; a < aggs[i].args.size(); ++a) {
        // Arguments are indexed by live-row position, which is the
        // physical row only in a batch without a selection.
        args[i][a] =
            sel == nullptr ? ColumnOf(*aggs[i].args[a], batch) : nullptr;
        if (args[i][a] == nullptr) {
          HTG_RETURN_IF_ERROR(aggs[i].args[a]->EvalBatch(eval, batch, sel, n,
                                                         &arg_cols[i][a]));
          args[i][a] = &arg_cols[i][a];
        }
      }
    }
    group_of.resize(n);
    HTG_RETURN_IF_ERROR(groups->FindOrCreate(keys, batch, n, charge, spill,
                                             group_of.data()));
    HTG_RETURN_IF_ERROR(groups->Accumulate(args, group_of.data(), n, charge));
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
Result<std::unique_ptr<GroupTable>> AggregateSpilledPartition(
    SpillWorklist* worklist, const std::vector<ExprPtr>& group_exprs,
    const std::vector<AggSpec>& aggs, const AggLayout* layout,
    ExecContext* ctx, OperatorStats* stats, MemoryCharge* charge,
    const char* op) {
  HTG_ASSIGN_OR_RETURN(SpillWork work, worklist->Pop(op));
  PartitionSpill sub(ctx, stats, op, work.level);
  auto groups = std::make_unique<GroupTable>(group_exprs, layout);
  storage::SpillRunReader reader(work.file, std::move(work.runs[0]));
  HTG_RETURN_IF_ERROR(BuildGroupsBatch(&reader, group_exprs, aggs, &ctx->eval,
                                       groups.get(), charge, &sub));
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
                     const std::vector<AggSpec>* aggs,
                     std::unique_ptr<AggLayout> layout, ExecContext* ctx,
                     OperatorStats* stats)
      : ready_(std::move(ready)),
        charge_(std::move(charge)),
        worklist_(std::move(worklist)),
        group_exprs_(group_exprs),
        aggs_(aggs),
        layout_(std::move(layout)),
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
        std::unique_ptr<GroupTable> groups,
        AggregateSpilledPartition(&worklist_, *group_exprs_, *aggs_,
                                  layout_.get(), ctx_, stats_, &charge_,
                                  "Hash Match (Aggregate)"));
    RecordGroups(stats_, *groups);
    HTG_ASSIGN_OR_RETURN(ready_, groups->Finalize(false));
    return Status::OK();
  }

  std::vector<RowBatch> ready_;
  size_t next_ready_ = 0;
  MemoryCharge charge_;
  SpillWorklist worklist_;
  const std::vector<ExprPtr>* group_exprs_;
  const std::vector<AggSpec>* aggs_;
  std::unique_ptr<AggLayout> layout_;
  ExecContext* ctx_;
  OperatorStats* stats_;
};

}  // namespace

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
  auto layout = std::make_unique<AggLayout>(aggs_);
  GroupTable groups(group_exprs_, layout.get());
  HTG_RETURN_IF_ERROR(BuildGroupsBatch(child.get(), group_exprs_, aggs_,
                                       &ctx->eval, &groups, &charge, &spill));
  RecordPeakMem(stats, charge.peak());
  RecordGroups(stats, groups);
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
      &group_exprs_, &aggs_, std::move(layout), ctx, stats)};
}

std::string HashAggregateOp::Describe() const {
  return "Hash Match (Aggregate) " + DescribeAggs(group_exprs_, aggs_);
}

ParallelAggregateOp::ParallelAggregateOp(OperatorPtr child,
                                         catalog::TableDef* heap,
                                         std::vector<ExprPtr> group_exprs,
                                         std::vector<std::string> group_names,
                                         std::vector<AggSpec> aggs, int dop,
                                         size_t morsel_pages)
    : child_(std::move(child)),
      heap_(heap),
      group_exprs_(std::move(group_exprs)),
      aggs_(std::move(aggs)),
      dop_(dop < 1 ? 1 : dop),
      morsel_pages_(morsel_pages),
      schema_(MakeAggregateSchema(group_exprs_, group_names, aggs_)) {}

Result<std::unique_ptr<storage::RowIterator>> ParallelAggregateOp::OpenImpl(
    ExecContext* ctx) {
  OperatorStats* stats = mutable_stats();
  HTG_ASSIGN_OR_RETURN(
      MorselDriver driver,
      MorselDriver::Plan(child_.get(), heap_, dop_, morsel_pages_, *ctx,
                         stats));
  const int dop = driver.dop();

  // Shared governance: one charge ledger and one partition-spill sink
  // for all workers. A worker that cannot create a new group (budget
  // crossed) spills its input rows; keys resident in *its* partial map
  // keep accumulating. The same key may then live in one worker's map
  // and in the spill partitions, so the spill path below merges
  // everything (maps and re-aggregated partitions) into one final map.
  const char* op = "Parallel Hash Match (Aggregate)";
  MemoryCharge charge(ctx->mem.get(), op);
  PartitionSpill spill(ctx, stats, op, 0);

  // Partial phase: workers steal morsels off the shared counter, run the
  // child subtree over each page range, and accumulate into thread-local
  // partial tables. Operators and expression trees are immutable and
  // shared; each worker evaluates through its own EvalContext copy.
  const AggLayout layout(aggs_);
  std::vector<std::unique_ptr<GroupTable>> partials;
  for (int w = 0; w < dop; ++w) {
    partials.push_back(std::make_unique<GroupTable>(group_exprs_, &layout));
  }
  HTG_RETURN_IF_ERROR(
      driver.Run([&](int worker, storage::RowIterator* iter) -> Status {
        return BuildGroupsBatch(iter, group_exprs_, aggs_,
                                &driver.worker_context(worker)->eval,
                                partials[worker].get(), &charge, &spill);
      }));
  RecordPeakMem(stats, charge.peak());

  size_t total_groups = 0;
  for (const auto& p : partials) total_groups += p->size();
  if (total_groups == 0 && !spill.engaged()) {
    // SELECT COUNT(*) over an empty input still yields one row.
    RecordGroups(stats, *partials[0]);
    HTG_ASSIGN_OR_RETURN(std::vector<RowBatch> batches,
                         partials[0]->Finalize(group_exprs_.empty()));
    return {std::make_unique<MaterializedBatchesIterator>(std::move(batches))};
  }

  if (spill.engaged()) {
    // Degraded path: fold every partial table into one final table, then
    // re-aggregate each spill partition and merge its groups in too — the
    // only ordering that is correct when a key sits in one worker's table
    // and in the spill. Keys are owned by exactly one partition per level,
    // so a pass's groups can only collide with build-time residents.
    GroupTable merged(group_exprs_, &layout);
    for (const auto& partial : partials) {
      HTG_RETURN_IF_ERROR(merged.MergeFrom(partial.get(), 0, 1));
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
          std::unique_ptr<GroupTable> part_groups,
          AggregateSpilledPartition(&worklist, group_exprs_, aggs_, &layout,
                                    ctx, stats, &pass_charge, op));
      HTG_RETURN_IF_ERROR(merged.MergeFrom(part_groups.get(), 0, 1));
    }
    charge.AddUnchecked(merged.ChargedBytes());
    RecordPeakMem(stats, charge.peak());
    RecordGroups(stats, merged);
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
        GroupTable merged(group_exprs_, &layout);
        for (const auto& partial : partials) {
          HTG_RETURN_IF_ERROR(merged.MergeFrom(partial.get(), part, nparts));
        }
        RecordGroups(stats, merged);
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
