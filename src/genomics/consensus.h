#pragma once

#include <deque>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "udf/function.h"

namespace htg::genomics {

// PivotAlignment(pos, seq, quals): table-valued function that explodes one
// aligned read into (position, base, qual) tuples — the conceptually clean
// but intermediate-result-heavy building block of the paper's Query 3.
class PivotAlignmentTvf : public udf::TableFunction {
 public:
  std::string_view name() const override { return "PivotAlignment"; }
  Result<Schema> BindSchema(const std::vector<Value>& args) const override;
  Result<std::unique_ptr<udf::RowSource>> Open(
      const std::vector<Value>& args, Database* db) const override;
};

// CallBase(base, qual): user-defined aggregate that calls the consensus
// base for one reference position, weighting votes by Phred quality.
// Merge-able, so it parallelizes like a built-in aggregate.
struct CallBaseState {
  double weights[5] = {0, 0, 0, 0, 0};  // A C G T N

  template <class Args>
  Status Accumulate(const Args& args) {
    const Value& base = args[0];
    if (base.is_null() || base.AsString().empty()) return Status::OK();
    const Value& qual = args[1];
    const double q = qual.is_null() ? 1.0 : qual.AsDouble();
    weights[BaseSlot(base.AsString()[0])] += q > 0 ? q : 1.0;
    return Status::OK();
  }
  Status Merge(CallBaseState& other);
  Result<Value> Terminate();

  // 0..3 for A C G T, 4 for anything else.
  static int BaseSlot(char base);
};

class CallBaseAggregate : public udf::TypedAggregate<CallBaseState> {
 public:
  std::string_view name() const override { return "CallBase"; }
  int min_args() const override { return 2; }
  int max_args() const override { return 2; }
  DataType result_type(const std::vector<DataType>&) const override {
    return DataType::kString;
  }
};

// AssembleSequence(pos, base): user-defined aggregate concatenating called
// bases in position order into the consensus sequence. Its buffer grows
// with the input, so it reports its heap bytes to the memory budget.
struct AssembleSequenceState {
  std::vector<std::pair<int64_t, char>> entries;

  template <class Args>
  Status Accumulate(const Args& args) {
    if (args[0].is_null() || args[1].is_null()) return Status::OK();
    const std::string& base = args[1].AsString();
    entries.emplace_back(args[0].AsInt64(), base.empty() ? 'N' : base[0]);
    return Status::OK();
  }
  Status Merge(AssembleSequenceState& other);
  Result<Value> Terminate();
  size_t HeapBytes() const {
    return entries.capacity() * sizeof(entries[0]);
  }
};

class AssembleSequenceAggregate
    : public udf::TypedAggregate<AssembleSequenceState> {
 public:
  std::string_view name() const override { return "AssembleSequence"; }
  int min_args() const override { return 2; }
  int max_args() const override { return 2; }
  DataType result_type(const std::vector<DataType>&) const override {
    return DataType::kString;
  }
};

// Plain-C++ consensus caller used by tests and baselines: feeds
// (position, seq, quals) alignments (sorted by position) through the same
// sliding-window logic and returns the consensus string starting at the
// first covered position.
class SlidingWindowConsensus {
 public:
  void Add(int64_t position, std::string_view seq, std::string_view quals);
  // Flushes the remaining window and returns the consensus.
  std::string Finish();

  int64_t start_position() const { return start_; }

 private:
  void FlushBefore(int64_t position);

  struct Weights {
    double w[5] = {0, 0, 0, 0, 0};  // A C G T N
  };
  std::deque<Weights> window_;
  int64_t window_start_ = -1;
  int64_t start_ = -1;
  std::string out_;
};

// AssembleConsensus(pos, seq, quals): the paper's proposed optimization —
// one sliding-window aggregate that consumes alignments in ascending
// position order and emits the consensus without pivoting. Columns left
// of the current alignment's start can no longer change and are flushed
// eagerly, so the internal state stays proportional to read length, not
// chromosome length. Not mergeable (partition borders overlap, the issue
// the paper discusses), so plans over it stay serial.
struct AssembleConsensusState {
  SlidingWindowConsensus window;
  int64_t last_pos = -1;

  template <class Args>
  Status Accumulate(const Args& args) {
    if (args[0].is_null() || args[1].is_null()) return Status::OK();
    const int64_t pos = args[0].AsInt64();
    if (pos < last_pos) {
      return Status::ExecError(
          "AssembleConsensus requires input ordered by position");
    }
    last_pos = pos;
    window.Add(pos, args[1].AsString(),
               args[2].is_null() ? std::string_view() : args[2].AsString());
    return Status::OK();
  }
  Status Merge(AssembleConsensusState&) {
    return Status::NotImplemented(
        "AssembleConsensus cannot merge partial windows (overlapping "
        "partition borders)");
  }
  Result<Value> Terminate() { return Value::String(window.Finish()); }
};

class AssembleConsensusAggregate
    : public udf::TypedAggregate<AssembleConsensusState> {
 public:
  std::string_view name() const override { return "AssembleConsensus"; }
  int min_args() const override { return 3; }
  int max_args() const override { return 3; }
  DataType result_type(const std::vector<DataType>&) const override {
    return DataType::kString;
  }
  bool SupportsMerge() const override { return false; }
};

// A single nucleotide polymorphism found by comparing a consensus against
// the reference (the 1000 Genomes tertiary analysis).
struct Snp {
  int64_t position = 0;  // 0-based within the chromosome
  char reference_base = 'N';
  char called_base = 'N';
};

// Reports positions where `consensus` (aligned at `offset` within
// `reference`) disagrees with the reference. 'N's are not called.
std::vector<Snp> FindSnps(std::string_view reference,
                          std::string_view consensus, int64_t offset);

}  // namespace htg::genomics

