#pragma once

#include <deque>
#include <memory>
#include <string>
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
  Result<std::unique_ptr<storage::RowSource>> Open(
      const std::vector<Value>& args, Database* db) const override;
};

// CallBase(base, qual): user-defined aggregate that calls the consensus
// base for one reference position, weighting votes by Phred quality.
// Merge-able, so it parallelizes like a built-in aggregate.
class CallBaseAggregate : public udf::AggregateFunction {
 public:
  std::string_view name() const override { return "CallBase"; }
  int min_args() const override { return 2; }
  int max_args() const override { return 2; }
  DataType result_type(const std::vector<DataType>&) const override {
    return DataType::kString;
  }
  std::unique_ptr<udf::AggregateInstance> NewInstance() const override;
};

// AssembleSequence(pos, base): user-defined aggregate concatenating called
// bases in position order into the consensus sequence.
class AssembleSequenceAggregate : public udf::AggregateFunction {
 public:
  std::string_view name() const override { return "AssembleSequence"; }
  int min_args() const override { return 2; }
  int max_args() const override { return 2; }
  DataType result_type(const std::vector<DataType>&) const override {
    return DataType::kString;
  }
  std::unique_ptr<udf::AggregateInstance> NewInstance() const override;
};

// AssembleConsensus(pos, seq, quals): the paper's proposed optimization —
// one sliding-window aggregate that consumes alignments in ascending
// position order and emits the consensus without pivoting. Columns left
// of the current alignment's start can no longer change and are flushed
// eagerly, so the internal state stays proportional to read length, not
// chromosome length. Not mergeable (partition borders overlap, the issue
// the paper discusses), so plans over it stay serial.
class AssembleConsensusAggregate : public udf::AggregateFunction {
 public:
  std::string_view name() const override { return "AssembleConsensus"; }
  int min_args() const override { return 3; }
  int max_args() const override { return 3; }
  DataType result_type(const std::vector<DataType>&) const override {
    return DataType::kString;
  }
  bool SupportsMerge() const override { return false; }
  std::unique_ptr<udf::AggregateInstance> NewInstance() const override;
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

