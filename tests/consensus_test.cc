#include <gtest/gtest.h>

#include <map>

#include "common/random.h"
#include "genomics/aligner.h"
#include "genomics/consensus.h"
#include "genomics/nucleotide.h"
#include "genomics/reference.h"
#include "genomics/simulator.h"

namespace htg::genomics {
namespace {

TEST(PivotAlignmentTest, ExplodesReadIntoBases) {
  PivotAlignmentTvf tvf;
  Schema schema = *tvf.BindSchema({});
  EXPECT_EQ(schema.num_columns(), 3);
  auto iter = tvf.Open({Value::Int64(100), Value::String("ACG"),
                        Value::String("I#5")},
                       nullptr);
  ASSERT_TRUE(iter.ok());
  Row row;
  ASSERT_TRUE((*iter)->Next(&row));
  EXPECT_EQ(row[0].AsInt64(), 100);
  EXPECT_EQ(row[1].AsString(), "A");
  EXPECT_EQ(row[2].AsInt64(), CharToPhred('I'));
  ASSERT_TRUE((*iter)->Next(&row));
  EXPECT_EQ(row[0].AsInt64(), 101);
  ASSERT_TRUE((*iter)->Next(&row));
  EXPECT_EQ(row[0].AsInt64(), 102);
  EXPECT_EQ(row[1].AsString(), "G");
  EXPECT_FALSE((*iter)->Next(&row));
}

TEST(CallBaseTest, QualityWeightedVote) {
  CallBaseAggregate agg;
  udf::AggregateState state(&agg);
  // Two low-quality As vs one high-quality C.
  ASSERT_TRUE(
      state.Accumulate({Value::String("A"), Value::Int32(5)}).ok());
  ASSERT_TRUE(
      state.Accumulate({Value::String("A"), Value::Int32(5)}).ok());
  ASSERT_TRUE(
      state.Accumulate({Value::String("C"), Value::Int32(40)}).ok());
  EXPECT_EQ(state.Terminate()->AsString(), "C");
}

TEST(CallBaseTest, MergeCombinesPartials) {
  CallBaseAggregate agg;
  udf::AggregateState a(&agg);
  udf::AggregateState b(&agg);
  ASSERT_TRUE(a.Accumulate({Value::String("G"), Value::Int32(10)}).ok());
  ASSERT_TRUE(b.Accumulate({Value::String("G"), Value::Int32(10)}).ok());
  ASSERT_TRUE(b.Accumulate({Value::String("T"), Value::Int32(15)}).ok());
  ASSERT_TRUE(a.Merge(b).ok());
  EXPECT_EQ(a.Terminate()->AsString(), "G");  // 20 vs 15
}

TEST(CallBaseTest, NsNeverWin) {
  CallBaseAggregate agg;
  udf::AggregateState state(&agg);
  ASSERT_TRUE(
      state.Accumulate({Value::String("N"), Value::Int32(90)}).ok());
  ASSERT_TRUE(
      state.Accumulate({Value::String("T"), Value::Int32(1)}).ok());
  EXPECT_EQ(state.Terminate()->AsString(), "T");
}

TEST(AssembleSequenceTest, OrdersByPositionAndFillsGaps) {
  AssembleSequenceAggregate agg;
  udf::AggregateState state(&agg);
  ASSERT_TRUE(
      state.Accumulate({Value::Int64(12), Value::String("G")}).ok());
  ASSERT_TRUE(
      state.Accumulate({Value::Int64(10), Value::String("A")}).ok());
  ASSERT_TRUE(
      state.Accumulate({Value::Int64(11), Value::String("C")}).ok());
  ASSERT_TRUE(
      state.Accumulate({Value::Int64(14), Value::String("T")}).ok());
  EXPECT_EQ(state.Terminate()->AsString(), "ACGNT");
}

TEST(SlidingWindowTest, MatchesNaivePivotConsensus) {
  // Property check: the sliding-window consensus equals the
  // pivot-then-group-then-call consensus on random overlapping reads.
  Random rng(31);
  std::string truth;
  for (int i = 0; i < 400; ++i) truth.push_back(kBases[rng.Uniform(4)]);

  struct Aligned {
    int64_t pos;
    std::string seq;
    std::string qual;
  };
  std::vector<Aligned> alignments;
  for (int64_t pos = 0; pos + 36 <= static_cast<int64_t>(truth.size());
       pos += 7) {
    Aligned a;
    a.pos = pos;
    a.seq = truth.substr(pos, 36);
    a.qual = std::string(36, 'I');
    // Sprinkle a low-quality error.
    if (rng.Bernoulli(0.5)) {
      const size_t i = rng.Uniform(36);
      a.seq[i] = Complement(a.seq[i]);
      a.qual[i] = PhredToChar(2);
    }
    alignments.push_back(std::move(a));
  }

  // Naive: pivot into per-position weighted votes.
  std::map<int64_t, std::array<double, 5>> votes;
  for (const Aligned& a : alignments) {
    for (size_t i = 0; i < a.seq.size(); ++i) {
      const int code = BaseCode(a.seq[i]);
      const int idx = code < 0 ? 4 : code;
      votes[a.pos + i][idx] +=
          std::max(1, CharToPhred(a.qual[i]));
    }
  }
  std::string naive;
  for (const auto& [pos, w] : votes) {
    int best = 4;
    double best_w = 0;
    for (int i = 0; i < 4; ++i) {
      if (w[i] > best_w) {
        best = i;
        best_w = w[i];
      }
    }
    naive.push_back(best < 4 ? kBases[best] : 'N');
  }

  SlidingWindowConsensus window;
  for (const Aligned& a : alignments) window.Add(a.pos, a.seq, a.qual);
  const std::string streamed = window.Finish();

  EXPECT_EQ(streamed, naive);
  // And with high-coverage quality weighting, it recovers the truth prefix.
  EXPECT_EQ(streamed.substr(30, 300), truth.substr(30, 300));
}

TEST(SlidingWindowTest, GapsBecomeNs) {
  SlidingWindowConsensus window;
  window.Add(0, "AC", "II");
  window.Add(5, "GT", "II");
  EXPECT_EQ(window.Finish(), "ACNNNGT");
  EXPECT_EQ(window.start_position(), 0);
}

TEST(AssembleConsensusUdaTest, RequiresOrderedInput) {
  AssembleConsensusAggregate agg;
  udf::AggregateState state(&agg);
  ASSERT_TRUE(state
                  .Accumulate({Value::Int64(10), Value::String("ACGT"),
                               Value::String("IIII")})
                  .ok());
  const Status s = state.Accumulate(
      {Value::Int64(5), Value::String("ACGT"), Value::String("IIII")});
  EXPECT_FALSE(s.ok());
}

TEST(AssembleConsensusUdaTest, MergeUnsupported) {
  AssembleConsensusAggregate agg;
  EXPECT_FALSE(agg.SupportsMerge());
  udf::AggregateState a(&agg);
  udf::AggregateState b(&agg);
  EXPECT_FALSE(a.Merge(b).ok());
}

TEST(SnpTest, FindsSubstitutions) {
  const std::string reference = "AAAACCCCGGGGTTTT";
  //                                 ^ pos 4 C→A     ^ pos 12 T→G
  const std::string consensus = "AAAAACCCGGGGGTTT";
  std::vector<Snp> snps = FindSnps(reference, consensus, 0);
  ASSERT_EQ(snps.size(), 2u);
  EXPECT_EQ(snps[0].position, 4);
  EXPECT_EQ(snps[0].reference_base, 'C');
  EXPECT_EQ(snps[0].called_base, 'A');
  EXPECT_EQ(snps[1].position, 12);
}

TEST(SnpTest, NsNotCalled) {
  std::vector<Snp> snps = FindSnps("ACGT", "ANGT", 0);
  EXPECT_TRUE(snps.empty());
}

TEST(SnpTest, OffsetRespected) {
  std::vector<Snp> snps = FindSnps("AAAACCCC", "CC", 4);
  EXPECT_TRUE(snps.empty());
  snps = FindSnps("AAAACCCC", "GG", 4);
  ASSERT_EQ(snps.size(), 2u);
  EXPECT_EQ(snps[0].position, 4);
}

TEST(EndToEndConsensusTest, RecoverConsensusFromSimulatedAlignments) {
  // Simulate 20x coverage of one chromosome, align, consensus-call, and
  // check the call matches the reference away from the edges.
  ReferenceGenome ref = ReferenceGenome::Random(8000, 1, 41);
  SimulatorOptions options;
  options.seed = 42;
  options.base_error_rate = 0.01;
  options.error_rate_slope = 0.0;
  options.n_rate = 0.0;
  ReadSimulator sim(&ref, options);
  const uint64_t num_reads = 8000 * 20 / 36;
  std::vector<ShortRead> reads = sim.SimulateResequencing(num_reads);
  Aligner aligner(&ref, {});
  std::vector<Alignment> alignments = aligner.AlignBatch(reads);
  ASSERT_GT(alignments.size(), num_reads * 8 / 10);

  // Order by position, feed the sliding window with the read's forward
  // sequence (reverse-strand alignments contribute their reverse
  // complement, which is what matched the reference).
  std::sort(alignments.begin(), alignments.end(),
            [](const Alignment& a, const Alignment& b) {
              return a.position < b.position;
            });
  SlidingWindowConsensus window;
  for (const Alignment& a : alignments) {
    const ShortRead& r = reads[a.read_id];
    std::string seq = r.sequence;
    std::string qual = r.quality;
    if (a.reverse_strand) {
      seq = ReverseComplement(seq);
      std::reverse(qual.begin(), qual.end());
    }
    window.Add(a.position, seq, qual);
  }
  const int64_t start = window.start_position();
  const std::string consensus = window.Finish();
  ASSERT_GT(consensus.size(), 7000u);
  // Compare the interior; count disagreements.
  const std::string& truth = ref.chromosome(0).sequence;
  int disagreements = 0;
  int compared = 0;
  for (size_t i = 100; i + 100 < consensus.size(); ++i) {
    const size_t ref_pos = start + i;
    if (ref_pos >= truth.size()) break;
    if (consensus[i] == 'N') continue;
    ++compared;
    if (consensus[i] != truth[ref_pos]) ++disagreements;
  }
  ASSERT_GT(compared, 5000);
  EXPECT_LT(disagreements, compared / 100);  // < 1% residual error at 20x
}

}  // namespace
}  // namespace htg::genomics
