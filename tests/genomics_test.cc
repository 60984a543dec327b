#include <gtest/gtest.h>

#include "common/random.h"
#include "genomics/dna_sequence.h"
#include "genomics/formats.h"
#include "genomics/gene_expression.h"
#include "genomics/nucleotide.h"
#include "genomics/reference.h"
#include "genomics/simulator.h"

namespace htg::genomics {
namespace {

TEST(NucleotideTest, BaseCodesRoundTrip) {
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(BaseCode(CodeBase(i)), i);
  }
  EXPECT_EQ(BaseCode('N'), -1);
  EXPECT_EQ(BaseCode('a'), 0);
  EXPECT_EQ(CodeBase(-1), 'N');
}

TEST(NucleotideTest, ComplementPairs) {
  EXPECT_EQ(Complement('A'), 'T');
  EXPECT_EQ(Complement('C'), 'G');
  EXPECT_EQ(Complement('G'), 'C');
  EXPECT_EQ(Complement('T'), 'A');
  EXPECT_EQ(Complement('N'), 'N');
}

TEST(NucleotideTest, ReverseComplementInvolution) {
  const std::string seq = "ACGTNACCGT";
  EXPECT_EQ(ReverseComplement(ReverseComplement(seq)), seq);
  EXPECT_EQ(ReverseComplement("ACGT"), "ACGT");
  EXPECT_EQ(ReverseComplement("AAAC"), "GTTT");
}

TEST(NucleotideTest, PhredEncodingRoundTrip) {
  for (int q = 0; q <= kMaxPhred; ++q) {
    EXPECT_EQ(CharToPhred(PhredToChar(q)), q);
  }
  EXPECT_EQ(PhredToChar(-5), '!');
  EXPECT_EQ(PhredToChar(200), PhredToChar(kMaxPhred));
}

TEST(NucleotideTest, PhredProbabilityRelation) {
  EXPECT_NEAR(PhredToErrorProbability(10), 0.1, 1e-12);
  EXPECT_NEAR(PhredToErrorProbability(30), 0.001, 1e-12);
  EXPECT_EQ(ErrorProbabilityToPhred(0.001), 30);
  EXPECT_EQ(ErrorProbabilityToPhred(0.0), kMaxPhred);
}

TEST(DnaSequenceTest, PackUnpackRoundTrip) {
  const std::string texts[] = {"", "A", "ACGT", "ACGTN", "NNNN",
                               "ACGTACGTACGTACG", "TTTTTTTTTTTTTTTTT"};
  for (const std::string& text : texts) {
    DnaSequence seq = DnaSequence::FromText(text);
    EXPECT_EQ(seq.ToText(), text) << text;
    EXPECT_EQ(seq.length(), text.size());
    Result<DnaSequence> decoded = DnaSequence::FromBlob(seq.ToBlob());
    ASSERT_TRUE(decoded.ok()) << text;
    EXPECT_EQ(decoded->ToText(), text);
  }
}

TEST(DnaSequenceTest, PackedSizeIsAboutAQuarter) {
  // The §5.1.2 claim: bit-encoding shrinks sequences to ~1/4.
  std::string text;
  Random rng(17);
  for (int i = 0; i < 10000; ++i) text.push_back(kBases[rng.Uniform(4)]);
  const std::string blob = DnaSequence::FromText(text).ToBlob();
  EXPECT_LT(blob.size(), text.size() / 3.9);
  EXPECT_GT(blob.size(), text.size() / 4.2);
}

TEST(DnaSequenceTest, BaseAtMatchesText) {
  const std::string text = "ACGTNAGCT";
  DnaSequence seq = DnaSequence::FromText(text);
  for (size_t i = 0; i < text.size(); ++i) {
    EXPECT_EQ(seq.BaseAt(i), text[i]) << i;
  }
}

TEST(DnaSequenceTest, CorruptBlobRejected) {
  EXPECT_FALSE(DnaSequence::FromBlob("\xff\xff\xff").ok());
  DnaSequence seq = DnaSequence::FromText("ACGTACGT");
  std::string blob = seq.ToBlob();
  blob.resize(blob.size() - 1);
  EXPECT_FALSE(DnaSequence::FromBlob(blob).ok());
}

TEST(ReadNameTest, FormatParseRoundTrip) {
  ReadCoordinates coords{"IL4", 855, 1, 17, 954, 659};
  const std::string name = FormatReadName(coords);
  EXPECT_EQ(name, "IL4_855:1:17:954:659");
  Result<ReadCoordinates> parsed = ParseReadName(name);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->machine, "IL4");
  EXPECT_EQ(parsed->flowcell, 855);
  EXPECT_EQ(parsed->tile, 17);
  EXPECT_EQ(parsed->y, 659);
  EXPECT_FALSE(ParseReadName("garbage").ok());
  EXPECT_FALSE(ParseReadName("m_1:2:3").ok());
}

TEST(ReadNameTest, MalformedCoordinatesAreTypedErrors) {
  for (const char* name : {
           "IL4_855:1:17:5000000000:659",   // x beyond INT
           "IL4_855:1:17:-2147483649:659",  // below INT
           "IL4_855:1::954:659",            // empty part
           "IL4_855:1:17:954:",             // empty last part
           "IL4_855:1:17:+954:659",         // sign
           "IL4_855:1:17: 954:659",         // leading space
           "IL4_855:1:17:954 :659",         // trailing space
           "IL4_855:1:17:954:659:1",        // a sixth part
           "IL4_855:1:17:9x4:659",          // not a number
       }) {
    Result<ReadCoordinates> parsed = ParseReadName(name);
    ASSERT_FALSE(parsed.ok()) << name;
    EXPECT_TRUE(parsed.status().IsInvalidArgument())
        << name << ": " << parsed.status().ToString();
  }
  // INT's ends still parse.
  Result<ReadCoordinates> ends =
      ParseReadName("IL4_0:1:2147483647:-2147483648:0");
  ASSERT_TRUE(ends.ok()) << ends.status().ToString();
  EXPECT_EQ(ends->tile, 2147483647);
  EXPECT_EQ(ends->x, -2147483647 - 1);
}

TEST(FastqTest, WholeFileRoundTrip) {
  std::vector<ShortRead> reads;
  for (int i = 0; i < 100; ++i) {
    reads.push_back({"IL4_855:1:1:" + std::to_string(i) + ":0",
                     "ACGTACGTACGTACGTACGT",
                     std::string(20, static_cast<char>('!' + i % 60))});
  }
  const std::string path = "/tmp/htg_fastq_roundtrip.fastq";
  ASSERT_TRUE(WriteFastqFile(path, reads).ok());
  Result<std::vector<ShortRead>> loaded = ReadFastqFile(path);
  ASSERT_TRUE(loaded.ok());
  ASSERT_EQ(loaded->size(), reads.size());
  for (size_t i = 0; i < reads.size(); ++i) {
    EXPECT_EQ((*loaded)[i].name, reads[i].name);
    EXPECT_EQ((*loaded)[i].sequence, reads[i].sequence);
    EXPECT_EQ((*loaded)[i].quality, reads[i].quality);
  }
}

TEST(FastqTest, ChunkParserStopsAtPartialRecord) {
  const std::string data =
      "@r1\nACGT\n+\nIIII\n"
      "@r2\nGGGG\n+\nII";  // truncated qualities
  FastqChunkParser parser;
  size_t pos = 0;
  ShortRead read;
  ASSERT_TRUE(parser.ParseRecord(data.data(), data.size(), &pos, &read));
  EXPECT_EQ(read.name, "r1");
  // Second record incomplete: parser must not consume it.
  const size_t before = pos;
  EXPECT_FALSE(parser.ParseRecord(data.data(), data.size(), &pos, &read));
  EXPECT_EQ(pos, before);
  EXPECT_TRUE(parser.status().ok());
}

TEST(FastqTest, ChunkParserHandlesFinalRecordWithoutNewline) {
  const std::string data = "@r1\nACGT\n+\nIIII";
  FastqChunkParser parser;
  size_t pos = 0;
  ShortRead read;
  ASSERT_TRUE(parser.ParseRecord(data.data(), data.size(), &pos, &read));
  EXPECT_EQ(read.quality, "IIII");
  EXPECT_EQ(pos, data.size());
}

TEST(FastqTest, CorruptRecordReported) {
  const std::string data = "not a fastq record\nxxxx\n";
  FastqChunkParser parser;
  size_t pos = 0;
  ShortRead read;
  EXPECT_FALSE(parser.ParseRecord(data.data(), data.size(), &pos, &read));
  EXPECT_FALSE(parser.status().ok());
}

TEST(FastaTest, LineWrappingRoundTrip) {
  std::vector<ShortRead> records;
  ShortRead rec;
  rec.name = "chr1";
  for (int i = 0; i < 500; ++i) rec.sequence.push_back(kBases[i % 4]);
  records.push_back(rec);
  const std::string path = "/tmp/htg_fasta_roundtrip.fa";
  ASSERT_TRUE(WriteFastaFile(path, records, 60).ok());
  // Verify the 60-char wrap the paper mentions.
  FILE* f = fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  char line[256];
  ASSERT_NE(fgets(line, sizeof(line), f), nullptr);  // header
  ASSERT_NE(fgets(line, sizeof(line), f), nullptr);  // first sequence line
  EXPECT_EQ(strlen(line), 61u);                      // 60 + newline
  fclose(f);
  Result<std::vector<ShortRead>> loaded = ReadFastaFile(path);
  ASSERT_TRUE(loaded.ok());
  ASSERT_EQ(loaded->size(), 1u);
  EXPECT_EQ((*loaded)[0].sequence, rec.sequence);
}

TEST(FastaTest, MultipleRecords) {
  std::vector<ShortRead> records;
  records.push_back({"a", "ACGTACGT", ""});
  records.push_back({"b", "TTTT", ""});
  const std::string path = "/tmp/htg_fasta_multi.fa";
  ASSERT_TRUE(WriteFastaFile(path, records, 4).ok());
  Result<std::vector<ShortRead>> loaded = ReadFastaFile(path);
  ASSERT_TRUE(loaded.ok());
  ASSERT_EQ(loaded->size(), 2u);
  EXPECT_EQ((*loaded)[0].sequence, "ACGTACGT");
  EXPECT_EQ((*loaded)[1].name, "b");
}

TEST(ReferenceTest, RandomGenomeShape) {
  ReferenceGenome ref = ReferenceGenome::Random(100000, 25, 1);
  EXPECT_EQ(ref.num_chromosomes(), 25);
  EXPECT_GT(ref.total_bases(), 90000u);
  // Sizes decrease chromosome-like.
  EXPECT_GT(ref.chromosome(0).sequence.size(),
            ref.chromosome(24).sequence.size());
  EXPECT_EQ(ref.FindChromosome("chr3"), 2);
  EXPECT_EQ(ref.FindChromosome("chrX"), -1);
}

TEST(ReferenceTest, FastaRoundTrip) {
  ReferenceGenome ref = ReferenceGenome::Random(5000, 3, 2);
  const std::string path = "/tmp/htg_ref_roundtrip.fa";
  ASSERT_TRUE(ref.SaveFasta(path).ok());
  Result<ReferenceGenome> loaded = ReferenceGenome::LoadFasta(path);
  ASSERT_TRUE(loaded.ok());
  ASSERT_EQ(loaded->num_chromosomes(), 3);
  EXPECT_EQ(loaded->chromosome(1).sequence, ref.chromosome(1).sequence);
}

TEST(SimulatorTest, ResequencingReadsMatchReference) {
  ReferenceGenome ref = ReferenceGenome::Random(50000, 4, 3);
  SimulatorOptions options;
  options.seed = 4;
  options.base_error_rate = 0.0;
  options.error_rate_slope = 0.0;
  options.n_rate = 0.0;
  ReadSimulator sim(&ref, options);
  std::vector<SimulatedOrigin> origins;
  std::vector<ShortRead> reads = sim.SimulateResequencing(200, &origins);
  ASSERT_EQ(reads.size(), origins.size());
  for (size_t i = 0; i < reads.size(); ++i) {
    const std::string& chr = ref.chromosome(origins[i].chromosome).sequence;
    std::string expected = chr.substr(origins[i].position, 36);
    if (origins[i].reverse_strand) expected = ReverseComplement(expected);
    EXPECT_EQ(reads[i].sequence, expected) << i;
    EXPECT_EQ(reads[i].quality.size(), reads[i].sequence.size());
  }
}

TEST(SimulatorTest, ErrorsAppearAtConfiguredRate) {
  ReferenceGenome ref = ReferenceGenome::Random(50000, 2, 5);
  SimulatorOptions options;
  options.seed = 6;
  options.base_error_rate = 0.05;
  options.error_rate_slope = 0.0;
  options.n_rate = 0.0;
  ReadSimulator sim(&ref, options);
  std::vector<SimulatedOrigin> origins;
  std::vector<ShortRead> reads = sim.SimulateResequencing(500, &origins);
  int64_t mismatches = 0;
  int64_t bases = 0;
  for (size_t i = 0; i < reads.size(); ++i) {
    const std::string& chr = ref.chromosome(origins[i].chromosome).sequence;
    std::string truth = chr.substr(origins[i].position, 36);
    if (origins[i].reverse_strand) truth = ReverseComplement(truth);
    for (size_t b = 0; b < truth.size(); ++b) {
      if (reads[i].sequence[b] != truth[b]) ++mismatches;
      ++bases;
    }
  }
  const double rate = static_cast<double>(mismatches) / bases;
  EXPECT_GT(rate, 0.03);
  EXPECT_LT(rate, 0.08);
}

TEST(SimulatorTest, DgeTagsAreRepetitive) {
  ReferenceGenome ref = ReferenceGenome::Random(100000, 4, 7);
  SimulatorOptions options;
  options.seed = 8;
  options.base_error_rate = 0.0;
  options.error_rate_slope = 0.0;
  options.n_rate = 0.0;
  ReadSimulator sim(&ref, options);
  DgeOptions dge;
  dge.num_genes = 200;
  std::vector<ShortRead> tags = sim.SimulateDge(5000, dge);
  std::vector<TagCount> bins = BinUniqueReads(tags);
  // Zipf abundance: far fewer unique tags than reads, top tag dominant.
  EXPECT_LT(bins.size(), 1000u);
  EXPECT_GT(bins[0].frequency, 50);
}

TEST(SimulatorTest, CoordinatesAreParsable) {
  ReferenceGenome ref = ReferenceGenome::Random(10000, 1, 9);
  ReadSimulator sim(&ref, {});
  std::vector<ShortRead> reads = sim.SimulateResequencing(10);
  for (const ShortRead& r : reads) {
    Result<ReadCoordinates> coords = ParseReadName(r.name);
    ASSERT_TRUE(coords.ok()) << r.name;
    EXPECT_EQ(coords->machine, "IL4");
    EXPECT_GE(coords->tile, 1);
    EXPECT_LE(coords->tile, 300);
  }
}

TEST(GeneExpressionTest, BinningDropsNsAndRanks) {
  std::vector<ShortRead> reads = {
      {"a", "AAAA", ""}, {"b", "AAAA", ""}, {"c", "CCCC", ""},
      {"d", "CCNC", ""},  // contains N: dropped
      {"e", "AAAA", ""},
  };
  std::vector<TagCount> tags = BinUniqueReads(reads);
  ASSERT_EQ(tags.size(), 2u);
  EXPECT_EQ(tags[0].sequence, "AAAA");
  EXPECT_EQ(tags[0].frequency, 3);
  EXPECT_EQ(tags[0].rank, 1);
  EXPECT_EQ(tags[1].sequence, "CCCC");
  EXPECT_EQ(tags[1].rank, 2);
}

TEST(GeneExpressionTest, AggregateExpressionSumsPerGene) {
  std::vector<AlignedTag> aligned = {
      {7, 1, 100}, {7, 2, 50}, {8, 3, 10}};
  std::vector<GeneExpression> expr = AggregateExpression(aligned);
  ASSERT_EQ(expr.size(), 2u);
  EXPECT_EQ(expr[0].gene_id, 7);
  EXPECT_EQ(expr[0].total_frequency, 150);
  EXPECT_EQ(expr[0].tag_count, 2);
}

TEST(GeneExpressionTest, DifferentialExpressionDetectsChange) {
  std::vector<GeneExpression> a = {{1, 1000, 5}, {2, 100, 2}, {3, 100, 1}};
  std::vector<GeneExpression> b = {{1, 1000, 5}, {2, 800, 2}, {3, 100, 1}};
  std::vector<DifferentialExpression> diff = CompareExpression(a, b);
  ASSERT_EQ(diff.size(), 3u);
  // Gene 2 jumped 8x: it should rank first by chi-square.
  EXPECT_EQ(diff[0].gene_id, 2);
  EXPECT_GT(diff[0].log2_fold_change, 1.5);
}

}  // namespace
}  // namespace htg::genomics
