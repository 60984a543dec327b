#pragma once

#include <memory>

#include "udf/function.h"

namespace htg::genomics {

// AlignReads(sample, lane, reference_fasta [, max_mismatches]):
// in-database short-read alignment — the §6.1 direction of integrating
// MAQ-style alignment into the engine. Streams the lane's FileStream FASTQ
// through the aligner against the given reference, emitting one row per
// aligned read:
//
//   (read_name, chromosome, position BIGINT, reverse_strand BIT,
//    mismatches INT, mapq INT)
//
// so Phase-2 analysis becomes a FROM-clause citizen:
//
//   INSERT INTO Alignment
//   SELECT ... FROM AlignReads(855, 1, '/ref/human.fa', 2)
//
// The reference k-mer index is built at Open() and cached per reference
// path for the lifetime of the process (indexing dominates otherwise).
class AlignReadsTvf : public udf::TableFunction {
 public:
  std::string_view name() const override { return "AlignReads"; }
  Result<Schema> BindSchema(const std::vector<Value>& args) const override;
  Result<std::unique_ptr<udf::RowSource>> Open(
      const std::vector<Value>& args, Database* db) const override;
};

}  // namespace htg::genomics

