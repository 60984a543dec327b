#pragma once

// One simulated flowcell lane, made in memory from the run's seed through
// the genomics module (each step in its own span), and opening a fresh
// database for it.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "catalog/database.h"
#include "genomics/aligner.h"
#include "genomics/formats.h"
#include "genomics/gene_expression.h"
#include "genomics/reference.h"
#include "harness.h"
#include "sql/engine.h"

namespace htgbench {

struct LaneConfig {
  uint64_t reference_bases = 2'000'000;
  int chromosomes = 8;
  uint64_t num_reads = 250'000;
  bool dge = true;  // false: re-sequencing (nearly unique reads)
  int dge_genes = 20'000;
  uint64_t seed = 1;
};

struct Lane {
  htg::genomics::ReferenceGenome reference;
  std::vector<htg::genomics::ShortRead> reads;
  // DGE only: unique tags, ranked (genomics::BinUniqueReads).
  std::vector<htg::genomics::TagCount> tags;
  // DGE: one per aligned tag (read_id = tag index); re-sequencing: one
  // per aligned read.
  std::vector<htg::genomics::Alignment> alignments;
  // Bytes of the lane's file-centric artifacts, had they been written:
  // FASTQ, unique-tag list (DGE) and tab-separated alignments.
  uint64_t file_bytes = 0;
};

// Spans: genomics.simulate, genomics.bin (DGE), genomics.align.
Lane MakeLane(const LaneConfig& config, Tracer* tracer);

// Set-up is repeated from the same seed; each workload reports medians.
struct SetupTimes {
  static constexpr int kRepeats = 3;
  Samples total_s, simulate_s, align_s;

  // Records the genomics spans of one set-up.
  void AddGenomics(const Tracer& setup_tracer);
  // setup_s always; genomics.simulate_s / genomics.align_s when traced.
  void Report(Context& ctx) const;
};

struct Db {
  std::unique_ptr<htg::Database> db;
  std::unique_ptr<htg::sql::SqlEngine> engine;
  std::string root;  // filestream root; the tablespace lives below it
};

// Opens a database under opt.work_dir with the genomics extensions
// registered. pool_bytes 0 keeps the engine default.
htg::Result<Db> OpenDb(const Options& opt, const std::string& name,
                       size_t pool_bytes);

// Closes the database and removes its files.
void CloseDb(Db* db);

}  // namespace htgbench
