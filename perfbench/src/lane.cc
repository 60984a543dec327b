#include "lane.h"

#include <filesystem>

#include "genomics/register.h"
#include "genomics/simulator.h"

namespace htgbench {
namespace {

uint64_t Digits(int64_t v) { return std::to_string(v).size(); }

}  // namespace

Lane MakeLane(const LaneConfig& config, Tracer* tracer) {
  Lane lane;
  {
    ScopedSpan span(tracer, "genomics.simulate");
    lane.reference = htg::genomics::ReferenceGenome::Random(
        config.reference_bases, config.chromosomes, config.seed);
    htg::genomics::SimulatorOptions sim_options;
    sim_options.seed = config.seed + 1;
    htg::genomics::ReadSimulator sim(&lane.reference, sim_options);
    if (config.dge) {
      htg::genomics::DgeOptions dge;
      dge.num_genes = config.dge_genes;
      lane.reads = sim.SimulateDge(config.num_reads, dge);
    } else {
      lane.reads = sim.SimulateResequencing(config.num_reads);
    }
  }
  std::vector<htg::genomics::ShortRead> tag_reads;
  if (config.dge) {
    ScopedSpan span(tracer, "genomics.bin");
    lane.tags = htg::genomics::BinUniqueReads(lane.reads);
    tag_reads.reserve(lane.tags.size());
    for (const htg::genomics::TagCount& t : lane.tags) {
      tag_reads.push_back({"tag" + std::to_string(t.rank), t.sequence, ""});
    }
  }
  {
    // DGE aligns the unique tags, re-sequencing every read.
    ScopedSpan span(tracer, "genomics.align");
    htg::genomics::Aligner aligner(&lane.reference, {});
    lane.alignments = aligner.AlignBatch(config.dge ? tag_reads : lane.reads);
  }

  // "@name\nSEQ\n+\nQUAL\n" per read.
  for (const htg::genomics::ShortRead& r : lane.reads) {
    lane.file_bytes += 6 + r.name.size() + r.sequence.size() + r.quality.size();
  }
  // "rank\tfrequency\tSEQ\n" per tag.
  for (const htg::genomics::TagCount& t : lane.tags) {
    lane.file_bytes += 3 + Digits(t.rank) + Digits(t.frequency) +
                       t.sequence.size();
  }
  // "read\tchromosome\tposition\tstrand\tmismatches\tmapq\n" per alignment.
  for (const htg::genomics::Alignment& a : lane.alignments) {
    const std::string& read_name =
        config.dge ? std::string() : lane.reads[a.read_id].name;
    lane.file_bytes +=
        (config.dge ? 3 + Digits(a.read_id + 1) : read_name.size()) +
        lane.reference.chromosome(a.chromosome).name.size() +
        Digits(a.position + 1) + 1 + Digits(a.mismatches) +
        Digits(a.mapping_quality) + 6;
  }
  return lane;
}

void SetupTimes::AddGenomics(const Tracer& setup_tracer) {
  for (const auto& [name, sum] : setup_tracer.Summarize()) {
    if (name == "genomics.simulate") simulate_s.Add(sum.total_ms / 1e3);
    if (name == "genomics.align") align_s.Add(sum.total_ms / 1e3);
  }
}

void SetupTimes::Report(Context& ctx) const {
  ctx.report->Set("setup_s", total_s.Median(), "s");
  ctx.report->Named("setup_s", total_s.Median(), "s");
  if (ctx.opt.trace) {
    ctx.report->Set("genomics.simulate_s", simulate_s.Median(), "s");
    ctx.report->Set("genomics.align_s", align_s.Median(), "s");
  }
}

htg::Result<Db> OpenDb(const Options& opt, const std::string& name,
                       size_t pool_bytes) {
  static int counter = 0;
  Db out;
  out.root = opt.work_dir + "/" + name + "-" + std::to_string(counter++);
  std::error_code ec;
  std::filesystem::remove_all(out.root, ec);
  htg::DatabaseOptions options;
  options.filestream_root = out.root;
  options.buffer_pool_bytes = pool_bytes;
  options.max_dop = opt.threads;
  auto db = htg::Database::Open(name, options);
  if (!db.ok()) return db.status();
  out.db = std::move(*db);
  htg::Status registered =
      htg::genomics::RegisterGenomicsExtensions(out.db.get());
  if (!registered.ok()) return registered;
  out.engine = std::make_unique<htg::sql::SqlEngine>(out.db.get());
  return out;
}

void CloseDb(Db* db) {
  db->engine.reset();
  db->db.reset();
  std::error_code ec;
  if (!db->root.empty()) std::filesystem::remove_all(db->root, ec);
}

}  // namespace htgbench
