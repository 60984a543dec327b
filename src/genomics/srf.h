#pragma once

#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "genomics/formats.h"
#include "storage/filestream.h"
#include "storage/table.h"
#include "udf/function.h"

namespace htg::genomics {

// A level-1 record in the Sequence Read Format sense (paper §5.3.1): the
// short read plus core image-analysis signals — per-base intensity and a
// per-read signal-to-noise ratio — that plain FASTQ drops.
struct SrfRecord {
  ShortRead read;
  std::vector<float> intensities;  // one per base
  float signal_to_noise = 0.0f;
};

// Container header magic ("htg-SRF1").
inline constexpr char kSrfMagic[8] = {'h', 't', 'g', '-', 'S', 'R', 'F', '1'};

// Writes a container: magic, varint record count, then per record the
// name/sequence/qualities (length-prefixed), SNR, and packed intensities.
Status WriteSrfFile(const std::string& path,
                    const std::vector<SrfRecord>& records);

// Reads a whole container back.
Result<std::vector<SrfRecord>> ReadSrfFile(const std::string& path);

// Derives plausible SRF signals for simulated reads: intensity tracks the
// base quality with noise, SNR summarizes the read.
std::vector<SrfRecord> AttachSrfSignals(const std::vector<ShortRead>& reads,
                                        uint64_t seed);

// ReadSrfFile(path [, chunk_kb]): streaming wrapper TVF over an SRF
// container held in a FileStream — the paper's "naturally extends to
// encapsulate SRF files as FileStreams too". Output schema:
//   (read_name, short_read_seq, quality, avg_intensity FLOAT, snr FLOAT).
class ReadSrfFileTvf : public udf::TableFunction {
 public:
  std::string_view name() const override { return "ReadSrfFile"; }
  Result<Schema> BindSchema(const std::vector<Value>& args) const override;
  Result<std::unique_ptr<udf::RowSource>> Open(
      const std::vector<Value>& args, Database* db) const override;
};

}  // namespace htg::genomics

