#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"

namespace htg::genomics {

// One level-1 short read (a FASTQ entry, paper Fig. 3).
struct ShortRead {
  std::string name;      // e.g. "IL4_855:1:1:954:659"
  std::string sequence;  // ACGTN text
  std::string quality;   // ASCII Phred+33, same length; empty for FASTA
};

// Coordinates encoded in an Illumina-style read name
// "<machine>_<flowcell>:<lane>:<tile>:<x>:<y>" — the paper's §5.1.1
// example of a materialized composite key.
struct ReadCoordinates {
  std::string machine;
  int flowcell = 0;
  int lane = 0;
  int tile = 0;
  int x = 0;
  int y = 0;
};

// Builds the composite textual name from coordinates.
std::string FormatReadName(const ReadCoordinates& coords);

// Parses a composite read name. A malformed name — a missing part, an
// empty one, anything but digits and a leading '-' in a coordinate, or a
// coordinate outside int's range — is a typed InvalidArgument.
Result<ReadCoordinates> ParseReadName(std::string_view name);

// Incremental FASTQ parser over a caller-managed byte buffer. This is the
// ParseShortReadEntry() of the paper's Fig. 5 pseudo-code: it consumes one
// complete 4-line record at *pos, or reports that the buffer ends inside a
// record so the caller can run its paging algorithm.
class FastqChunkParser {
 public:
  // Returns true and advances *pos past one record, filling *out.
  // Returns false if [buffer + *pos, buffer + size) holds no complete
  // record; *pos is left unchanged. Corrupt input sets status().
  bool ParseRecord(const char* buffer, size_t size, size_t* pos,
                   ShortRead* out);

  Status status() const { return status_; }

 private:
  Status status_;
};

// Incremental FASTA parser (">" header + wrapped sequence lines). A record
// is complete when the next '>' appears, or at end of input when the
// caller has signalled EOF.
class FastaChunkParser {
 public:
  void set_at_eof(bool at_eof) { at_eof_ = at_eof; }

  bool ParseRecord(const char* buffer, size_t size, size_t* pos,
                   ShortRead* out);

  Status status() const { return status_; }

 private:
  bool at_eof_ = false;
  Status status_;
};

// Whole-file helpers --------------------------------------------------

Result<std::vector<ShortRead>> ReadFastqFile(const std::string& path);
Status WriteFastqFile(const std::string& path,
                      const std::vector<ShortRead>& reads);

// FASTA with sequences wrapped at `wrap` characters per line (the 60 bp
// convention the paper calls out as display-oriented).
Status WriteFastaFile(const std::string& path,
                      const std::vector<ShortRead>& records, int wrap = 60);
Result<std::vector<ShortRead>> ReadFastaFile(const std::string& path);

}  // namespace htg::genomics

