#include "genomics/formats.h"

#include <charconv>
#include <iterator>

#include "common/string_util.h"
#include "storage/vfs.h"

namespace htg::genomics {

std::string FormatReadName(const ReadCoordinates& coords) {
  return StringPrintf("%s_%d:%d:%d:%d:%d", coords.machine.c_str(),
                      coords.flowcell, coords.lane, coords.tile, coords.x,
                      coords.y);
}

namespace {

// One decimal coordinate of a read name: digits with an optional leading
// '-', nothing else (no '+', no spaces), within int's range.
Status ParseCoordinate(std::string_view part, std::string_view name,
                       int* out) {
  const char* end = part.data() + part.size();
  const auto [ptr, ec] = std::from_chars(part.data(), end, *out);
  if (ec == std::errc::result_out_of_range) {
    return Status::InvalidArgument("read name coordinate out of range: " +
                                   std::string(name));
  }
  if (ec != std::errc() || ptr != end) {
    return Status::InvalidArgument("read name coordinate is not an integer: " +
                                   std::string(name));
  }
  return Status::OK();
}

}  // namespace

Result<ReadCoordinates> ParseReadName(std::string_view name) {
  const size_t underscore = name.find('_');
  if (underscore == std::string_view::npos) {
    return Status::InvalidArgument("read name missing machine prefix: " +
                                   std::string(name));
  }
  ReadCoordinates coords;
  coords.machine.assign(name.substr(0, underscore));
  int* const fields[] = {&coords.flowcell, &coords.lane, &coords.tile,
                         &coords.x, &coords.y};
  std::string_view rest = name.substr(underscore + 1);
  for (size_t k = 0; k < std::size(fields); ++k) {
    // Every coordinate but the last ends at a ':'.
    const size_t colon = rest.find(':');
    const bool last = k + 1 == std::size(fields);
    if (last != (colon == std::string_view::npos)) {
      return Status::InvalidArgument("read name needs 5 coordinates: " +
                                     std::string(name));
    }
    HTG_RETURN_IF_ERROR(
        ParseCoordinate(rest.substr(0, colon), name, fields[k]));
    if (!last) rest.remove_prefix(colon + 1);
  }
  return coords;
}

namespace {

// Finds the next '\n' at or after `pos`; npos if none.
size_t FindNewline(const char* buffer, size_t size, size_t pos) {
  for (size_t i = pos; i < size; ++i) {
    if (buffer[i] == '\n') return i;
  }
  return static_cast<size_t>(-1);
}

std::string_view LineAt(const char* buffer, size_t begin, size_t end) {
  // Trim a trailing '\r' (Windows line endings).
  if (end > begin && buffer[end - 1] == '\r') --end;
  return std::string_view(buffer + begin, end - begin);
}

}  // namespace

bool FastqChunkParser::ParseRecord(const char* buffer, size_t size,
                                   size_t* pos, ShortRead* out) {
  size_t p = *pos;
  // Skip blank lines between records.
  while (p < size && (buffer[p] == '\n' || buffer[p] == '\r')) ++p;
  if (p >= size) return false;

  // Line 1: @name
  const size_t l1 = FindNewline(buffer, size, p);
  if (l1 == static_cast<size_t>(-1)) return false;
  std::string_view name_line = LineAt(buffer, p, l1);
  if (name_line.empty() || name_line[0] != '@') {
    status_ = Status::Corruption("FASTQ record does not start with '@'");
    return false;
  }
  // Line 2: sequence
  const size_t l2 = FindNewline(buffer, size, l1 + 1);
  if (l2 == static_cast<size_t>(-1)) return false;
  std::string_view seq = LineAt(buffer, l1 + 1, l2);
  // Line 3: + comment
  const size_t l3 = FindNewline(buffer, size, l2 + 1);
  if (l3 == static_cast<size_t>(-1)) return false;
  std::string_view plus = LineAt(buffer, l2 + 1, l3);
  if (plus.empty() || plus[0] != '+') {
    status_ = Status::Corruption("FASTQ record missing '+' separator");
    return false;
  }
  // Line 4: qualities. May be the last line of the file without '\n'.
  size_t l4 = FindNewline(buffer, size, l3 + 1);
  bool last_line = false;
  if (l4 == static_cast<size_t>(-1)) {
    // Complete only if the qualities already span the sequence length —
    // otherwise more bytes may follow in the next chunk.
    if (size - (l3 + 1) < seq.size()) return false;
    l4 = size;
    last_line = true;
  }
  std::string_view qual = LineAt(buffer, l3 + 1, l4);
  if (qual.size() != seq.size()) {
    if (last_line) return false;  // partial quality line: page more bytes
    status_ = Status::Corruption("FASTQ quality length mismatch");
    return false;
  }
  out->name = std::string(name_line.substr(1));
  out->sequence = std::string(seq);
  out->quality = std::string(qual);
  *pos = last_line ? size : l4 + 1;
  return true;
}

bool FastaChunkParser::ParseRecord(const char* buffer, size_t size,
                                   size_t* pos, ShortRead* out) {
  size_t p = *pos;
  while (p < size && (buffer[p] == '\n' || buffer[p] == '\r')) ++p;
  if (p >= size) return false;
  if (buffer[p] != '>') {
    status_ = Status::Corruption("FASTA record does not start with '>'");
    return false;
  }
  const size_t l1 = FindNewline(buffer, size, p);
  if (l1 == static_cast<size_t>(-1)) return false;
  std::string_view name_line = LineAt(buffer, p, l1);

  // Sequence lines until the next '>' or (at EOF) end of buffer.
  std::string seq;
  size_t cursor = l1 + 1;
  for (;;) {
    if (cursor >= size) {
      if (!at_eof_) return false;  // record may continue in the next chunk
      break;
    }
    if (buffer[cursor] == '>') break;
    size_t eol = FindNewline(buffer, size, cursor);
    if (eol == static_cast<size_t>(-1)) {
      if (!at_eof_) return false;
      eol = size;
      std::string_view line = LineAt(buffer, cursor, eol);
      seq.append(line);
      cursor = size;
      break;
    }
    std::string_view line = LineAt(buffer, cursor, eol);
    seq.append(line);
    cursor = eol + 1;
  }
  out->name = std::string(name_line.substr(1));
  out->sequence = std::move(seq);
  out->quality.clear();
  *pos = cursor;
  return true;
}

Result<std::vector<ShortRead>> ReadFastqFile(const std::string& path) {
  HTG_ASSIGN_OR_RETURN(std::string data,
                       storage::Vfs::Default()->ReadFileToString(path));
  std::vector<ShortRead> reads;
  FastqChunkParser parser;
  size_t pos = 0;
  ShortRead read;
  while (parser.ParseRecord(data.data(), data.size(), &pos, &read)) {
    reads.push_back(std::move(read));
  }
  HTG_RETURN_IF_ERROR(parser.status());
  return reads;
}

Status WriteFastqFile(const std::string& path,
                      const std::vector<ShortRead>& reads) {
  std::string out;
  for (const ShortRead& r : reads) {
    out += '@';
    out += r.name;
    out += '\n';
    out += r.sequence;
    out += "\n+\n";
    out += r.quality;
    out += '\n';
  }
  return storage::WriteFileAtomic(storage::Vfs::Default(), path, out);
}

Status WriteFastaFile(const std::string& path,
                      const std::vector<ShortRead>& records, int wrap) {
  std::string out;
  for (const ShortRead& r : records) {
    out += '>';
    out += r.name;
    out += '\n';
    const std::string& seq = r.sequence;
    for (size_t i = 0; i < seq.size(); i += wrap) {
      const size_t len = std::min<size_t>(wrap, seq.size() - i);
      out.append(seq, i, len);
      out += '\n';
    }
  }
  return storage::WriteFileAtomic(storage::Vfs::Default(), path, out);
}

Result<std::vector<ShortRead>> ReadFastaFile(const std::string& path) {
  HTG_ASSIGN_OR_RETURN(std::string data,
                       storage::Vfs::Default()->ReadFileToString(path));
  std::vector<ShortRead> records;
  FastaChunkParser parser;
  parser.set_at_eof(true);
  size_t pos = 0;
  ShortRead rec;
  while (parser.ParseRecord(data.data(), data.size(), &pos, &rec)) {
    records.push_back(std::move(rec));
  }
  HTG_RETURN_IF_ERROR(parser.status());
  return records;
}

}  // namespace htg::genomics
