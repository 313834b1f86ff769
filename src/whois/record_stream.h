// Incremental scanner for %%-delimited WHOIS record files — the single
// framing authority for the repo (docs/formats.md "Raw-record pool
// format"). ReadAllRecords (`select`), the training-data loader, and the
// streaming parse pipeline all delegate here, so framing semantics cannot
// drift between them.
//
// Semantics (matching the original in-memory splitter byte for byte):
//   * lines end at "\n", "\r\n", or bare "\r";
//   * a line whose trimmed content is exactly "%%" terminates a record;
//   * a record's text is its lines joined with '\n' (LF-normalized, each
//     line newline-terminated, including an unterminated final line);
//   * records with empty bodies (consecutive separators) are skipped;
//   * a trailing record with no closing %% is emitted with
//     `terminated == false`, and only if it contains an alphanumeric
//     character (so trailing blank lines never produce a ghost record).
//
// The scanner holds one input chunk plus the current record at a time, so
// memory stays O(chunk + record) however large the corpus is, and a record
// may straddle any number of chunk boundaries.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "util/chunk_reader.h"

namespace whoiscrf::whois {

// One record scanned out of a byte stream.
struct StreamedRecord {
  std::string text;        // LF-normalized body, every line '\n'-terminated
  uint64_t index = 0;      // 0-based index among emitted records
  size_t first_line = 0;   // 1-based physical line number of the first line
  bool terminated = true;  // false only for a final record with no %%
};

class RecordStreamReader {
 public:
  explicit RecordStreamReader(util::ByteSource& source);

  // Scans forward to the next record. Returns false at end of input.
  // `out.text` is overwritten (capacity reused across calls).
  bool Next(StreamedRecord& out);

 private:
  // Handles one complete physical line; true if it completed a record.
  bool ConsumeLine(std::string_view line, StreamedRecord& out);
  bool EmitBody(StreamedRecord& out, bool terminated);

  util::ByteSource& source_;
  std::string_view chunk_;
  size_t pos_ = 0;           // scan cursor within chunk_
  std::string partial_;      // line fragment carried across chunks
  std::string body_;         // current record body
  bool skip_lf_ = false;     // last chunk ended in '\r': swallow a '\n'
  bool eof_ = false;
  size_t line_no_ = 0;       // physical lines consumed so far
  size_t body_first_line_ = 0;
  uint64_t emitted_ = 0;
};

// Pull interface the streaming pipeline consumes: anything that can hand
// out records one at a time.
class RecordSource {
 public:
  virtual ~RecordSource() = default;

  // Fills `record` with the next record's text; false at end of input.
  virtual bool Next(std::string& record) = 0;

  // Advances past up to `n` records, returning how many were actually
  // skipped (< n only at end of input). The default scans via Next();
  // seekable sources (stores, generators) override with an O(1) cursor
  // move, which is what makes resuming a checkpointed run over a 100M-
  // record corpus instant instead of a full re-read.
  virtual uint64_t Skip(uint64_t n) {
    std::string scratch;
    uint64_t skipped = 0;
    while (skipped < n && Next(scratch)) ++skipped;
    return skipped;
  }
};

// RecordSource over a %%-delimited byte stream.
class TextRecordSource : public RecordSource {
 public:
  explicit TextRecordSource(util::ByteSource& source) : reader_(source) {}
  bool Next(std::string& record) override;

 private:
  RecordStreamReader reader_;
  StreamedRecord scratch_;
};

// RecordSource over an in-memory list (benches and tests).
class VectorRecordSource : public RecordSource {
 public:
  explicit VectorRecordSource(const std::vector<std::string>& records)
      : records_(records) {}
  bool Next(std::string& record) override {
    if (pos_ >= records_.size()) return false;
    record = records_[pos_++];
    return true;
  }
  uint64_t Skip(uint64_t n) override {
    const uint64_t skip =
        std::min<uint64_t>(n, records_.size() - pos_);
    pos_ += static_cast<size_t>(skip);
    return skip;
  }

 private:
  const std::vector<std::string>& records_;
  size_t pos_ = 0;
};

// Materializes every record of a source / a %%-delimited file ("" reads
// stdin). Throws std::runtime_error when the file cannot be opened.
std::vector<std::string> ReadAllRecords(util::ByteSource& source);
std::vector<std::string> ReadAllRecords(const std::string& path);

}  // namespace whoiscrf::whois
