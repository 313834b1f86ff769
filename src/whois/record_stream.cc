#include "whois/record_stream.h"

#include <iostream>

#include "util/byte_scan.h"
#include "util/string_util.h"

namespace whoiscrf::whois {

namespace {

bool IsSeparator(std::string_view line) {
  // Fast reject: a "%%" frame line must contain '%'; almost no body line
  // does, so most lines skip the trim entirely.
  if (line.find('%') == std::string_view::npos) return false;
  return util::Trim(line) == "%%";
}

}  // namespace

RecordStreamReader::RecordStreamReader(util::ByteSource& source)
    : source_(source) {}

bool RecordStreamReader::EmitBody(StreamedRecord& out, bool terminated) {
  out.text.swap(body_);
  body_.clear();
  out.index = emitted_++;
  out.first_line = body_first_line_;
  out.terminated = terminated;
  return true;
}

bool RecordStreamReader::ConsumeLine(std::string_view line,
                                     StreamedRecord& out) {
  ++line_no_;
  if (IsSeparator(line)) {
    if (!body_.empty()) return EmitBody(out, /*terminated=*/true);
    return false;
  }
  if (body_.empty()) body_first_line_ = line_no_;
  body_.append(line);
  body_.push_back('\n');
  return false;
}

bool RecordStreamReader::Next(StreamedRecord& out) {
  while (!eof_) {
    while (pos_ < chunk_.size()) {
      if (skip_lf_) {
        skip_lf_ = false;
        if (chunk_[pos_] == '\n') {
          ++pos_;
          continue;
        }
      }
      const size_t nl =
          util::scan::FindClass(chunk_, util::scan::kNewline, pos_);
      if (nl == std::string_view::npos) {
        partial_.append(chunk_, pos_, chunk_.size() - pos_);
        pos_ = chunk_.size();
        break;
      }
      // Complete line: the carried fragment plus this chunk's prefix.
      std::string_view line;
      if (partial_.empty()) {
        line = chunk_.substr(pos_, nl - pos_);
      } else {
        partial_.append(chunk_, pos_, nl - pos_);
        line = partial_;
      }
      if (chunk_[nl] == '\r') {
        if (nl + 1 < chunk_.size()) {
          pos_ = nl + (chunk_[nl + 1] == '\n' ? 2 : 1);
        } else {
          pos_ = nl + 1;
          skip_lf_ = true;  // a following '\n' may open the next chunk
        }
      } else {
        pos_ = nl + 1;
      }
      const bool complete = ConsumeLine(line, out);
      partial_.clear();
      if (complete) return true;
    }
    chunk_ = source_.Next();
    pos_ = 0;
    if (chunk_.empty()) {
      eof_ = true;
      // A final line without a trailing newline still counts.
      if (!partial_.empty()) {
        const bool complete = ConsumeLine(partial_, out);
        partial_.clear();
        if (complete) return true;
      }
      if (util::HasAlnum(body_)) return EmitBody(out, /*terminated=*/false);
      body_.clear();
      return false;
    }
  }
  return false;
}

bool TextRecordSource::Next(std::string& record) {
  if (!reader_.Next(scratch_)) return false;
  record.swap(scratch_.text);
  return true;
}

std::vector<std::string> ReadAllRecords(util::ByteSource& source) {
  std::vector<std::string> records;
  RecordStreamReader reader(source);
  StreamedRecord rec;
  while (reader.Next(rec)) records.push_back(std::move(rec.text));
  return records;
}

std::vector<std::string> ReadAllRecords(const std::string& path) {
  if (path.empty()) {
    util::StreamByteSource source(std::cin);
    return ReadAllRecords(source);
  }
  util::FileByteSource source(path);
  return ReadAllRecords(source);
}

}  // namespace whoiscrf::whois
