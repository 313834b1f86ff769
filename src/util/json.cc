#include "util/json.h"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <stdexcept>

#include "util/byte_scan.h"

namespace whoiscrf::util {

namespace {

// Length of the UTF-8 sequence that starts at the byte s[i] >= 0x80. When
// it is well-formed (Unicode Table 3-7: no overlong forms, no surrogates,
// nothing above U+10FFFF) `ok` is set and the whole sequence is returned;
// otherwise the length of its maximal ill-formed prefix (at least 1), which
// becomes one U+FFFD.
size_t Utf8Sequence(std::string_view s, size_t i, bool& ok) {
  const unsigned char c = static_cast<unsigned char>(s[i]);
  size_t need = 0;  // continuation bytes
  unsigned char lo = 0x80;  // allowed range of the first continuation byte
  unsigned char hi = 0xBF;
  if (c >= 0xC2 && c <= 0xDF) {
    need = 1;
  } else if (c >= 0xE0 && c <= 0xEF) {
    need = 2;
    if (c == 0xE0) lo = 0xA0;  // overlong
    if (c == 0xED) hi = 0x9F;  // surrogates
  } else if (c >= 0xF0 && c <= 0xF4) {
    need = 3;
    if (c == 0xF0) lo = 0x90;  // overlong
    if (c == 0xF4) hi = 0x8F;  // above U+10FFFF
  } else {
    ok = false;  // stray continuation byte or invalid lead byte
    return 1;
  }
  size_t n = 1;
  for (; n <= need && i + n < s.size(); ++n) {
    const unsigned char b = static_cast<unsigned char>(s[i + n]);
    if (b < lo || b > hi) break;
    lo = 0x80;
    hi = 0xBF;
  }
  ok = n > need;
  return n;
}

// Escapes `raw` directly onto `out`. Clean runs (printable ASCII other than
// '"' and '\\', plus well-formed UTF-8) are appended in bulk, so the common
// all-ASCII string costs one table scan and one append.
void AppendEscapedTo(std::string& out, std::string_view raw) {
  size_t run = 0;  // start of the current clean run
  size_t next = 0;  // where the scan for the next escape resumes
  for (size_t i = scan::FindClass(raw, scan::kJsonEscape);
       i != std::string_view::npos;
       i = scan::FindClass(raw, scan::kJsonEscape, next)) {
    const unsigned char c = static_cast<unsigned char>(raw[i]);
    if (c >= 0x80) {
      bool ok = false;
      next = i + Utf8Sequence(raw, i, ok);
      if (ok) continue;  // stays part of the clean run
      out.append(raw, run, i - run);
      out += "\xEF\xBF\xBD";  // U+FFFD
      run = next;
      continue;
    }
    out.append(raw, run, i - run);
    run = next = i + 1;
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      default: {
        char buf[8];
        std::snprintf(buf, sizeof(buf), "\\u%04x", c);
        out += buf;
      }
    }
  }
  out.append(raw, run, raw.size() - run);
}

}  // namespace

std::string JsonWriter::Escape(std::string_view raw) {
  std::string out;
  out.reserve(raw.size() + 2);
  AppendEscapedTo(out, raw);
  return out;
}

void JsonWriter::MaybeComma() {
  if (after_key_) {
    after_key_ = false;
    return;
  }
  if (need_comma_ & 1) out_ += ',';
  need_comma_ |= 1;
}

void JsonWriter::Open(char bracket) {
  if (depth_ == kMaxDepth) {
    throw std::length_error("JsonWriter: containers nested deeper than 63");
  }
  MaybeComma();
  out_ += bracket;
  need_comma_ <<= 1;
  ++depth_;
}

void JsonWriter::Close(char bracket) {
  out_ += bracket;
  need_comma_ >>= 1;
  --depth_;
}

// NOLINTBEGIN(readability-identifier-naming)
JsonWriter& JsonWriter::BeginObject() {
  Open('{');
  return *this;
}

JsonWriter& JsonWriter::EndObject() {
  Close('}');
  return *this;
}

JsonWriter& JsonWriter::BeginArray() {
  Open('[');
  return *this;
}

JsonWriter& JsonWriter::EndArray() {
  Close(']');
  return *this;
}

JsonWriter& JsonWriter::Key(std::string_view key) {
  MaybeComma();
  out_ += '"';
  AppendEscapedTo(out_, key);
  out_ += "\":";
  after_key_ = true;
  return *this;
}

JsonWriter& JsonWriter::String(std::string_view value) {
  MaybeComma();
  out_ += '"';
  AppendEscapedTo(out_, value);
  out_ += '"';
  return *this;
}

JsonWriter& JsonWriter::Int(long long value) {
  MaybeComma();
  char buf[24];  // 19 digits and a sign
  const auto result = std::to_chars(buf, buf + sizeof(buf), value);
  out_.append(buf, result.ptr);
  return *this;
}

JsonWriter& JsonWriter::Double(double value) {
  MaybeComma();
  if (!std::isfinite(value)) {
    out_ += "null";
    return *this;
  }
  // Byte-identical to printf's "%.12g" (tests/test_json.cc checks it over
  // edge and random values), without the format-string parse and locale.
  char buf[64];
  const auto result = std::to_chars(buf, buf + sizeof(buf), value,
                                    std::chars_format::general, 12);
  out_.append(buf, result.ptr);
  return *this;
}

JsonWriter& JsonWriter::Bool(bool value) {
  MaybeComma();
  out_ += value ? "true" : "false";
  return *this;
}

JsonWriter& JsonWriter::Null() {
  MaybeComma();
  out_ += "null";
  return *this;
}

JsonWriter& JsonWriter::Field(std::string_view key, std::string_view value) {
  Key(key);
  return String(value);
}

JsonWriter& JsonWriter::FieldIfNonEmpty(std::string_view key,
                                        std::string_view value) {
  if (value.empty()) return *this;
  return Field(key, value);
}
// NOLINTEND(readability-identifier-naming)

}  // namespace whoiscrf::util
