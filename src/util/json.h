// Minimal JSON writer (no parsing, no DOM): enough to export parsed WHOIS
// records as structured data. Strings are escaped per RFC 8259 and always
// come out as valid UTF-8: well-formed multi-byte sequences are copied as-is
// and each ill-formed one becomes U+FFFD. Output is deterministic
// (insertion order).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

namespace whoiscrf::util {

class JsonWriter {
 public:
  // Containers may nest this deep; one more Begin* throws
  // std::length_error. The comma state of the top level and of every open
  // container is one bit of a uint64_t.
  static constexpr int kMaxDepth = 63;

  JsonWriter() { out_.reserve(256); }
  // Starts with `reserve_bytes` of output capacity.
  explicit JsonWriter(size_t reserve_bytes) { out_.reserve(reserve_bytes); }

  JsonWriter& BeginObject();
  JsonWriter& EndObject();
  JsonWriter& BeginArray();
  JsonWriter& EndArray();

  // Object key; must be followed by a value (or Begin*).
  JsonWriter& Key(std::string_view key);

  JsonWriter& String(std::string_view value);
  JsonWriter& Int(long long value);
  JsonWriter& Double(double value);
  JsonWriter& Bool(bool value);
  JsonWriter& Null();

  // Convenience: Key + String / skip when value empty.
  JsonWriter& Field(std::string_view key, std::string_view value);
  JsonWriter& FieldIfNonEmpty(std::string_view key, std::string_view value);

  const std::string& str() const { return out_; }

  // Hands the finished document to the caller without a copy; the writer
  // is left empty and should not be reused.
  std::string Release() { return std::move(out_); }

  static std::string Escape(std::string_view raw);

 private:
  void MaybeComma();
  void Open(char bracket);
  void Close(char bracket);
  std::string out_;
  // Bit d is set when the next value d levels out from the innermost open
  // container needs a ',' first; Open shifts in a level, Close shifts it
  // out.
  uint64_t need_comma_ = 0;
  int depth_ = 0;  // open containers
  bool after_key_ = false;
};

}  // namespace whoiscrf::util
