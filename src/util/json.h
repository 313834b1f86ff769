// Minimal JSON writer (no parsing, no DOM): enough to export parsed WHOIS
// records as structured data. Strings are escaped per RFC 8259 and always
// come out as valid UTF-8: well-formed multi-byte sequences are copied as-is
// and each ill-formed one becomes U+FFFD. Output is deterministic
// (insertion order).
#pragma once

#include <string>
#include <string_view>
#include <vector>

namespace whoiscrf::util {

class JsonWriter {
 public:
  JsonWriter() { out_.reserve(256); }

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
  std::string out_;
  // True when the next value at this nesting level needs a ',' first.
  std::vector<bool> need_comma_{false};
  bool after_key_ = false;
};

}  // namespace whoiscrf::util
