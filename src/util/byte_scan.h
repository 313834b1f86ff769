// Table-driven byte scanning for the text hot path.
//
// Line splitting, whitespace word splitting, separator detection, %%-frame
// scanning and JSON escaping all ask the same question of each byte: is it
// in some class? One 256-entry table answers it with a single indexed load,
// one bit per class, so every scan is a plain loop over the bytes.
//
// Adding a new byte class: add a bit constant below, set it for the class's
// bytes in BuildClassTable(), and scan with FindClass / FindNotClass /
// InClass.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <string_view>

namespace whoiscrf::util::scan {

// --- Byte classification ---------------------------------------------------
//
// Masks can be OR-combined (kAlnum below).

inline constexpr uint8_t kSpace = 1u << 0;       // ' ' \t \n \v \f \r
inline constexpr uint8_t kDigit = 1u << 1;       // 0-9
inline constexpr uint8_t kUpper = 1u << 2;       // A-Z
inline constexpr uint8_t kLower = 1u << 3;       // a-z
inline constexpr uint8_t kNewline = 1u << 4;     // \n \r
inline constexpr uint8_t kJsonEscape = 1u << 5;  // < 0x20, '"', '\\', >= 0x80
inline constexpr uint8_t kEdgePunct = 1u << 6;   // tokenizer edge punctuation
inline constexpr uint8_t kSepTrigger = 1u << 7;  // : . \t = ' ' (separator.cc)
inline constexpr uint8_t kAlpha = kUpper | kLower;
inline constexpr uint8_t kAlnum = kAlpha | kDigit;

namespace detail {
constexpr std::array<uint8_t, 256> BuildClassTable() {
  std::array<uint8_t, 256> t{};
  auto add = [&t](unsigned char c, uint8_t bit) { t[c] |= bit; };
  for (const char c : {' ', '\t', '\n', '\r', '\f', '\v'}) {
    add(static_cast<unsigned char>(c), kSpace);
  }
  for (unsigned c = '0'; c <= '9'; ++c) add(c, kDigit);
  for (unsigned c = 'A'; c <= 'Z'; ++c) add(c, kUpper);
  for (unsigned c = 'a'; c <= 'z'; ++c) add(c, kLower);
  add('\n', kNewline);
  add('\r', kNewline);
  // JSON must escape control bytes, '"' and '\\'; bytes >= 0x80 stop the
  // clean-run scan too so the writer can check their UTF-8 (util/json.cc).
  for (unsigned c = 0; c < 0x20; ++c) add(c, kJsonEscape);
  for (unsigned c = 0x80; c < 0x100; ++c) add(c, kJsonEscape);
  add('"', kJsonEscape);
  add('\\', kJsonEscape);
  for (const char c : {',', '.', ';', '"', '\'', '(', ')', '[', ']', '<', '>',
                       '*', '#', '%', '!', '?'}) {
    add(static_cast<unsigned char>(c), kEdgePunct);
  }
  for (const char c : {':', '.', '\t', '=', ' '}) {
    add(static_cast<unsigned char>(c), kSepTrigger);
  }
  return t;
}
}  // namespace detail

inline constexpr std::array<uint8_t, 256> kClassTable =
    detail::BuildClassTable();

inline constexpr uint8_t ClassOf(char c) {
  return kClassTable[static_cast<unsigned char>(c)];
}
inline constexpr bool InClass(char c, uint8_t mask) {
  return (ClassOf(c) & mask) != 0;
}

// --- Scans -----------------------------------------------------------------
//
// Both return an index into `s` (>= from), or std::string_view::npos when
// no byte qualifies. `from` past the end is allowed and returns npos.

// First byte in any class of `mask`.
inline size_t FindClass(std::string_view s, uint8_t mask, size_t from = 0) {
  for (size_t i = from; i < s.size(); ++i) {
    if (InClass(s[i], mask)) return i;
  }
  return std::string_view::npos;
}

// First byte in none of the classes of `mask`.
inline size_t FindNotClass(std::string_view s, uint8_t mask,
                           size_t from = 0) {
  for (size_t i = from; i < s.size(); ++i) {
    if (!InClass(s[i], mask)) return i;
  }
  return std::string_view::npos;
}

// ASCII-lowercases n bytes from `in` into `out` (in == out is fine;
// other overlaps are not). Bytes outside A-Z are copied untouched.
inline void AsciiLower(const char* in, size_t n, char* out) {
  for (size_t i = 0; i < n; ++i) {
    const char c = in[i];
    out[i] = InClass(c, kUpper) ? static_cast<char>(c | 0x20) : c;
  }
}

}  // namespace whoiscrf::util::scan
