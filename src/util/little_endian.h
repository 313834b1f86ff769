// Little-endian codec: the one byte layout every persisted or framed
// integer uses (model files, record store shards, serve frames, cache key
// suffixes). Put/Get work on raw bytes; Write/Read frame values on
// iostreams. A Read that hits the end of the stream throws
// std::runtime_error("<context>: truncated stream"), so each loader keeps
// its own error text by passing its name as `context`.
#pragma once

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <istream>
#include <ostream>
#include <stdexcept>
#include <string>
#include <string_view>

namespace whoiscrf::util::le {

inline void PutU32(char* out, uint32_t v) {
  for (int i = 0; i < 4; ++i) out[i] = static_cast<char>(v >> (8 * i));
}

inline void PutU64(char* out, uint64_t v) {
  for (int i = 0; i < 8; ++i) out[i] = static_cast<char>(v >> (8 * i));
}

inline uint32_t GetU32(const char* in) {
  uint32_t v = 0;
  for (int i = 3; i >= 0; --i) v = (v << 8) | static_cast<unsigned char>(in[i]);
  return v;
}

inline uint64_t GetU64(const char* in) {
  uint64_t v = 0;
  for (int i = 7; i >= 0; --i) v = (v << 8) | static_cast<unsigned char>(in[i]);
  return v;
}

inline void WriteU32(std::ostream& os, uint32_t v) {
  char buf[4];
  PutU32(buf, v);
  os.write(buf, 4);
}

inline void WriteU64(std::ostream& os, uint64_t v) {
  char buf[8];
  PutU64(buf, v);
  os.write(buf, 8);
}

// A double as the little-endian u64 of its IEEE-754 bits.
inline void WriteF64(std::ostream& os, double v) {
  WriteU64(os, std::bit_cast<uint64_t>(v));
}

// u32 byte length, then the bytes.
inline void WriteString(std::ostream& os, std::string_view s) {
  WriteU32(os, static_cast<uint32_t>(s.size()));
  os.write(s.data(), static_cast<std::streamsize>(s.size()));
}

[[noreturn]] inline void ThrowTruncated(std::string_view context) {
  throw std::runtime_error(std::string(context) + ": truncated stream");
}

inline uint32_t ReadU32(std::istream& is, std::string_view context) {
  char buf[4];
  if (!is.read(buf, 4)) ThrowTruncated(context);
  return GetU32(buf);
}

inline uint64_t ReadU64(std::istream& is, std::string_view context) {
  char buf[8];
  if (!is.read(buf, 8)) ThrowTruncated(context);
  return GetU64(buf);
}

inline double ReadF64(std::istream& is, std::string_view context) {
  return std::bit_cast<double>(ReadU64(is, context));
}

// Loaders never size a buffer from a length or count word alone: they read
// in pieces of at most kReadPieceBytes and reserve at most kReserveLimit
// elements up front, so a corrupt word costs no more memory than the stream
// really holds.
inline constexpr size_t kReadPieceBytes = size_t{1} << 20;
inline constexpr size_t kReserveLimit = size_t{1} << 16;

// Reads a u32-length string. The string grows one piece at a time as bytes
// arrive, never to the declared length up front.
inline std::string ReadString(std::istream& is, std::string_view context) {
  const uint32_t len = ReadU32(is, context);
  std::string s;
  while (s.size() < len) {
    const size_t have = s.size();
    const size_t piece = std::min<size_t>(kReadPieceBytes, len - have);
    s.resize(have + piece);
    if (!is.read(s.data() + have, static_cast<std::streamsize>(piece))) {
      ThrowTruncated(context);
    }
  }
  return s;
}

}  // namespace whoiscrf::util::le
