// 64-bit hash for the flat open-addressed tables on the parse hot paths
// (the CRF fast path's line/word caches and attr table, the template
// tier's key-id and signature tables).
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string_view>

namespace whoiscrf::util {

// Inlined into every probe (no out-of-line std::hash call): 8-byte
// little-endian words folded with multiply-xorshift rounds. Callers index
// power-of-two tables with the low bits; the parse workspace's doorkeeper
// uses the top bits.
inline uint64_t KeyHash(std::string_view s) {
  constexpr uint64_t kMul = 0x9E3779B97F4A7C15ull;
  uint64_t h = s.size() * kMul;
  const char* p = s.data();
  size_t n = s.size();
  for (; n >= 8; p += 8, n -= 8) {
    uint64_t w;
    std::memcpy(&w, p, 8);
    h = (h ^ w) * kMul;
    h ^= h >> 32;
  }
  uint64_t tail = 0;
  if (n > 0 && s.size() >= 8) {
    std::memcpy(&tail, s.data() + s.size() - 8, 8);  // overlapping last word
  } else {
    for (size_t i = 0; i < n; ++i) {
      tail |= static_cast<uint64_t>(static_cast<unsigned char>(p[i]))
              << (8 * i);
    }
  }
  h = (h ^ tail) * kMul;
  h ^= h >> 32;
  h *= kMul;
  return h ^ (h >> 29);
}

}  // namespace whoiscrf::util
