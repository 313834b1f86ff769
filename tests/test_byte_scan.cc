// Reference suite for the byte-scanning hot path (util/byte_scan.h): the
// class table, every scan built on it, and the text-layer consumers of
// those scans must agree with naive per-byte references that never touch
// the table (for the tokenizer: its frozen classic extraction). Inputs
// sweep all byte values (including >= 0x80), random byte soup, every
// alignment of a shared buffer, and all `from` offsets.
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "text/line_splitter.h"
#include "text/tokenizer.h"
#include "util/byte_scan.h"
#include "util/json.h"
#include "util/random.h"
#include "util/string_util.h"

namespace whoiscrf::util::scan {
namespace {

constexpr size_t npos = std::string_view::npos;

constexpr uint8_t kEveryMask[] = {kSpace,      kDigit,      kUpper,
                                  kLower,      kNewline,    kJsonEscape,
                                  kEdgePunct,  kSepTrigger, kAlpha,
                                  kAlnum};

bool OneOf(char c, const char* set) {
  return c != '\0' && std::strchr(set, c) != nullptr;
}

// Class membership spelled out byte by byte, independent of kClassTable.
bool RefInClass(char c, uint8_t mask) {
  const auto u = static_cast<unsigned char>(c);
  const bool upper = c >= 'A' && c <= 'Z';
  const bool lower = c >= 'a' && c <= 'z';
  return ((mask & kSpace) && OneOf(c, " \t\n\v\f\r")) ||
         ((mask & kDigit) && c >= '0' && c <= '9') ||
         ((mask & kUpper) && upper) || ((mask & kLower) && lower) ||
         ((mask & kNewline) && (c == '\n' || c == '\r')) ||
         ((mask & kJsonEscape) &&
          (u < 0x20 || u >= 0x80 || c == '"' || c == '\\')) ||
         ((mask & kEdgePunct) && OneOf(c, ",.;\"'()[]<>*#%!?")) ||
         ((mask & kSepTrigger) && OneOf(c, ":.\t= "));
}

size_t RefFindClass(std::string_view s, uint8_t mask, size_t from) {
  for (size_t i = from; i < s.size(); ++i) {
    if (RefInClass(s[i], mask)) return i;
  }
  return npos;
}

size_t RefFindNotClass(std::string_view s, uint8_t mask, size_t from) {
  for (size_t i = from; i < s.size(); ++i) {
    if (!RefInClass(s[i], mask)) return i;
  }
  return npos;
}

// Inputs that put class bytes everywhere: every short length, a match at
// every position, full 0..255 byte coverage, and random soup.
std::vector<std::string> AdversarialInputs() {
  std::vector<std::string> inputs;
  inputs.emplace_back();  // empty
  // All 256 byte values, in order and reversed.
  std::string all;
  for (int b = 0; b < 256; ++b) all.push_back(static_cast<char>(b));
  inputs.push_back(all);
  inputs.emplace_back(all.rbegin(), all.rend());
  // Clean runs (no class bytes) of every length 1..72.
  for (size_t n = 1; n <= 72; ++n) inputs.emplace_back(n, 'x');
  // A single interesting byte at every position of a 40-byte clean run.
  for (const char c : {'\n', '\r', ' ', '\t', ':', '=', '"', '\\', '\x01',
                       '0', 'Z', 'a', '\x7f', '\x80', '\xff'}) {
    for (size_t pos = 0; pos < 40; ++pos) {
      std::string s(40, 'q');
      s[pos] = c;
      inputs.push_back(std::move(s));
    }
  }
  // Random byte soup, plus random mostly-text with sprinkled specials.
  util::Rng rng(20260808);
  for (int r = 0; r < 200; ++r) {
    std::string soup;
    const size_t n = rng.UniformInt(0, 130);
    for (size_t i = 0; i < n; ++i) {
      soup.push_back(static_cast<char>(rng.UniformInt(0, 255)));
    }
    inputs.push_back(std::move(soup));
  }
  const std::string_view specials = "\n\r\t :=.\"\\\x01\x80\xff";
  for (int r = 0; r < 200; ++r) {
    std::string text;
    const size_t n = rng.UniformInt(0, 130);
    for (size_t i = 0; i < n; ++i) {
      if (rng.Bernoulli(0.15)) {
        text.push_back(
            specials[rng.UniformInt(0, specials.size() - 1)]);
      } else {
        text.push_back(static_cast<char>(rng.UniformInt('a', 'z')));
      }
    }
    inputs.push_back(std::move(text));
  }
  return inputs;
}

// `from` offsets worth probing for a string of length n: every small
// offset, a stride through the rest, and past-the-end.
std::vector<size_t> FromOffsets(size_t n) {
  std::vector<size_t> from = {0};
  for (size_t f = 1; f <= n + 2; f = f < 40 ? f + 1 : f + 7) from.push_back(f);
  return from;
}

TEST(ByteScanEquivalence, FindClassMatchesReferenceForEveryMask) {
  for (int b = 0; b < 256; ++b) {
    for (const uint8_t mask : kEveryMask) {
      ASSERT_EQ(InClass(static_cast<char>(b), mask),
                RefInClass(static_cast<char>(b), mask))
          << "byte=" << b << " mask=" << int(mask);
    }
  }
  for (const std::string& s : AdversarialInputs()) {
    for (const uint8_t mask : kEveryMask) {
      for (size_t from : FromOffsets(s.size())) {
        EXPECT_EQ(FindClass(s, mask, from), RefFindClass(s, mask, from))
            << "len=" << s.size() << " mask=" << int(mask)
            << " from=" << from;
      }
    }
  }
}

TEST(ByteScanEquivalence, FindNotClassMatchesReferenceForEveryMask) {
  for (const std::string& s : AdversarialInputs()) {
    for (const uint8_t mask : kEveryMask) {
      for (size_t from : FromOffsets(s.size())) {
        EXPECT_EQ(FindNotClass(s, mask, from),
                  RefFindNotClass(s, mask, from))
            << "len=" << s.size() << " mask=" << int(mask)
            << " from=" << from;
      }
    }
  }
}

TEST(ByteScanEquivalence, PredicatesAndLowercasingMatchScalarReference) {
  for (const std::string& s : AdversarialInputs()) {
    EXPECT_EQ(util::HasAlnum(s), RefFindClass(s, kAlnum, 0) != npos)
        << "len=" << s.size();
    bool all_digits = !s.empty();
    for (const char c : s) all_digits = all_digits && c >= '0' && c <= '9';
    EXPECT_EQ(util::IsDigits(s), all_digits) << "len=" << s.size();

    std::string lowered(s.size(), '\0');
    AsciiLower(s.data(), s.size(), lowered.data());
    for (size_t i = 0; i < s.size(); ++i) {
      const char c = s[i];
      const char want =
          c >= 'A' && c <= 'Z' ? static_cast<char>(c - 'A' + 'a') : c;
      ASSERT_EQ(lowered[i], want) << "len=" << s.size() << " i=" << i;
    }
    // In-place overload (in == out is part of the contract).
    std::string inplace = s;
    AsciiLower(inplace.data(), inplace.size(), inplace.data());
    EXPECT_EQ(inplace, lowered);
  }
}

TEST(ByteScanEquivalence, UnalignedViewsMatchAlignedResults) {
  // The same logical bytes reached through every misalignment: substrings
  // of a shared buffer shift the data pointer one byte at a time.
  std::string buffer = "pad";
  buffer += "Domain Name: EXAMPLE.COM\r\n  Registrar:\tGoDaddy \"quoted\"\\";
  buffer += std::string(37, 'y');
  buffer += "\n trailing  words  here \xc3\xa9\xff";
  for (size_t shift = 0; shift < 24 && shift < buffer.size(); ++shift) {
    const std::string_view v(buffer.data() + shift, buffer.size() - shift);
    for (const uint8_t mask : kEveryMask) {
      EXPECT_EQ(FindClass(v, mask), RefFindClass(v, mask, 0))
          << "shift=" << shift << " mask=" << int(mask);
      EXPECT_EQ(FindNotClass(v, mask), RefFindNotClass(v, mask, 0))
          << "shift=" << shift << " mask=" << int(mask);
    }
  }
}

// --- Text-layer consumers ---------------------------------------------------

std::vector<std::string> SampleRecords() {
  return {
      "Domain Name: EXAMPLE.COM\nRegistrar: GoDaddy.com, LLC\n"
      "Creation Date: 2010-04-01T00:00:00Z\n\n"
      "Registrant Name: John Smith\nRegistrant Country: US\n",
      "   indented: value\n\ttabbed\tline\nempty:\n%% frame\n>>> symbols\n",
      "no separators here just words\r\nmixed\rnewlines\nhere\n",
      "key = value = twice\ndots.in.the.title: v\n a b c d e f g\n",
      std::string("binary \x01\x02 bytes: \x80\xff\n") + "last line",
      "",
  };
}

TEST(TextLayerEquivalence, SplitRecordMatchesNaiveLineSplit) {
  // SplitRecord keeps the lines of util::SplitLines (a byte-at-a-time
  // \n / \r\n / \r split) that contain an ASCII letter or digit.
  std::vector<std::string> records = SampleRecords();
  for (std::string& s : AdversarialInputs()) records.push_back(std::move(s));
  for (const std::string& record : records) {
    std::vector<std::string> want;
    for (const std::string_view line : util::SplitLines(record)) {
      if (RefFindClass(line, kAlnum, 0) != npos) want.emplace_back(line);
    }
    std::vector<std::string> got;
    for (const text::Line& line : text::SplitRecord(record)) {
      got.push_back(line.text);
    }
    EXPECT_EQ(got, want) << "record=" << record;
  }
}

TEST(TextLayerEquivalence, TokenizerAttributesMatchClassicPath) {
  // Extract's space scans against ExtractClassic, the frozen per-byte
  // extraction the naive parser keeps as its reference.
  const text::Tokenizer tokenizer;
  std::vector<std::string> records = SampleRecords();
  for (std::string& s : AdversarialInputs()) records.push_back(std::move(s));
  for (const std::string& record : records) {
    for (const text::Line& line : text::SplitRecord(record)) {
      const text::LineAttributes fast = tokenizer.Extract(line);
      const text::LineAttributes classic = tokenizer.ExtractClassic(line);
      EXPECT_EQ(fast.attrs, classic.attrs) << "line=" << line.text;
      EXPECT_EQ(fast.transition, classic.transition) << "line=" << line.text;
    }
  }
}

// JSON string escaping written the obvious way: per byte, decoding UTF-8
// by its code-point ranges rather than by Table 3-7's byte ranges.
std::string RefJsonEscape(std::string_view s) {
  std::string out;
  size_t i = 0;
  while (i < s.size()) {
    const auto c = static_cast<unsigned char>(s[i]);
    if (c < 0x80) {
      if (c == '"') {
        out += "\\\"";
      } else if (c == '\\') {
        out += "\\\\";
      } else if (c == '\n') {
        out += "\\n";
      } else if (c == '\r') {
        out += "\\r";
      } else if (c == '\t') {
        out += "\\t";
      } else if (c == '\b') {
        out += "\\b";
      } else if (c == '\f') {
        out += "\\f";
      } else if (c < 0x20) {
        static const char* kHex = "0123456789abcdef";
        out += "\\u00";
        out += kHex[c >> 4];
        out += kHex[c & 15];
      } else {
        out += static_cast<char>(c);
      }
      ++i;
      continue;
    }
    // Decode greedily; keep the sequence only if it is complete, minimal
    // and a Unicode scalar value. Otherwise emit U+FFFD for the longest
    // prefix that could still have become a valid sequence.
    const size_t len = c >= 0xF0 ? 4 : c >= 0xE0 ? 3 : c >= 0xC0 ? 2 : 1;
    uint32_t cp = len == 4 ? c & 0x07 : len == 3 ? c & 0x0F : c & 0x1F;
    size_t n = 1;
    size_t viable = 1;  // longest prefix that is a viable start
    while (len > 1 && n < len && i + n < s.size() &&
           (static_cast<unsigned char>(s[i + n]) & 0xC0) == 0x80) {
      cp = (cp << 6) | (static_cast<unsigned char>(s[i + n]) & 0x3F);
      ++n;
      // Smallest and largest code points reachable from this prefix.
      const uint32_t lo = cp << (6 * (len - n));
      const uint32_t hi = lo | ((1u << (6 * (len - n))) - 1);
      const uint32_t min_cp = len == 2 ? 0x80 : len == 3 ? 0x800 : 0x10000;
      const bool overlong = hi < min_cp;
      const bool too_big = lo > 0x10FFFF;
      const bool surrogate = lo >= 0xD800 && hi <= 0xDFFF;
      if (overlong || too_big || surrogate) {
        --n;
        break;
      }
      viable = n;
    }
    const bool lead_ok = len > 1 && c <= 0xF4 && c != 0xC0 && c != 0xC1;
    if (lead_ok && viable == len) {
      out.append(s.substr(i, len));
      i += len;
    } else {
      out += "\xEF\xBF\xBD";
      i += lead_ok ? viable : 1;
    }
  }
  return out;
}

TEST(TextLayerEquivalence, JsonEscapeMatchesNaiveReference) {
  std::vector<std::string> inputs = AdversarialInputs();
  for (std::string& s : SampleRecords()) inputs.push_back(std::move(s));
  inputs.emplace_back("\x01\x02\x03 escape \"all\" the \\ things\r\n\t");
  inputs.emplace_back("M\xc3\xbcnchen \xe2\x82\xac \xf0\x9f\x98\x80 ok");
  // Every two-byte tail after each lead byte: covers each boundary of the
  // well-formed ranges (E0 A0, ED 9F, F0 90, F4 8F ...).
  for (int lead = 0x80; lead < 0x100; ++lead) {
    for (int second = 0x70; second < 0xD0; second += 3) {
      std::string s = "a";
      s += static_cast<char>(lead);
      s += static_cast<char>(second);
      s += "\x80\x80z";
      inputs.push_back(s);
      inputs.push_back(s.substr(0, 3));  // truncated tail
    }
  }
  for (const std::string& s : inputs) {
    EXPECT_EQ(util::JsonWriter::Escape(s), RefJsonEscape(s))
        << "input=" << s;
  }
}

}  // namespace
}  // namespace whoiscrf::util::scan
