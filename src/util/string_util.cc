#include "util/string_util.h"

#include <cctype>
#include <cstdarg>
#include <cstdio>

#include "util/byte_scan.h"

namespace whoiscrf::util {

std::string_view TrimLeft(std::string_view s) {
  const size_t i = scan::FindNotClass(s, scan::kSpace);
  return i == std::string_view::npos ? s.substr(s.size()) : s.substr(i);
}

std::string_view TrimRight(std::string_view s) {
  size_t n = s.size();
  while (n > 0 && scan::InClass(s[n - 1], scan::kSpace)) --n;
  return s.substr(0, n);
}

std::string_view Trim(std::string_view s) { return TrimRight(TrimLeft(s)); }

std::string ToLower(std::string_view s) {
  std::string out(s);
  scan::AsciiLower(out.data(), out.size(), out.data());
  return out;
}

std::string ToUpper(std::string_view s) {
  std::string out(s);
  for (char& c : out) {
    c = static_cast<char>(
        std::toupper(static_cast<unsigned char>(c)));
  }
  return out;
}

std::vector<std::string_view> Split(std::string_view s, char sep) {
  std::vector<std::string_view> out;
  size_t start = 0;
  while (true) {
    size_t pos = s.find(sep, start);
    if (pos == std::string_view::npos) {
      out.push_back(s.substr(start));
      break;
    }
    out.push_back(s.substr(start, pos - start));
    start = pos + 1;
  }
  return out;
}

std::vector<std::string_view> SplitWhitespace(std::string_view s) {
  std::vector<std::string_view> out;
  size_t i = 0;
  while (i < s.size()) {
    const size_t start = scan::FindNotClass(s, scan::kSpace, i);
    if (start == std::string_view::npos) break;
    size_t end = scan::FindClass(s, scan::kSpace, start);
    if (end == std::string_view::npos) end = s.size();
    out.push_back(s.substr(start, end - start));
    i = end;
  }
  return out;
}

std::vector<std::string_view> SplitLines(std::string_view text) {
  std::vector<std::string_view> out;
  size_t start = 0;
  for (size_t i = 0; i < text.size(); ++i) {
    if (text[i] == '\n') {
      size_t end = i;
      if (end > start && text[end - 1] == '\r') --end;
      out.push_back(text.substr(start, end - start));
      start = i + 1;
    } else if (text[i] == '\r' &&
               (i + 1 >= text.size() || text[i + 1] != '\n')) {
      out.push_back(text.substr(start, i - start));
      start = i + 1;
    }
  }
  if (start < text.size()) out.push_back(text.substr(start));
  return out;
}

template <typename T>
static std::string JoinImpl(const std::vector<T>& parts,
                            std::string_view sep) {
  std::string out;
  size_t total = 0;
  for (const auto& p : parts) total += p.size() + sep.size();
  out.reserve(total);
  for (size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) out.append(sep);
    out.append(parts[i]);
  }
  return out;
}

std::string Join(const std::vector<std::string>& parts,
                 std::string_view sep) {
  return JoinImpl(parts, sep);
}

std::string Join(const std::vector<std::string_view>& parts,
                 std::string_view sep) {
  return JoinImpl(parts, sep);
}

bool StartsWith(std::string_view s, std::string_view prefix) {
  return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}

bool EndsWith(std::string_view s, std::string_view suffix) {
  return s.size() >= suffix.size() &&
         s.substr(s.size() - suffix.size()) == suffix;
}

bool EqualsIgnoreCase(std::string_view a, std::string_view b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (std::tolower(static_cast<unsigned char>(a[i])) !=
        std::tolower(static_cast<unsigned char>(b[i]))) {
      return false;
    }
  }
  return true;
}

bool ContainsIgnoreCase(std::string_view haystack, std::string_view needle) {
  if (needle.empty()) return true;
  if (needle.size() > haystack.size()) return false;
  for (size_t i = 0; i + needle.size() <= haystack.size(); ++i) {
    if (EqualsIgnoreCase(haystack.substr(i, needle.size()), needle)) {
      return true;
    }
  }
  return false;
}

std::string ReplaceAll(std::string_view s, std::string_view from,
                       std::string_view to) {
  if (from.empty()) return std::string(s);
  std::string out;
  out.reserve(s.size());
  size_t start = 0;
  while (true) {
    size_t pos = s.find(from, start);
    if (pos == std::string_view::npos) {
      out.append(s.substr(start));
      return out;
    }
    out.append(s.substr(start, pos - start));
    out.append(to);
    start = pos + from.size();
  }
}

bool IsDigits(std::string_view s) {
  return !s.empty() &&
         scan::FindNotClass(s, scan::kDigit) == std::string_view::npos;
}

bool HasAlnum(std::string_view s) {
  return scan::FindClass(s, scan::kAlnum) != std::string_view::npos;
}

std::string WithCommas(long long n) {
  const bool neg = n < 0;
  std::string digits = std::to_string(neg ? -n : n);
  std::string out;
  out.reserve(digits.size() + digits.size() / 3 + 1);
  int count = 0;
  for (auto it = digits.rbegin(); it != digits.rend(); ++it) {
    if (count > 0 && count % 3 == 0) out.push_back(',');
    out.push_back(*it);
    ++count;
  }
  if (neg) out.push_back('-');
  return {out.rbegin(), out.rend()};
}

std::string Format(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  va_list args_copy;
  va_copy(args_copy, args);
  const int needed = std::vsnprintf(nullptr, 0, fmt, args);
  va_end(args);
  std::string out;
  if (needed > 0) {
    out.resize(static_cast<size_t>(needed));
    std::vsnprintf(out.data(), out.size() + 1, fmt, args_copy);
  }
  va_end(args_copy);
  return out;
}

}  // namespace whoiscrf::util
