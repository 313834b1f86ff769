#include "text/separator.h"

#include "util/byte_scan.h"
#include "util/string_util.h"

namespace whoiscrf::text {

namespace {

// True if the colon at position `pos` belongs to a URL scheme ("http://",
// "https://", "ftp://") or a port-like "whois:43" — contexts where it does
// not separate a title from a value.
bool ColonIsUrlScheme(std::string_view line, size_t pos) {
  return pos + 2 < line.size() && line[pos + 1] == '/' && line[pos + 2] == '/';
}

}  // namespace

std::optional<SeparatorSplit> FindSeparator(std::string_view line) {
  // Scan once left-to-right; the first match wins, which is exactly the
  // "first-appearing separator" rule from the paper.
  std::string_view body = util::TrimLeft(line);
  // Bracketed titles: "[Domain Name] EXAMPLE.COM".
  if (!body.empty() && body.front() == '[') {
    const size_t close = body.find(']');
    if (close != std::string_view::npos && close > 1) {
      return SeparatorSplit{SeparatorKind::kBracket,
                            util::Trim(body.substr(1, close - 1)),
                            util::Trim(body.substr(close + 1))};
    }
  }
  // Only five characters can open a separator (':' '.' '\t' '=' ' '), so
  // jump from candidate to candidate with a class-table scan.
  for (size_t i = util::scan::FindClass(body, util::scan::kSepTrigger);
       i != std::string_view::npos;
       i = util::scan::FindClass(body, util::scan::kSepTrigger, i + 1)) {
    const char c = body[i];
    if (c == ':') {
      if (ColonIsUrlScheme(body, i)) continue;
      if (i == 0) continue;  // a leading colon separates nothing
      return SeparatorSplit{SeparatorKind::kColon,
                            util::Trim(body.substr(0, i)),
                            util::Trim(body.substr(i + 1))};
    }
    if (c == '.' && i + 2 < body.size() && body[i + 1] == '.' &&
        body[i + 2] == '.') {
      size_t end = i + 3;
      while (end < body.size() && body[end] == '.') ++end;
      if (end < body.size() && body[end] == ':') ++end;
      if (i == 0) continue;
      return SeparatorSplit{SeparatorKind::kEllipsis,
                            util::Trim(body.substr(0, i)),
                            util::Trim(body.substr(end))};
    }
    if (c == '\t') {
      size_t end = i + 1;
      while (end < body.size() && body[end] == '\t') ++end;
      if (i == 0) continue;
      return SeparatorSplit{SeparatorKind::kTab,
                            util::Trim(body.substr(0, i)),
                            util::Trim(body.substr(end))};
    }
    if (c == '=' && (i + 1 >= body.size() || body[i + 1] != '=')) {
      if (i == 0) continue;
      return SeparatorSplit{SeparatorKind::kEquals,
                            util::Trim(body.substr(0, i)),
                            util::Trim(body.substr(i + 1))};
    }
    if (c == ' ' && i + 1 < body.size() && body[i + 1] == ' ') {
      size_t end = i + 1;
      while (end < body.size() && body[end] == ' ') ++end;
      if (i == 0) continue;
      if (end >= body.size()) break;  // trailing spaces only
      return SeparatorSplit{SeparatorKind::kWideSpace,
                            util::Trim(body.substr(0, i)),
                            util::Trim(body.substr(end))};
    }
  }
  return std::nullopt;
}

void FindSeparators(const std::vector<Line>& lines,
                    std::vector<std::optional<SeparatorSplit>>& out) {
  out.resize(lines.size());
  for (size_t i = 0; i < lines.size(); ++i) {
    out[i] = FindSeparator(lines[i].text);
  }
}

std::string_view SeparatorName(SeparatorKind kind) {
  switch (kind) {
    case SeparatorKind::kColon: return "COLON";
    case SeparatorKind::kEllipsis: return "ELLIPSIS";
    case SeparatorKind::kTab: return "TAB";
    case SeparatorKind::kWideSpace: return "WIDESPACE";
    case SeparatorKind::kEquals: return "EQUALS";
    case SeparatorKind::kBracket: return "BRACKET";
  }
  return "?";
}

}  // namespace whoiscrf::text
