// Title/value separator detection (paper §3.3).
//
// Many WHOIS lines have the form "Registrant Name: John Smith". The words
// left of the first-appearing separator are the field *title*; those right
// of it are the field *value*. Recognized separators, in order of priority
// at a given position: colon, ellipsis ("..." optionally followed by ':'),
// tab run, and a run of two or more spaces.
#pragma once

#include <optional>
#include <string_view>
#include <vector>

#include "text/line_splitter.h"

namespace whoiscrf::text {

enum class SeparatorKind {
  kColon, kEllipsis, kTab, kWideSpace, kEquals, kBracket
};

struct SeparatorSplit {
  SeparatorKind kind;
  std::string_view title;  // text left of the separator, trimmed
  std::string_view value;  // text right of the separator, trimmed
};

// Finds the first-appearing separator in `line`, or nullopt if the line has
// none (in which case all its words are value words, per the paper).
// An equals sign is accepted as a separator when no colon precedes it.
// Lines of the form "[Title] value" (bracketed titles, as used by several
// Japanese registrars) split at the closing bracket.
// A colon that is part of "http://" or "https://" is not a separator.
std::optional<SeparatorSplit> FindSeparator(std::string_view line);

// FindSeparator of every line, one entry per line (views into the lines'
// text, valid while `lines` is unchanged). Refills `out` in place, so a
// reused vector stops allocating. The cascade scans each record once this
// way and hands the splits to both the template tier and field extraction.
void FindSeparators(const std::vector<Line>& lines,
                    std::vector<std::optional<SeparatorSplit>>& out);

// Short stable name for a separator kind ("COLON", "ELLIPSIS", ...), used
// as a CRF attribute (the paper's "SEP" features distinguish records whose
// schema uses separators).
std::string_view SeparatorName(SeparatorKind kind);

}  // namespace whoiscrf::text
