// Record chunking (paper §3, first paragraph; §3.3 markers).
//
// A WHOIS record is divided into lines; each *labeled* line (one containing
// at least one alphanumeric character) becomes one CRF token. Empty lines
// and symbol-only lines are not labeled themselves but leave layout markers
// (NL, SYM, SHL, ...) on the following labeled line.
#pragma once

#include <string>
#include <string_view>
#include <vector>

namespace whoiscrf::text {

// One labeled line of a WHOIS record plus its layout context.
struct Line {
  std::string text;        // original text, untrimmed
  int index = 0;           // index among labeled lines (CRF position t)
  int raw_index = 0;       // index within the raw record, counting all lines

  // Layout markers (paper §3.3 and Figure 1's punctuation key).
  bool preceded_by_blank = false;  // NL: one or more blank/unlabeled lines above
  bool shift_left = false;         // SHL: indentation decreased vs. previous line
  bool shift_right = false;        // SHR: indentation increased vs. previous line
  bool starts_with_symbol = false; // SYM: first non-space char is #, %, *, >, -, =
  bool has_tab = false;            // TAB: contains a tab character
  int indent = 0;                  // leading whitespace width (tab = 8)
};

// Splits a raw record into labeled lines with layout markers.
std::vector<Line> SplitRecord(std::string_view record);

// Allocation-reusing variant: refills `out` in place, reusing Line slots
// (including their string capacity) across records. Produces exactly what
// SplitRecord returns.
void SplitRecordInto(std::string_view record, std::vector<Line>& out);

// True if the line would be labeled (contains an alphanumeric character).
bool IsLabeledLine(std::string_view line);

}  // namespace whoiscrf::text
