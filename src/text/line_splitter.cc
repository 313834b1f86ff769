#include "text/line_splitter.h"

#include "util/byte_scan.h"
#include "util/string_util.h"

namespace whoiscrf::text {

namespace {

int IndentWidth(std::string_view line) {
  int width = 0;
  for (char c : line) {
    if (c == ' ') {
      ++width;
    } else if (c == '\t') {
      width += 8 - width % 8;
    } else {
      break;
    }
  }
  return width;
}

bool StartsWithSymbol(std::string_view line) {
  std::string_view t = util::TrimLeft(line);
  if (t.empty()) return false;
  switch (t.front()) {
    case '#':
    case '%':
    case '*':
    case '>':
    case '=':
    case ';':
      return true;
    case '-':
      // A single dash could open a value ("-example"); require a rule-like
      // run of dashes to call it a symbol line.
      return t.size() >= 2 && t[1] == '-';
    default:
      return false;
  }
}

// Layout state carried from one labeled line to the next.
struct LayoutState {
  int pending_blanks = 0;
  bool have_prev = false;
  int prev_indent = 0;
};

// Annotates one raw line. Unlabeled lines only bump the blank counter;
// labeled lines fill the next slot of `out` (reusing its string capacity
// when the slot already exists) and advance `used`.
void FeedLine(std::string_view raw_line, size_t raw, LayoutState& state,
              std::vector<Line>& out, size_t& used) {
  if (!IsLabeledLine(raw_line)) {
    ++state.pending_blanks;
    return;
  }
  if (used == out.size()) out.emplace_back();
  Line& line = out[used];
  line.text.assign(raw_line);
  line.index = static_cast<int>(used);
  line.raw_index = static_cast<int>(raw);
  line.preceded_by_blank = state.pending_blanks > 0;
  line.starts_with_symbol = StartsWithSymbol(raw_line);
  line.has_tab = raw_line.find('\t') != std::string_view::npos;
  line.indent = IndentWidth(raw_line);
  line.shift_left = state.have_prev && line.indent < state.prev_indent;
  line.shift_right = state.have_prev && line.indent > state.prev_indent;
  state.prev_indent = line.indent;
  state.have_prev = true;
  state.pending_blanks = 0;
  ++used;
}

}  // namespace

bool IsLabeledLine(std::string_view line) { return util::HasAlnum(line); }

std::vector<Line> SplitRecord(std::string_view record) {
  std::vector<Line> out;
  SplitRecordInto(record, out);
  return out;
}

void SplitRecordInto(std::string_view record, std::vector<Line>& out) {
  LayoutState state;
  size_t used = 0;
  // Inline line split (same \n / \r\n / bare-\r handling as
  // util::SplitLines) so no intermediate vector of pieces is built; the
  // class scan jumps terminator to terminator.
  size_t start = 0;
  size_t raw = 0;
  for (size_t nl = util::scan::FindClass(record, util::scan::kNewline);
       nl != std::string_view::npos;
       nl = util::scan::FindClass(record, util::scan::kNewline, start)) {
    FeedLine(record.substr(start, nl - start), raw++, state, out, used);
    // "\r\n" is one terminator; "\n" and bare "\r" each end a line alone.
    start = nl + 1;
    if (record[nl] == '\r' && start < record.size() && record[start] == '\n') {
      ++start;
    }
  }
  if (start < record.size()) {
    FeedLine(record.substr(start), raw++, state, out, used);
  }
  out.resize(used);
}

}  // namespace whoiscrf::text
