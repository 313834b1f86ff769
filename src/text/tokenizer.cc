#include "text/tokenizer.h"

#include <algorithm>
#include <cctype>
#include <unordered_set>

#include "text/separator.h"
#include "text/word_classes.h"
#include "util/byte_scan.h"
#include "util/string_util.h"

namespace whoiscrf::text {

namespace {

namespace scan = util::scan;

// Punctuation stripped from word edges; interior punctuation (e.g. the dots
// of a domain name or the '@' of an email) is preserved. The set is the
// kEdgePunct class in util/byte_scan.h.
bool IsEdgePunct(char c) { return scan::InClass(c, scan::kEdgePunct); }

// Whitespace-split without materializing a vector of pieces; word
// boundaries come from class-table space scans.
template <typename Fn>
void ForEachWord(std::string_view s, Fn&& fn) {
  size_t i = 0;
  while (i < s.size()) {
    const size_t start = scan::FindNotClass(s, scan::kSpace, i);
    if (start == std::string_view::npos) return;
    size_t end = scan::FindClass(s, scan::kSpace, start);
    if (end == std::string_view::npos) end = s.size();
    fn(s.substr(start, end - start));
    i = end;
  }
}

// Emits the normalized word in `scratch.word` + `suffix`, then the raw
// word's class attributes; returns the number of attributes emitted.
size_t EmitWord(std::string_view raw_word, std::string_view suffix,
                bool transition, bool word_classes, AttrSink& sink,
                TokenScratch& scratch) {
  scratch.attr.assign(scratch.word);
  scratch.attr.append(suffix);
  sink.OnAttr(scratch.attr, transition);
  if (!word_classes) return 1;
  ClassifyWord(raw_word, scratch.classes);
  for (WordClass cls : scratch.classes) {
    scratch.attr.assign(WordClassName(cls));
    scratch.attr.append(suffix);
    sink.OnAttr(scratch.attr, false);
  }
  return 1 + scratch.classes.size();
}

// Sink that reconstructs the classic LineAttributes contract: first
// occurrence of each attribute wins, order-stable. Attribute lists are a
// couple dozen entries at most, so a linear scan beats a hash set.
class CollectSink final : public AttrSink {
 public:
  explicit CollectSink(LineAttributes& out) : out_(out) {}

  void OnAttr(std::string_view attr, bool transition) override {
    for (const std::string& existing : out_.attrs) {
      if (existing == attr) return;
    }
    out_.attrs.emplace_back(attr);
    out_.transition.push_back(transition);
  }

 private:
  LineAttributes& out_;
};

}  // namespace

Tokenizer::Tokenizer(TokenizerOptions options) : options_(options) {}

std::string Tokenizer::NormalizeWord(std::string_view word) const {
  std::string out;
  NormalizeWordInto(word, out);
  return out;
}

bool Tokenizer::NormalizeWordInto(std::string_view word,
                                  std::string& out) const {
  size_t begin = 0;
  size_t end = word.size();
  while (begin < end && IsEdgePunct(word[begin])) ++begin;
  while (end > begin && IsEdgePunct(word[end - 1])) --end;
  const size_t n =
      std::min(end - begin, static_cast<size_t>(options_.max_word_length));
  out.resize(n);
  scan::AsciiLower(word.data() + begin, n, out.data());
  return n != 0;
}

LineAttributes Tokenizer::Extract(const Line& line) const {
  LineAttributes out;
  CollectSink sink(out);
  TokenScratch scratch;
  ExtractTo(line, sink, scratch);
  return out;
}

namespace {

// Classic-path helper: hash-set dedup with by-value attribute strings.
void AddAttr(LineAttributes& out, std::unordered_set<std::string>& seen,
             std::string attr, bool transition) {
  if (attr.empty()) return;
  if (!seen.insert(attr).second) return;
  out.attrs.push_back(std::move(attr));
  out.transition.push_back(transition);
}

}  // namespace

// Kept byte-for-byte as the pre-fast-path implementation (including its
// per-word/per-attr allocations) so ParseNaive measures the real
// pre-change cost. Do not "optimize" this function; improve ExtractTo.
LineAttributes Tokenizer::ExtractClassic(const Line& line) const {
  LineAttributes out;
  std::unordered_set<std::string> seen;

  auto normalize = [&](std::string_view word) -> std::string {
    size_t begin = 0;
    size_t end = word.size();
    while (begin < end && IsEdgePunct(word[begin])) ++begin;
    while (end > begin && IsEdgePunct(word[end - 1])) --end;
    std::string_view core = word.substr(begin, end - begin);
    if (core.empty()) return {};
    std::string lower = util::ToLower(core);
    if (lower.size() > options_.max_word_length) {
      lower.resize(options_.max_word_length);
    }
    return lower;
  };

  if (options_.layout_markers) {
    if (line.preceded_by_blank) AddAttr(out, seen, "NL", true);
    if (line.shift_left) AddAttr(out, seen, "SHL", true);
    if (line.shift_right) AddAttr(out, seen, "SHR", true);
    if (line.starts_with_symbol) AddAttr(out, seen, "SYM", true);
    if (line.has_tab) AddAttr(out, seen, "TABCH", false);
  }

  const auto split = FindSeparator(line.text);
  std::string_view title_part;
  std::string_view value_part;
  if (split.has_value()) {
    title_part = split->title;
    value_part = split->value;
    if (options_.separator_markers) {
      AddAttr(out, seen, "SEP", true);
      AddAttr(out, seen,
              std::string("SEP_") + std::string(SeparatorName(split->kind)),
              false);
      if (split->value.empty()) {
        AddAttr(out, seen, "SEP_EMPTYVAL", true);
      }
    }
  } else {
    value_part = util::Trim(line.text);
  }

  bool first_title_word = true;
  for (std::string_view raw_word : util::SplitWhitespace(title_part)) {
    std::string word = normalize(raw_word);
    if (word.empty()) continue;
    AddAttr(out, seen, word + "@T", first_title_word);
    first_title_word = false;
    if (options_.word_classes) {
      for (WordClass cls : ClassifyWord(raw_word)) {
        AddAttr(out, seen, std::string(WordClassName(cls)) + "@T", false);
      }
    }
  }

  for (std::string_view raw_word : util::SplitWhitespace(value_part)) {
    std::string word = normalize(raw_word);
    if (word.empty()) continue;
    AddAttr(out, seen, word + "@V", false);
    if (options_.word_classes) {
      for (WordClass cls : ClassifyWord(raw_word)) {
        AddAttr(out, seen, std::string(WordClassName(cls)) + "@V", false);
      }
    }
  }

  if (out.attrs.empty()) AddAttr(out, seen, "EMPTYLINE", false);
  return out;
}

void Tokenizer::ExtractTo(const Line& line, AttrSink& sink,
                          TokenScratch& scratch) const {
  const auto split = FindSeparator(line.text);
  const size_t emitted = ExtractPrefixTo(line, split, sink, scratch);
  ExtractValueTo(ValuePart(line, split), emitted, sink, scratch);
}

std::string_view Tokenizer::ValuePart(
    const Line& line, const std::optional<SeparatorSplit>& split) {
  return split.has_value() ? split->value : util::Trim(line.text);
}

size_t Tokenizer::ExtractPrefixTo(const Line& line,
                                  const std::optional<SeparatorSplit>& split,
                                  AttrSink& sink,
                                  TokenScratch& scratch) const {
  size_t emitted = 0;
  auto emit = [&](std::string_view attr, bool transition) {
    sink.OnAttr(attr, transition);
    ++emitted;
  };

  if (options_.layout_markers) {
    if (line.preceded_by_blank) emit("NL", true);
    if (line.shift_left) emit("SHL", true);
    if (line.shift_right) emit("SHR", true);
    if (line.starts_with_symbol) emit("SYM", true);
    if (line.has_tab) emit("TABCH", false);
  }
  if (!split.has_value()) return emitted;

  if (options_.separator_markers) {
    emit("SEP", true);
    scratch.attr.assign("SEP_");
    scratch.attr.append(SeparatorName(split->kind));
    emit(scratch.attr, false);
    if (split->value.empty()) {
      // "Registrant:" alone on a line — block-header form (§4.2).
      emit("SEP_EMPTYVAL", true);
    }
  }

  bool first_title_word = true;
  ForEachWord(split->title, [&](std::string_view raw_word) {
    // The first title word is the strongest block-boundary signal (Figure 1
    // edges are dominated by first-title words), so it alone is
    // transition-eligible among words. A claimed count of 0 means the word
    // normalizes to nothing, which must not consume the first-word flag.
    const int claimed = sink.OnWord(raw_word, /*title=*/true, first_title_word);
    if (claimed >= 0) {
      emitted += static_cast<size_t>(claimed);
      if (claimed > 0) first_title_word = false;
      return;
    }
    if (NormalizeWordInto(raw_word, scratch.word)) {
      emitted += EmitWord(raw_word, "@T", first_title_word,
                          options_.word_classes, sink, scratch);
      first_title_word = false;
    }
    sink.EndWord();
  });
  return emitted;
}

void Tokenizer::ExtractValueTo(std::string_view value_part, size_t emitted,
                               AttrSink& sink, TokenScratch& scratch) const {
  ForEachWord(value_part, [&](std::string_view raw_word) {
    const int claimed = sink.OnWord(raw_word, /*title=*/false, false);
    if (claimed >= 0) {
      emitted += static_cast<size_t>(claimed);
      return;
    }
    if (NormalizeWordInto(raw_word, scratch.word)) {
      emitted += EmitWord(raw_word, "@V", false, options_.word_classes, sink,
                          scratch);
    }
    sink.EndWord();
  });

  // A line with no attributes at all (pathological input) still needs one
  // observation for the CRF to score; emit a bias marker.
  if (emitted == 0) sink.OnAttr("EMPTYLINE", false);
}

std::vector<LineAttributes> Tokenizer::ExtractRecord(
    std::string_view record) const {
  std::vector<LineAttributes> out;
  for (const Line& line : SplitRecord(record)) {
    out.push_back(Extract(line));
  }
  return out;
}

}  // namespace whoiscrf::text
