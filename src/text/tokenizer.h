// Attribute extraction: one labeled line -> the set of string attributes the
// CRF's binary features test for (paper §3.3).
//
// Per the paper:
//  * words left of the first separator get the suffix "@T" (title), words
//    right of it get "@V" (value); lines with no separator are all "@V";
//  * a preceding blank line adds the marker "NL"; indentation shifts add
//    "SHL"/"SHR"; symbol-opened lines add "SYM"; a separator adds "SEP" plus
//    its kind;
//  * word-class attributes ("CLS_5DIGIT@V", "CLS_EMAIL@V", ...) capture
//    general classes of words (eq. 7).
//
// Attributes flagged `transition` additionally generate features of the
// eq. 8 form f(y_{t-1}, y_t, x_t) — these are the layout markers and the
// first title word, which are the signals that mark block boundaries
// (Figure 1).
#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "text/line_splitter.h"
#include "text/separator.h"
#include "text/word_classes.h"

namespace whoiscrf::text {

struct LineAttributes {
  // All attributes for this line, deduplicated, order-stable.
  std::vector<std::string> attrs;
  // Parallel flags: attrs[i] also generates (y_{t-1}, y_t) features.
  std::vector<bool> transition;
};

// Receiver for the streaming extraction path. `attr` points into scratch
// owned by the caller and is only valid for the duration of the call — a
// sink that keeps attributes must copy (or intern) them. Attributes are
// emitted in the same order as `Tokenizer::Extract` produces them, but
// *without* deduplication; sinks that need set semantics keep the first
// occurrence of each attribute (which is what Extract's dedup does).
class AttrSink {
 public:
  virtual ~AttrSink() = default;
  virtual void OnAttr(std::string_view attr, bool transition) = 0;

  // Word-level memoization hook. Before normalizing `raw_word`, ExtractTo
  // offers it to the sink: a return of >= 0 means the sink already knows
  // (and has handled) every attribute this word emits — the value is the
  // number of OnAttr calls the word would have produced, and the word is
  // skipped entirely. A return of -1 declines: the tokenizer then runs the
  // normal normalize/classify path (whose attributes arrive via OnAttr)
  // and calls EndWord() when the word's emissions are complete, so the
  // sink can memoize them. A word's attribute stream is a pure function of
  // (raw bytes, title flag) for a fixed tokenizer configuration;
  // `transition` is the per-call context (first-title-word) that the sink
  // must re-apply itself on replay. The default implementation declines
  // every word, preserving the plain streaming contract.
  virtual int OnWord(std::string_view /*raw_word*/, bool /*title*/,
                     bool /*transition*/) {
    return -1;
  }
  virtual void EndWord() {}
};

// Reusable buffers for `Tokenizer::ExtractTo`. Hold one per thread (or per
// workspace) and the extraction loop stops allocating once the buffers have
// grown to the working-set size.
struct TokenScratch {
  std::string attr;                // attribute name under construction
  std::string word;                // normalized word
  std::vector<WordClass> classes;  // word classes of the current raw word
};

struct TokenizerOptions {
  // Maximum length of a word attribute; longer words are truncated so the
  // dictionary cannot be blown up by base64 blobs in boilerplate.
  size_t max_word_length = 24;
  // Emit word-class attributes (eq. 7 features).
  bool word_classes = true;
  // Emit layout-marker attributes (NL/SHL/SHR/SYM/TABCH).
  bool layout_markers = true;
  // Emit separator attributes (SEP, SEP_<kind>).
  bool separator_markers = true;
};

class Tokenizer {
 public:
  explicit Tokenizer(TokenizerOptions options = {});

  // Extracts attributes from one line (with its layout context).
  LineAttributes Extract(const Line& line) const;

  // The original extraction implementation, frozen verbatim as a
  // differential reference (per-line hash-set dedup, by-value strings,
  // vector-returning word classification). Produces exactly the same
  // LineAttributes as Extract; WhoisParser::ParseNaive and the
  // equivalence tests use it so benchmarks compare the streaming fast
  // path against the true pre-fast-path cost.
  LineAttributes ExtractClassic(const Line& line) const;

  // Streaming fast path: emits this line's attributes into `sink` in
  // Extract's order, using `scratch` for all string building. Emits raw
  // (non-deduplicated) attributes; see AttrSink. Guarantees at least one
  // emission per line ("EMPTYLINE" when nothing else matched).
  // Equivalent to ExtractPrefixTo followed by ExtractValueTo over the
  // line's FindSeparator split.
  void ExtractTo(const Line& line, AttrSink& sink, TokenScratch& scratch) const;

  // The two halves of ExtractTo, for callers that scan the separator once
  // and share it (`split` must be FindSeparator(line.text)), or memoize
  // the prefix. The prefix is everything that precedes the value: layout
  // markers, separator attributes and title words (`*@T`). It returns the
  // number of attributes it emitted, counting words a sink claimed via
  // OnWord. The value part emits the value words (`*@V`) of `value_part`
  // (ValuePart(line, split)), then "EMPTYLINE" if `emitted` plus its own
  // emissions is zero. Prefix and value attributes never coincide.
  size_t ExtractPrefixTo(const Line& line,
                         const std::optional<SeparatorSplit>& split,
                         AttrSink& sink, TokenScratch& scratch) const;
  void ExtractValueTo(std::string_view value_part, size_t emitted,
                      AttrSink& sink, TokenScratch& scratch) const;

  // The text ExtractValueTo tokenizes: the split's value, or the whole
  // trimmed line when it has no separator.
  static std::string_view ValuePart(const Line& line,
                                    const std::optional<SeparatorSplit>& split);

  // Convenience: full record -> per-line attributes.
  std::vector<LineAttributes> ExtractRecord(std::string_view record) const;

  // Normalizes one raw word: lower-case, strip surrounding punctuation,
  // truncate. Returns empty string if nothing is left.
  std::string NormalizeWord(std::string_view word) const;

  // Allocation-free variant: writes the normalized word into `out` (reusing
  // its capacity). Returns false — with `out` cleared — if nothing is left.
  bool NormalizeWordInto(std::string_view word, std::string& out) const;

  const TokenizerOptions& options() const { return options_; }

 private:
  TokenizerOptions options_;
};

}  // namespace whoiscrf::text
