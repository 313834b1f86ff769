// Rule-based baseline parser (paper §2.3 "Rule-based" and §4.2).
//
// The parser mirrors how tools like pythonwhois and the authors' own
// ground-truth labeler work:
//   * learned *title rules*: an exact normalized field title maps to a
//     label ("registrant name" -> registrant/name), harvested from labeled
//     records;
//   * learned *header rules*: a bare block header ("Registrant:") sets a
//     context that untitled continuation lines inherit;
//   * built-in *pattern rules*: keyword and word-class heuristics
//     ("...@... value on an untitled line is an email", "a line of legalese
//     keywords is null"). Per §5.1, pattern rules "cannot be rolled back".
//
// RollBack() reproduces the paper's §5.1 handicapping: it retains only the
// learned rules that fire on a given training subset, modeling a rule base
// that was only ever developed against those records.
#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "text/line_splitter.h"
#include "whois/record.h"

namespace whoiscrf::baselines {

// Provenance of one LabelLines pass: how many lines were decided by which
// kind of rule. The cascade (src/cascade/) reads these as a confidence
// signal — a record labeled mostly by exact learned rules is one the rule
// base was effectively developed against, while keyword guesses and
// fallbacks mark extrapolation the CRF should double-check.
struct RuleLabelStats {
  size_t labeled_lines = 0;  // lines labeled (== labels.size())
  size_t learned_hits = 0;   // exact title / header / bare-line rule hits
  size_t context_hits = 0;   // untitled lines inheriting a block context
  size_t keyword_hits = 0;   // keyword fallback guesses (titled or header)
  size_t fallback_lines = 0; // word-class/legalese heuristics or default
  size_t unknown_titles = 0; // titled lines no learned rule recognized

  // Fraction of lines decided by learned rules or contexts they set up —
  // the rule parser's self-confidence in [0, 1].
  double LearnedCoverage() const {
    return labeled_lines == 0
               ? 0.0
               : static_cast<double>(learned_hits + context_hits) /
                     static_cast<double>(labeled_lines);
  }
};

class RuleBasedParser {
 public:
  // Builds the full rule base from a labeled corpus (the analogue of the
  // authors' best rule-based parser, iterated until it labels its
  // development corpus perfectly).
  static RuleBasedParser Build(const std::vector<whois::LabeledRecord>& records);

  // Returns a parser retaining only the learned rules needed to label
  // `records` (plus all pattern rules).
  RuleBasedParser RollBack(
      const std::vector<whois::LabeledRecord>& records) const;

  // Labels every labeled line of a record. With `stats`, also reports the
  // per-line rule provenance (the cascade's confidence gate input). The
  // pre-split overload skips re-splitting when the caller already holds the
  // record's lines.
  std::vector<whois::Level1Label> LabelLines(
      std::string_view text, RuleLabelStats* stats = nullptr) const;
  std::vector<whois::Level1Label> LabelLines(
      const std::vector<text::Line>& lines,
      RuleLabelStats* stats = nullptr) const;

  // Level-2 subfield guesses for every line labeled `registrant`: title
  // rules where known, keyword and address heuristics otherwise. Returned
  // in registrant-line order (size == count of kRegistrant in `labels`),
  // the shape whois::ExtractFields takes. Shared by Parse and the
  // cascade's cheap tiers.
  std::vector<whois::Level2Label> RegistrantSubLabels(
      const std::vector<text::Line>& lines,
      const std::vector<whois::Level1Label>& labels) const;

  // Full parse: level-1 labels plus registrant field extraction, for the
  // §2.3 registrant-accuracy comparison.
  whois::ParsedWhois Parse(std::string_view text) const;

  size_t num_title_rules() const { return title_rules_.size(); }
  size_t num_header_rules() const { return header_rules_.size(); }
  size_t num_bare_rules() const { return bare_rules_.size(); }

  // Normalization applied to titles before rule lookup: ASCII letters and
  // digits lower-cased, every run of other bytes collapsed to one space,
  // no space at either edge.
  static std::string NormalizeTitle(std::string_view title);
  // The same normalization into a caller-owned buffer (no allocation once
  // `out` has capacity); the template tier normalizes every line this way.
  static void NormalizeTitleInto(std::string_view title, std::string& out);

  // Does this value look like an organization rather than a person? True
  // when the last word is a corporate designator ("LLC", "GmbH",
  // "Ltd.", ...) — the pattern rule every WHOIS parser grows for the
  // name-vs-org split on untitled contact lines. Shared with the template
  // tier, which uses it to cross-check positional sub-label sequences.
  static bool LooksLikeOrgName(std::string_view value);

 private:
  struct TitleRule {
    whois::Level1Label label;
    std::optional<whois::Level2Label> sub;
  };

  // Exact-title rules ("registrant name" -> registrant/name).
  std::unordered_map<std::string, TitleRule> title_rules_;
  // Block-header rules ("registrant" -> registrant block context).
  std::unordered_map<std::string, whois::Level1Label> header_rules_;
  // Exact-line rules for untitled fixed text (boilerplate sentences,
  // literal section banners) -> label. Only non-contact labels are learned
  // this way; contact lines vary per record and are handled by context.
  std::unordered_map<std::string, whois::Level1Label> bare_rules_;
};

}  // namespace whoiscrf::baselines
