// Confidence-gated parser cascade (ROADMAP item 2; AdaParse-style
// dispatch, see PAPERS.md).
//
// The repo ships three parsers with a three-orders-of-magnitude cost
// spread: the template parser (hash lookups, fails closed on any format it
// has not seen verbatim), the rule parser (learned title/header rules plus
// keyword heuristics, degrades gracefully but silently), and the CRF (the
// paper's contribution — robust to format drift, but it runs Viterbi over
// every line). The cascade dispatches each record to the cheapest parser
// predicted to get it right:
//
//   1. Template tier: exact-match hit -> done. A miss costs one signature
//      hash probe plus a bounded scan, then falls through.
//   2. Rule tier: label the record and inspect the rule provenance
//      (RuleLabelStats). The record stays here only when the learned-rule
//      coverage clears `rule_coverage_min`, no titled line was unknown to
//      the rule base, and the extracted fields pass sanity checks (dates
//      carry years, emails carry '@', the domain looks like a domain).
//   3. CRF tier: everything the cheap parsers were not confident about.
//
// Correctness guard (ML-vs-Rules, see PAPERS.md): accuracy must not
// silently degrade when a registrar drifts in a way the cheap tiers still
// *think* they handle. Every Nth cheap-path record (N from
// `shadow_sample_rate`) is re-parsed through the CRF and the two results
// are compared field-by-field; disagreements are counted per registrar.
// A registrar whose disagreement rate climbs is drifting — that counter is
// the input signal for the ROADMAP item 4 drift-detection loop.
//
// Thread-safety: Parse is const and safe to call concurrently (one
// ParseWorkspace per thread, exactly like WhoisParser::Parse). Shadow
// accounting uses one relaxed atomic tick plus a mutex taken only on the
// sampled fraction of records.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "baselines/rule_parser.h"
#include "baselines/template_parser.h"
#include "whois/record.h"
#include "whois/whois_parser.h"

namespace whoiscrf::obs {
class Counter;
}  // namespace whoiscrf::obs

namespace whoiscrf::cascade {

// Which parser produced the record's final output.
enum class Tier { kTemplate = 0, kRule = 1, kCrf = 2 };

// Why a record fell past a cheap tier (metrics label values; kNone only in
// CascadeResult, never emitted).
enum class Fallthrough {
  kNone = 0,
  kTemplateMiss,       // no stored template applied cleanly (fail-closed)
  kRuleUnknownTitles,  // titled lines the rule base has no rule for
  kRuleLowCoverage,    // learned-rule coverage below rule_coverage_min
  kRuleFieldSanity,    // extracted fields failed the sanity checks
};

std::string_view TierName(Tier tier);
std::string_view FallthroughName(Fallthrough reason);

struct CascadeOptions {
  // Minimum fraction of lines the rule tier must have labeled via learned
  // rules (or contexts learned rules established) to keep the record.
  double rule_coverage_min = 0.98;
  // Maximum titled lines with no learned rule before the record falls
  // through. The default 0 mirrors the template tier's fail-closed stance:
  // a renamed field is exactly the drift the CRF exists to absorb.
  size_t rule_max_unknown_titles = 0;
  // Fraction of cheap-path (template/rule) records shadow-parsed through
  // the CRF. 0 disables the guard; 1.0 shadows every cheap record.
  // Sampling is deterministic (every round(1/rate)-th cheap record,
  // counted across threads), so tests and reruns see stable counts.
  double shadow_sample_rate = 0.0;
};

// Per-registrar shadow-sampling tallies (the drift signal).
struct ShadowStats {
  uint64_t samples = 0;
  uint64_t disagreements = 0;
};

// Outcome of one cascade dispatch.
struct CascadeResult {
  whois::ParsedWhois parsed;
  Tier tier = Tier::kCrf;
  // Reasons recorded on the way down: empty for a template hit, one entry
  // when the record stopped at the rule tier, two when it reached the CRF.
  Fallthrough template_fallthrough = Fallthrough::kNone;
  Fallthrough rule_fallthrough = Fallthrough::kNone;
  bool shadow_sampled = false;
  bool shadow_disagreed = false;
};

// The key extracted fields the shadow guard compares and the bench's
// field-level accuracy metric scores: domain name, registrar, the three
// dates, and the registrant's name / org / email / country. Order is
// fixed; kNumKeyFields is the denominator of field-level accuracy.
inline constexpr size_t kNumKeyFields = 9;
std::vector<std::string_view> KeyFieldValues(const whois::ParsedWhois& p);

// Number of key fields that match exactly (0..kNumKeyFields).
size_t CountAgreeingKeyFields(const whois::ParsedWhois& a,
                              const whois::ParsedWhois& b);

// True when every key field matches exactly.
bool KeyFieldsAgree(const whois::ParsedWhois& a, const whois::ParsedWhois& b);

// The gold standard field-level accuracy is scored against: the shared
// field extractor run with the record's own labels (registrant lines
// without a sub-label count as kOther), so a disagreement measures
// labeling errors only.
whois::ParsedWhois GoldParse(const whois::LabeledRecord& record);

class CascadeParser {
 public:
  // Builds the cheap tiers (template + rule parsers) from `corpus` and
  // dispatches to `crf` for the rest. `crf` is borrowed and must outlive
  // the cascade. Metric counters are resolved here, once.
  CascadeParser(const whois::WhoisParser* crf,
                const std::vector<whois::LabeledRecord>& corpus,
                CascadeOptions options = {});

  // Dispatches one record. Safe to call concurrently with distinct
  // workspaces.
  CascadeResult Parse(std::string_view record_text,
                      whois::ParseWorkspace& ws) const;

  // Adapter with the StreamPipelineOptions / ParseServiceOptions
  // parse_override signature: the cascade's drop-in replacement for
  // WhoisParser::Parse in the streaming and serving layers.
  whois::ParsedWhois ParseRecord(const std::string& record_text,
                                 whois::ParseWorkspace& ws) const;

  // Distinct registrar labels the shadow guard keeps. The label is parsed
  // out of record text, so without a cap hostile or merely diverse input
  // would grow the tallies and the metric label set without bound; once
  // the cap is reached, samples of new registrars fold into "(other)" and
  // count whoiscrf_cascade_shadow_label_overflow_total.
  static constexpr size_t kMaxShadowLabels = 256;

  // Point-in-time copy of the per-registrar shadow tallies (keyed by the
  // cheap path's extracted registrar; "(unknown)" when empty, "(other)"
  // for registrars past kMaxShadowLabels). Sample and disagreement totals
  // cover every shadow sample, folded or not.
  std::map<std::string, ShadowStats> ShadowSnapshot() const;

  const CascadeOptions& options() const { return options_; }
  const baselines::TemplateBasedParser& template_parser() const {
    return template_parser_;
  }
  const baselines::RuleBasedParser& rule_parser() const {
    return rule_parser_;
  }

 private:
  // Labels -> ParsedWhois via the shared field extractor (the memoized
  // variant; the workspace carries the record's lines, their separator
  // splits and the route-plan cache). `subs` supplies the registrant
  // sub-labels when the dispatching tier knows them exactly (template
  // hits); nullptr falls back to the rule parser's heuristics.
  void ExtractParsed(std::vector<whois::Level1Label> labels,
                     const std::vector<whois::Level2Label>* subs,
                     whois::ParseWorkspace& ws,
                     whois::ParsedWhois& out) const;

  // Do the extracted fields look internally consistent?
  bool FieldsSane(const whois::ParsedWhois& parsed) const;

  // Shadow-guard bookkeeping for one cheap-path record (called only when
  // the tick counter selects it).
  void ShadowCheck(std::string_view record_text, whois::ParseWorkspace& ws,
                   CascadeResult& result) const;

  const whois::WhoisParser* crf_;
  baselines::TemplateBasedParser template_parser_;
  baselines::RuleBasedParser rule_parser_;
  CascadeOptions options_;
  uint64_t shadow_period_ = 0;  // 0 = guard disabled

  // Global dispatch counters, resolved at construction.
  obs::Counter* records_ = nullptr;
  obs::Counter* dispatch_[3] = {nullptr, nullptr, nullptr};  // by Tier
  obs::Counter* fallthrough_[5] = {nullptr, nullptr, nullptr, nullptr,
                                   nullptr};  // by Fallthrough; [0] unused
  obs::Counter* shadow_label_overflow_ = nullptr;

  // Shadow guard state. The tick is advanced for every cheap-path record;
  // the map (and its per-registrar counters) is touched only on sampled
  // ones. The map holds at most kMaxShadowLabels registrars plus
  // "(other)".
  mutable std::atomic<uint64_t> shadow_tick_{0};
  struct ShadowEntry {
    ShadowStats stats;
    obs::Counter* samples = nullptr;
    obs::Counter* disagreements = nullptr;
  };
  mutable std::mutex shadow_mu_;
  mutable std::map<std::string, ShadowEntry> shadow_;
};

}  // namespace whoiscrf::cascade
