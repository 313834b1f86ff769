#include "cascade/cascade.h"

#include <cmath>
#include <utility>

#include "obs/metrics.h"
#include "text/line_splitter.h"

namespace whoiscrf::cascade {

namespace {

using whois::Level1Label;
using whois::Level2Label;

constexpr std::string_view kUnknownRegistrar = "(unknown)";
constexpr std::string_view kOtherRegistrar = "(other)";

}  // namespace

std::string_view TierName(Tier tier) {
  switch (tier) {
    case Tier::kTemplate:
      return "template";
    case Tier::kRule:
      return "rule";
    case Tier::kCrf:
      return "crf";
  }
  return "?";
}

std::string_view FallthroughName(Fallthrough reason) {
  switch (reason) {
    case Fallthrough::kNone:
      return "none";
    case Fallthrough::kTemplateMiss:
      return "template_miss";
    case Fallthrough::kRuleUnknownTitles:
      return "rule_unknown_titles";
    case Fallthrough::kRuleLowCoverage:
      return "rule_low_coverage";
    case Fallthrough::kRuleFieldSanity:
      return "rule_field_sanity";
  }
  return "?";
}

std::vector<std::string_view> KeyFieldValues(const whois::ParsedWhois& p) {
  return {p.domain_name,      p.registrar,        p.created,
          p.updated,          p.expires,          p.registrant.name,
          p.registrant.org,   p.registrant.email, p.registrant.country};
}

size_t CountAgreeingKeyFields(const whois::ParsedWhois& a,
                              const whois::ParsedWhois& b) {
  const auto va = KeyFieldValues(a);
  const auto vb = KeyFieldValues(b);
  size_t agree = 0;
  for (size_t i = 0; i < va.size(); ++i) {
    if (va[i] == vb[i]) ++agree;
  }
  return agree;
}

bool KeyFieldsAgree(const whois::ParsedWhois& a, const whois::ParsedWhois& b) {
  return CountAgreeingKeyFields(a, b) == kNumKeyFields;
}

whois::ParsedWhois GoldParse(const whois::LabeledRecord& record) {
  const std::vector<text::Line> lines = text::SplitRecord(record.text);
  std::vector<Level2Label> subs;
  for (size_t i = 0; i < record.labels.size(); ++i) {
    if (record.labels[i] == Level1Label::kRegistrant) {
      subs.push_back(record.sub_labels[i].value_or(Level2Label::kOther));
    }
  }
  whois::ParsedWhois gold;
  gold.line_labels = record.labels;
  whois::ExtractFields(lines, record.labels, subs, gold);
  return gold;
}

CascadeParser::CascadeParser(const whois::WhoisParser* crf,
                             const std::vector<whois::LabeledRecord>& corpus,
                             CascadeOptions options)
    : crf_(crf),
      template_parser_(baselines::TemplateBasedParser::Build(corpus)),
      rule_parser_(baselines::RuleBasedParser::Build(corpus)),
      options_(options) {
  if (options_.shadow_sample_rate > 0.0) {
    shadow_period_ = static_cast<uint64_t>(
        std::llround(1.0 / std::min(1.0, options_.shadow_sample_rate)));
    if (shadow_period_ == 0) shadow_period_ = 1;
  }

  auto& reg = obs::Registry::Global();
  records_ = reg.GetCounter("whoiscrf_cascade_records_total",
                            "Records dispatched through the cascade");
  for (Tier t : {Tier::kTemplate, Tier::kRule, Tier::kCrf}) {
    dispatch_[static_cast<int>(t)] =
        reg.GetCounter("whoiscrf_cascade_dispatch_total",
                       "Records resolved by each cascade tier",
                       {{"tier", std::string(TierName(t))}});
  }
  for (Fallthrough f :
       {Fallthrough::kTemplateMiss, Fallthrough::kRuleUnknownTitles,
        Fallthrough::kRuleLowCoverage, Fallthrough::kRuleFieldSanity}) {
    fallthrough_[static_cast<int>(f)] =
        reg.GetCounter("whoiscrf_cascade_fallthrough_total",
                       "Records that fell past a cheap tier, by reason",
                       {{"reason", std::string(FallthroughName(f))}});
  }
  shadow_label_overflow_ = reg.GetCounter(
      "whoiscrf_cascade_shadow_label_overflow_total",
      "Shadow samples tallied under the (other) registrar label because "
      "the per-registrar label cap was reached");
}

void CascadeParser::ExtractParsed(std::vector<Level1Label> labels,
                                  const std::vector<Level2Label>* subs,
                                  whois::ParseWorkspace& ws,
                                  whois::ParsedWhois& out) const {
  // Template hits carry the format's exact registrant sub-label sequence;
  // everything else falls back to the rule parser's heuristics.
  const std::vector<Level2Label> guessed =
      subs != nullptr ? std::vector<Level2Label>{}
                      : rule_parser_.RegistrantSubLabels(ws.lines, labels);
  out.line_labels = std::move(labels);
  whois::ExtractFieldsCached(ws.lines, ws.separators, out.line_labels,
                             subs ? *subs : guessed, out, ws.field_routes);
}

bool CascadeParser::FieldsSane(const whois::ParsedWhois& parsed) const {
  // A confident cheap parse of a thick record must have found a
  // plausible domain name...
  if (parsed.domain_name.empty() ||
      parsed.domain_name.find('.') == std::string::npos) {
    return false;
  }
  // ...its date values must actually contain dates...
  for (const std::string* date :
       {&parsed.created, &parsed.updated, &parsed.expires}) {
    if (!date->empty() && !whois::ExtractYear(*date).has_value()) {
      return false;
    }
  }
  // ...and an extracted email must at least be shaped like one.
  const std::string& email = parsed.registrant.email;
  if (!email.empty() && email.find('@') == std::string::npos) {
    return false;
  }
  return true;
}

CascadeResult CascadeParser::Parse(std::string_view record_text,
                                   whois::ParseWorkspace& ws) const {
  CascadeResult result;
  records_->Inc();

  // Split into the workspace's line buffer (reused across records) and
  // scan each line for its separator once: the template tier and field
  // extraction both read these splits. The CRF re-splits into the same
  // buffer on fallthrough and shadow parses, which is safe: the cheap
  // tiers are done with the lines (and the splits' views) by then.
  text::SplitRecordInto(record_text, ws.lines);
  text::FindSeparators(ws.lines, ws.separators);
  const std::vector<text::Line>& lines = ws.lines;

  // Tier 1: template parser. An exact hit is as trustworthy as the labeled
  // corpus itself — the record's every line resolved against one format
  // the corpus contains verbatim.
  baselines::TemplateBasedParser::Result tpl =
      template_parser_.Parse(lines, ws.separators);
  if (tpl.matched) {
    ExtractParsed(std::move(tpl.labels),
                  tpl.registrant_subs.empty() ? nullptr
                                              : &tpl.registrant_subs,
                  ws, result.parsed);
    result.tier = Tier::kTemplate;
    dispatch_[static_cast<int>(Tier::kTemplate)]->Inc();
    ShadowCheck(record_text, ws, result);
    return result;
  }
  result.template_fallthrough = Fallthrough::kTemplateMiss;
  fallthrough_[static_cast<int>(Fallthrough::kTemplateMiss)]->Inc();

  // Tier 2: rule parser, kept only when its own provenance says the rule
  // base was effectively developed against this format.
  baselines::RuleLabelStats stats;
  std::vector<Level1Label> labels = rule_parser_.LabelLines(lines, &stats);
  Fallthrough reject = Fallthrough::kNone;
  if (stats.unknown_titles > options_.rule_max_unknown_titles) {
    reject = Fallthrough::kRuleUnknownTitles;
  } else if (stats.LearnedCoverage() < options_.rule_coverage_min) {
    reject = Fallthrough::kRuleLowCoverage;
  } else {
    ExtractParsed(std::move(labels), nullptr, ws, result.parsed);
    if (FieldsSane(result.parsed)) {
      result.tier = Tier::kRule;
      dispatch_[static_cast<int>(Tier::kRule)]->Inc();
      ShadowCheck(record_text, ws, result);
      return result;
    }
    reject = Fallthrough::kRuleFieldSanity;
    result.parsed = whois::ParsedWhois{};
  }
  result.rule_fallthrough = reject;
  fallthrough_[static_cast<int>(reject)]->Inc();

  // Tier 3: the CRF — the referee of last resort.
  result.parsed = crf_->Parse(record_text, ws);
  result.tier = Tier::kCrf;
  dispatch_[static_cast<int>(Tier::kCrf)]->Inc();
  return result;
}

void CascadeParser::ShadowCheck(std::string_view record_text,
                                whois::ParseWorkspace& ws,
                                CascadeResult& result) const {
  if (shadow_period_ == 0) return;
  const uint64_t tick = shadow_tick_.fetch_add(1, std::memory_order_relaxed);
  if (tick % shadow_period_ != 0) return;

  result.shadow_sampled = true;
  const whois::ParsedWhois referee = crf_->Parse(record_text, ws);
  result.shadow_disagreed = !KeyFieldsAgree(result.parsed, referee);

  std::string registrar = result.parsed.registrar.empty()
                              ? std::string(kUnknownRegistrar)
                              : result.parsed.registrar;
  std::lock_guard<std::mutex> lock(shadow_mu_);
  auto it = shadow_.find(registrar);
  if (it == shadow_.end()) {
    if (shadow_.size() >= kMaxShadowLabels) {
      shadow_label_overflow_->Inc();
      registrar = kOtherRegistrar;
    }
    it = shadow_.try_emplace(registrar).first;
  }
  ShadowEntry& entry = it->second;
  if (entry.samples == nullptr) {
    auto& reg = obs::Registry::Global();
    entry.samples =
        reg.GetCounter("whoiscrf_cascade_shadow_samples_total",
                       "Cheap-path records shadow-parsed through the CRF",
                       {{"registrar", registrar}});
    entry.disagreements = reg.GetCounter(
        "whoiscrf_cascade_shadow_disagreements_total",
        "Shadow samples where the cheap path and the CRF extracted "
        "different key fields (the drift signal)",
        {{"registrar", registrar}});
  }
  entry.stats.samples++;
  entry.samples->Inc();
  if (result.shadow_disagreed) {
    entry.stats.disagreements++;
    entry.disagreements->Inc();
  }
}

whois::ParsedWhois CascadeParser::ParseRecord(const std::string& record_text,
                                              whois::ParseWorkspace& ws) const {
  return Parse(record_text, ws).parsed;
}

std::map<std::string, ShadowStats> CascadeParser::ShadowSnapshot() const {
  std::map<std::string, ShadowStats> out;
  std::lock_guard<std::mutex> lock(shadow_mu_);
  for (const auto& [registrar, entry] : shadow_) {
    out.emplace(registrar, entry.stats);
  }
  return out;
}

}  // namespace whoiscrf::cascade
