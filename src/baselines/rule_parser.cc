#include "baselines/rule_parser.h"

#include <array>
#include <cctype>
#include <map>

#include "text/line_splitter.h"
#include "text/separator.h"
#include "text/word_classes.h"
#include "util/string_util.h"
#include "whois/whois_parser.h"

namespace whoiscrf::baselines {

namespace {

using whois::Level1Label;
using whois::Level2Label;

bool TitleContains(const std::string& title, std::string_view word) {
  return title.find(word) != std::string::npos;
}

// Keyword fallback on a field title; the "general series of rules" (§2.3)
// that gives rule-based parsers their residual coverage. Like the regex
// rules of pythonwhois, these key on the LEADING title word ("Registrant
// ..." / "Creation ..."), which is why unfamiliar schemas that lead with a
// different word ("Domain Create Date") defeat them (§5.2, Table 2).
std::optional<Level1Label> TitleKeywordLabel(const std::string& full_title) {
  const auto words = util::SplitWhitespace(full_title);
  const std::string title =
      words.empty() ? std::string() : std::string(words.front());
  if (TitleContains(title, "registrant") || TitleContains(title, "owner") ||
      TitleContains(title, "holder")) {
    return Level1Label::kRegistrant;
  }
  if (TitleContains(title, "admin") || TitleContains(title, "tech") ||
      TitleContains(title, "billing")) {
    return Level1Label::kOther;
  }
  if (TitleContains(title, "creat") || TitleContains(title, "updat") ||
      TitleContains(title, "expir") || TitleContains(title, "modif") ||
      TitleContains(title, "renew") || TitleContains(title, "date") ||
      TitleContains(title, "paid")) {
    return Level1Label::kDate;
  }
  if (TitleContains(title, "registrar") || TitleContains(title, "sponsor") ||
      TitleContains(title, "provider") || TitleContains(title, "reseller") ||
      TitleContains(title, "whois server") ||
      TitleContains(title, "referral")) {
    return Level1Label::kRegistrar;
  }
  if (TitleContains(title, "domain") || TitleContains(title, "server") ||
      TitleContains(title, "status") || TitleContains(title, "dnssec") ||
      TitleContains(title, "nserver") || TitleContains(title, "host") ||
      TitleContains(title, "dns")) {
    return Level1Label::kDomain;
  }
  return std::nullopt;
}

std::optional<Level2Label> TitleKeywordSub(const std::string& title) {
  if (TitleContains(title, "email") || TitleContains(title, "e-mail") ||
      TitleContains(title, "mail")) {
    return Level2Label::kEmail;
  }
  if (TitleContains(title, "fax")) return Level2Label::kFax;
  if (TitleContains(title, "phone") || TitleContains(title, "tel")) {
    return Level2Label::kPhone;
  }
  if (TitleContains(title, "org") || TitleContains(title, "company") ||
      TitleContains(title, "entity")) {
    return Level2Label::kOrg;
  }
  if (TitleContains(title, "street") || TitleContains(title, "address")) {
    return Level2Label::kStreet;
  }
  if (TitleContains(title, "city")) return Level2Label::kCity;
  if (TitleContains(title, "state") || TitleContains(title, "province")) {
    return Level2Label::kState;
  }
  if (TitleContains(title, "postal") || TitleContains(title, "zip") ||
      TitleContains(title, "postcode")) {
    return Level2Label::kPostcode;
  }
  if (TitleContains(title, "country")) return Level2Label::kCountry;
  if (TitleContains(title, "id") || TitleContains(title, "hdl")) {
    return Level2Label::kId;
  }
  if (TitleContains(title, "name")) return Level2Label::kName;
  return std::nullopt;
}

// Untitled-line fallback: word-class and legalese heuristics.
Level1Label UntitledFallback(const text::Line& line) {
  const std::string lower = util::ToLower(util::Trim(line.text));
  if (line.starts_with_symbol) return Level1Label::kNull;
  int legalese = 0;
  for (std::string_view w :
       {"whois", "terms", "database", "information", "query", "please",
        "copyright", "policy", "prohibited", "registration", "provided",
        "service", "notice", "agree", "lawful", "visit"}) {
    if (lower.find(w) != std::string::npos) ++legalese;
  }
  if (legalese >= 2) return Level1Label::kNull;
  for (std::string_view w : util::SplitWhitespace(lower)) {
    if (text::IsDateLike(w)) return Level1Label::kDate;
  }
  return Level1Label::kNull;
}

// Sub-field guess for an untitled line inside a registrant block — the
// address heuristics every rule-based parser grows (§4.2's "a large number
// of special case rules").
Level2Label GuessRegistrantSub(const text::Line& line, int position_in_block) {
  const std::string trimmed(util::Trim(line.text));
  const auto words = util::SplitWhitespace(trimmed);
  for (std::string_view w : words) {
    if (text::IsEmail(w)) return Level2Label::kEmail;
  }
  if (!words.empty() && text::IsPhoneLike(trimmed) &&
      !util::IsDigits(trimmed)) {
    return Level2Label::kPhone;
  }
  // "City, ST 12345" / "City, State" composite.
  if (trimmed.find(',') != std::string::npos) {
    for (std::string_view w : words) {
      if (text::IsFiveDigit(w) || text::IsCountryCode(std::string(w))) {
        return Level2Label::kCity;
      }
    }
  }
  // Street: starts with a house number.
  if (!words.empty() && util::IsDigits(words.front())) {
    return Level2Label::kStreet;
  }
  // Organization before the country check: "Granite Holdings" is two
  // capitalized alpha words just like a country name, but the corporate
  // designator decides.
  if (RuleBasedParser::LooksLikeOrgName(trimmed)) {
    return Level2Label::kOrg;
  }
  // Country names are short all-alpha lines late in the block.
  if (words.size() <= 3 && position_in_block >= 3) {
    bool all_alpha = true;
    for (std::string_view w : words) {
      for (char c : w) {
        if (!std::isalpha(static_cast<unsigned char>(c))) all_alpha = false;
      }
    }
    if (all_alpha) return Level2Label::kCountry;
  }
  // The holder's name opens the block — possibly after a header line
  // and/or an organization line, both recognized above, so the window is
  // the first three positions. Streets and cities there are already
  // claimed by the digit/composite rules; a stray "Suite 589" mislabeled
  // kName is harmless because extraction keeps the first name seen.
  if (position_in_block <= 2) return Level2Label::kName;
  return Level2Label::kOther;
}

}  // namespace

std::string RuleBasedParser::NormalizeTitle(std::string_view title) {
  std::string out;
  NormalizeTitleInto(title, out);
  return out;
}

void RuleBasedParser::NormalizeTitleInto(std::string_view title,
                                         std::string& out) {
  // ASCII letters and digits fold to lower case; every other byte
  // (punctuation, whitespace, non-ASCII) is a break. Exactly what
  // std::isalnum/std::tolower do in the C locale, minus the calls.
  static constexpr std::array<char, 256> kFold = [] {
    std::array<char, 256> t{};
    for (int c = '0'; c <= '9'; ++c) t[c] = static_cast<char>(c);
    for (int c = 'a'; c <= 'z'; ++c) t[c] = static_cast<char>(c);
    for (int c = 'A'; c <= 'Z'; ++c) t[c] = static_cast<char>(c - 'A' + 'a');
    return t;
  }();
  out.resize(title.size());
  char* const begin = out.data();
  char* p = begin;
  // Branch-free: every byte writes (its folded form, or a space for a
  // break) and the cursor advances past it unless it is a break that
  // follows another break (or the start).
  bool last_space = true;
  for (const char c : title) {
    const char folded = kFold[static_cast<unsigned char>(c)];
    const bool is_break = folded == 0;
    *p = is_break ? ' ' : folded;
    p += static_cast<int>(!(is_break && last_space));
    last_space = is_break;
  }
  // Breaks collapse, so at most one trailing space is left to drop.
  if (p != begin && p[-1] == ' ') --p;
  out.resize(static_cast<size_t>(p - begin));
}

bool RuleBasedParser::LooksLikeOrgName(std::string_view value) {
  const std::string_view trimmed = util::Trim(value);
  if (trimmed.empty()) return false;
  const size_t pos = trimmed.find_last_of(" \t");
  std::string last = util::ToLower(
      pos == std::string_view::npos ? trimmed : trimmed.substr(pos + 1));
  while (!last.empty() && (last.back() == '.' || last.back() == ',')) {
    last.pop_back();
  }
  static constexpr std::string_view kDesignators[] = {
      "llc",      "inc",      "corp",     "co",   "group", "holdings",
      "ventures", "solutions", "media",   "consulting",    "gmbh",
      "ag",       "kg",       "sarl",     "sas",  "sa",    "k.k",
      "kk",       "ltd",      "limited",  "plc"};
  for (const std::string_view d : kDesignators) {
    if (last == d) return true;
  }
  return false;
}

RuleBasedParser RuleBasedParser::Build(
    const std::vector<whois::LabeledRecord>& records) {
  // Majority vote per key so noisy collisions resolve deterministically.
  std::map<std::string,
           std::map<std::pair<int, int>, int>>
      title_votes;  // key -> ((l1, l2+1) -> count); l2 -1 encoded as 0
  std::map<std::string, std::map<int, int>> header_votes;
  std::map<std::string, std::map<int, int>> bare_votes;

  for (const whois::LabeledRecord& record : records) {
    record.Validate();
    const auto lines = text::SplitRecord(record.text);
    for (size_t i = 0; i < lines.size(); ++i) {
      const auto sep = text::FindSeparator(lines[i].text);
      const Level1Label l1 = record.labels[i];
      if (sep.has_value() && !sep->title.empty()) {
        const std::string key = NormalizeTitle(sep->title);
        if (key.empty()) continue;
        const int sub_code =
            record.sub_labels[i].has_value()
                ? static_cast<int>(*record.sub_labels[i]) + 1
                : 0;
        if (sep->value.empty()) {
          header_votes[key][static_cast<int>(l1)]++;
        } else {
          title_votes[key][{static_cast<int>(l1), sub_code}]++;
        }
      } else {
        const std::string key = NormalizeTitle(lines[i].text);
        if (key.empty()) continue;
        // Candidate block-header: an untitled line that *starts* a run of
        // same-label lines (block member lines like a registrant's name
        // repeat across blocks and must not become headers).
        const bool starts_block = i == 0 || lines[i].preceded_by_blank ||
                                  record.labels[i - 1] != l1;
        if (starts_block && i + 1 < lines.size() &&
            record.labels[i + 1] == l1 &&
            (l1 == Level1Label::kRegistrant || l1 == Level1Label::kOther ||
             l1 == Level1Label::kDomain)) {
          header_votes[key][static_cast<int>(l1)]++;
        } else if (l1 == Level1Label::kNull || l1 == Level1Label::kDomain ||
                   l1 == Level1Label::kDate ||
                   l1 == Level1Label::kRegistrar) {
          // Fixed untitled text (boilerplate sentences, banners).
          bare_votes[key][static_cast<int>(l1)]++;
        }
      }
    }
  }

  RuleBasedParser parser;
  for (const auto& [key, votes] : title_votes) {
    std::pair<int, int> best{};
    int best_count = -1;
    for (const auto& [labels, count] : votes) {
      if (count > best_count) {
        best = labels;
        best_count = count;
      }
    }
    TitleRule rule;
    rule.label = static_cast<Level1Label>(best.first);
    rule.sub = best.second == 0
                   ? std::nullopt
                   : std::optional<Level2Label>(
                         static_cast<Level2Label>(best.second - 1));
    parser.title_rules_.emplace(key, rule);
  }
  auto majority = [](const std::map<int, int>& votes) {
    int best_label = 0;
    int best_count = -1;
    for (const auto& [label, count] : votes) {
      if (count > best_count) {
        best_label = label;
        best_count = count;
      }
    }
    return static_cast<Level1Label>(best_label);
  };
  for (const auto& [key, votes] : header_votes) {
    parser.header_rules_.emplace(key, majority(votes));
  }
  for (const auto& [key, votes] : bare_votes) {
    if (parser.header_rules_.count(key)) continue;  // headers take priority
    parser.bare_rules_.emplace(key, majority(votes));
  }
  return parser;
}

RuleBasedParser RuleBasedParser::RollBack(
    const std::vector<whois::LabeledRecord>& records) const {
  RuleBasedParser reduced;
  for (const whois::LabeledRecord& record : records) {
    for (const text::Line& line : text::SplitRecord(record.text)) {
      const auto sep = text::FindSeparator(line.text);
      if (sep.has_value() && !sep->title.empty()) {
        const std::string key = NormalizeTitle(sep->title);
        auto it = title_rules_.find(key);
        if (it != title_rules_.end()) reduced.title_rules_.insert(*it);
        auto hit = header_rules_.find(key);
        if (hit != header_rules_.end()) reduced.header_rules_.insert(*hit);
      } else {
        const std::string key = NormalizeTitle(line.text);
        auto hit = header_rules_.find(key);
        if (hit != header_rules_.end()) reduced.header_rules_.insert(*hit);
        auto bit = bare_rules_.find(key);
        if (bit != bare_rules_.end()) reduced.bare_rules_.insert(*bit);
      }
    }
  }
  return reduced;
}

std::vector<Level1Label> RuleBasedParser::LabelLines(
    std::string_view record_text, RuleLabelStats* stats) const {
  return LabelLines(text::SplitRecord(record_text), stats);
}

std::vector<Level1Label> RuleBasedParser::LabelLines(
    const std::vector<text::Line>& lines, RuleLabelStats* stats) const {
  std::vector<Level1Label> out;
  out.reserve(lines.size());
  RuleLabelStats local;

  // Plain flag+value instead of std::optional (GCC 12 spurious
  // -Wmaybe-uninitialized through the optional's storage).
  bool has_context = false;
  Level1Label context = Level1Label::kNull;
  for (const text::Line& line : lines) {
    if (line.preceded_by_blank) has_context = false;

    const auto sep = text::FindSeparator(line.text);
    if (sep.has_value() && !sep->title.empty()) {
      const std::string key = NormalizeTitle(sep->title);
      auto it = title_rules_.find(key);
      if (it != title_rules_.end() && !sep->value.empty()) {
        ++local.learned_hits;
        out.push_back(it->second.label);
        continue;
      }
      auto hit = header_rules_.find(key);
      if (hit != header_rules_.end() && sep->value.empty()) {
        has_context = true;
        context = hit->second;
        ++local.learned_hits;
        out.push_back(hit->second);
        continue;
      }
      if (it != title_rules_.end()) {  // known title, empty value
        ++local.learned_hits;
        out.push_back(it->second.label);
        continue;
      }
      // Unknown title: keyword fallback.
      ++local.unknown_titles;
      if (auto guess = TitleKeywordLabel(key)) {
        if (sep->value.empty() &&
            (*guess == Level1Label::kRegistrant ||
             *guess == Level1Label::kOther)) {
          has_context = true;
          context = *guess;
        }
        ++local.keyword_hits;
        out.push_back(*guess);
        continue;
      }
      if (has_context) {
        ++local.context_hits;
      } else {
        ++local.fallback_lines;
      }
      out.push_back(has_context ? context : Level1Label::kNull);
      continue;
    }

    // No title.
    const std::string key = NormalizeTitle(line.text);
    auto hit = header_rules_.find(key);
    if (hit != header_rules_.end()) {
      has_context = true;
      context = hit->second;
      ++local.learned_hits;
      out.push_back(hit->second);
      continue;
    }
    auto bit = bare_rules_.find(key);
    if (bit != bare_rules_.end()) {
      ++local.learned_hits;
      out.push_back(bit->second);
      continue;
    }
    if (has_context) {
      ++local.context_hits;
      out.push_back(context);
      continue;
    }
    if (auto guess = TitleKeywordLabel(key);
        guess.has_value() && util::SplitWhitespace(key).size() <= 4) {
      // Short keyword-bearing header line ("Administrative Contact").
      if (*guess == Level1Label::kRegistrant ||
          *guess == Level1Label::kOther) {
        has_context = true;
        context = *guess;
      }
      ++local.keyword_hits;
      out.push_back(*guess);
      continue;
    }
    ++local.fallback_lines;
    out.push_back(UntitledFallback(line));
  }
  local.labeled_lines = out.size();
  if (stats != nullptr) *stats = local;
  return out;
}

std::vector<Level2Label> RuleBasedParser::RegistrantSubLabels(
    const std::vector<text::Line>& lines,
    const std::vector<Level1Label>& labels) const {
  // Title-rule subs where known, address heuristics otherwise.
  std::vector<Level2Label> subs;
  int block_pos = 0;
  for (size_t i = 0; i < lines.size(); ++i) {
    if (labels[i] != Level1Label::kRegistrant) {
      block_pos = 0;
      continue;
    }
    const auto sep = text::FindSeparator(lines[i].text);
    std::optional<Level2Label> sub;
    if (sep.has_value() && !sep->title.empty()) {
      const std::string key = NormalizeTitle(sep->title);
      auto it = title_rules_.find(key);
      if (it != title_rules_.end() && it->second.sub.has_value()) {
        sub = it->second.sub;
      } else {
        sub = TitleKeywordSub(key);
      }
    }
    if (!sub.has_value()) {
      sub = GuessRegistrantSub(lines[i], block_pos);
    }
    subs.push_back(*sub);
    ++block_pos;
  }
  return subs;
}

whois::ParsedWhois RuleBasedParser::Parse(std::string_view record_text) const {
  whois::ParsedWhois parsed;
  const auto lines = text::SplitRecord(record_text);
  parsed.line_labels = LabelLines(lines);
  const std::vector<Level2Label> subs =
      RegistrantSubLabels(lines, parsed.line_labels);
  whois::ExtractFields(lines, parsed.line_labels, subs, parsed);
  return parsed;
}

}  // namespace whoiscrf::baselines
