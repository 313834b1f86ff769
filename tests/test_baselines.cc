// Baseline parsers: the rule-based parser labels its own development corpus
// perfectly and degrades gracefully when rolled back; the template parser
// is exact on known formats and fails closed on drifted ones (§2.3, §5.1).
// The compiled template parser is checked against a naive string-keyed
// reference over drifted, mutated and hostile records, and under
// concurrent use (run under ASan+UBSan and TSAN in CI).
#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <map>
#include <random>
#include <set>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "baselines/rule_parser.h"
#include "baselines/template_parser.h"
#include "datagen/corpus_gen.h"
#include "datagen/temporal.h"
#include "text/line_splitter.h"
#include "text/separator.h"
#include "text/word_classes.h"
#include "util/string_util.h"

namespace whoiscrf::baselines {
namespace {

std::vector<whois::LabeledRecord> MakeCorpus(size_t n, uint64_t seed,
                                             double drift) {
  datagen::CorpusOptions options;
  options.size = n;
  options.seed = seed;
  options.drift_fraction = drift;
  datagen::CorpusGenerator generator(options);
  std::vector<whois::LabeledRecord> out;
  for (size_t i = 0; i < n; ++i) out.push_back(generator.Generate(i).thick);
  return out;
}

double LineErrorRate(
    const std::vector<whois::Level1Label>& gold,
    const std::vector<whois::Level1Label>& predicted) {
  EXPECT_EQ(gold.size(), predicted.size());
  size_t wrong = 0;
  for (size_t i = 0; i < gold.size(); ++i) {
    if (predicted[i] != gold[i]) ++wrong;
  }
  return gold.empty() ? 0.0
                      : static_cast<double>(wrong) /
                            static_cast<double>(gold.size());
}

TEST(RuleParserTest, NormalizeTitle) {
  EXPECT_EQ(RuleBasedParser::NormalizeTitle("Registrant  Name"),
            "registrant name");
  EXPECT_EQ(RuleBasedParser::NormalizeTitle("[Registrant]"), "registrant");
  EXPECT_EQ(RuleBasedParser::NormalizeTitle("OWNER_NAME"), "owner name");
  EXPECT_EQ(RuleBasedParser::NormalizeTitle("  ..  "), "");
}

TEST(RuleParserTest, NearPerfectOnDevelopmentCorpus) {
  const auto corpus = MakeCorpus(250, 3, 0.25);
  const RuleBasedParser parser = RuleBasedParser::Build(corpus);
  double total_error = 0;
  for (const auto& record : corpus) {
    total_error += LineErrorRate(record.labels, parser.LabelLines(record.text));
  }
  // §4.2: the full rule base labels its own development corpus essentially
  // perfectly (we allow a small slack for genuinely ambiguous lines).
  EXPECT_LT(total_error / static_cast<double>(corpus.size()), 0.02);
}

TEST(RuleParserTest, RollBackLosesCoverage) {
  const auto full_corpus = MakeCorpus(400, 5, 0.25);
  const auto tiny_subset = MakeCorpus(5, 6, 0.0);
  const RuleBasedParser full = RuleBasedParser::Build(full_corpus);
  const RuleBasedParser reduced = full.RollBack(tiny_subset);
  EXPECT_LT(reduced.num_title_rules(), full.num_title_rules());

  // Evaluate both on held-out data: the rolled-back parser must be no
  // better, and typically worse.
  const auto test = MakeCorpus(120, 7, 0.25);
  double err_full = 0;
  double err_reduced = 0;
  for (const auto& record : test) {
    err_full += LineErrorRate(record.labels, full.LabelLines(record.text));
    err_reduced +=
        LineErrorRate(record.labels, reduced.LabelLines(record.text));
  }
  EXPECT_LE(err_full, err_reduced + 1e-12);
  EXPECT_GT(err_reduced, 0.0);
}

TEST(RuleParserTest, BlockContextInheritance) {
  // eNom-style contextual block: untitled lines inherit the header label.
  whois::LabeledRecord record;
  record.domain = "x.com";
  record.text =
      "Registrant Contact:\n"
      "   John Smith\n"
      "   1 Main St\n"
      "\n"
      "Creation date: 01-Jan-2010\n";
  using L = whois::Level1Label;
  record.labels = {L::kRegistrant, L::kRegistrant, L::kRegistrant, L::kDate};
  record.sub_labels = {std::nullopt, whois::Level2Label::kName,
                       whois::Level2Label::kStreet, std::nullopt};
  const RuleBasedParser parser = RuleBasedParser::Build({record});
  const auto labels = parser.LabelLines(record.text);
  EXPECT_EQ(labels, record.labels);
}

TEST(RuleParserTest, PatternRulesSurviveRollBackToNothing) {
  const auto corpus = MakeCorpus(100, 9, 0.0);
  const RuleBasedParser full = RuleBasedParser::Build(corpus);
  // Roll back against an empty set: only built-in pattern rules remain.
  const RuleBasedParser bare = full.RollBack({});
  EXPECT_EQ(bare.num_title_rules(), 0u);
  // Keyword fallbacks still label the obvious lines.
  const auto labels =
      bare.LabelLines("Registrant Name: John\nCreation Date: 2010-01-01\n");
  ASSERT_EQ(labels.size(), 2u);
  EXPECT_EQ(labels[0], whois::Level1Label::kRegistrant);
  EXPECT_EQ(labels[1], whois::Level1Label::kDate);
}

TEST(RuleParserTest, ParseExtractsRegistrant) {
  const auto corpus = MakeCorpus(200, 11, 0.0);
  const RuleBasedParser parser = RuleBasedParser::Build(corpus);
  datagen::CorpusOptions options;
  options.size = 200;
  options.seed = 11;
  datagen::CorpusGenerator generator(options);
  size_t name_hits = 0;
  for (size_t i = 0; i < 60; ++i) {
    const auto domain = generator.Generate(i);
    const auto parsed = parser.Parse(domain.thick.text);
    if (parsed.registrant.name == domain.facts.registrant.name) ++name_hits;
  }
  EXPECT_GT(name_hits, 40u);  // development data: rules mostly fit
}

TEST(TemplateParserTest, ExactOnTrainingFormats) {
  const auto corpus = MakeCorpus(300, 13, 0.0);
  const TemplateBasedParser parser = TemplateBasedParser::Build(corpus);
  EXPECT_GT(parser.num_templates(), 10u);
  size_t matched = 0;
  size_t perfect = 0;
  for (const auto& record : corpus) {
    const auto result = parser.Parse(record.text);
    if (!result.matched) continue;
    ++matched;
    std::vector<whois::Level1Label> gold = record.labels;
    if (result.labels == gold) ++perfect;
  }
  EXPECT_GT(matched, corpus.size() * 9 / 10);
  EXPECT_GT(perfect, matched * 9 / 10);
}

TEST(TemplateParserTest, FailsClosedOnDriftedSchema) {
  // Built on v0 formats only; drifted records must mostly fail to match —
  // the fragility the paper demonstrates with deft-whois.
  const auto v0_corpus = MakeCorpus(300, 17, 0.0);
  const TemplateBasedParser parser = TemplateBasedParser::Build(v0_corpus);

  datagen::CorpusOptions options;
  options.size = 100;
  options.seed = 18;
  options.drift_fraction = 1.0;  // every record drifted
  datagen::CorpusGenerator generator(options);
  size_t matched = 0;
  for (size_t i = 0; i < 100; ++i) {
    if (parser.Parse(generator.Generate(i).thick.text).matched) ++matched;
  }
  EXPECT_LT(matched, 35u);
}

TEST(TemplateParserTest, UnknownFormatFails) {
  const auto corpus = MakeCorpus(50, 19, 0.0);
  const TemplateBasedParser parser = TemplateBasedParser::Build(corpus);
  const auto result =
      parser.Parse("totally-unknown-key!!: value\nanother: thing\n");
  EXPECT_FALSE(result.matched);
}

// ---------------------------------------------------------------------------
// Naive reference for the compiled template tier: the string-keyed
// algorithm the compiled parser replaced, kept verbatim in spirit (locale
// std::isalnum/std::tolower normalization, per-template string maps, a
// sorted-title signature string). The compiled parser must reproduce its
// matched / template_index / labels / registrant_subs exactly.

std::string NaiveNormalize(std::string_view title) {
  std::string out;
  bool last_space = true;
  for (char c : title) {
    const unsigned char uc = static_cast<unsigned char>(c);
    if (std::isalnum(uc)) {
      out += static_cast<char>(std::tolower(uc));
      last_space = false;
    } else if (!last_space) {
      out += ' ';
      last_space = true;
    }
  }
  while (!out.empty() && out.back() == ' ') out.pop_back();
  return out;
}

class NaiveTemplateParser {
 public:
  // How a match was found, so the test can check both paths are covered.
  enum class Path { kMiss, kSignature, kLinear };
  struct Outcome {
    TemplateBasedParser::Result result;
    Path path = Path::kMiss;
    bool signature_hit_failed = false;  // signature found, Apply failed
  };

  explicit NaiveTemplateParser(const std::vector<whois::LabeledRecord>& recs) {
    using whois::Level1Label;
    std::map<std::string, Template> by_signature;
    for (const whois::LabeledRecord& record : recs) {
      Template& tpl = by_signature[Signature(text::SplitRecord(record.text))];
      const auto lines = text::SplitRecord(record.text);
      std::vector<whois::Level2Label> subs;
      for (size_t i = 0; i < lines.size(); ++i) {
        if (record.labels[i] == Level1Label::kRegistrant) {
          subs.push_back(
              record.sub_labels[i].value_or(whois::Level2Label::kOther));
        }
      }
      if (const auto sit = tpl.subs_by_count.find(subs.size());
          sit == tpl.subs_by_count.end()) {
        tpl.subs_by_count.emplace(subs.size(), std::move(subs));
      } else if (!sit->second.empty() && sit->second != subs) {
        sit->second.clear();
      }
      for (size_t i = 0; i < lines.size(); ++i) {
        const Level1Label label = record.labels[i];
        const auto sep = text::FindSeparator(lines[i].text);
        if (sep.has_value() && !sep->title.empty()) {
          const std::string key = NaiveNormalize(sep->title);
          const auto [tit, _] = tpl.titles.emplace(key, TitleEntry{label});
          if (tit->second.label == Level1Label::kRegistrant &&
              tit->second.sub < 0) {
            tit->second.sub = static_cast<int8_t>(
                record.sub_labels[i].value_or(whois::Level2Label::kOther));
          }
          if (sep->value.empty()) tpl.headers.emplace(key, label);
        } else {
          const std::string key = NaiveNormalize(lines[i].text);
          if (key.empty()) continue;
          if (label != Level1Label::kRegistrant &&
              label != Level1Label::kOther) {
            tpl.bare_lines.emplace(key, label);
          }
          const bool starts_block = i == 0 || lines[i].preceded_by_blank ||
                                    record.labels[i - 1] != label;
          if (starts_block && i + 1 < lines.size() &&
              record.labels[i + 1] == label) {
            tpl.headers.emplace(key, label);
          }
        }
      }
    }
    for (auto& [sig, tpl] : by_signature) {
      signature_index_.emplace(sig, static_cast<int>(templates_.size()));
      templates_.push_back(std::move(tpl));
    }
  }

  size_t num_templates() const { return templates_.size(); }

  Outcome Parse(std::string_view record_text) const {
    const auto lines = text::SplitRecord(record_text);
    std::vector<LineKey> keys;
    for (const text::Line& line : lines) {
      LineKey lk;
      const auto sep = text::FindSeparator(line.text);
      if (sep.has_value() && !sep->title.empty()) {
        lk.titled = true;
        lk.value_empty = sep->value.empty();
        lk.key = NaiveNormalize(sep->title);
      } else {
        lk.key = NaiveNormalize(line.text);
      }
      keys.push_back(std::move(lk));
    }
    Outcome out;
    std::vector<whois::Level1Label> labels;
    int indexed = -1;
    if (auto it = signature_index_.find(Signature(lines));
        it != signature_index_.end()) {
      indexed = it->second;
      if (Apply(templates_[static_cast<size_t>(indexed)], lines, keys,
                labels)) {
        out.path = Path::kSignature;
        out.result = Finish(indexed, lines, keys, std::move(labels));
        return out;
      }
      out.signature_hit_failed = true;
    }
    for (size_t t = 0; t < templates_.size(); ++t) {
      if (static_cast<int>(t) == indexed) continue;
      if (Apply(templates_[t], lines, keys, labels)) {
        out.path = Path::kLinear;
        out.result =
            Finish(static_cast<int>(t), lines, keys, std::move(labels));
        return out;
      }
    }
    return out;
  }

 private:
  struct TitleEntry {
    whois::Level1Label label;
    int8_t sub = -1;
  };
  struct Template {
    std::unordered_map<std::string, TitleEntry> titles;
    std::unordered_map<std::string, whois::Level1Label> bare_lines;
    std::unordered_map<std::string, whois::Level1Label> headers;
    std::unordered_map<size_t, std::vector<whois::Level2Label>>
        subs_by_count;
  };
  struct LineKey {
    bool titled = false;
    bool value_empty = false;
    std::string key;
  };

  static std::string Signature(const std::vector<text::Line>& lines) {
    std::set<std::string> titles;
    for (const text::Line& line : lines) {
      const auto sep = text::FindSeparator(line.text);
      if (sep.has_value() && !sep->title.empty()) {
        titles.insert(NaiveNormalize(sep->title));
      }
    }
    std::string out;
    for (const auto& t : titles) {
      out += t;
      out += '\x1f';
    }
    return out;
  }

  static bool Apply(const Template& tpl, const std::vector<text::Line>& lines,
                    const std::vector<LineKey>& keys,
                    std::vector<whois::Level1Label>& labels) {
    labels.clear();
    bool has_context = false;
    whois::Level1Label context = whois::Level1Label::kNull;
    for (size_t i = 0; i < lines.size(); ++i) {
      if (lines[i].preceded_by_blank) has_context = false;
      const LineKey& lk = keys[i];
      if (lk.titled) {
        auto it = tpl.titles.find(lk.key);
        if (it == tpl.titles.end()) return false;
        labels.push_back(it->second.label);
        auto hit = tpl.headers.find(lk.key);
        if (hit != tpl.headers.end() && lk.value_empty) {
          has_context = true;
          context = hit->second;
        }
        continue;
      }
      auto hit = tpl.headers.find(lk.key);
      if (hit != tpl.headers.end()) {
        has_context = true;
        context = hit->second;
        labels.push_back(hit->second);
        continue;
      }
      if (has_context) {
        labels.push_back(context);
        continue;
      }
      auto bit = tpl.bare_lines.find(lk.key);
      if (bit != tpl.bare_lines.end()) {
        labels.push_back(bit->second);
        continue;
      }
      return false;
    }
    return true;
  }

  TemplateBasedParser::Result Finish(int index,
                                     const std::vector<text::Line>& lines,
                                     const std::vector<LineKey>& keys,
                                     std::vector<whois::Level1Label> labels)
      const {
    using whois::Level2Label;
    TemplateBasedParser::Result result;
    result.matched = true;
    result.template_index = index;
    result.labels = std::move(labels);
    const Template& tpl = templates_[static_cast<size_t>(index)];
    std::vector<size_t> reg_lines;
    for (size_t i = 0; i < result.labels.size(); ++i) {
      if (result.labels[i] == whois::Level1Label::kRegistrant) {
        reg_lines.push_back(i);
      }
    }
    if (reg_lines.empty()) return result;
    const auto seq = tpl.subs_by_count.find(reg_lines.size());
    std::vector<Level2Label> subs;
    for (size_t p = 0; p < reg_lines.size(); ++p) {
      int sub = -1;
      const LineKey& lk = keys[reg_lines[p]];
      if (lk.titled) {
        if (const auto it = tpl.titles.find(lk.key); it != tpl.titles.end()) {
          sub = it->second.sub;
        }
      }
      if (sub < 0 && seq != tpl.subs_by_count.end() && !seq->second.empty()) {
        sub = static_cast<int>(seq->second[p]);
        const auto s = static_cast<Level2Label>(sub);
        const std::string_view trimmed = util::Trim(lines[reg_lines[p]].text);
        const auto words = util::SplitWhitespace(trimmed);
        const bool email_like = trimmed.find('@') != std::string_view::npos;
        const bool street_like =
            !words.empty() && util::IsDigits(words.front());
        const bool phone_like = !words.empty() &&
                                text::IsPhoneLike(trimmed) &&
                                !util::IsDigits(trimmed);
        const bool contact_slot =
            s == Level2Label::kName || s == Level2Label::kOrg;
        if ((contact_slot && (street_like || phone_like || email_like)) ||
            (s == Level2Label::kName &&
             RuleBasedParser::LooksLikeOrgName(trimmed)) ||
            (s == Level2Label::kEmail && !email_like) ||
            (s != Level2Label::kEmail && email_like)) {
          sub = -1;
        }
      }
      if (sub < 0) return result;
      subs.push_back(static_cast<Level2Label>(sub));
    }
    result.registrant_subs = std::move(subs);
    return result;
  }

  std::vector<Template> templates_;
  std::map<std::string, int> signature_index_;
};

// Records from every era of a drifting world: index is time, and each
// drift event re-synthesizes or mutates the highest-volume formats.
std::vector<whois::LabeledRecord> EraRecords(size_t per_era) {
  datagen::TemporalCorpusOptions options;
  options.size = 4000;
  options.seed = 23;
  options.events = 3;
  const datagen::TemporalCorpusGenerator generator(options);
  std::vector<whois::LabeledRecord> out;
  for (size_t era = 0; era <= options.events; ++era) {
    const size_t start = options.size * era / (options.events + 1);
    for (size_t i = 0; i < per_era; ++i) {
      out.push_back(generator.Generate(start + i).thick);
    }
  }
  return out;
}

// Hostile and drifted variants of `text`: renamed, dropped, reordered and
// duplicated titled lines, swapped neighbours (inside a contact block
// they contradict the learned layout), a value given to a title that
// opens a block, unknown bare lines, punctuation-only and non-ASCII
// titles, CRLF line endings.
std::vector<std::string> Mutations(const std::string& text,
                                   std::mt19937_64& rng) {
  std::vector<std::string> lines;
  for (const std::string_view line : util::SplitLines(text)) {
    lines.emplace_back(line);
  }
  if (lines.empty()) return {};
  const auto pick = [&rng, &lines] {
    return static_cast<size_t>(rng() % lines.size());
  };
  const auto join = [](const std::vector<std::string>& ls,
                       std::string_view eol = "\n") {
    std::string out;
    for (const std::string& l : ls) {
      out += l;
      out += eol;
    }
    return out;
  };
  // Index of a random line with a title, or npos.
  const auto titled_line = [&] {
    for (int attempt = 0; attempt < 16; ++attempt) {
      const size_t i = pick();
      const auto sep = text::FindSeparator(lines[i]);
      if (sep.has_value() && !sep->title.empty()) return i;
    }
    return std::string::npos;
  };
  std::vector<std::string> out;
  if (const size_t i = titled_line(); i != std::string::npos) {
    auto renamed = lines;
    const size_t colon = renamed[i].find(':');
    if (colon != std::string::npos) {
      renamed[i].insert(colon, " Xtra");
      out.push_back(join(renamed));
    }
    auto dropped = lines;
    dropped.erase(dropped.begin() + static_cast<std::ptrdiff_t>(i));
    out.push_back(join(dropped));
    auto duplicated = lines;
    duplicated.insert(duplicated.begin() + static_cast<std::ptrdiff_t>(i),
                      lines[i]);
    out.push_back(join(duplicated));
    auto punct = lines;
    punct[i] = "--- : " + lines[i];
    out.push_back(join(punct));
    auto non_ascii = lines;
    non_ascii[i] = "Regi\xc3\xb1strant \xfc" + lines[i];
    out.push_back(join(non_ascii));
  }
  {
    auto dropped = lines;
    dropped.erase(dropped.begin() + static_cast<std::ptrdiff_t>(pick()));
    out.push_back(join(dropped));
    auto reordered = lines;
    std::swap(reordered[pick()], reordered[pick()]);
    out.push_back(join(reordered));
    for (int k = 0; k < 3 && lines.size() > 1; ++k) {
      auto swapped = lines;
      const size_t i = static_cast<size_t>(rng() % (lines.size() - 1));
      std::swap(swapped[i], swapped[i + 1]);
      out.push_back(join(swapped));
    }
    for (size_t i = 0; i < lines.size(); ++i) {
      const auto sep = text::FindSeparator(lines[i]);
      if (sep.has_value() && !sep->title.empty() && sep->value.empty()) {
        auto valued = lines;
        valued[i] += " filler";
        out.push_back(join(valued));
        break;
      }
    }
    auto bare = lines;
    bare.insert(bare.begin() + static_cast<std::ptrdiff_t>(pick()),
                "An unknown banner line 42");
    out.push_back(join(bare));
    auto banner_first = lines;
    banner_first.insert(banner_first.begin(), "Unrecognised preamble text");
    out.push_back(join(banner_first));
    auto punct_only = lines;
    punct_only.insert(punct_only.begin() + static_cast<std::ptrdiff_t>(pick()),
                      "**** :");
    out.push_back(join(punct_only));
    auto high_bytes = lines;
    high_bytes.insert(high_bytes.begin() + static_cast<std::ptrdiff_t>(pick()),
                      "M\xfcnchen \xe2\x82\xac 7");
    out.push_back(join(high_bytes));
  }
  out.push_back(join(lines, "\r\n"));
  return out;
}

void ExpectSameResult(const TemplateBasedParser::Result& got,
                      const TemplateBasedParser::Result& want,
                      const std::string& text) {
  ASSERT_EQ(got.matched, want.matched) << text;
  ASSERT_EQ(got.template_index, want.template_index) << text;
  ASSERT_EQ(got.labels, want.labels) << text;
  ASSERT_EQ(got.registrant_subs, want.registrant_subs) << text;
}

TEST(RuleParserTest, NormalizeTitleMatchesCLocaleReference) {
  std::mt19937_64 rng(5);
  std::string buf;
  for (int n = 0; n < 20000; ++n) {
    std::string s(static_cast<size_t>(rng() % 24), '\0');
    for (char& c : s) c = static_cast<char>(rng() % 256);
    ASSERT_EQ(RuleBasedParser::NormalizeTitle(s), NaiveNormalize(s));
    RuleBasedParser::NormalizeTitleInto(s, buf);
    ASSERT_EQ(buf, NaiveNormalize(s));
  }
  for (const std::string_view s :
       {"", " ", "---", "  Registrant   Name  ", "A.B..C", "x\xfc"}) {
    EXPECT_EQ(RuleBasedParser::NormalizeTitle(s), NaiveNormalize(s));
  }
}

// Copies of every 4th record with a few runs of same-label lines
// relabeled (so block headers stay headers, under another label) and
// their registrant sub-labels changed. Built alongside the originals they
// give one key conflicting labels within a template, so the
// first-stored-wins rules are exercised.
std::vector<whois::LabeledRecord> WithLabelNoise(
    std::vector<whois::LabeledRecord> records, std::mt19937_64& rng) {
  const size_t n = records.size();
  for (size_t r = 0; r < n; r += 4) {
    whois::LabeledRecord noisy = records[r];
    for (int k = 0; k < 3 && !noisy.labels.empty(); ++k) {
      const size_t start = static_cast<size_t>(rng() % noisy.labels.size());
      const whois::Level1Label old_label = noisy.labels[start];
      const auto new_label = static_cast<whois::Level1Label>(
          rng() % whois::kNumLevel1Labels);
      for (size_t i = start;
           i < noisy.labels.size() && records[r].labels[i] == old_label;
           ++i) {
        noisy.labels[i] = new_label;
        noisy.sub_labels[i] = static_cast<whois::Level2Label>(rng() % 4);
      }
    }
    records.push_back(std::move(noisy));
  }
  return records;
}

TEST(TemplateParserTest, MatchesNaiveReference) {
  // Built from records of every era (like the cascade on a drifting
  // census), from the first era only (drifted records then exercise the
  // miss paths of a stale template base), and from every era plus
  // label-noise copies (conflicting labels for one key).
  std::mt19937_64 rng(11);
  const auto all_eras = EraRecords(150);
  const std::vector<whois::LabeledRecord> first_era(all_eras.begin(),
                                                    all_eras.begin() + 150);
  const auto noisy = WithLabelNoise(all_eras, rng);
  for (const auto* build : {&all_eras, &first_era, &noisy}) {
    const TemplateBasedParser parser = TemplateBasedParser::Build(*build);
    const NaiveTemplateParser naive(*build);
    ASSERT_EQ(parser.num_templates(), naive.num_templates());

    std::vector<std::string> inputs = {"", "\n\n", "\r\n"};
    for (const whois::LabeledRecord& record : all_eras) {
      inputs.push_back(record.text);
      for (std::string& m : Mutations(record.text, rng)) {
        inputs.push_back(std::move(m));
      }
    }
    size_t by_signature = 0, by_linear = 0, signature_failed = 0, misses = 0;
    for (const std::string& text : inputs) {
      const NaiveTemplateParser::Outcome want = naive.Parse(text);
      ExpectSameResult(parser.Parse(text), want.result, text);
      by_signature += want.path == NaiveTemplateParser::Path::kSignature;
      by_linear += want.path == NaiveTemplateParser::Path::kLinear;
      misses += want.path == NaiveTemplateParser::Path::kMiss;
      if (want.signature_hit_failed) ++signature_failed;
    }
    // Every path of the parser was exercised, not only exact hits.
    EXPECT_GT(by_signature, 0u);
    EXPECT_GT(by_linear, 0u);
    EXPECT_GT(signature_failed, 0u);
    EXPECT_GT(misses, 0u);
  }
}

TEST(TemplateParserTest, ConcurrentParsesMatchSerial) {
  // Per-record scratch is per-thread: parses racing on one parser must
  // each see exactly what a lone serial parse sees.
  const auto records = EraRecords(60);
  const TemplateBasedParser parser = TemplateBasedParser::Build(records);
  std::mt19937_64 rng(3);
  std::vector<std::string> inputs;
  for (const whois::LabeledRecord& record : records) {
    inputs.push_back(record.text);
    for (std::string& m : Mutations(record.text, rng)) {
      inputs.push_back(std::move(m));
    }
  }
  std::vector<TemplateBasedParser::Result> serial;
  for (const std::string& text : inputs) serial.push_back(parser.Parse(text));

  constexpr size_t kWorkers = 4;
  std::vector<size_t> mismatches(kWorkers, 0);
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kWorkers; ++t) {
    threads.emplace_back([&, t] {
      for (size_t round = 0; round < 3; ++round) {
        for (size_t k = 0; k < inputs.size(); ++k) {
          // Each thread walks the inputs from a different offset, so
          // threads parse different records at the same moment.
          const size_t i = (k + t * inputs.size() / kWorkers) % inputs.size();
          const auto got = parser.Parse(inputs[i]);
          const auto& want = serial[i];
          if (got.matched != want.matched ||
              got.template_index != want.template_index ||
              got.labels != want.labels ||
              got.registrant_subs != want.registrant_subs) {
            ++mismatches[t];
          }
        }
      }
    });
  }
  for (std::thread& th : threads) th.join();
  for (size_t t = 0; t < kWorkers; ++t) {
    EXPECT_EQ(mismatches[t], 0u) << "thread " << t;
  }
}

}  // namespace
}  // namespace whoiscrf::baselines
