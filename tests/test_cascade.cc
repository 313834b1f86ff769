// Parser cascade: dispatch-tier selection on crafted records, cascade-vs-
// pure-CRF field agreement on the labeled corpus, shadow-sample
// disagreement accounting, and fail-closed fallthrough (docs/cascade.md).
// The concurrency test is exercised by the -DWHOISCRF_TSAN=ON CI job.
#include <cctype>
#include <cstdlib>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "cascade/cascade.h"
#include "datagen/corpus_gen.h"
#include "obs/metrics.h"
#include "whois/record.h"
#include "whois/whois_parser.h"

namespace whoiscrf::cascade {
namespace {

using whois::LabeledRecord;
using whois::Level1Label;
using whois::Level2Label;
using whois::ParsedWhois;

std::vector<LabeledRecord> MakeCorpus(size_t n, uint64_t seed,
                                      double drift) {
  datagen::CorpusOptions options;
  options.size = n;
  options.seed = seed;
  options.drift_fraction = drift;
  datagen::CorpusGenerator generator(options);
  std::vector<LabeledRecord> out;
  for (size_t i = 0; i < n; ++i) out.push_back(generator.Generate(i).thick);
  return out;
}

// Hand-crafted labeled record: every line of `lines` is labeled (all
// contain alphanumerics), with optional registrant subfields.
LabeledRecord MakeRecord(
    const std::vector<std::tuple<std::string, Level1Label,
                                 std::optional<Level2Label>>>& lines) {
  LabeledRecord record;
  for (const auto& [text, label, sub] : lines) {
    record.text += text;
    record.text += '\n';
    record.labels.push_back(label);
    record.sub_labels.push_back(sub);
  }
  record.Validate();
  return record;
}

// A tiny two-format corpus the dispatch tests control completely.
std::vector<LabeledRecord> HandCorpus() {
  std::vector<LabeledRecord> corpus;
  // Format alpha.
  corpus.push_back(MakeRecord({
      {"Domain Name: example.com", Level1Label::kDomain, std::nullopt},
      {"Registrar: Alpha Registrations", Level1Label::kRegistrar,
       std::nullopt},
      {"Creation Date: 2001-05-10", Level1Label::kDate, std::nullopt},
      {"Registrant Name: John Doe", Level1Label::kRegistrant,
       Level2Label::kName},
      {"Registrant Email: john@example.com", Level1Label::kRegistrant,
       Level2Label::kEmail},
  }));
  // Format beta: same information, disjoint schema.
  corpus.push_back(MakeRecord({
      {"domain: example.net", Level1Label::kDomain, std::nullopt},
      {"sponsor: Beta LLC", Level1Label::kRegistrar, std::nullopt},
      {"created: 2002-03-04", Level1Label::kDate, std::nullopt},
      {"owner-name: Jane Roe", Level1Label::kRegistrant,
       Level2Label::kName},
      {"owner-email: jane@example.net", Level1Label::kRegistrant,
       Level2Label::kEmail},
  }));
  return corpus;
}

class CascadeTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    corpus_ = new std::vector<LabeledRecord>(MakeCorpus(150, 99, 0.25));
    crf_ = new whois::WhoisParser(whois::WhoisParser::Train(*corpus_));
  }
  static void TearDownTestSuite() {
    delete crf_;
    delete corpus_;
    crf_ = nullptr;
    corpus_ = nullptr;
  }

  static std::vector<LabeledRecord>* corpus_;
  static whois::WhoisParser* crf_;
};

std::vector<LabeledRecord>* CascadeTest::corpus_ = nullptr;
whois::WhoisParser* CascadeTest::crf_ = nullptr;

TEST_F(CascadeTest, KeyFieldValuesShape) {
  ParsedWhois p;
  p.domain_name = "a.com";
  p.registrant.email = "x@y.z";
  const auto values = KeyFieldValues(p);
  ASSERT_EQ(values.size(), kNumKeyFields);
  EXPECT_EQ(values[0], "a.com");
  EXPECT_TRUE(KeyFieldsAgree(p, p));
  ParsedWhois q = p;
  q.registrar = "other";
  EXPECT_FALSE(KeyFieldsAgree(p, q));
}

TEST_F(CascadeTest, DispatchTierSelection) {
  const CascadeParser cascade(crf_, HandCorpus());
  whois::ParseWorkspace ws;

  // Exact known format (new values, same schema): template tier.
  const auto known = MakeRecord({
      {"Domain Name: fresh.com", Level1Label::kDomain, std::nullopt},
      {"Registrar: Alpha Registrations", Level1Label::kRegistrar,
       std::nullopt},
      {"Creation Date: 2011-11-11", Level1Label::kDate, std::nullopt},
      {"Registrant Name: Fresh Person", Level1Label::kRegistrant,
       Level2Label::kName},
      {"Registrant Email: fresh@fresh.com", Level1Label::kRegistrant,
       Level2Label::kEmail},
  });
  const CascadeResult hit = cascade.Parse(known.text, ws);
  EXPECT_EQ(hit.tier, Tier::kTemplate);
  EXPECT_EQ(hit.template_fallthrough, Fallthrough::kNone);
  EXPECT_EQ(hit.parsed.domain_name, "fresh.com");
  EXPECT_EQ(hit.parsed.registrant.name, "Fresh Person");
  EXPECT_EQ(hit.parsed.line_labels, known.labels);

  // Titles from two different templates: no single template matches, but
  // every title is known to the rule base -> rule tier.
  const CascadeResult mixed = cascade.Parse(
      "Domain Name: mixed.org\n"
      "sponsor: Beta LLC\n"
      "Creation Date: 2015-01-02\n"
      "owner-email: m@mixed.org\n",
      ws);
  EXPECT_EQ(mixed.tier, Tier::kRule);
  EXPECT_EQ(mixed.template_fallthrough, Fallthrough::kTemplateMiss);
  EXPECT_EQ(mixed.rule_fallthrough, Fallthrough::kNone);
  EXPECT_EQ(mixed.parsed.domain_name, "mixed.org");
  EXPECT_EQ(mixed.parsed.registrar, "Beta LLC");

  // A title no rule has ever seen: both cheap tiers fail closed.
  const CascadeResult unknown = cascade.Parse(
      "Domain Name: odd.net\n"
      "Flux Capacitor: enabled\n"
      "Creation Date: 2015-01-02\n",
      ws);
  EXPECT_EQ(unknown.tier, Tier::kCrf);
  EXPECT_EQ(unknown.template_fallthrough, Fallthrough::kTemplateMiss);
  EXPECT_EQ(unknown.rule_fallthrough, Fallthrough::kRuleUnknownTitles);

  // Mostly free text the rule base can only guess at: low learned
  // coverage -> CRF.
  const CascadeResult freeform = cascade.Parse(
      "Domain Name: prose.net\n"
      "this line is unstructured prose about nothing\n"
      "and so is this one with more words in it\n"
      "plus a third line of filler text here\n",
      ws);
  EXPECT_EQ(freeform.tier, Tier::kCrf);
  EXPECT_EQ(freeform.rule_fallthrough, Fallthrough::kRuleLowCoverage);
}

TEST_F(CascadeTest, TemplateMissFallsThroughFailClosed) {
  const CascadeParser cascade(crf_, HandCorpus());
  whois::ParseWorkspace ws;
  // A drifted schema (one renamed field) must never be claimed by the
  // template tier.
  const CascadeResult result = cascade.Parse(
      "Domain Name: renamed.com\n"
      "Registrar Of Record: Alpha Registrations\n"
      "Creation Date: 2011-11-11\n",
      ws);
  EXPECT_NE(result.tier, Tier::kTemplate);
  EXPECT_EQ(result.template_fallthrough, Fallthrough::kTemplateMiss);
}

TEST_F(CascadeTest, CascadeMatchesPureCrfAccuracy) {
  const CascadeParser cascade(crf_, *corpus_);
  whois::ParseWorkspace ws;

  size_t cheap = 0;
  size_t cascade_agree = 0, crf_agree = 0, total_fields = 0;
  for (const LabeledRecord& record : *corpus_) {
    const CascadeResult result = cascade.Parse(record.text, ws);
    if (result.tier != Tier::kCrf) ++cheap;
    const ParsedWhois pure = crf_->Parse(record.text, ws);
    const ParsedWhois gold = GoldParse(record);
    cascade_agree += CountAgreeingKeyFields(result.parsed, gold);
    crf_agree += CountAgreeingKeyFields(pure, gold);
    total_fields += kNumKeyFields;
  }
  // The cascade must actually divert records off the CRF path...
  EXPECT_GT(cheap, corpus_->size() / 2);
  // ...at equal field-level accuracy (cheap tiers built from the same
  // corpus label their own formats exactly; small slack for genuinely
  // ambiguous lines).
  const double cascade_acc =
      static_cast<double>(cascade_agree) / static_cast<double>(total_fields);
  const double crf_acc =
      static_cast<double>(crf_agree) / static_cast<double>(total_fields);
  EXPECT_GE(cascade_acc, crf_acc - 0.01);
}

TEST_F(CascadeTest, ShadowSamplingCountsDisagreements) {
  // Cheap tiers built from a *corrupted* corpus: every date line labeled
  // null, so the cheap path never extracts dates while the CRF (trained on
  // the correct corpus) does — guaranteed field disagreements on any
  // record with a date the CRF finds.
  std::vector<LabeledRecord> corrupted = *corpus_;
  for (LabeledRecord& record : corrupted) {
    for (Level1Label& label : record.labels) {
      if (label == Level1Label::kDate) label = Level1Label::kNull;
    }
  }
  CascadeOptions options;
  options.shadow_sample_rate = 1.0;  // shadow every cheap-path record
  const CascadeParser cascade(crf_, corrupted, options);
  whois::ParseWorkspace ws;

  size_t cheap = 0, sampled = 0, disagreed = 0;
  for (const LabeledRecord& record : *corpus_) {
    const CascadeResult result = cascade.Parse(record.text, ws);
    if (result.tier == Tier::kCrf) continue;
    ++cheap;
    if (result.shadow_sampled) ++sampled;
    if (result.shadow_disagreed) ++disagreed;
  }
  ASSERT_GT(cheap, 0u);
  EXPECT_EQ(sampled, cheap);  // rate 1.0: every cheap record is shadowed
  EXPECT_GT(disagreed, cheap / 2);

  // The per-registrar snapshot must account for exactly the same events.
  uint64_t snapshot_samples = 0, snapshot_disagreements = 0;
  for (const auto& [registrar, stats] : cascade.ShadowSnapshot()) {
    snapshot_samples += stats.samples;
    snapshot_disagreements += stats.disagreements;
  }
  EXPECT_EQ(snapshot_samples, sampled);
  EXPECT_EQ(snapshot_disagreements, disagreed);

  // And the registry counters can never lag the per-instance tallies.
  const auto& registry = obs::Registry::Global();
  uint64_t metric_samples = 0;
  for (const auto& [registrar, stats] : cascade.ShadowSnapshot()) {
    metric_samples += registry.CounterValue(
        "whoiscrf_cascade_shadow_samples_total", {{"registrar", registrar}});
  }
  EXPECT_GE(metric_samples, snapshot_samples);
}

TEST_F(CascadeTest, ShadowSamplingRateIsDeterministic) {
  CascadeOptions options;
  options.shadow_sample_rate = 0.25;  // every 4th cheap-path record
  const CascadeParser cascade(crf_, *corpus_, options);
  whois::ParseWorkspace ws;
  size_t cheap = 0, sampled = 0;
  for (const LabeledRecord& record : *corpus_) {
    const CascadeResult result = cascade.Parse(record.text, ws);
    if (result.tier == Tier::kCrf) continue;
    ++cheap;
    if (result.shadow_sampled) ++sampled;
  }
  ASSERT_GT(cheap, 4u);
  EXPECT_EQ(sampled, (cheap + 3) / 4);  // ticks 0, 4, 8, ...
}

TEST_F(CascadeTest, ConcurrentParseIsSafe) {
  CascadeOptions options;
  options.shadow_sample_rate = 0.5;  // exercise the shadow lock under TSan
  const CascadeParser cascade(crf_, *corpus_, options);

  constexpr size_t kWorkers = 4;
  constexpr size_t kPerThread = 30;
  std::vector<std::thread> threads;
  std::vector<size_t> cheap_counts(kWorkers, 0);
  for (size_t t = 0; t < kWorkers; ++t) {
    threads.emplace_back([&, t] {
      whois::ParseWorkspace ws;
      for (size_t i = 0; i < kPerThread; ++i) {
        const LabeledRecord& record = (*corpus_)[(t * kPerThread + i) %
                                                 corpus_->size()];
        const CascadeResult result = cascade.Parse(record.text, ws);
        if (result.tier != Tier::kCrf) ++cheap_counts[t];
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  size_t cheap = 0;
  for (size_t c : cheap_counts) cheap += c;
  uint64_t snapshot_samples = 0;
  for (const auto& [registrar, stats] : cascade.ShadowSnapshot()) {
    snapshot_samples += stats.samples;
  }
  // Every 2nd cheap-path record across all threads was sampled.
  EXPECT_EQ(snapshot_samples, (cheap + 1) / 2);
}

// Checks the Prometheus text exposition format line by line: comments,
// or `name{label="value",...} number` where label values use only the
// \\, \" and \n escapes. Returns the first offending line, or "".
std::string FirstInvalidExpositionLine(const std::string& text) {
  const auto name_char = [](char c, bool first) {
    return std::isalpha(static_cast<unsigned char>(c)) || c == '_' ||
           c == ':' || (!first && std::isdigit(static_cast<unsigned char>(c)));
  };
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    size_t pos = 0;
    while (pos < line.size() && name_char(line[pos], pos == 0)) ++pos;
    if (pos == 0) return line;
    if (pos < line.size() && line[pos] == '{') {
      ++pos;
      bool closed = false;
      while (pos < line.size() && !closed) {
        const size_t name_start = pos;
        while (pos < line.size() && name_char(line[pos], pos == name_start)) {
          ++pos;
        }
        if (pos == name_start || line.compare(pos, 2, "=\"") != 0) {
          return line;
        }
        pos += 2;
        bool value_closed = false;
        while (pos < line.size() && !value_closed) {
          const char c = line[pos++];
          if (c == '"') {
            value_closed = true;
          } else if (c == '\\') {
            if (pos == line.size()) return line;
            const char e = line[pos++];
            if (e != '\\' && e != '"' && e != 'n') return line;
          }
        }
        if (!value_closed || pos == line.size()) return line;
        if (line[pos] == ',') {
          ++pos;
        } else if (line[pos] == '}') {
          ++pos;
          closed = true;
        } else {
          return line;
        }
      }
      if (!closed) return line;
    }
    if (pos >= line.size() || line[pos] != ' ') return line;
    const std::string value = line.substr(pos + 1);
    char* end = nullptr;
    std::strtod(value.c_str(), &end);
    if (value.empty() || end != value.c_str() + value.size()) return line;
  }
  return "";
}

TEST_F(CascadeTest, ShadowLabelsStayBoundedUnderHostileRegistrars) {
  // 10k distinct registrar strings full of exposition-format syntax. A raw
  // newline cannot reach a parsed registrar (it would end the record line),
  // so the hostile bytes here are quotes, backslashes and a literal "\n"
  // escape look-alike; raw newlines in label values are covered by
  // ExporterTest.PrometheusLabelValuesAreEscapedAndRoundTrip.
  CascadeOptions options;
  options.shadow_sample_rate = 1.0;
  const CascadeParser cascade(crf_, HandCorpus(), options);
  auto& registry = obs::Registry::Global();
  const uint64_t overflow_before = registry.CounterValue(
      "whoiscrf_cascade_shadow_label_overflow_total", {});
  whois::ParseWorkspace ws;
  size_t sampled = 0, disagreed = 0;
  for (size_t i = 0; i < 10000; ++i) {
    const std::string text =
        "Domain Name: example.com\n"
        "Registrar: Evil \"R" + std::to_string(i) + "\" \\n {x=\"}\\\n"
        "Creation Date: 2001-05-10\n"
        "Registrant Name: John Doe\n"
        "Registrant Email: john@example.com\n";
    const CascadeResult result = cascade.Parse(text, ws);
    ASSERT_EQ(result.tier, Tier::kTemplate) << text;
    ASSERT_NE(result.parsed.registrar.find('"'), std::string::npos);
    if (result.shadow_sampled) ++sampled;
    if (result.shadow_disagreed) ++disagreed;
  }
  ASSERT_EQ(sampled, 10000u);

  const auto snapshot = cascade.ShadowSnapshot();
  EXPECT_EQ(snapshot.size(), CascadeParser::kMaxShadowLabels + 1);
  ASSERT_EQ(snapshot.count("(other)"), 1u);
  uint64_t samples = 0, disagreements = 0;
  for (const auto& [registrar, stats] : snapshot) {
    samples += stats.samples;
    disagreements += stats.disagreements;
  }
  // Folding loses no sample: the totals are every shadow sample.
  EXPECT_EQ(samples, sampled);
  EXPECT_EQ(disagreements, disagreed);
  const uint64_t folded = snapshot.at("(other)").samples;
  EXPECT_EQ(folded, 10000u - CascadeParser::kMaxShadowLabels);
  EXPECT_EQ(registry.CounterValue(
                "whoiscrf_cascade_shadow_label_overflow_total", {}) -
                overflow_before,
            folded);

  const std::string exposition = registry.RenderPrometheus();
  EXPECT_EQ(FirstInvalidExpositionLine(exposition), "");
  EXPECT_NE(exposition.find("registrar=\"Evil \\\"R0\\\" \\\\n {x=\\\"}\\\\\""),
            std::string::npos);
}

}  // namespace
}  // namespace whoiscrf::cascade
