// WHOIS domain layer: label spaces, labeled-record IO, year extraction,
// field extraction, and the two-level parser on a tiny corpus.
#include <cmath>
#include <sstream>

#include <gtest/gtest.h>

#include "datagen/corpus_gen.h"
#include "util/checkpoint.h"
#include "util/little_endian.h"
#include "whois/labels.h"
#include "whois/record.h"
#include "whois/training_data.h"
#include "whois/whois_parser.h"

namespace whoiscrf::whois {
namespace {

TEST(LabelsTest, NamesRoundTrip) {
  for (int i = 0; i < kNumLevel1Labels; ++i) {
    const auto label = static_cast<Level1Label>(i);
    EXPECT_EQ(Level1FromName(Level1Name(label)), label);
  }
  for (int i = 0; i < kNumLevel2Labels; ++i) {
    const auto label = static_cast<Level2Label>(i);
    EXPECT_EQ(Level2FromName(Level2Name(label)), label);
  }
  EXPECT_FALSE(Level1FromName("bogus").has_value());
  EXPECT_FALSE(Level2FromName("bogus").has_value());
  EXPECT_EQ(Level1Names().size(), static_cast<size_t>(kNumLevel1Labels));
  EXPECT_EQ(Level2Names().size(), static_cast<size_t>(kNumLevel2Labels));
}

TEST(ExtractYearTest, CommonFormats) {
  EXPECT_EQ(ExtractYear("2014-03-02T18:11:03Z"), 2014);
  EXPECT_EQ(ExtractYear("02-Mar-2014"), 2014);
  EXPECT_EQ(ExtractYear("03/02/2014"), 2014);
  EXPECT_EQ(ExtractYear("1997/05/01"), 1997);
  EXPECT_EQ(ExtractYear("no year here"), std::nullopt);
  EXPECT_EQ(ExtractYear("12345"), std::nullopt);  // not a standalone year
  EXPECT_EQ(ExtractYear(""), std::nullopt);
}

LabeledRecord MakeSample() {
  LabeledRecord record;
  record.domain = "example.com";
  record.text =
      "Domain Name: EXAMPLE.COM\n"
      "Registrar: GoDaddy.com, LLC\n"
      "Creation Date: 2010-04-01T00:00:00Z\n"
      "\n"
      "Registrant Name: John Smith\n"
      "Registrant Country: US\n"
      "Admin Name: Jane Doe\n"
      "The data in this record is provided for information only.\n";
  record.labels = {Level1Label::kDomain,     Level1Label::kRegistrar,
                   Level1Label::kDate,       Level1Label::kRegistrant,
                   Level1Label::kRegistrant, Level1Label::kOther,
                   Level1Label::kNull};
  record.sub_labels = {std::nullopt,
                       std::nullopt,
                       std::nullopt,
                       Level2Label::kName,
                       Level2Label::kCountry,
                       std::nullopt,
                       std::nullopt};
  return record;
}

TEST(LabeledRecordTest, ValidateChecksAlignment) {
  LabeledRecord record = MakeSample();
  record.Validate();  // no throw
  record.labels.pop_back();
  record.sub_labels.pop_back();
  EXPECT_THROW(record.Validate(), std::invalid_argument);
}

TEST(TrainingDataIoTest, RoundTrip) {
  const std::vector<LabeledRecord> records = {MakeSample(), MakeSample()};
  std::stringstream ss;
  WriteLabeledRecords(ss, records);
  const auto loaded = ReadLabeledRecords(ss);
  ASSERT_EQ(loaded.size(), 2u);
  EXPECT_EQ(loaded[0].domain, "example.com");
  EXPECT_EQ(loaded[0].labels, records[0].labels);
  EXPECT_EQ(loaded[0].sub_labels, records[0].sub_labels);
  // The reconstructed text preserves every labeled line.
  EXPECT_NE(loaded[0].text.find("Registrant Name: John Smith"),
            std::string::npos);
}

TEST(TrainingDataIoTest, RejectsMalformedInput) {
  std::stringstream bad1("not a record\n");
  EXPECT_THROW(ReadLabeledRecords(bad1), std::runtime_error);
  std::stringstream bad2("@ x.com\nbogus-label\tDomain: x\n%%\n");
  EXPECT_THROW(ReadLabeledRecords(bad2), std::runtime_error);
  std::stringstream bad3("@ x.com\ndomain\tDomain: x\n");  // unterminated
  EXPECT_THROW(ReadLabeledRecords(bad3), std::runtime_error);
}

TEST(TrainingDataIoTest, InstanceConversion) {
  const text::Tokenizer tokenizer;
  const LabeledRecord record = MakeSample();
  const crf::Instance level1 = ToLevel1Instance(record, tokenizer);
  EXPECT_EQ(level1.lines.size(), 7u);
  EXPECT_EQ(level1.labels.size(), 7u);
  EXPECT_EQ(level1.labels[0], static_cast<int>(Level1Label::kDomain));

  const crf::Instance level2 = ToLevel2Instance(record, tokenizer);
  EXPECT_EQ(level2.lines.size(), 2u);
  EXPECT_EQ(level2.labels[0], static_cast<int>(Level2Label::kName));
  EXPECT_EQ(level2.labels[1], static_cast<int>(Level2Label::kCountry));
}

TEST(ExtractFieldsTest, RoutesValuesBySlotAndKeyword) {
  const LabeledRecord record = MakeSample();
  const auto lines = text::SplitRecord(record.text);
  ParsedWhois parsed;
  std::vector<Level2Label> subs = {Level2Label::kName, Level2Label::kCountry};
  ExtractFields(lines, record.labels, subs, parsed);
  EXPECT_EQ(parsed.domain_name, "EXAMPLE.COM");
  EXPECT_EQ(parsed.registrar, "GoDaddy.com, LLC");
  EXPECT_EQ(parsed.created, "2010-04-01T00:00:00Z");
  EXPECT_EQ(parsed.registrant.name, "John Smith");
  EXPECT_EQ(parsed.registrant.country, "US");
}

class WhoisParserSmallCorpusTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    datagen::CorpusOptions options;
    options.size = 120;
    options.seed = 99;
    datagen::CorpusGenerator generator(options);
    std::vector<LabeledRecord> train;
    for (size_t i = 0; i < 120; ++i) {
      train.push_back(generator.Generate(i).thick);
    }
    parser_ = new WhoisParser(WhoisParser::Train(train));
    generator_ = new datagen::CorpusGenerator(options);
  }
  static void TearDownTestSuite() {
    delete parser_;
    delete generator_;
    parser_ = nullptr;
    generator_ = nullptr;
  }
  static WhoisParser* parser_;
  static datagen::CorpusGenerator* generator_;
};

WhoisParser* WhoisParserSmallCorpusTest::parser_ = nullptr;
datagen::CorpusGenerator* WhoisParserSmallCorpusTest::generator_ = nullptr;

TEST_F(WhoisParserSmallCorpusTest, HighLineAccuracyOnHeldOut) {
  size_t wrong = 0;
  size_t total = 0;
  for (size_t i = 1000; i < 1080; ++i) {
    const auto domain = generator_->Generate(i);
    const auto labels = parser_->LabelLines(domain.thick.text);
    ASSERT_EQ(labels.size(), domain.thick.labels.size());
    for (size_t t = 0; t < labels.size(); ++t) {
      ++total;
      if (labels[t] != domain.thick.labels[t]) ++wrong;
    }
  }
  EXPECT_LT(static_cast<double>(wrong) / static_cast<double>(total), 0.03)
      << wrong << "/" << total;
}

TEST_F(WhoisParserSmallCorpusTest, ExtractsRegistrantFields) {
  size_t name_hits = 0;
  size_t email_hits = 0;
  size_t checked = 0;
  for (size_t i = 2000; i < 2060; ++i) {
    const auto domain = generator_->Generate(i);
    const ParsedWhois parsed = parser_->Parse(domain.thick.text);
    ++checked;
    if (parsed.registrant.name == domain.facts.registrant.name) ++name_hits;
    if (parsed.registrant.email == domain.facts.registrant.email ||
        domain.facts.registrant.email.empty()) {
      ++email_hits;
    }
  }
  EXPECT_GT(static_cast<double>(name_hits) / checked, 0.85);
  EXPECT_GT(static_cast<double>(email_hits) / checked, 0.85);
}

TEST_F(WhoisParserSmallCorpusTest, ParseConfidenceIsFiniteLogProb) {
  const auto domain = generator_->Generate(5000);
  const ParsedWhois parsed = parser_->Parse(domain.thick.text);
  EXPECT_LE(parsed.log_prob, 1e-9);
  EXPECT_TRUE(std::isfinite(parsed.log_prob));
}

TEST_F(WhoisParserSmallCorpusTest, SaveLoadPreservesBehavior) {
  std::stringstream ss;
  parser_->Save(ss);
  const WhoisParser loaded = WhoisParser::Load(ss);
  for (size_t i = 3000; i < 3010; ++i) {
    const auto domain = generator_->Generate(i);
    EXPECT_EQ(loaded.LabelLines(domain.thick.text),
              parser_->LabelLines(domain.thick.text));
  }
}

// A `/proc/self/status` field in kB ("VmHWM"), -1 if absent.
long StatusKb(const std::string& field) {
  std::string status;
  if (!util::ReadFileToString("/proc/self/status", status)) return -1;
  const size_t at = status.find("\n" + field + ":");
  if (at == std::string::npos) return -1;
  return std::strtol(status.c_str() + at + field.size() + 2, nullptr, 10);
}

// Model streams whose length and count words claim gigabytes the stream
// does not hold. Each must fail as a truncated stream after growing the
// process by far less than the claim: a loader that sizes a buffer from
// the word first zeroes ~4 GiB for the 16-byte case.
TEST(WhoisParserLoadTest, HostileCountsFailTruncatedBeforeAllocating) {
  constexpr uint32_t kCrfMagic = 0x57435246;     // "WCRF"
  constexpr uint32_t kParserMagic = 0x53525057;  // "WPRS"
  const auto u32s = [](std::initializer_list<uint32_t> words) {
    std::ostringstream os;
    for (uint32_t w : words) util::le::WriteU32(os, w);
    return os.str();
  };
  // Two labels, "a" and "b".
  const std::string two_labels = u32s({kCrfMagic, 2, 2, 1}) + "a" +
                                 u32s({1}) + "b";
  std::string many_labels = u32s({kCrfMagic, 2, 40000});
  for (int i = 0; i < 40000; ++i) many_labels += u32s({0});
  // 40000 labels, no attributes or slots: 1.6e9 weights, claimed exactly.
  many_labels += u32s({0, 0, 1600000000u});
  const std::string cases[] = {
      // A label string of ~4 GiB.
      u32s({kCrfMagic, 2, 1, 0xFFFFFFF0u}),
      // The same behind a parser options header.
      u32s({kParserMagic, 1, 64, 7, 1, 0, 0, 1, 0, kCrfMagic, 2, 1,
            0xFFFFFFF0u}),
      // 2^32 - 1 labels.
      u32s({kCrfMagic, 2, 0xFFFFFFFFu, 0}),
      // 2^32 - 1 vocabulary entries, the first ~4 GiB long.
      two_labels + u32s({0xFFFFFFFFu, 0xFFFFFFF0u}),
      // 2^32 - 1 transition slots.
      two_labels + u32s({0, 0xFFFFFFFFu, 1, 2}),
      many_labels,
  };
  const long hwm_before = StatusKb("VmHWM");
  ASSERT_GT(hwm_before, 0);
  for (size_t c = 0; c < std::size(cases); ++c) {
    SCOPED_TRACE(c);
    std::istringstream is(cases[c]);
    try {
      WhoisParser::Load(is);
      ADD_FAILURE() << "hostile model loaded";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("truncated stream"),
                std::string::npos)
          << e.what();
    }
  }
  EXPECT_LT(StatusKb("VmHWM") - hwm_before, 64 * 1024);
}

TEST_F(WhoisParserSmallCorpusTest, ExtractsOtherContactAsProxy) {
  // A record whose registrant block is absent: the admin contact serves as
  // the registrant proxy (§3.2).
  const std::string record =
      "Domain Name: PROXYLESS.COM\n"
      "Registrar: GoDaddy.com, LLC\n"
      "Creation Date: 2012-02-02T00:00:00Z\n"
      "Admin Name: Alice Proxy\n"
      "Admin Phone: +1.8585550000\n"
      "Admin Email: alice@example.com\n";
  const ParsedWhois parsed = parser_->Parse(record);
  EXPECT_TRUE(parsed.registrant.Empty());
  EXPECT_EQ(parsed.other_contact.name, "Alice Proxy");
  EXPECT_EQ(parsed.other_contact.email, "alice@example.com");
  EXPECT_EQ(parsed.BestRegistrantProxy().name, "Alice Proxy");
}

TEST_F(WhoisParserSmallCorpusTest, OtherContactDoesNotShadowRegistrant) {
  const auto domain = generator_->Generate(4242);
  const ParsedWhois parsed = parser_->Parse(domain.thick.text);
  if (!parsed.registrant.Empty()) {
    EXPECT_EQ(&parsed.BestRegistrantProxy(), &parsed.registrant);
  }
}

TEST_F(WhoisParserSmallCorpusTest, EmptyRecordYieldsEmptyParse) {
  const ParsedWhois parsed = parser_->Parse("");
  EXPECT_TRUE(parsed.line_labels.empty());
  EXPECT_TRUE(parsed.registrant.Empty());
}

}  // namespace
}  // namespace whoiscrf::whois
