// Robustness: the trained parser and the text pipeline must survive
// arbitrary, hostile, or malformed input without crashing — WHOIS servers
// return garbage in the wild (truncation, binary noise, absurd line
// lengths), and a production parser sees all of it.
#include <cctype>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "baselines/rule_parser.h"
#include "baselines/template_parser.h"
#include "crf/tagger.h"
#include "datagen/corpus_gen.h"
#include "text/line_splitter.h"
#include "util/random.h"
#include "whois/json_export.h"
#include "whois/whois_parser.h"

namespace whoiscrf {
namespace {

class RobustnessTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    datagen::CorpusOptions options;
    options.size = 150;
    options.seed = 555;
    datagen::CorpusGenerator generator(options);
    std::vector<whois::LabeledRecord> train;
    for (size_t i = 0; i < 150; ++i) {
      train.push_back(generator.Generate(i).thick);
    }
    parser_ = new whois::WhoisParser(whois::WhoisParser::Train(train));
    rules_ = new baselines::RuleBasedParser(
        baselines::RuleBasedParser::Build(train));
    templates_ = new baselines::TemplateBasedParser(
        baselines::TemplateBasedParser::Build(train));
  }
  static void TearDownTestSuite() {
    delete parser_;
    delete rules_;
    delete templates_;
  }

  // Parses with all three parsers; asserts label counts line up and the
  // JSON export is produced. Any crash/throw fails the test.
  static void ParseEverything(const std::string& input) {
    const size_t labeled_lines = text::SplitRecord(input).size();
    const whois::ParsedWhois parsed = parser_->Parse(input);
    EXPECT_EQ(parsed.line_labels.size(), labeled_lines);
    EXPECT_FALSE(whois::ToJson(parsed).empty());
    EXPECT_FALSE(whois::ToRdapJson(parsed).empty());
    EXPECT_EQ(rules_->LabelLines(input).size(), labeled_lines);
    (void)templates_->Parse(input);
  }

  static whois::WhoisParser* parser_;
  static baselines::RuleBasedParser* rules_;
  static baselines::TemplateBasedParser* templates_;
};

whois::WhoisParser* RobustnessTest::parser_ = nullptr;
baselines::RuleBasedParser* RobustnessTest::rules_ = nullptr;
baselines::TemplateBasedParser* RobustnessTest::templates_ = nullptr;

TEST_F(RobustnessTest, EmptyAndWhitespaceOnly) {
  ParseEverything("");
  ParseEverything("\n\n\n");
  ParseEverything("   \t  \n \r\n");
}

TEST_F(RobustnessTest, SeparatorEdgeCases) {
  ParseEverything(":\n::\n:::value\n=\n[]\n[x]\n...\n......:\n");
  ParseEverything("a:b:c:d:e\nkey==value\n[unclosed bracket\n");
}

TEST_F(RobustnessTest, BinaryGarbage) {
  util::Rng rng(99);
  for (int trial = 0; trial < 20; ++trial) {
    std::string noise;
    const int length = static_cast<int>(rng.UniformInt(1, 2000));
    for (int i = 0; i < length; ++i) {
      // Any byte except NUL (WHOIS bodies are C-string-ish in practice).
      char c = static_cast<char>(rng.UniformInt(1, 255));
      noise.push_back(c);
    }
    ParseEverything(noise);
  }
}

TEST_F(RobustnessTest, PathologicallyLongLines) {
  std::string long_line(100'000, 'a');
  ParseEverything("Registrant Name: " + long_line + "\n");
  std::string many_words;
  for (int i = 0; i < 5'000; ++i) many_words += "word" + std::to_string(i) + " ";
  ParseEverything(many_words + "\n");
}

TEST_F(RobustnessTest, ManyLines) {
  std::string record;
  for (int i = 0; i < 3'000; ++i) {
    record += "Field" + std::to_string(i % 7) + ": value\n";
  }
  ParseEverything(record);
}

TEST_F(RobustnessTest, TruncatedRealRecords) {
  datagen::CorpusOptions options;
  options.size = 10;
  options.seed = 556;
  datagen::CorpusGenerator generator(options);
  for (size_t i = 0; i < 10; ++i) {
    const std::string full = generator.Generate(i).thick.text;
    // Cut at every eighth of the record, mid-line or not.
    for (size_t num = 1; num < 8; ++num) {
      ParseEverything(full.substr(0, full.size() * num / 8));
    }
  }
}

TEST_F(RobustnessTest, MixedLineEndingsAndUnicode) {
  ParseEverything("Domain Name: X.COM\r\nRegistrant Name: Jörg Müller\rEmail: j@x.de\n");
  ParseEverything("Registrant Name: \xE5\xBC\xA0\xE4\xBC\x9F\n");  // UTF-8 CJK
}

// Lexical RFC 8259 check of one exported body: well-formed UTF-8 (decoded
// by code-point ranges: no overlong forms, surrogates or values above
// U+10FFFF), no raw control bytes or unknown escapes inside strings,
// balanced brackets, and nothing outside strings but structure, numbers
// and literals.
bool IsValidUtf8Json(std::string_view s) {
  std::string open;  // unclosed '{' / '['
  bool in_string = false;
  for (size_t i = 0; i < s.size();) {
    const auto c = static_cast<unsigned char>(s[i++]);
    if (c >= 0x80) {
      const size_t len = c >= 0xF0 ? 4 : c >= 0xE0 ? 3 : c >= 0xC0 ? 2 : 0;
      if (!in_string || len == 0 || i - 1 + len > s.size()) return false;
      uint32_t cp = c & (0x7F >> len);
      for (size_t k = 1; k < len; ++k, ++i) {
        const auto b = static_cast<unsigned char>(s[i]);
        if ((b & 0xC0) != 0x80) return false;
        cp = (cp << 6) | (b & 0x3F);
      }
      const uint32_t min_cp[] = {0, 0, 0x80, 0x800, 0x10000};
      if (cp < min_cp[len] || cp > 0x10FFFF) return false;
      if (cp >= 0xD800 && cp <= 0xDFFF) return false;
    } else if (in_string) {
      if (c < 0x20) return false;
      if (c == '"') in_string = false;
      if (c != '\\') continue;
      if (i >= s.size()) return false;
      const char e = s[i++];
      if (e == 'u') {
        for (int k = 0; k < 4; ++k, ++i) {
          if (i >= s.size()) return false;
          if (!std::isxdigit(static_cast<unsigned char>(s[i]))) return false;
        }
      } else if (e == '\0' || std::strchr("\"\\/bfnrt", e) == nullptr) {
        return false;
      }
    } else if (c == '"') {
      in_string = true;
    } else if (c == '{' || c == '[') {
      open += static_cast<char>(c);
    } else if (c == '}' || c == ']') {
      if (open.empty() || open.back() != (c == '}' ? '{' : '[')) return false;
      open.pop_back();
    } else if (c == '\0' ||
               std::strchr(",:-+.eE0123456789truefalsn", c) == nullptr) {
      return false;
    }
  }
  return !in_string && open.empty();
}

TEST_F(RobustnessTest, JsonOfMutatedRecordsIsValidUtf8Json) {
  // Property: whatever bytes a record holds, every JSON body the parser's
  // export emits is valid UTF-8 and valid JSON. Mutations put high bytes,
  // cut multi-byte sequences, control bytes and quotes into generated
  // records, mostly inside values so they reach the extracted fields.
  datagen::CorpusOptions options;
  options.size = 40;
  options.seed = 557;
  datagen::CorpusGenerator generator(options);
  util::Rng rng(2026);
  const std::vector<std::string> inserts = {
      "\xc3\xbc", "\xe2\x82\xac", "\xf0\x9f\x98\x80", "\xfc", "\xc0\xaf",
      "\xed\xa0\x80", "\xf4\x90\x80\x80", "\xe2\x82", "\x80", "\"", "\\",
      "\x01", "\t"};
  // Plus a Latin-1 record, whose 0xF6/0xFC bytes are never valid UTF-8.
  std::vector<std::string> records = {
      "Domain Name: EXAMPLE.DE\nRegistrant Name: J\xf6rg M\xfcller\n"
      "Registrant City: M\xfcnchen\nRegistrant Country: DE\n"};
  for (size_t i = 0; i < 40; ++i) {
    std::string record = generator.Generate(i).thick.text;
    const int mutations = static_cast<int>(rng.UniformInt(1, 12));
    for (int m = 0; m < mutations; ++m) {
      const size_t at = rng.UniformInt(0, record.size());
      if (rng.Bernoulli(0.3) && at < record.size()) {
        record[at] = static_cast<char>(rng.UniformInt(0x80, 0xFF));
      } else {
        record.insert(at, inserts[rng.UniformInt(0, inserts.size() - 1)]);
      }
    }
    records.push_back(std::move(record));
  }
  for (size_t i = 0; i < records.size(); ++i) {
    const whois::ParsedWhois parsed = parser_->Parse(records[i]);
    for (const std::string& body :
         {whois::ToJson(parsed), whois::ToRdapJson(parsed)}) {
      EXPECT_TRUE(IsValidUtf8Json(body)) << "record " << i << ": " << body;
    }
  }
  // The Latin-1 city reaches the output, as U+FFFD.
  const std::string latin1 = whois::ToJson(parser_->Parse(records[0]));
  EXPECT_NE(latin1.find("M\xef\xbf\xbdnchen"), std::string::npos) << latin1;
}

TEST_F(RobustnessTest, PosteriorDecodingAgreesOnConfidentInput) {
  // On clean, in-distribution records posterior decoding and Viterbi agree
  // almost everywhere (they only differ on genuinely ambiguous lines).
  datagen::CorpusOptions options;
  options.size = 30;
  options.seed = 557;
  datagen::CorpusGenerator generator(options);
  const text::Tokenizer tokenizer;
  const crf::Tagger tagger(parser_->level1_model());
  size_t agree = 0;
  size_t total = 0;
  for (size_t i = 0; i < 30; ++i) {
    const auto record = generator.Generate(i).thick;
    std::vector<text::LineAttributes> attrs;
    for (const auto& line : text::SplitRecord(record.text)) {
      attrs.push_back(tokenizer.Extract(line));
    }
    const auto viterbi = tagger.Tag(attrs);
    const auto posterior = tagger.TagPosterior(attrs);
    ASSERT_EQ(viterbi.size(), posterior.labels.size());
    for (size_t t = 0; t < viterbi.size(); ++t) {
      ++total;
      if (viterbi[t] == posterior.labels[t]) ++agree;
    }
    // Posterior confidences are valid probabilities.
    for (double c : posterior.confidences) {
      EXPECT_GE(c, 0.0);
      EXPECT_LE(c, 1.0 + 1e-9);
    }
  }
  EXPECT_GT(static_cast<double>(agree) / static_cast<double>(total), 0.99);
}

}  // namespace
}  // namespace whoiscrf
