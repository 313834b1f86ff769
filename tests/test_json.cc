// JSON writer and WHOIS record export (plain + RDAP-flavored).
#include <cfloat>
#include <cstdint>
#include <climits>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <random>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "cascade/cascade.h"
#include "datagen/corpus_gen.h"
#include "util/json.h"
#include "whois/json_export.h"
#include "whois/whois_parser.h"

namespace whoiscrf {
namespace {

TEST(JsonWriterTest, ObjectWithFields) {
  util::JsonWriter json;
  json.BeginObject()
      .Field("a", "x")
      .Key("b").Int(42)
      .Key("c").Bool(true)
      .Key("d").Null()
      .EndObject();
  EXPECT_EQ(json.str(), R"({"a":"x","b":42,"c":true,"d":null})");
}

TEST(JsonWriterTest, NestedStructures) {
  util::JsonWriter json;
  json.BeginObject()
      .Key("list").BeginArray().Int(1).Int(2).EndArray()
      .Key("obj").BeginObject().Field("k", "v").EndObject()
      .EndObject();
  EXPECT_EQ(json.str(), R"({"list":[1,2],"obj":{"k":"v"}})");
}

TEST(JsonWriterTest, EscapesSpecialCharacters) {
  EXPECT_EQ(util::JsonWriter::Escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
  EXPECT_EQ(util::JsonWriter::Escape(std::string(1, '\x01')), "\\u0001");
  EXPECT_EQ(util::JsonWriter::Escape("plain"), "plain");
}

// U+FFFD REPLACEMENT CHARACTER, as UTF-8.
constexpr const char* kFffd = "\xEF\xBF\xBD";

std::string Fffd(int n) {
  std::string out;
  for (int i = 0; i < n; ++i) out += kFffd;
  return out;
}

TEST(JsonWriterTest, ReplacesLatin1ByteWithReplacementCharacter) {
  // A Latin-1 record: 0xFC is u-umlaut there but never valid UTF-8.
  util::JsonWriter json;
  json.BeginObject().Field("city", "M\xfcnchen").EndObject();
  EXPECT_EQ(json.str(), std::string("{\"city\":\"M") + kFffd + "nchen\"}");
}

TEST(JsonWriterTest, CopiesWellFormedUtf8Verbatim) {
  for (const std::string s :
       {"M\xc3\xbcnchen", "\xe5\xbc\xa0\xe4\xbc\x9f", "\xf0\x9f\x98\x80!",
        "\xc2\x80\xdf\xbf", "\xe0\xa0\x80\xed\x9f\xbf\xef\xbf\xbf",
        "\xf0\x90\x80\x80\xf4\x8f\xbf\xbf"}) {
    EXPECT_EQ(util::JsonWriter::Escape(s), s);
  }
  // Escapes still apply around multi-byte sequences.
  EXPECT_EQ(util::JsonWriter::Escape("\"\xc3\xa9\"\n"), "\\\"\xc3\xa9\\\"\\n");
}

TEST(JsonWriterTest, ReplacesEachInvalidUtf8Class) {
  struct Case {
    const char* name;
    std::string in;
    std::string want;
  };
  const std::vector<Case> cases = {
      {"stray continuation", "a\x80" "b", "a" + Fffd(1) + "b"},
      {"invalid lead bytes", "\xc0\xc1\xf5\xff", Fffd(4)},
      {"overlong 2-byte", "\xc0\xaf", Fffd(2)},
      {"overlong 3-byte", "\xe0\x80\xaf", Fffd(3)},
      {"overlong 4-byte", "\xf0\x80\x80\xaf", Fffd(4)},
      {"surrogate", "\xed\xa0\x80", Fffd(3)},
      {"above U+10FFFF", "\xf4\x90\x80\x80", Fffd(4)},
      {"truncated tail", "ok\xe2\x82", "ok" + Fffd(1)},
      {"truncated 4-byte tail", "\xf0\x9f\x98", Fffd(1)},
      {"interrupted sequence", "\xe2\x82" "A", Fffd(1) + "A"},
  };
  for (const Case& c : cases) {
    EXPECT_EQ(util::JsonWriter::Escape(c.in), c.want) << c.name;
  }
}

TEST(JsonWriterTest, DoubleFormatting) {
  util::JsonWriter json;
  json.BeginArray().Double(0.5).Double(1e308 * 10).EndArray();
  EXPECT_EQ(json.str(), "[0.5,null]");  // inf -> null
}

// The writer's number text must stay byte-identical to the printf forms
// it replaced ("%.12g" for doubles, "%lld" for ints).
std::string WriteNumber(double v) {
  util::JsonWriter json;
  json.Double(v);
  return json.str();
}

std::string WriteNumber(long long v) {
  util::JsonWriter json;
  json.Int(v);
  return json.str();
}

std::string Printf(const char* fmt, double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), fmt, v);
  return buf;
}

TEST(JsonWriterTest, NumbersMatchPrintfOverEdgeAndRandomValues) {
  std::vector<double> doubles = {0.0,
                                 -0.0,
                                 1.0,
                                 -1.0,
                                 0.1,
                                 1.0 / 3.0,
                                 123456789012.0,
                                 1234567890123.0,
                                 999999999999.5,
                                 1e-5,
                                 1e-4,
                                 1e21,
                                 1e22,
                                 DBL_MAX,
                                 -DBL_MAX,
                                 DBL_MIN,
                                 DBL_TRUE_MIN,
                                 DBL_MIN / 3,
                                 std::nextafter(1.0, 2.0),
                                 std::nextafter(1.0, 0.0)};
  for (int e = -1074; e <= 1023; ++e) doubles.push_back(std::ldexp(1.0, e));
  std::mt19937_64 rng(29);
  for (int i = 0; i < 200000; ++i) {
    const uint64_t bits = rng();
    double v;
    std::memcpy(&v, &bits, sizeof(v));
    if (std::isfinite(v)) doubles.push_back(v);
  }
  std::uniform_real_distribution<double> unit(-1e6, 1e6);
  for (int i = 0; i < 100000; ++i) doubles.push_back(unit(rng));
  for (const double v : doubles) {
    ASSERT_EQ(WriteNumber(v), Printf("%.12g", v)) << std::hexfloat << v;
  }

  std::vector<long long> ints = {0, 1, -1, 9, 10, -10, LLONG_MAX, LLONG_MIN,
                                 LLONG_MIN + 1, 1000000007};
  for (int i = 0; i < 100000; ++i) {
    ints.push_back(static_cast<long long>(rng()) >> (rng() % 64));
  }
  for (const long long v : ints) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%lld", v);
    ASSERT_EQ(WriteNumber(v), buf);
  }
}

TEST(JsonWriterTest, NestsToMaxDepthThenThrows) {
  // Alternating arrays and objects, each level holding a value or an
  // empty container before the next level, so every level's comma state
  // must survive the levels opened and closed inside it.
  constexpr int kDepth = util::JsonWriter::kMaxDepth;
  util::JsonWriter json;
  std::string want;
  for (int d = 0; d < kDepth; ++d) {
    const bool inner = d + 1 < kDepth;  // room for one more level
    if (d % 2 == 0) {
      json.BeginArray().Int(d);
      want.append("[").append(std::to_string(d)).append(",");
      if (inner) {
        json.BeginArray().EndArray();
        want += "[],";
      }
    } else {
      json.BeginObject();
      want += "{";
      if (inner) {
        json.Key("e").BeginObject().EndObject();
        want += "\"e\":{},";
      }
      json.Key("k");
      want += "\"k\":";
    }
  }
  json.Int(-1);
  want += "-1";
  for (int d = kDepth - 1; d >= 0; --d) {
    if (d % 2 == 0) {
      json.Int(d).EndArray();
      want.append(",").append(std::to_string(d)).append("]");
    } else {
      json.EndObject();
      want += "}";
    }
  }
  EXPECT_EQ(json.str(), want);

  util::JsonWriter deep;
  for (int d = 0; d < kDepth; ++d) deep.BeginArray();
  EXPECT_THROW(deep.BeginArray(), std::length_error);
  EXPECT_THROW(deep.BeginObject(), std::length_error);
}

TEST(JsonWriterTest, FieldIfNonEmptySkipsEmpty) {
  util::JsonWriter json;
  json.BeginObject()
      .FieldIfNonEmpty("keep", "value")
      .FieldIfNonEmpty("drop", "")
      .EndObject();
  EXPECT_EQ(json.str(), R"({"keep":"value"})");
}

whois::ParsedWhois SampleParse() {
  whois::ParsedWhois parsed;
  parsed.domain_name = "EXAMPLE.COM";
  parsed.registrar = "GoDaddy.com, LLC";
  parsed.created = "2010-04-01";
  parsed.expires = "2016-04-01";
  parsed.name_servers = {"ns1.example.com", "ns2.example.com"};
  parsed.statuses = {"clientTransferProhibited"};
  parsed.registrant.name = "John \"JJ\" Smith";
  parsed.registrant.country = "US";
  parsed.registrant.street = {"1 Main St"};
  parsed.log_prob = -0.01;
  return parsed;
}

TEST(JsonExportTest, PlainJsonContainsAllFields) {
  const std::string json = whois::ToJson(SampleParse());
  EXPECT_NE(json.find(R"("domainName":"EXAMPLE.COM")"), std::string::npos);
  EXPECT_NE(json.find(R"("registrar":"GoDaddy.com, LLC")"), std::string::npos);
  EXPECT_NE(json.find(R"("nameServers":["ns1.example.com","ns2.example.com"])"),
            std::string::npos);
  EXPECT_NE(json.find(R"("name":"John \"JJ\" Smith")"), std::string::npos);
  EXPECT_NE(json.find(R"("parseLogProb")"), std::string::npos);
}

TEST(JsonExportTest, PlainJsonOmitsEmptyFields) {
  whois::ParsedWhois parsed;
  parsed.domain_name = "X.COM";
  const std::string json = whois::ToJson(parsed);
  EXPECT_EQ(json.find("registrar"), std::string::npos);
  EXPECT_EQ(json.find("registrant"), std::string::npos);
}

TEST(JsonExportTest, RdapShape) {
  const std::string json = whois::ToRdapJson(SampleParse());
  EXPECT_NE(json.find(R"("objectClassName":"domain")"), std::string::npos);
  EXPECT_NE(json.find(R"("eventAction":"registration")"), std::string::npos);
  EXPECT_NE(json.find(R"("eventAction":"expiration")"), std::string::npos);
  // No "last changed" event: updated is empty.
  EXPECT_EQ(json.find("last changed"), std::string::npos);
  EXPECT_NE(json.find(R"("roles":["registrar"])"), std::string::npos);
  EXPECT_NE(json.find(R"("roles":["registrant"])"), std::string::npos);
  EXPECT_NE(json.find(R"("ldhName":"ns1.example.com")"), std::string::npos);
}

// The JSON writer and ToJson as they were before the bit-stack comma state
// and the up-front reserve: a std::vector<bool> of comma flags per writer
// and growth by appends. Strings go through the shared escaper (checked on
// its own in tests/test_byte_scan.cc) and numbers through printf.
namespace reference {

class Writer {
 public:
  Writer& BeginObject() { return Open('{'); }
  Writer& EndObject() { return Close('}'); }
  Writer& BeginArray() { return Open('['); }
  Writer& EndArray() { return Close(']'); }
  Writer& Key(std::string_view key) {
    Comma();
    out_ += '"' + util::JsonWriter::Escape(key) + "\":";
    after_key_ = true;
    return *this;
  }
  Writer& String(std::string_view value) {
    Comma();
    out_ += '"' + util::JsonWriter::Escape(value) + '"';
    return *this;
  }
  Writer& Double(double value) {
    Comma();
    if (!std::isfinite(value)) {
      out_ += "null";
      return *this;
    }
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.12g", value);
    out_ += buf;
    return *this;
  }
  Writer& FieldIfNonEmpty(std::string_view key, std::string_view value) {
    if (value.empty()) return *this;
    Key(key);
    return String(value);
  }
  const std::string& str() const { return out_; }

 private:
  Writer& Open(char bracket) {
    Comma();
    out_ += bracket;
    need_comma_.push_back(false);
    return *this;
  }
  Writer& Close(char bracket) {
    out_ += bracket;
    need_comma_.pop_back();
    return *this;
  }
  void Comma() {
    if (after_key_) {
      after_key_ = false;
      return;
    }
    if (need_comma_.back()) out_ += ',';
    need_comma_.back() = true;
  }
  std::string out_;
  std::vector<bool> need_comma_{false};
  bool after_key_ = false;
};

void WriteContact(Writer& json, const whois::Contact& contact) {
  json.BeginObject();
  json.FieldIfNonEmpty("name", contact.name);
  json.FieldIfNonEmpty("id", contact.id);
  json.FieldIfNonEmpty("organization", contact.org);
  if (!contact.street.empty()) {
    json.Key("street").BeginArray();
    for (const auto& line : contact.street) json.String(line);
    json.EndArray();
  }
  json.FieldIfNonEmpty("city", contact.city);
  json.FieldIfNonEmpty("state", contact.state);
  json.FieldIfNonEmpty("postalCode", contact.postcode);
  json.FieldIfNonEmpty("country", contact.country);
  json.FieldIfNonEmpty("phone", contact.phone);
  json.FieldIfNonEmpty("fax", contact.fax);
  json.FieldIfNonEmpty("email", contact.email);
  if (!contact.other.empty()) {
    json.Key("other").BeginArray();
    for (const auto& line : contact.other) json.String(line);
    json.EndArray();
  }
  json.EndObject();
}

std::string ToJson(const whois::ParsedWhois& parsed) {
  Writer json;
  json.BeginObject();
  json.FieldIfNonEmpty("domainName", parsed.domain_name);
  json.FieldIfNonEmpty("registrar", parsed.registrar);
  json.FieldIfNonEmpty("registrarUrl", parsed.registrar_url);
  json.FieldIfNonEmpty("whoisServer", parsed.whois_server);
  json.FieldIfNonEmpty("created", parsed.created);
  json.FieldIfNonEmpty("updated", parsed.updated);
  json.FieldIfNonEmpty("expires", parsed.expires);
  if (!parsed.name_servers.empty()) {
    json.Key("nameServers").BeginArray();
    for (const auto& ns : parsed.name_servers) json.String(ns);
    json.EndArray();
  }
  if (!parsed.statuses.empty()) {
    json.Key("statuses").BeginArray();
    for (const auto& status : parsed.statuses) json.String(status);
    json.EndArray();
  }
  if (!parsed.registrant.Empty()) {
    json.Key("registrant");
    WriteContact(json, parsed.registrant);
  }
  json.Key("parseLogProb").Double(parsed.log_prob);
  json.EndObject();
  return json.str();
}

}  // namespace reference

std::vector<whois::LabeledRecord> DriftedCorpus(size_t n, uint64_t seed,
                                                double drift) {
  datagen::CorpusOptions options;
  options.size = n;
  options.seed = seed;
  options.drift_fraction = drift;
  const datagen::CorpusGenerator generator(options);
  std::vector<whois::LabeledRecord> out;
  for (size_t i = 0; i < n; ++i) out.push_back(generator.Generate(i).thick);
  return out;
}

// Rewrites some fields with bytes that need escaping or replacing, so
// records outgrow the writer's escape-free size estimate.
void Roughen(whois::ParsedWhois& parsed, size_t i) {
  static const std::string kHostile[] = {
      "\"quoted\" \\ back", "tab\there\nnewline", "M\xfcnchen",
      "\xe5\x8c\x97\xe4\xba\xac", std::string(300, '"')};
  const std::string& hostile = kHostile[i % 5];
  switch (i % 4) {
    case 0: parsed.registrant.name += hostile; break;
    case 1: parsed.registrar = hostile + parsed.registrar; break;
    case 2: parsed.name_servers.push_back(hostile); break;
    default: parsed.registrant.other.push_back(hostile); break;
  }
}

TEST(JsonExportTest, MatchesReferenceWriterOverGeneratedParses) {
  const std::vector<whois::LabeledRecord> train = DriftedCorpus(150, 99, 0.25);
  const whois::WhoisParser crf = whois::WhoisParser::Train(train);
  const cascade::CascadeParser cascade(&crf, train);
  const std::vector<whois::LabeledRecord> records =
      DriftedCorpus(2600, 7, 0.5);
  whois::ParseWorkspace ws;
  size_t compared = 0;
  size_t rough = 0;
  for (size_t i = 0; i < records.size(); ++i) {
    for (whois::ParsedWhois parsed :
         {crf.Parse(records[i].text, ws),
          cascade.ParseRecord(records[i].text, ws)}) {
      if (i % 7 == 0) {
        Roughen(parsed, rough++);
      }
      ASSERT_EQ(whois::ToJson(parsed), reference::ToJson(parsed))
          << "record " << i;
      ++compared;
    }
  }
  EXPECT_GE(compared, 5000u);
}

}  // namespace
}  // namespace whoiscrf
