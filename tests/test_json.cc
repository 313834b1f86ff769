// JSON writer and WHOIS record export (plain + RDAP-flavored).
#include <cfloat>
#include <cstdint>
#include <climits>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "util/json.h"
#include "whois/json_export.h"

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

}  // namespace
}  // namespace whoiscrf
