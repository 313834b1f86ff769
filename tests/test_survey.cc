// Survey layer: privacy detection, row normalization, and the
// SurveyAccumulator's §6 queries, checked against a naive row-at-a-time
// reference that materializes every row and groups on each query.
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <functional>
#include <map>
#include <optional>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "datagen/privacy.h"
#include "datagen/temporal.h"
#include "survey/accumulator.h"
#include "survey/build.h"
#include "survey/normalize.h"
#include "survey/scale_run.h"
#include "util/string_util.h"
#include "whois/record_store.h"
#include "whois/stream_pipeline.h"

namespace whoiscrf::survey {
namespace {

// ---------------------------------------------------------------------------
// Naive reference: the row-materializing survey path the accumulator
// replaced, kept here as the oracle. Every query walks all rows, filters,
// groups, and ranks on its own — no code is shared with the accumulator,
// TopKFromCounts included.
namespace naive {

using Rows = std::vector<DomainRow>;

TopKResult TopK(const Rows& rows,
                const std::function<std::string(const DomainRow&)>& key,
                size_t k, const std::function<bool(const DomainRow&)>& filter) {
  std::map<std::string, size_t> counts;
  TopKResult result;
  for (const DomainRow& row : rows) {
    if (!filter(row)) continue;
    ++result.total;
    const std::string group = key(row);
    if (group.empty()) {
      ++result.unknown_count;
    } else {
      ++counts[group];
    }
  }
  std::vector<std::pair<std::string, size_t>> sorted(counts.begin(),
                                                     counts.end());
  std::sort(sorted.begin(), sorted.end(), [](const auto& a, const auto& b) {
    if (a.second != b.second) return a.second > b.second;
    return a.first < b.first;
  });
  const double denom =
      result.total > 0 ? static_cast<double>(result.total) : 1.0;
  for (size_t i = 0; i < sorted.size(); ++i) {
    if (i < k) {
      result.top.push_back(
          CountRow{sorted[i].first, sorted[i].second,
                   static_cast<double>(sorted[i].second) / denom});
    } else {
      result.other_count += sorted[i].second;
    }
  }
  return result;
}

std::string Country(const DomainRow& r) { return r.country_code; }
std::string Registrar(const DomainRow& r) { return r.registrar; }
std::string Service(const DomainRow& r) { return r.privacy_service; }

TopKResult TopCountries(const Rows& rows, size_t k,
                        std::optional<int> year = std::nullopt) {
  return TopK(rows, Country, k, [year](const DomainRow& r) {
    if (r.privacy_protected) return false;  // country not inferable
    return !year.has_value() || r.created_year == *year;
  });
}

TopKResult TopRegistrars(const Rows& rows, size_t k,
                         std::optional<int> year = std::nullopt) {
  return TopK(rows, Registrar, k, [year](const DomainRow& r) {
    return !year.has_value() || r.created_year == *year;
  });
}

TopKResult TopPrivacyRegistrars(const Rows& rows, size_t k) {
  return TopK(rows, Registrar, k,
              [](const DomainRow& r) { return r.privacy_protected; });
}

TopKResult TopPrivacyServices(const Rows& rows, size_t k) {
  return TopK(rows, Service, k,
              [](const DomainRow& r) { return r.privacy_protected; });
}

std::vector<CountRow> BrandCounts(const Rows& rows,
                                  const std::vector<std::string>& brands) {
  std::vector<CountRow> out;
  for (const std::string& brand : brands) {
    CountRow row;
    row.key = brand;
    for (const DomainRow& r : rows) {
      if (r.registrant_org == brand) ++row.count;
    }
    out.push_back(std::move(row));
  }
  std::sort(out.begin(), out.end(), [](const CountRow& a, const CountRow& b) {
    if (a.count != b.count) return a.count > b.count;
    return a.key < b.key;
  });
  return out;
}

TopKResult DblTopCountries(const Rows& rows, size_t k, int year) {
  return TopK(rows, Country, k, [year](const DomainRow& r) {
    return r.on_dbl && r.created_year == year && !r.privacy_protected;
  });
}

TopKResult DblTopRegistrars(const Rows& rows, size_t k, int year) {
  return TopK(rows, Registrar, k, [year](const DomainRow& r) {
    return r.on_dbl && r.created_year == year;
  });
}

std::map<int, size_t> CreationHistogram(const Rows& rows) {
  std::map<int, size_t> hist;
  for (const DomainRow& r : rows) {
    if (r.created_year > 0) ++hist[r.created_year];
  }
  return hist;
}

std::vector<YearComposition> CountryProportionsByYear(
    const Rows& rows, const std::vector<std::string>& countries,
    int min_year, int max_year) {
  std::vector<YearComposition> out;
  for (int year = min_year; year <= max_year; ++year) {
    YearComposition comp;
    comp.year = year;
    std::map<std::string, size_t> counts;
    size_t privacy = 0;
    size_t unknown = 0;
    size_t other = 0;
    for (const DomainRow& r : rows) {
      if (r.created_year != year) continue;
      ++comp.total;
      if (r.privacy_protected) {
        ++privacy;
      } else if (r.country_code.empty()) {
        ++unknown;
      } else if (std::find(countries.begin(), countries.end(),
                           r.country_code) != countries.end()) {
        ++counts[r.country_code];
      } else {
        ++other;
      }
    }
    if (comp.total == 0) continue;
    const double denom = static_cast<double>(comp.total);
    for (const std::string& cc : countries) {
      comp.shares[cc] = static_cast<double>(counts[cc]) / denom;
    }
    comp.shares["Private"] = static_cast<double>(privacy) / denom;
    comp.shares["Unknown"] = static_cast<double>(unknown) / denom;
    comp.shares["Other"] = static_cast<double>(other) / denom;
    out.push_back(std::move(comp));
  }
  return out;
}

TopKResult RegistrarCountryBreakdown(const Rows& rows,
                                     const std::string& registrar, size_t k) {
  return TopK(rows, Country, k, [&registrar](const DomainRow& r) {
    return r.registrar == registrar && !r.privacy_protected;
  });
}

}  // namespace naive

SurveyAccumulator Accumulate(const std::vector<DomainRow>& rows,
                             std::vector<std::string> brands = {}) {
  SurveyAccumulator acc(std::move(brands));
  for (const DomainRow& row : rows) acc.Add(row);
  return acc;
}

std::vector<DomainRow> MakeRows() {
  std::vector<DomainRow> rows;
  auto add = [&](std::string registrar, int year, std::string cc,
                 bool privacy, std::string service, bool dbl,
                 std::string org = "") {
    DomainRow row;
    row.domain = "d" + std::to_string(rows.size()) + ".com";
    row.registrar = std::move(registrar);
    row.created_year = year;
    row.country_code = std::move(cc);
    row.privacy_protected = privacy;
    row.privacy_service = std::move(service);
    row.on_dbl = dbl;
    row.registrant_org = std::move(org);
    rows.push_back(std::move(row));
  };
  add("GoDaddy", 2014, "US", false, "", false);
  add("GoDaddy", 2014, "US", false, "", true);
  add("GoDaddy", 2014, "US", false, "", false);
  add("GoDaddy", 2013, "CN", false, "", false);
  add("eNom", 2014, "GB", false, "", true);
  add("eNom", 2014, "", false, "", false);          // unknown country
  add("HiChina", 2014, "CN", false, "", false, "Amazon");
  add("GoDaddy", 2014, "", true, "Domains By Proxy", false);
  add("eNom", 2012, "", true, "WhoisGuard", false);
  return rows;
}

TEST(AggregatesTest, TopCountriesExcludesPrivacy) {
  const auto result = Accumulate(MakeRows()).TopCountries(2);
  EXPECT_EQ(result.total, 7u);  // two privacy rows excluded
  ASSERT_GE(result.top.size(), 2u);
  EXPECT_EQ(result.top[0].key, "US");
  EXPECT_EQ(result.top[0].count, 3u);
  EXPECT_EQ(result.top[1].key, "CN");
  EXPECT_EQ(result.unknown_count, 1u);
  EXPECT_NEAR(result.top[0].share, 3.0 / 7.0, 1e-12);
}

TEST(AggregatesTest, TopCountriesYearFilter) {
  const auto result = Accumulate(MakeRows()).TopCountries(3, 2014);
  EXPECT_EQ(result.total, 6u);
  EXPECT_EQ(result.top[0].key, "US");
}

TEST(AggregatesTest, TopRegistrars) {
  const auto result = Accumulate(MakeRows()).TopRegistrars(1);
  EXPECT_EQ(result.top[0].key, "GoDaddy");
  EXPECT_EQ(result.top[0].count, 5u);
  EXPECT_EQ(result.other_count, 4u);  // eNom + HiChina rows beyond top-1
}

TEST(AggregatesTest, PrivacyAggregates) {
  const SurveyAccumulator acc = Accumulate(MakeRows());
  const auto registrars = acc.TopPrivacyRegistrars(5);
  EXPECT_EQ(registrars.total, 2u);
  const auto services = acc.TopPrivacyServices(5);
  ASSERT_EQ(services.top.size(), 2u);
  EXPECT_EQ(services.top[0].count, 1u);
}

TEST(AggregatesTest, DblTables) {
  const SurveyAccumulator acc = Accumulate(MakeRows());
  const auto countries = acc.DblTopCountries(5, 2014);
  EXPECT_EQ(countries.total, 2u);
  const auto registrars = acc.DblTopRegistrars(5, 2014);
  EXPECT_EQ(registrars.total, 2u);
}

TEST(AggregatesTest, BrandCounts) {
  const auto brands =
      Accumulate(MakeRows(), {"Amazon", "Google"}).BrandCounts();
  ASSERT_EQ(brands.size(), 2u);
  EXPECT_EQ(brands[0].key, "Amazon");
  EXPECT_EQ(brands[0].count, 1u);
  EXPECT_EQ(brands[1].count, 0u);
}

TEST(AggregatesTest, CreationHistogram) {
  const auto hist = Accumulate(MakeRows()).CreationHistogram();
  EXPECT_EQ(hist.at(2014), 7u);
  EXPECT_EQ(hist.at(2013), 1u);
  EXPECT_EQ(hist.at(2012), 1u);
}

TEST(AggregatesTest, CountryProportionsByYear) {
  const auto comps =
      Accumulate(MakeRows()).CountryProportionsByYear({"US", "CN"}, 2012, 2014);
  ASSERT_EQ(comps.size(), 3u);
  const auto& y2014 = comps.back();
  EXPECT_EQ(y2014.year, 2014);
  EXPECT_EQ(y2014.total, 7u);
  EXPECT_NEAR(y2014.shares.at("US"), 3.0 / 7.0, 1e-12);
  EXPECT_NEAR(y2014.shares.at("Private"), 1.0 / 7.0, 1e-12);
  EXPECT_NEAR(y2014.shares.at("Unknown"), 1.0 / 7.0, 1e-12);
  // GB is not in the tracked list, so its row lands in "Other".
  EXPECT_NEAR(y2014.shares.at("Other"), 1.0 / 7.0, 1e-12);
}

TEST(AggregatesTest, RegistrarCountryBreakdown) {
  const auto result =
      Accumulate(MakeRows()).RegistrarCountryBreakdown("GoDaddy", 2);
  EXPECT_EQ(result.total, 4u);  // privacy row excluded
  EXPECT_EQ(result.top[0].key, "US");
}

TEST(PrivacyDetectionTest, CanonicalServices) {
  std::string service;
  EXPECT_TRUE(DetectPrivacyService("Domains By Proxy, LLC", "", &service));
  EXPECT_EQ(service, "Domains By Proxy");
  EXPECT_TRUE(DetectPrivacyService("", "WhoisGuard Protected", &service));
  EXPECT_EQ(service, "WhoisGuard");
}

TEST(PrivacyDetectionTest, GenericKeywords) {
  std::string service;
  EXPECT_TRUE(
      DetectPrivacyService("Private Registration", "Some Org", &service));
  EXPECT_TRUE(DetectPrivacyService("Identity Shield Inc", "", &service));
  EXPECT_FALSE(DetectPrivacyService("John Smith", "Acme LLC", &service));
}

// Privacy detection as it was before needles were lowered once: a naive
// std::tolower substring scan per needle and field. Shares no code with
// DetectPrivacyService beyond the service table.
namespace naive {

bool ContainsIgnoreCase(std::string_view haystack, std::string_view needle) {
  if (needle.empty()) return true;
  for (size_t i = 0; i + needle.size() <= haystack.size(); ++i) {
    size_t j = 0;
    while (j < needle.size() &&
           std::tolower(static_cast<unsigned char>(haystack[i + j])) ==
               std::tolower(static_cast<unsigned char>(needle[j]))) {
      ++j;
    }
    if (j == needle.size()) return true;
  }
  return false;
}

constexpr std::string_view kPrivacyKeywords[] = {
    "privacy",   "proxy",      "private registration", "whois agent",
    "protected", "whoisguard", "identity shield"};

bool DetectPrivacyService(std::string_view name, std::string_view org,
                          std::string* canonical_service) {
  for (const auto& service : datagen::PrivacyServices()) {
    if (ContainsIgnoreCase(name, service.name) ||
        ContainsIgnoreCase(org, service.name)) {
      *canonical_service = std::string(service.name);
      return true;
    }
  }
  for (std::string_view keyword : kPrivacyKeywords) {
    if (ContainsIgnoreCase(name, keyword) || ContainsIgnoreCase(org, keyword)) {
      *canonical_service =
          org.empty() ? std::string(name) : std::string(org);
      return true;
    }
  }
  return false;
}

}  // namespace naive

void ExpectPrivacyMatchesNaive(std::string_view name, std::string_view org) {
  std::string want = "(untouched)";
  std::string got = "(untouched)";
  const bool want_flag = naive::DetectPrivacyService(name, org, &want);
  EXPECT_EQ(DetectPrivacyService(name, org, &got), want_flag)
      << "name '" << name << "' org '" << org << "'";
  EXPECT_EQ(got, want) << "name '" << name << "' org '" << org << "'";
}

std::string MixedCase(std::string_view s) {
  std::string out(s);
  for (size_t i = 0; i < out.size(); ++i) {
    const auto c = static_cast<unsigned char>(out[i]);
    out[i] = static_cast<char>(i % 2 == 0 ? std::toupper(c) : std::tolower(c));
  }
  return out;
}

TEST(PrivacyDetectionTest, MatchesNaiveReference) {
  // A generated world: every registrant, admin and service name as drawn.
  datagen::TemporalCorpusOptions corpus_options;
  corpus_options.size = 3000;
  corpus_options.seed = 11;
  const datagen::TemporalCorpusGenerator generator(corpus_options);
  size_t private_count = 0;
  for (size_t i = 0; i < corpus_options.size; ++i) {
    const datagen::DomainFacts facts = generator.Generate(i).facts;
    ExpectPrivacyMatchesNaive(facts.registrant.name, facts.registrant.org);
    ExpectPrivacyMatchesNaive(facts.admin.name, facts.admin.org);
    ExpectPrivacyMatchesNaive(facts.privacy_service, "");
    if (!facts.privacy_service.empty()) ++private_count;
  }
  EXPECT_GT(private_count, 0u);

  std::vector<std::string> needles;
  for (const auto& service : datagen::PrivacyServices()) {
    needles.emplace_back(service.name);
  }
  for (std::string_view keyword : naive::kPrivacyKeywords) {
    needles.emplace_back(keyword);
  }
  for (const std::string& needle : needles) {
    // Every case, at the start, middle and end, in either field.
    for (const std::string& cased :
         {util::ToUpper(needle), util::ToLower(needle), MixedCase(needle)}) {
      for (const std::string& text :
           {cased, cased + " LLC", "Acme " + cased + " Ltd", "by " + cased}) {
        ExpectPrivacyMatchesNaive(text, "");
        ExpectPrivacyMatchesNaive("", text);
        ExpectPrivacyMatchesNaive("John Smith", text);
        ExpectPrivacyMatchesNaive(text, "Acme LLC");
      }
    }
    // Split by one byte anywhere: usually no match (or another needle's).
    for (size_t cut = 1; cut < needle.size(); ++cut) {
      for (const char split : {' ', '-', '\0', '\xe9'}) {
        const std::string broken =
            needle.substr(0, cut) + split + needle.substr(cut);
        ExpectPrivacyMatchesNaive(broken, "");
        ExpectPrivacyMatchesNaive("Org", broken);
      }
    }
    // Bytes >= 0x80 around and inside the needle.
    ExpectPrivacyMatchesNaive("\xc3\x89" + needle + "\xff", "\x80");
    ExpectPrivacyMatchesNaive("\xff\xfe", "\xd0\x9f" + MixedCase(needle));
    std::string high = needle;
    high[high.size() / 2] = static_cast<char>(
        static_cast<unsigned char>(high[high.size() / 2]) | 0x80);
    ExpectPrivacyMatchesNaive(high, high);
  }

  // A service and a keyword in one field, or one in each: a service wins
  // and names itself (the earliest in table order when several match, as
  // with the "whoisguard" keyword, itself a service).
  auto is_service = [](const std::string& s) {
    for (const auto& service : datagen::PrivacyServices()) {
      if (service.name == s) return true;
    }
    return false;
  };
  for (const auto& service : datagen::PrivacyServices()) {
    const std::string name(service.name);
    for (std::string_view keyword : naive::kPrivacyKeywords) {
      const std::string both = std::string(keyword) + " " + name;
      ExpectPrivacyMatchesNaive(both, "");
      ExpectPrivacyMatchesNaive(std::string(keyword), name);
      ExpectPrivacyMatchesNaive(name, std::string(keyword));
      std::string canonical;
      EXPECT_TRUE(DetectPrivacyService(both, "", &canonical));
      EXPECT_TRUE(is_service(canonical)) << both << " -> " << canonical;
    }
  }

  // Empty name, org, or both; and text with no needle at all.
  ExpectPrivacyMatchesNaive("", "");
  ExpectPrivacyMatchesNaive("John Smith", "");
  ExpectPrivacyMatchesNaive("", "Acme LLC");
  ExpectPrivacyMatchesNaive(std::string("Pri\0vacy", 8), "");
  EXPECT_FALSE(DetectPrivacyService("", "", nullptr));
}

TEST(RowFromParseTest, NormalizesFields) {
  datagen::RegistrarTable registrars;
  whois::ParsedWhois parsed;
  parsed.registrar = "GoDaddy.com, LLC";
  parsed.created = "02-Mar-2011";
  parsed.registrant.name = "John Smith";
  parsed.registrant.country = "United States";
  const DomainRow row = RowFromParse("x.com", parsed, registrars, true);
  EXPECT_EQ(row.registrar, "GoDaddy");
  EXPECT_EQ(row.created_year, 2011);
  EXPECT_EQ(row.country_code, "US");
  EXPECT_TRUE(row.on_dbl);
  EXPECT_FALSE(row.privacy_protected);
}

TEST(RowFromParseTest, PrivacyHidesCountry) {
  datagen::RegistrarTable registrars;
  whois::ParsedWhois parsed;
  parsed.registrar = "eNom, Inc.";
  parsed.created = "2014-01-01";
  parsed.registrant.name = "Whois Privacy Protect";
  parsed.registrant.country = "US";
  const DomainRow row = RowFromParse("x.com", parsed, registrars, false);
  EXPECT_TRUE(row.privacy_protected);
  EXPECT_EQ(row.privacy_service, "Whois Privacy Protect");
  EXPECT_TRUE(row.country_code.empty());
}

TEST(RowFromParseTest, CountryCodeAlreadyNormalized) {
  datagen::RegistrarTable registrars;
  whois::ParsedWhois parsed;
  parsed.registrant.country = "cn";
  const DomainRow row = RowFromParse("x.com", parsed, registrars, false);
  EXPECT_EQ(row.country_code, "CN");
}

// Deterministic row soup covering every aggregate dimension: unknown
// registrars/countries/years, privacy rows with and without a named
// service, DBL rows, and tracked brand orgs.
std::vector<DomainRow> SyntheticRows(size_t count) {
  const std::vector<std::string> registrars = {"GoDaddy", "eNom", "HiChina",
                                               "Xinnet",  "Moniker", ""};
  const std::vector<std::string> countries = {"US", "CN", "GB", "JP", ""};
  const std::vector<std::string> services = {"Domains By Proxy",
                                             "WhoisGuard", ""};
  const std::vector<std::string> orgs = {"Amazon", "Google", "Acme LLC", ""};
  std::vector<DomainRow> rows;
  rows.reserve(count);
  uint64_t state = 0x9e3779b97f4a7c15ull;
  auto next = [&state](size_t mod) {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    return static_cast<size_t>((state >> 33) % mod);
  };
  for (size_t i = 0; i < count; ++i) {
    DomainRow row;
    row.domain = "d" + std::to_string(i) + ".com";
    row.registrar = registrars[next(registrars.size())];
    row.created_year = next(7) == 0 ? 0 : 2009 + static_cast<int>(next(6));
    row.privacy_protected = next(4) == 0;
    if (row.privacy_protected) {
      row.privacy_service = services[next(services.size())];
    } else {
      row.country_code = countries[next(countries.size())];
    }
    row.on_dbl = next(5) == 0;
    row.registrant_org = orgs[next(orgs.size())];
    rows.push_back(std::move(row));
  }
  return rows;
}

// ---------------------------------------------------------------------------
// SurveyAccumulator against the naive reference: every query, exactly.

void ExpectSameTopK(const TopKResult& a, const TopKResult& b,
                    const std::string& what) {
  SCOPED_TRACE(what);
  EXPECT_EQ(a.total, b.total);
  EXPECT_EQ(a.unknown_count, b.unknown_count);
  EXPECT_EQ(a.other_count, b.other_count);
  ASSERT_EQ(a.top.size(), b.top.size());
  for (size_t i = 0; i < a.top.size(); ++i) {
    EXPECT_EQ(a.top[i].key, b.top[i].key);
    EXPECT_EQ(a.top[i].count, b.top[i].count);
    // Exact double equality on purpose: both sides divide the same
    // integer count by the same integer total, so any difference is an
    // aggregation bug, not rounding.
    EXPECT_EQ(a.top[i].share, b.top[i].share);
  }
}

// Compares every query the §6 tables use, over every year, registrar and
// k that the rows make interesting (plus an absent year and registrar).
void ExpectAccumulatorMatchesReference(const SurveyAccumulator& acc,
                                       const naive::Rows& rows,
                                       const std::vector<std::string>& brands) {
  EXPECT_EQ(acc.records(), rows.size());
  uint64_t privacy = 0;
  std::set<int> years = {1900};  // a year no row has
  std::set<std::string> registrars = {"(no such registrar)"};
  std::set<std::string> countries;
  for (const DomainRow& row : rows) {
    if (row.privacy_protected) ++privacy;
    years.insert(row.created_year);
    registrars.insert(row.registrar);
    if (!row.country_code.empty()) countries.insert(row.country_code);
  }
  EXPECT_EQ(acc.privacy_rows(), privacy);
  EXPECT_EQ(acc.CreationHistogram(), naive::CreationHistogram(rows));

  for (const size_t k : {size_t{0}, size_t{1}, size_t{3}, size_t{1000}}) {
    const std::string at = " k=" + std::to_string(k);
    ExpectSameTopK(acc.TopCountries(k), naive::TopCountries(rows, k),
                   "countries" + at);
    ExpectSameTopK(acc.TopRegistrars(k), naive::TopRegistrars(rows, k),
                   "registrars" + at);
    ExpectSameTopK(acc.TopPrivacyRegistrars(k),
                   naive::TopPrivacyRegistrars(rows, k),
                   "privacy registrars" + at);
    ExpectSameTopK(acc.TopPrivacyServices(k),
                   naive::TopPrivacyServices(rows, k),
                   "privacy services" + at);
    for (const int year : years) {
      const std::string in = at + " year=" + std::to_string(year);
      ExpectSameTopK(acc.TopCountries(k, year),
                     naive::TopCountries(rows, k, year), "countries" + in);
      ExpectSameTopK(acc.TopRegistrars(k, year),
                     naive::TopRegistrars(rows, k, year), "registrars" + in);
      ExpectSameTopK(acc.DblTopCountries(k, year),
                     naive::DblTopCountries(rows, k, year),
                     "dbl countries" + in);
      ExpectSameTopK(acc.DblTopRegistrars(k, year),
                     naive::DblTopRegistrars(rows, k, year),
                     "dbl registrars" + in);
    }
    for (const std::string& registrar : registrars) {
      ExpectSameTopK(acc.RegistrarCountryBreakdown(registrar, k),
                     naive::RegistrarCountryBreakdown(rows, registrar, k),
                     "countries of '" + registrar + "'" + at);
    }
  }

  const auto acc_brands = acc.BrandCounts();
  const auto ref_brands = naive::BrandCounts(rows, brands);
  ASSERT_EQ(acc_brands.size(), ref_brands.size());
  for (size_t i = 0; i < acc_brands.size(); ++i) {
    EXPECT_EQ(acc_brands[i].key, ref_brands[i].key);
    EXPECT_EQ(acc_brands[i].count, ref_brands[i].count);
  }

  // Tracked lists: none, the first two countries, and every country plus
  // one that never occurs; over a range wider than the rows' years.
  std::vector<std::vector<std::string>> tracked = {{}};
  std::vector<std::string> all(countries.begin(), countries.end());
  tracked.emplace_back(all.begin(),
                       all.begin() + std::min<size_t>(2, all.size()));
  all.push_back("ZZ");
  tracked.push_back(all);
  int min_year = 3000;
  int max_year = 0;
  for (const DomainRow& row : rows) {
    if (row.created_year == 0) continue;
    min_year = std::min(min_year, row.created_year - 1);
    max_year = std::max(max_year, row.created_year + 1);
  }
  for (const auto& list : tracked) {
    const auto acc_comp =
        acc.CountryProportionsByYear(list, min_year, max_year);
    const auto ref_comp =
        naive::CountryProportionsByYear(rows, list, min_year, max_year);
    ASSERT_EQ(acc_comp.size(), ref_comp.size());
    for (size_t i = 0; i < acc_comp.size(); ++i) {
      EXPECT_EQ(acc_comp[i].year, ref_comp[i].year);
      EXPECT_EQ(acc_comp[i].total, ref_comp[i].total);
      EXPECT_EQ(acc_comp[i].shares, ref_comp[i].shares);
    }
  }
}

TEST(SurveyAccumulatorTest, MatchesNaiveRowReference) {
  const std::vector<std::string> brands = {"Amazon", "Google", "Microsoft"};
  const naive::Rows rows = SyntheticRows(600);
  ExpectAccumulatorMatchesReference(Accumulate(rows, brands), rows, brands);
  const naive::Rows fixed = MakeRows();
  ExpectAccumulatorMatchesReference(Accumulate(fixed, brands), fixed, brands);
}

TEST(SurveyAccumulatorTest, StateIsBoundedByKeyCardinality) {
  // SyntheticRows draws from 7 years (0 + 2009..2014), 6 registrars, 5
  // countries, 3 services, and 2 tracked brands. The worst-case state is
  // the full cross product:
  //   years x (1 header + countries + registrars + dbl countries +
  //            dbl registrars)            = 7 * 23 = 161
  //   + privacy registrars + services     = 6 + 3
  //   + registrar country breakdowns      = 6 * (1 + 5) = 36
  //   + brands                            = 2
  constexpr size_t kStateBound = 161 + 6 + 3 + 36 + 2;
  SurveyAccumulator acc({"Amazon", "Google"});
  for (const DomainRow& row : SyntheticRows(500)) acc.Add(row);
  EXPECT_LE(acc.state_entries(), kStateBound);
  // 10x the rows over the same key sets: state stays under the
  // cardinality bound no matter the record count — it is
  // O(years x (registrars + countries)), never O(records).
  for (const DomainRow& row : SyntheticRows(5000)) acc.Add(row);
  EXPECT_LE(acc.state_entries(), kStateBound);
  EXPECT_EQ(acc.records(), 5500u);
}

TEST(SurveyAccumulatorTest, SerializeRoundTripsByteIdentically) {
  SurveyAccumulator acc({"Amazon", "Google"});
  for (const DomainRow& row : SyntheticRows(300)) acc.Add(row);
  const std::string blob = acc.Serialize();
  const SurveyAccumulator restored = SurveyAccumulator::Deserialize(blob);
  EXPECT_EQ(restored.Serialize(), blob);
  EXPECT_EQ(restored.records(), acc.records());
  ExpectSameTopK(restored.TopRegistrars(5), acc.TopRegistrars(5),
                 "restored registrars");
}

TEST(SurveyAccumulatorTest, DeserializeRejectsMalformedState) {
  SurveyAccumulator acc({"Amazon"});
  for (const DomainRow& row : SyntheticRows(50)) acc.Add(row);
  const std::string blob = acc.Serialize();

  EXPECT_THROW(SurveyAccumulator::Deserialize("not.a.header\nend\n"),
               std::runtime_error);
  // Truncation: the end marker is mandatory, so a blob cut anywhere fails.
  EXPECT_THROW(SurveyAccumulator::Deserialize(blob.substr(0, blob.size() / 2)),
               std::runtime_error);
  EXPECT_THROW(SurveyAccumulator::Deserialize(blob + "trailing\n"),
               std::runtime_error);
}

// A multi-shard record store streamed through the parse pipeline into the
// accumulator, at 1 and 4 pipeline threads, must answer every query
// exactly as the naive reference does over rows built by parsing the
// same records one at a time in order; the accumulator's state stays far
// below one entry per record.
TEST(SurveyAccumulatorTest, MultiShardStoreStreamMatchesInMemoryPath) {
  constexpr size_t kTrain = 120;
  constexpr size_t kCount = 360;
  datagen::TemporalCorpusOptions corpus_options;
  corpus_options.size = kCount;
  corpus_options.seed = 42;
  const datagen::TemporalCorpusGenerator generator(corpus_options);
  const whois::WhoisParser parser = TrainScaleParser(generator, kTrain);
  const SurveyNormalizer normalizer(generator.base().registrars());

  const std::string prefix = testing::TempDir() + "whoiscrf_acc_store_" +
                             std::to_string(getpid());
  whois::RecordStoreOptions store_options;
  store_options.records_per_shard = 100;  // force multiple shards
  naive::Rows rows;
  {
    whois::RecordStoreWriter writer(prefix, store_options);
    whois::ParseWorkspace ws;
    for (size_t i = 0; i < kCount; ++i) {
      const std::string text = generator.Generate(i).thick.text;
      writer.Append(text);
      const whois::ParsedWhois parsed = parser.Parse(text, ws);
      rows.push_back(RowFromParse(parsed.domain_name, parsed,
                                  generator.base().registrars(),
                                  /*on_dbl=*/false));
    }
    writer.Finish();
  }
  const whois::RecordStoreReader store(prefix);
  ASSERT_GT(store.size(), store_options.records_per_shard);  // multi-shard

  std::string one_thread_state;
  for (const size_t threads : {size_t{1}, size_t{4}}) {
    SCOPED_TRACE("pipeline threads " + std::to_string(threads));
    whois::StreamPipelineOptions pipeline;
    pipeline.threads = threads;
    pipeline.batch_records = 16;  // many batches in flight at 4 threads
    SurveyAccumulator acc;
    whois::StoreRecordSource source(store);
    whois::ParseStream(parser, source, pipeline,
                       [&](uint64_t, const std::string&,
                           const whois::ParsedWhois& parsed) {
                         acc.Add(RowFromParse(parsed.domain_name, parsed,
                                              normalizer, /*on_dbl=*/false));
                       });
    EXPECT_EQ(acc.records(), kCount);
    ExpectAccumulatorMatchesReference(acc, rows, {});
    if (threads == 1) {
      one_thread_state = acc.Serialize();
    } else {
      EXPECT_EQ(acc.Serialize(), one_thread_state);
    }

    // Bounded memory: replaying every row a second time doubles the
    // record count but adds zero state — the accumulator holds aggregates
    // keyed by the corpus's (year, registrar, country) cardinality, not
    // rows.
    const size_t entries_after_one_pass = acc.state_entries();
    for (const DomainRow& row : rows) acc.Add(row);
    EXPECT_EQ(acc.records(), 2 * kCount);
    EXPECT_EQ(acc.state_entries(), entries_after_one_pass);
  }

  for (size_t s = 0; s < 8; ++s) {
    std::remove(whois::RecordStoreShardPath(prefix, s).c_str());
  }
}

TEST(ScaleRunOptionsTest, KeepsTheLargerScaleCheckpointInterval) {
  // Scale runs checkpoint every 65536 records, not parse's 4096.
  EXPECT_EQ(ScaleRunOptions().parse.checkpoint_interval, 65536u);
  EXPECT_EQ(whois::CheckpointedParseOptions().checkpoint_interval, 4096u);
}

}  // namespace
}  // namespace whoiscrf::survey
