// SurveyAccumulator: the §6 survey as a set of group-by counts. Each
// parsed row is folded into the aggregate tables the §6 queries read, so
// the state is O(years × (registrars + countries)) — bounded by key
// cardinality, independent of record count (tests/test_survey.cc asserts
// this) — and the paper's 102M-record census runs on bounded memory.
//
// Every query reduces to integer count maps handed to TopKFromCounts, so
// sort order, shares, and other/unknown buckets are exactly those of a
// row-at-a-time group-by over the same rows (tests/test_survey.cc keeps
// such a naive reference and compares every query with == on the
// shares).
//
// The accumulator serializes to a small versioned text blob
// (docs/formats.md "Survey accumulator state") so a scale run can ride it
// inside the stream checkpoint's aux payload: cursor and derived state
// are then published atomically and a killed run resumes without
// double-counting.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "survey/row.h"

namespace whoiscrf::survey {

struct CountRow {
  std::string key;
  size_t count = 0;
  double share = 0.0;  // of the aggregate's total
};

struct TopKResult {
  std::vector<CountRow> top;  // k rows, descending
  size_t other_count = 0;     // rows beyond the top k (excl. unknown)
  size_t unknown_count = 0;   // rows with an empty key
  size_t total = 0;
};

// Figure 4b: one year's composition: share of each listed country,
// privacy-protected, unknown, and other.
struct YearComposition {
  int year = 0;
  size_t total = 0;
  std::map<std::string, double> shares;  // country code / "Private" /
                                         // "Unknown" / "Other" -> fraction
};

class SurveyAccumulator {
 public:
  SurveyAccumulator() = default;
  // `brands` are the Table 4 organizations to track by exact
  // registrant-org match (the only per-row state BrandCounts needs).
  explicit SurveyAccumulator(std::vector<std::string> brands);

  // Folds one row into every aggregate. O(log keys) per row.
  void Add(const DomainRow& row);

  uint64_t records() const { return records_; }
  uint64_t privacy_rows() const { return privacy_rows_; }

  // The §6 queries. TopCountries and RegistrarCountryBreakdown exclude
  // privacy-protected rows (their country cannot be inferred); Dbl*
  // restrict to DBL-listed rows created in `year`; TopPrivacy* count
  // privacy-protected rows only.
  TopKResult TopCountries(size_t k,
                          std::optional<int> year = std::nullopt) const;
  TopKResult TopRegistrars(size_t k,
                           std::optional<int> year = std::nullopt) const;
  TopKResult TopPrivacyRegistrars(size_t k) const;
  TopKResult TopPrivacyServices(size_t k) const;
  std::vector<CountRow> BrandCounts() const;
  TopKResult DblTopCountries(size_t k, int year) const;
  TopKResult DblTopRegistrars(size_t k, int year) const;
  std::map<int, size_t> CreationHistogram() const;
  std::vector<YearComposition> CountryProportionsByYear(
      const std::vector<std::string>& countries, int min_year,
      int max_year) const;
  TopKResult RegistrarCountryBreakdown(const std::string& registrar,
                                       size_t k) const;

  // Versioned text serialization (docs/formats.md "Survey accumulator
  // state"). Deserialize(Serialize()) reproduces the state byte for byte;
  // Deserialize throws std::runtime_error on malformed or truncated
  // input.
  std::string Serialize() const;
  static SurveyAccumulator Deserialize(const std::string& text);

  // Number of distinct aggregate entries held across all maps — the
  // bounded-memory test's measure. Grows with key cardinality (years,
  // registrars, countries, services, brands), never with records().
  size_t state_entries() const;

 private:
  // Per-creation-year counts. `rows` counts every row of the year
  // (including privacy-protected ones); `countries` only non-privacy rows
  // with a known country, mirroring the TopCountries filter. The dbl_*
  // half repeats the same shape for DBL-listed rows (Tables 8-9).
  struct YearSlot {
    size_t rows = 0;
    size_t privacy = 0;
    size_t country_unknown = 0;    // !privacy && country empty
    size_t registrar_unknown = 0;  // registrar empty
    size_t dbl_rows = 0;
    size_t dbl_privacy = 0;
    size_t dbl_country_unknown = 0;
    size_t dbl_registrar_unknown = 0;
    std::map<std::string, size_t> countries;
    std::map<std::string, size_t> registrars;
    std::map<std::string, size_t> dbl_countries;
    std::map<std::string, size_t> dbl_registrars;
  };
  // Per-registrar country mix over non-privacy rows (Figure 5).
  struct RegistrarSlot {
    size_t rows = 0;
    size_t country_unknown = 0;
    std::map<std::string, size_t> countries;
  };

  uint64_t records_ = 0;
  std::map<int, YearSlot> years_;  // keyed by created_year (0 = unknown)

  uint64_t privacy_rows_ = 0;
  size_t privacy_registrar_unknown_ = 0;
  size_t privacy_service_unknown_ = 0;
  std::map<std::string, size_t> privacy_registrars_;
  std::map<std::string, size_t> privacy_services_;

  std::map<std::string, RegistrarSlot> registrar_countries_;

  std::vector<std::string> brands_;  // preserves caller order
  std::map<std::string, size_t> brand_counts_;
};

}  // namespace whoiscrf::survey
