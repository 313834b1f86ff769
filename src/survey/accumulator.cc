#include "survey/accumulator.h"

#include <algorithm>
#include <set>
#include <sstream>
#include <stdexcept>

#include "util/string_util.h"

namespace whoiscrf::survey {

namespace {

inline constexpr char kAccumulatorHeader[] = "whoiscrf.survey_acc.v1";

[[noreturn]] void Malformed(const std::string& detail) {
  throw std::runtime_error("malformed survey accumulator state: " + detail);
}

size_t ParseCount(std::istringstream& fields, const char* key) {
  unsigned long long v = 0;
  if (!(fields >> v)) Malformed(std::string("bad value for ") + key);
  return static_cast<size_t>(v);
}

// Map keys (registrar names, country codes, services, brands) may contain
// spaces, so they are serialized as the rest of the line after the
// numeric fields.
std::string ParseRestOfLine(std::istringstream& fields) {
  std::string rest;
  std::getline(fields, rest);
  if (!rest.empty() && rest.front() == ' ') rest.erase(0, 1);
  return rest;
}

void AppendCountMap(std::string& out, const char* key,
                    const std::map<std::string, size_t>& counts) {
  for (const auto& [name, count] : counts) {
    out += util::Format("%s %llu ", key,
                        static_cast<unsigned long long>(count));
    out += name;
    out += '\n';
  }
}

// Ranking/share core of every top-k query: turns pre-reduced group counts
// into the sorted top-k with shares and other/unknown buckets. `total` is
// the number of filtered rows (known + unknown groups) and is the share
// denominator; ties break by key.
TopKResult TopKFromCounts(const std::map<std::string, size_t>& counts,
                          size_t total, size_t unknown, size_t k) {
  TopKResult result;
  result.total = total;
  result.unknown_count = unknown;
  std::vector<std::pair<std::string, size_t>> sorted(counts.begin(),
                                                     counts.end());
  std::sort(sorted.begin(), sorted.end(), [](const auto& a, const auto& b) {
    if (a.second != b.second) return a.second > b.second;
    return a.first < b.first;  // deterministic tie-break
  });
  const double denom = total > 0 ? static_cast<double>(total) : 1.0;
  for (size_t i = 0; i < sorted.size(); ++i) {
    if (i < k) {
      result.top.push_back(CountRow{sorted[i].first, sorted[i].second,
                                    static_cast<double>(sorted[i].second) /
                                        denom});
    } else {
      result.other_count += sorted[i].second;
    }
  }
  return result;
}

}  // namespace

SurveyAccumulator::SurveyAccumulator(std::vector<std::string> brands)
    : brands_(std::move(brands)) {
  for (const std::string& brand : brands_) brand_counts_[brand] = 0;
}

void SurveyAccumulator::Add(const DomainRow& row) {
  ++records_;

  YearSlot& slot = years_[row.created_year];
  ++slot.rows;
  if (row.registrar.empty()) {
    ++slot.registrar_unknown;
  } else {
    ++slot.registrars[row.registrar];
  }
  if (row.privacy_protected) {
    ++slot.privacy;
  } else if (row.country_code.empty()) {
    ++slot.country_unknown;
  } else {
    ++slot.countries[row.country_code];
  }
  if (row.on_dbl) {
    ++slot.dbl_rows;
    if (row.registrar.empty()) {
      ++slot.dbl_registrar_unknown;
    } else {
      ++slot.dbl_registrars[row.registrar];
    }
    if (row.privacy_protected) {
      ++slot.dbl_privacy;
    } else if (row.country_code.empty()) {
      ++slot.dbl_country_unknown;
    } else {
      ++slot.dbl_countries[row.country_code];
    }
  }

  if (row.privacy_protected) {
    ++privacy_rows_;
    if (row.registrar.empty()) {
      ++privacy_registrar_unknown_;
    } else {
      ++privacy_registrars_[row.registrar];
    }
    if (row.privacy_service.empty()) {
      ++privacy_service_unknown_;
    } else {
      ++privacy_services_[row.privacy_service];
    }
  } else {
    // Figure 5 reads the country mix of one registrar's non-privacy rows;
    // the registrar key may itself be empty (unattributed rows form their
    // own slot, so RegistrarCountryBreakdown("") reports them).
    RegistrarSlot& reg = registrar_countries_[row.registrar];
    ++reg.rows;
    if (row.country_code.empty()) {
      ++reg.country_unknown;
    } else {
      ++reg.countries[row.country_code];
    }
  }

  if (!brand_counts_.empty()) {
    const auto it = brand_counts_.find(row.registrant_org);
    if (it != brand_counts_.end()) ++it->second;
  }
}

TopKResult SurveyAccumulator::TopCountries(size_t k,
                                           std::optional<int> year) const {
  if (year.has_value()) {
    const auto it = years_.find(*year);
    if (it == years_.end()) return TopKFromCounts({}, 0, 0, k);
    const YearSlot& slot = it->second;
    return TopKFromCounts(slot.countries, slot.rows - slot.privacy,
                          slot.country_unknown, k);
  }
  std::map<std::string, size_t> counts;
  size_t total = 0;
  size_t unknown = 0;
  for (const auto& [y, slot] : years_) {
    total += slot.rows - slot.privacy;
    unknown += slot.country_unknown;
    for (const auto& [cc, count] : slot.countries) counts[cc] += count;
  }
  return TopKFromCounts(counts, total, unknown, k);
}

TopKResult SurveyAccumulator::TopRegistrars(size_t k,
                                            std::optional<int> year) const {
  if (year.has_value()) {
    const auto it = years_.find(*year);
    if (it == years_.end()) return TopKFromCounts({}, 0, 0, k);
    const YearSlot& slot = it->second;
    return TopKFromCounts(slot.registrars, slot.rows, slot.registrar_unknown,
                          k);
  }
  std::map<std::string, size_t> counts;
  size_t total = 0;
  size_t unknown = 0;
  for (const auto& [y, slot] : years_) {
    total += slot.rows;
    unknown += slot.registrar_unknown;
    for (const auto& [name, count] : slot.registrars) counts[name] += count;
  }
  return TopKFromCounts(counts, total, unknown, k);
}

TopKResult SurveyAccumulator::TopPrivacyRegistrars(size_t k) const {
  return TopKFromCounts(privacy_registrars_, privacy_rows_,
                        privacy_registrar_unknown_, k);
}

TopKResult SurveyAccumulator::TopPrivacyServices(size_t k) const {
  return TopKFromCounts(privacy_services_, privacy_rows_,
                        privacy_service_unknown_, k);
}

std::vector<CountRow> SurveyAccumulator::BrandCounts() const {
  std::vector<CountRow> out;
  for (const std::string& brand : brands_) {
    CountRow row;
    row.key = brand;
    const auto it = brand_counts_.find(brand);
    if (it != brand_counts_.end()) row.count = it->second;
    out.push_back(std::move(row));
  }
  std::sort(out.begin(), out.end(), [](const CountRow& a, const CountRow& b) {
    if (a.count != b.count) return a.count > b.count;
    return a.key < b.key;
  });
  return out;
}

TopKResult SurveyAccumulator::DblTopCountries(size_t k, int year) const {
  const auto it = years_.find(year);
  if (it == years_.end()) return TopKFromCounts({}, 0, 0, k);
  const YearSlot& slot = it->second;
  return TopKFromCounts(slot.dbl_countries, slot.dbl_rows - slot.dbl_privacy,
                        slot.dbl_country_unknown, k);
}

TopKResult SurveyAccumulator::DblTopRegistrars(size_t k, int year) const {
  const auto it = years_.find(year);
  if (it == years_.end()) return TopKFromCounts({}, 0, 0, k);
  const YearSlot& slot = it->second;
  return TopKFromCounts(slot.dbl_registrars, slot.dbl_rows,
                        slot.dbl_registrar_unknown, k);
}

std::map<int, size_t> SurveyAccumulator::CreationHistogram() const {
  std::map<int, size_t> hist;
  for (const auto& [year, slot] : years_) {
    if (year > 0) hist[year] = slot.rows;
  }
  return hist;
}

std::vector<YearComposition> SurveyAccumulator::CountryProportionsByYear(
    const std::vector<std::string>& countries, int min_year,
    int max_year) const {
  const std::set<std::string> tracked(countries.begin(), countries.end());
  std::vector<YearComposition> out;
  for (int year = min_year; year <= max_year; ++year) {
    const auto it = years_.find(year);
    if (it == years_.end() || it->second.rows == 0) continue;
    const YearSlot& slot = it->second;
    YearComposition comp;
    comp.year = year;
    comp.total = slot.rows;
    const double denom = static_cast<double>(slot.rows);
    size_t tracked_total = 0;
    for (const std::string& cc : countries) {
      const auto cit = slot.countries.find(cc);
      const size_t count = cit != slot.countries.end() ? cit->second : 0;
      comp.shares[cc] = static_cast<double>(count) / denom;
    }
    for (const auto& [cc, count] : slot.countries) {
      if (tracked.count(cc) > 0) tracked_total += count;
    }
    const size_t other =
        slot.rows - slot.privacy - slot.country_unknown - tracked_total;
    comp.shares["Private"] = static_cast<double>(slot.privacy) / denom;
    comp.shares["Unknown"] =
        static_cast<double>(slot.country_unknown) / denom;
    comp.shares["Other"] = static_cast<double>(other) / denom;
    out.push_back(std::move(comp));
  }
  return out;
}

TopKResult SurveyAccumulator::RegistrarCountryBreakdown(
    const std::string& registrar, size_t k) const {
  const auto it = registrar_countries_.find(registrar);
  if (it == registrar_countries_.end()) return TopKFromCounts({}, 0, 0, k);
  const RegistrarSlot& slot = it->second;
  return TopKFromCounts(slot.countries, slot.rows, slot.country_unknown, k);
}

std::string SurveyAccumulator::Serialize() const {
  std::string out;
  out += kAccumulatorHeader;
  out += '\n';
  out += util::Format("records %llu\n",
                      static_cast<unsigned long long>(records_));
  out += util::Format(
      "privacy %llu %llu %llu\n",
      static_cast<unsigned long long>(privacy_rows_),
      static_cast<unsigned long long>(privacy_registrar_unknown_),
      static_cast<unsigned long long>(privacy_service_unknown_));
  AppendCountMap(out, "preg", privacy_registrars_);
  AppendCountMap(out, "psvc", privacy_services_);
  for (const std::string& brand : brands_) {
    const auto it = brand_counts_.find(brand);
    out += util::Format(
        "brand %llu ",
        static_cast<unsigned long long>(
            it != brand_counts_.end() ? it->second : 0));
    out += brand;
    out += '\n';
  }
  for (const auto& [year, slot] : years_) {
    out += util::Format(
        "year %d %llu %llu %llu %llu %llu %llu %llu %llu\n", year,
        static_cast<unsigned long long>(slot.rows),
        static_cast<unsigned long long>(slot.privacy),
        static_cast<unsigned long long>(slot.country_unknown),
        static_cast<unsigned long long>(slot.registrar_unknown),
        static_cast<unsigned long long>(slot.dbl_rows),
        static_cast<unsigned long long>(slot.dbl_privacy),
        static_cast<unsigned long long>(slot.dbl_country_unknown),
        static_cast<unsigned long long>(slot.dbl_registrar_unknown));
    AppendCountMap(out, "yc", slot.countries);
    AppendCountMap(out, "yreg", slot.registrars);
    AppendCountMap(out, "ydc", slot.dbl_countries);
    AppendCountMap(out, "ydreg", slot.dbl_registrars);
  }
  for (const auto& [name, slot] : registrar_countries_) {
    out += util::Format("reg %llu %llu ",
                        static_cast<unsigned long long>(slot.rows),
                        static_cast<unsigned long long>(slot.country_unknown));
    out += name;
    out += '\n';
    AppendCountMap(out, "rcc", slot.countries);
  }
  out += "end\n";
  return out;
}

SurveyAccumulator SurveyAccumulator::Deserialize(const std::string& text) {
  std::istringstream in(text);
  std::string line;
  if (!std::getline(in, line) || line != kAccumulatorHeader) {
    Malformed("missing header");
  }
  SurveyAccumulator acc;
  YearSlot* year_slot = nullptr;       // context for yc/yreg/ydc/ydreg
  RegistrarSlot* reg_slot = nullptr;   // context for rcc
  bool saw_end = false;
  while (std::getline(in, line)) {
    if (saw_end) Malformed("data after end marker");
    if (line.empty()) continue;
    std::istringstream fields(line);
    std::string key;
    fields >> key;
    if (key == "records") {
      acc.records_ = ParseCount(fields, "records");
    } else if (key == "privacy") {
      acc.privacy_rows_ = ParseCount(fields, "privacy");
      acc.privacy_registrar_unknown_ = ParseCount(fields, "privacy");
      acc.privacy_service_unknown_ = ParseCount(fields, "privacy");
    } else if (key == "preg") {
      const size_t count = ParseCount(fields, "preg");
      acc.privacy_registrars_[ParseRestOfLine(fields)] = count;
    } else if (key == "psvc") {
      const size_t count = ParseCount(fields, "psvc");
      acc.privacy_services_[ParseRestOfLine(fields)] = count;
    } else if (key == "brand") {
      const size_t count = ParseCount(fields, "brand");
      std::string brand = ParseRestOfLine(fields);
      acc.brand_counts_[brand] = count;
      acc.brands_.push_back(std::move(brand));
    } else if (key == "year") {
      int year = 0;
      if (!(fields >> year)) Malformed("bad year");
      YearSlot& slot = acc.years_[year];
      slot.rows = ParseCount(fields, "year");
      slot.privacy = ParseCount(fields, "year");
      slot.country_unknown = ParseCount(fields, "year");
      slot.registrar_unknown = ParseCount(fields, "year");
      slot.dbl_rows = ParseCount(fields, "year");
      slot.dbl_privacy = ParseCount(fields, "year");
      slot.dbl_country_unknown = ParseCount(fields, "year");
      slot.dbl_registrar_unknown = ParseCount(fields, "year");
      year_slot = &slot;
      reg_slot = nullptr;
    } else if (key == "yc" || key == "yreg" || key == "ydc" ||
               key == "ydreg") {
      if (year_slot == nullptr) Malformed(key + " outside a year block");
      const size_t count = ParseCount(fields, key.c_str());
      std::string name = ParseRestOfLine(fields);
      if (key == "yc") {
        year_slot->countries[std::move(name)] = count;
      } else if (key == "yreg") {
        year_slot->registrars[std::move(name)] = count;
      } else if (key == "ydc") {
        year_slot->dbl_countries[std::move(name)] = count;
      } else {
        year_slot->dbl_registrars[std::move(name)] = count;
      }
    } else if (key == "reg") {
      const size_t rows = ParseCount(fields, "reg");
      const size_t unknown = ParseCount(fields, "reg");
      RegistrarSlot& slot = acc.registrar_countries_[ParseRestOfLine(fields)];
      slot.rows = rows;
      slot.country_unknown = unknown;
      reg_slot = &slot;
      year_slot = nullptr;
    } else if (key == "rcc") {
      if (reg_slot == nullptr) Malformed("rcc outside a reg block");
      const size_t count = ParseCount(fields, "rcc");
      reg_slot->countries[ParseRestOfLine(fields)] = count;
    } else if (key == "end") {
      saw_end = true;
    } else {
      Malformed("unknown key '" + key + "'");
    }
  }
  // The end marker guards against a truncated blob looking like a smaller
  // but valid state.
  if (!saw_end) Malformed("missing end marker");
  return acc;
}

size_t SurveyAccumulator::state_entries() const {
  size_t entries = privacy_registrars_.size() + privacy_services_.size() +
                   brand_counts_.size();
  for (const auto& [year, slot] : years_) {
    entries += 1 + slot.countries.size() + slot.registrars.size() +
               slot.dbl_countries.size() + slot.dbl_registrars.size();
  }
  for (const auto& [name, slot] : registrar_countries_) {
    entries += 1 + slot.countries.size();
  }
  return entries;
}

}  // namespace whoiscrf::survey
