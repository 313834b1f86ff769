#include "survey/build.h"

#include <string_view>
#include <vector>

#include "datagen/privacy.h"
#include "util/byte_scan.h"
#include "util/string_util.h"

namespace whoiscrf::survey {

namespace {

// Every needle, lowered once, in match order: the canonical services in
// table order, then the generic keywords ("they stand out because they by
// definition have many domains associated with them").
struct PrivacyNeedles {
  std::vector<std::string> lowered;
  size_t services = 0;  // lowered[0, services) are PrivacyServices()
};

const PrivacyNeedles& Needles() {
  static const PrivacyNeedles needles = [] {
    PrivacyNeedles n;
    for (const auto& service : datagen::PrivacyServices()) {
      n.lowered.push_back(util::ToLower(service.name));
    }
    n.services = n.lowered.size();
    for (std::string_view keyword :
         {"privacy", "proxy", "private registration", "whois agent",
          "protected", "whoisguard", "identity shield"}) {
      n.lowered.push_back(util::ToLower(keyword));
    }
    return n;
  }();
  return needles;
}

}  // namespace

bool DetectPrivacyService(std::string_view registrant_name,
                          std::string_view registrant_org,
                          std::string* canonical_service) {
  // One lowered haystack, name NUL org. No needle holds a NUL, so a match
  // never spans the two fields: finding a needle here is finding it in
  // either field. Lowering is ASCII-only, as std::tolower is in the C
  // locale the program runs in.
  thread_local std::string haystack;
  haystack.assign(registrant_name);
  haystack.push_back('\0');
  haystack.append(registrant_org);
  util::scan::AsciiLower(haystack.data(), haystack.size(), haystack.data());
  const PrivacyNeedles& needles = Needles();
  for (size_t i = 0; i < needles.lowered.size(); ++i) {
    if (haystack.find(needles.lowered[i]) == std::string::npos) continue;
    if (canonical_service != nullptr) {
      if (i < needles.services) {
        canonical_service->assign(datagen::PrivacyServices()[i].name);
      } else {
        canonical_service->assign(registrant_org.empty() ? registrant_name
                                                         : registrant_org);
      }
    }
    return true;
  }
  return false;
}

namespace {

// Row assembly shared by both RowFromParse overloads; only the
// registrar/country folding strategy differs.
template <typename RegistrarFn, typename CountryFn>
DomainRow AssembleRow(const std::string& domain,
                      const whois::ParsedWhois& parsed, bool on_dbl,
                      RegistrarFn&& normalize_registrar,
                      CountryFn&& normalize_country) {
  DomainRow row;
  row.domain = domain;
  row.registrar = normalize_registrar(parsed.registrar);
  row.created_year = whois::ExtractYear(parsed.created).value_or(0);
  row.registrant_name = parsed.registrant.name;
  row.registrant_org = parsed.registrant.org;
  row.on_dbl = on_dbl;

  std::string service;
  row.privacy_protected = DetectPrivacyService(
      parsed.registrant.name, parsed.registrant.org, &service);
  if (row.privacy_protected) {
    row.privacy_service = service;
  } else {
    row.country_code = normalize_country(parsed.registrant.country);
  }
  return row;
}

}  // namespace

DomainRow RowFromParse(const std::string& domain,
                       const whois::ParsedWhois& parsed,
                       const datagen::RegistrarTable& registrars,
                       bool on_dbl) {
  return AssembleRow(
      domain, parsed, on_dbl,
      [&](const std::string& name) {
        return NormalizeRegistrarScan(name, registrars);
      },
      [](const std::string& value) { return NormalizeCountryScan(value); });
}

DomainRow RowFromParse(const std::string& domain,
                       const whois::ParsedWhois& parsed,
                       const SurveyNormalizer& normalizer, bool on_dbl) {
  return AssembleRow(
      domain, parsed, on_dbl,
      [&](const std::string& name) {
        return normalizer.NormalizeRegistrar(name);
      },
      [&](const std::string& value) {
        return normalizer.NormalizeCountry(value);
      });
}

}  // namespace whoiscrf::survey
