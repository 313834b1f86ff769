#include "survey/build.h"

#include "datagen/privacy.h"
#include "util/string_util.h"

namespace whoiscrf::survey {

bool DetectPrivacyService(std::string_view registrant_name,
                          std::string_view registrant_org,
                          std::string* canonical_service) {
  // Canonical services first: exact-ish name containment.
  for (const auto& service : datagen::PrivacyServices()) {
    if (util::ContainsIgnoreCase(registrant_name, service.name) ||
        util::ContainsIgnoreCase(registrant_org, service.name)) {
      if (canonical_service != nullptr) {
        *canonical_service = std::string(service.name);
      }
      return true;
    }
  }
  // Generic keywords ("they stand out because they by definition have many
  // domains associated with them").
  for (std::string_view keyword :
       {"privacy", "proxy", "private registration", "whois agent",
        "protected", "whoisguard", "identity shield"}) {
    if (util::ContainsIgnoreCase(registrant_name, keyword) ||
        util::ContainsIgnoreCase(registrant_org, keyword)) {
      if (canonical_service != nullptr) {
        *canonical_service = registrant_org.empty()
                                 ? std::string(registrant_name)
                                 : std::string(registrant_org);
      }
      return true;
    }
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
