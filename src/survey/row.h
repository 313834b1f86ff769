// DomainRow: the parsed registration fields of one domain that the
// paper's §6 survey reads ("we applied [the parser] to our crawl ... and
// constructed a database of the fields extracted by the parser").
// RowFromParse (survey/build.h) produces rows; SurveyAccumulator
// (survey/accumulator.h) folds them into the §6 aggregates.
#pragma once

#include <string>
#include <string_view>

namespace whoiscrf::survey {

struct DomainRow {
  std::string domain;
  std::string registrar;        // normalized short name ("GoDaddy")
  int created_year = 0;         // 0 = unknown
  std::string country_code;     // "" = unknown
  std::string registrant_name;
  std::string registrant_org;
  bool privacy_protected = false;
  std::string privacy_service;  // canonical service name when protected
  bool on_dbl = false;
};

// Privacy-service detection by keyword matching on the registrant name and
// organization fields (§6.3: "We identify privacy protection services using
// a small set of keywords to match against registrant name and/or
// organization fields"). On a match, *canonical_service receives the
// service's canonical name (or the raw field when unrecognized).
bool DetectPrivacyService(std::string_view registrant_name,
                          std::string_view registrant_org,
                          std::string* canonical_service);

}  // namespace whoiscrf::survey
