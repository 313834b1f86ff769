// Builders that turn parser output into survey rows — the glue between the
// statistical parser and the §6 analyses.
#pragma once

#include <string>

#include "datagen/corpus_gen.h"
#include "survey/normalize.h"
#include "survey/row.h"
#include "whois/record.h"
#include "whois/whois_parser.h"

namespace whoiscrf::survey {

// Normalizes a parsed record into one survey row.
//   * registrar display names are folded to the registrar table's short
//     names ("GoDaddy.com, LLC" -> "GoDaddy");
//   * the creation year is extracted from the raw date string;
//   * the registrant country is normalized to a 2-letter code whether the
//     record printed a code or a display name;
//   * privacy protection is detected from the registrant name/org fields.
// `on_dbl` comes from the (external) blacklist, as in the paper.
DomainRow RowFromParse(const std::string& domain,
                       const whois::ParsedWhois& parsed,
                       const datagen::RegistrarTable& registrars,
                       bool on_dbl);

// Hot-path overload: identical rows, but registrar/country folding goes
// through the normalizer's precomputed indices instead of per-call scans.
// Build one SurveyNormalizer per registrar table and reuse it.
DomainRow RowFromParse(const std::string& domain,
                       const whois::ParsedWhois& parsed,
                       const SurveyNormalizer& normalizer, bool on_dbl);

}  // namespace whoiscrf::survey
