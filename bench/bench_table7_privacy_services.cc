// Table 7: top 10 privacy protection services (§6.3), identified by keyword
// matching on the parsed registrant name/organization fields.
#include <cstdio>

#include "bench_common.h"

int main() {
  using namespace whoiscrf;
  bench::PrintHeader("Table 7", "privacy protection services");

  const auto acc = bench::SharedSurveyAccumulator();
  std::printf("\n%s\n",
              bench::RenderTopK("Protection Service",
                                acc.TopPrivacyServices(10))
                  .c_str());
  std::printf(
      "Paper shape: Domains By Proxy ~36%% of protected domains; a long\n"
      "tail of services including generic names (Private Registration,\n"
      "Hidden by Whois Privacy Protection Service) that do not correspond\n"
      "to identifiable organizations.\n");
  return 0;
}
