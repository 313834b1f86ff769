// Table 9: top 10 registrars of .com domains on the (simulated) DBL
// blacklist, created in 2014 (§6.4).
#include <cstdio>

#include "bench_common.h"

int main() {
  using namespace whoiscrf;
  bench::PrintHeader("Table 9", "registrars of DBL domains (2014)");

  const auto acc = bench::SharedSurveyAccumulator();
  std::printf("\n%s\n",
              bench::RenderTopK("Registrar",
                                acc.DblTopRegistrars(10, 2014))
                  .c_str());
  std::printf(
      "Paper shape: abuse-implicated registrars (eNom, GMO Internet,\n"
      "Moniker, Xinnet, Bizcn) are over-represented relative to their\n"
      "market share; GoDaddy under-represented.\n");
  return 0;
}
