// Table 8: top 10 registrant countries of .com domains on the (simulated)
// DBL blacklist, created in 2014 (§6.4).
#include <cstdio>

#include "bench_common.h"

int main() {
  using namespace whoiscrf;
  bench::PrintHeader("Table 8", "registrant countries of DBL domains (2014)");

  const auto acc = bench::SharedSurveyAccumulator();
  std::printf("\n%s\n",
              bench::RenderTopK(
                  "Country",
                  bench::WithCountryNames(acc.DblTopCountries(10, 2014)))
                  .c_str());
  std::printf(
      "Paper shape: compared with all registrations (Table 3), Japan,\n"
      "China, and Vietnam are much more pronounced among blacklisted\n"
      "domains; European countries recede.\n");
  return 0;
}
