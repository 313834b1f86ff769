// Table 5: top 10 registrars of .com domains, all-time and 2014 (§6.2).
#include <cstdio>

#include "bench_common.h"

int main() {
  using namespace whoiscrf;
  bench::PrintHeader("Table 5", "top registrars");

  const auto acc = bench::SharedSurveyAccumulator();

  std::printf("\nRegistrations across all time:\n%s\n",
              bench::RenderTopK("Registrar", acc.TopRegistrars(10))
                  .c_str());
  std::printf("Registrations in 2014:\n%s\n",
              bench::RenderTopK("Registrar",
                                acc.TopRegistrars(10, 2014))
                  .c_str());
  std::printf(
      "Paper shape: GoDaddy ~34%% both columns; eNom and Network Solutions\n"
      "next all-time; Chinese registrars (HiChina, Xinnet) rise into the\n"
      "2014 top 10; top-10 concentration ~66-73%%.\n");
  return 0;
}
