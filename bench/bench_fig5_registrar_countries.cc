// Figure 5: top 3 registrant countries for selected registrars (§6.2).
#include <cstdio>

#include "bench_common.h"
#include "datagen/country_data.h"

int main() {
  using namespace whoiscrf;
  bench::PrintHeader("Figure 5", "top registrant countries per registrar");

  const auto acc = bench::SharedSurveyAccumulator();
  const std::vector<std::string> registrars = {"eNom", "HiChina",
                                               "GMO Internet", "Melbourne IT"};
  for (const auto& registrar : registrars) {
    const auto result = acc.RegistrarCountryBreakdown(registrar, 3);
    std::printf("\n%-13s (n=%zu, unknown country: %.1f%%)\n",
                registrar.c_str(), result.total,
                result.total == 0
                    ? 0.0
                    : 100.0 * static_cast<double>(result.unknown_count) /
                          static_cast<double>(result.total));
    for (const auto& row : result.top) {
      std::printf("   %-4s %-16s %5.1f%%\n", row.key.c_str(),
                  std::string(datagen::CountryDisplayName(row.key)).c_str(),
                  100.0 * row.share);
    }
  }
  std::printf(
      "\nPaper shape: eNom is US/GB/CA; HiChina is dominated by China with\n"
      "a large missing-country share; GMO is primarily Japanese; Melbourne\n"
      "IT, though Australian, is led by US customers, then AU and JP.\n");
  return 0;
}
