// Table 3: top 10 countries of domain registrants, across all time and for
// domains created in 2014 (§6.1). Privacy-protected domains are excluded
// because the registrant country cannot be inferred.
#include <cstdio>

#include "bench_common.h"

int main() {
  using namespace whoiscrf;
  bench::PrintHeader("Table 3", "top registrant countries");

  const auto acc = bench::SharedSurveyAccumulator();

  std::printf("\nRegistrants across all time:\n%s\n",
              bench::RenderTopK(
                  "Country",
                  bench::WithCountryNames(acc.TopCountries(10)))
                  .c_str());
  std::printf("Registrants in 2014:\n%s\n",
              bench::RenderTopK(
                  "Country",
                  bench::WithCountryNames(acc.TopCountries(10, 2014)))
                  .c_str());
  std::printf(
      "Paper shape: US first (~48%% all-time, ~41%% in 2014), China second\n"
      "and sharply rising (9.6%% all-time -> 18.2%% in 2014), then UK and\n"
      "other European countries; a few percent Unknown.\n");
  return 0;
}
