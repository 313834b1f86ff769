// Figure 4: (a) histogram of domain creation dates by year; (b) per-year
// country / privacy-protection composition (§6.1).
#include <algorithm>
#include <cstdio>

#include "bench_common.h"

int main() {
  using namespace whoiscrf;
  bench::PrintHeader("Figure 4",
                     "creation-date histogram and country proportions");

  const auto acc = bench::SharedSurveyAccumulator();

  // (a) Histogram, rendered as an ASCII bar chart.
  const auto hist = acc.CreationHistogram();
  size_t max_count = 1;
  for (const auto& [year, count] : hist) max_count = std::max(max_count, count);
  std::printf("\n(a) domains by creation year\n");
  for (const auto& [year, count] : hist) {
    const int bar = static_cast<int>(
        60.0 * static_cast<double>(count) / static_cast<double>(max_count));
    std::printf("%4d %8zu |%.*s\n", year, count, bar,
                "############################################################");
  }

  // (b) Composition per year, same series as the paper's stacked plot.
  const std::vector<std::string> countries = {"US", "CN", "GB", "FR", "DE"};
  std::printf("\n(b) per-year composition (fractions)\n");
  std::printf("%4s %8s %7s %7s %7s %7s %7s %7s %7s %7s\n", "year", "total",
              "Private", "Unknown", "Other", "US", "CN", "GB", "FR", "DE");
  for (const auto& comp :
       acc.CountryProportionsByYear(countries, 1995, 2014)) {
    std::printf("%4d %8zu %7.3f %7.3f %7.3f %7.3f %7.3f %7.3f %7.3f %7.3f\n",
                comp.year, comp.total, comp.shares.at("Private"),
                comp.shares.at("Unknown"), comp.shares.at("Other"),
                comp.shares.at("US"), comp.shares.at("CN"),
                comp.shares.at("GB"), comp.shares.at("FR"),
                comp.shares.at("DE"));
  }
  std::printf(
      "\nPaper shape: registrations grow dramatically with an increasing\n"
      "rate; privacy protection rises over time and passes 20%% in 2014;\n"
      "the US share of new registrations declines while China's grows.\n");
  return 0;
}
