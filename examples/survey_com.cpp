// Survey pipeline (paper §6): crawl a simulated .com, parse every thick
// record with the trained statistical parser, fold the fields into the
// survey accumulator, and print the registrant / registrar / privacy
// views.
#include <cstdio>

#include "datagen/corpus_gen.h"
#include "net/crawler.h"
#include "net/simulation.h"
#include "survey/accumulator.h"
#include "survey/build.h"
#include "util/string_util.h"
#include "util/table.h"
#include "whois/whois_parser.h"

int main() {
  using namespace whoiscrf;

  datagen::CorpusOptions corpus_options;
  corpus_options.size = 3000;
  corpus_options.seed = 2015;
  corpus_options.dbl_boost = 25.0;
  const datagen::CorpusGenerator generator(corpus_options);

  // Train the parser on a small labeled sample (§5.1 shows a few hundred
  // examples already reach >99% line accuracy).
  std::vector<whois::LabeledRecord> train;
  for (size_t i = 0; i < 300; ++i) {
    train.push_back(generator.Generate(i).thick);
  }
  std::printf("training parser on %zu labeled records...\n", train.size());
  const whois::WhoisParser parser = whois::WhoisParser::Train(train);

  // Crawl the simulated registry + registrars.
  net::SimulationOptions sim_options;
  sim_options.num_domains = corpus_options.size;
  auto sim = net::BuildSimulatedInternet(generator, sim_options);
  net::SimClock clock;
  net::CrawlerOptions crawl_options;
  crawl_options.registry_server = sim.registry_server;
  net::Crawler crawler(*sim.network, clock, crawl_options);
  std::printf("crawling %zu domains...\n", sim.zone_domains.size());

  survey::SurveyAccumulator acc;
  for (const auto& result : crawler.CrawlAll(sim.zone_domains)) {
    if (result.status != net::CrawlResult::Status::kOk) continue;
    const auto parsed = parser.Parse(result.thick);
    const auto& truth = sim.truth.at(result.domain);
    auto row = survey::RowFromParse(result.domain, parsed,
                                    generator.registrars(),
                                    truth.facts.on_dbl);
    if (row.registrar.empty()) {
      row.registrar = truth.facts.registrar_name;  // thin-record fallback
    }
    acc.Add(row);
  }
  std::printf("parsed %zu records into the survey database "
              "(crawl: %zu ok, %zu no-match, %zu failed)\n\n",
              static_cast<size_t>(acc.records()), crawler.stats().ok,
              crawler.stats().no_match, crawler.stats().failed);

  auto print_topk = [](const char* title, const survey::TopKResult& result) {
    std::printf("%s\n", title);
    util::TextTable table({"", "count", "share"});
    for (const auto& row : result.top) {
      table.AddRow({row.key, std::to_string(row.count),
                    util::Format("%.1f%%", 100.0 * row.share)});
    }
    std::printf("%s\n", table.Render().c_str());
  };

  print_topk("Top registrant countries:", acc.TopCountries(5));
  print_topk("Top registrars:", acc.TopRegistrars(5));
  print_topk("Top privacy services:", acc.TopPrivacyServices(5));

  const auto hist = acc.CreationHistogram();
  std::printf("registrations by creation year (last 8 years):\n");
  int shown = 0;
  for (auto it = hist.rbegin(); it != hist.rend() && shown < 8; ++it, ++shown) {
    std::printf("  %d: %zu\n", it->first, it->second);
  }
  return 0;
}
