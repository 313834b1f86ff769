#include "bench_common.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <stdexcept>

#include "datagen/country_data.h"
#include "datagen/pools.h"
#include "survey/build.h"
#include "survey/normalize.h"
#include "util/checkpoint.h"
#include "util/env.h"
#include "util/string_util.h"
#include "util/table.h"
#include "util/thread_pool.h"
#include "whois/record_stream.h"
#include "whois/stream_pipeline.h"

namespace whoiscrf::bench {

datagen::CorpusGenerator MakeSurveyGenerator(size_t size) {
  datagen::CorpusOptions options;
  options.size = size;
  options.seed = kCorpusSeed;
  options.drift_fraction = 0.25;
  options.dbl_boost = 40.0;
  options.brand_boost = 5.0;
  return datagen::CorpusGenerator(options);
}

datagen::CorpusGenerator MakeEvalGenerator(size_t size) {
  datagen::CorpusOptions options;
  options.size = size;
  options.seed = kCorpusSeed;
  options.drift_fraction = 0.25;
  return datagen::CorpusGenerator(options);
}

std::vector<whois::LabeledRecord> TakeRecords(
    const datagen::CorpusGenerator& generator, size_t begin, size_t count) {
  std::vector<whois::LabeledRecord> out;
  out.reserve(count);
  for (size_t i = begin; i < begin + count; ++i) {
    out.push_back(generator.Generate(i).thick);
  }
  return out;
}

whois::WhoisParser TrainParser(
    const std::vector<whois::LabeledRecord>& train) {
  whois::WhoisParserOptions options;
  options.trainer.l2_sigma = 10.0;
  options.trainer.lbfgs.max_iterations = 150;
  return whois::WhoisParser::Train(train, options);
}

ErrorRates EvaluateStatistical(
    const whois::WhoisParser& parser,
    const std::vector<whois::LabeledRecord>& test) {
  ErrorRates rates;
  size_t wrong_lines = 0;
  size_t wrong_docs = 0;
  for (const auto& record : test) {
    const auto predicted = parser.LabelLines(record.text);
    bool any = false;
    for (size_t t = 0; t < predicted.size(); ++t) {
      ++rates.lines;
      if (predicted[t] != record.labels[t]) {
        ++wrong_lines;
        any = true;
      }
    }
    ++rates.documents;
    if (any) ++wrong_docs;
  }
  rates.line = rates.lines ? static_cast<double>(wrong_lines) / rates.lines : 0;
  rates.document =
      rates.documents ? static_cast<double>(wrong_docs) / rates.documents : 0;
  return rates;
}

ErrorRates EvaluateRuleBased(const baselines::RuleBasedParser& parser,
                             const std::vector<whois::LabeledRecord>& test) {
  ErrorRates rates;
  size_t wrong_lines = 0;
  size_t wrong_docs = 0;
  for (const auto& record : test) {
    const auto predicted = parser.LabelLines(record.text);
    bool any = false;
    for (size_t t = 0; t < predicted.size(); ++t) {
      ++rates.lines;
      if (predicted[t] != record.labels[t]) {
        ++wrong_lines;
        any = true;
      }
    }
    ++rates.documents;
    if (any) ++wrong_docs;
  }
  rates.line = rates.lines ? static_cast<double>(wrong_lines) / rates.lines : 0;
  rates.document =
      rates.documents ? static_cast<double>(wrong_docs) / rates.documents : 0;
  return rates;
}

std::string RenderTopK(const std::string& key_header,
                       const survey::TopKResult& result,
                       const std::string& unknown_label) {
  util::TextTable table({key_header, "Number", "(% All)"});
  auto pct = [&](size_t count) {
    return util::Format("(%.1f)",
                        result.total == 0
                            ? 0.0
                            : 100.0 * static_cast<double>(count) /
                                  static_cast<double>(result.total));
  };
  for (const auto& row : result.top) {
    table.AddRow({row.key, util::WithCommas(static_cast<long long>(row.count)),
                  pct(row.count)});
  }
  table.AddRow({"(Other)",
                util::WithCommas(static_cast<long long>(result.other_count)),
                pct(result.other_count)});
  if (result.unknown_count > 0 || unknown_label == "(Unknown)") {
    table.AddRow({unknown_label,
                  util::WithCommas(static_cast<long long>(result.unknown_count)),
                  pct(result.unknown_count)});
  }
  table.AddSeparator();
  table.AddRow({"Total", util::WithCommas(static_cast<long long>(result.total)),
                "(100.0)"});
  return table.Render();
}

survey::TopKResult WithCountryNames(survey::TopKResult result) {
  for (auto& row : result.top) {
    const auto name = datagen::CountryDisplayName(row.key);
    if (!name.empty()) row.key = std::string(name);
  }
  return result;
}

size_t SharedSurveyTrainCount() { return util::Scaled(800, 200); }
size_t SharedSurveyCount() { return util::Scaled(20000, 2000); }

namespace {

std::string CachePath() {
  return util::Format("/tmp/whoiscrf_bench_survey_%llu_%zu_%zu.acc",
                      static_cast<unsigned long long>(kCorpusSeed),
                      SharedSurveyTrainCount(), SharedSurveyCount());
}

// Generates the first `count` corpus domains in chunks on a thread pool,
// streams each chunk through whois::ParseStream, and folds one row per
// domain into the accumulator in input order. The domain and its DBL
// listing come from the generator's facts. When the thick record names no registrar, the row
// takes it from the thin registry record, which the crawl pipeline also
// holds (§2.2).
survey::SurveyAccumulator BuildSurvey(const datagen::CorpusGenerator& generator,
                                      const whois::WhoisParser& parser,
                                      size_t count) {
  std::vector<std::string> brands;
  for (const auto& brand : datagen::pools::Brands()) {
    brands.emplace_back(brand.company);
  }
  survey::SurveyAccumulator acc(std::move(brands));
  const survey::SurveyNormalizer normalizer(generator.registrars());
  util::ThreadPool pool(0);
  whois::StreamPipelineOptions options;
  options.threads = pool.size();
  constexpr size_t kChunk = 1024;
  std::vector<datagen::DomainFacts> facts;
  std::vector<std::string> texts;
  for (size_t begin = 0; begin < count; begin += kChunk) {
    const size_t end = std::min(count, begin + kChunk);
    facts.resize(end - begin);
    texts.resize(end - begin);
    pool.ParallelFor(end - begin, [&](size_t k) {
      datagen::GeneratedDomain domain = generator.Generate(begin + k);
      facts[k] = std::move(domain.facts);
      texts[k] = std::move(domain.thick.text);
    });
    whois::VectorRecordSource source(texts);
    whois::ParseStream(
        parser, source, options,
        [&](uint64_t k, const std::string&, const whois::ParsedWhois& parsed) {
          survey::DomainRow row = survey::RowFromParse(
              facts[k].domain, parsed, normalizer, facts[k].on_dbl);
          if (row.registrar.empty()) {
            row.registrar =
                normalizer.NormalizeRegistrar(facts[k].registrar_name);
          }
          acc.Add(row);
        });
  }
  return acc;
}

}  // namespace

survey::SurveyAccumulator SharedSurveyAccumulator() {
  const std::string path = CachePath();
  try {
    std::string blob;
    if (util::ReadFileToString(path, blob)) {
      survey::SurveyAccumulator cached =
          survey::SurveyAccumulator::Deserialize(blob);
      if (cached.records() == SharedSurveyCount()) {
        std::fprintf(stderr,
                     "[bench] using cached survey state %s (%zu records)\n",
                     path.c_str(), SharedSurveyCount());
        return cached;
      }
    }
  } catch (const std::runtime_error&) {
    // Unreadable or malformed cache: rebuild below and overwrite it.
  }
  std::fprintf(stderr,
               "[bench] training parser (%zu records) and parsing %zu domains"
               " (cached at %s for the other survey benches)\n",
               SharedSurveyTrainCount(), SharedSurveyCount(), path.c_str());
  const auto generator = MakeSurveyGenerator(SharedSurveyCount());
  const whois::WhoisParser parser =
      TrainParser(TakeRecords(generator, 0, SharedSurveyTrainCount()));
  survey::SurveyAccumulator acc =
      BuildSurvey(generator, parser, SharedSurveyCount());
  // Write-then-rename, so concurrent benches (ctest -j runs several at
  // once) never observe a torn cache file. A failed write only costs the
  // next bench a rebuild.
  try {
    util::AtomicWriteFile(path, acc.Serialize());
  } catch (const std::runtime_error&) {
  }
  return acc;
}

void PrintHeader(const std::string& artifact, const std::string& what) {
  std::printf("==============================================================\n");
  std::printf("%s — %s\n", artifact.c_str(), what.c_str());
  std::printf("(synthetic corpus; shapes reproduce the paper, absolute\n");
  std::printf(" counts scale with corpus size; WHOISCRF_SCALE=%g)\n",
              util::ScaleFactor());
  std::printf("==============================================================\n");
}

}  // namespace whoiscrf::bench

namespace whoiscrf::bench::cv {

namespace {
struct MeanStd {
  double mean = 0.0;
  double std_dev = 0.0;
};
MeanStd Reduce(const std::vector<double>& xs) {
  MeanStd out;
  if (xs.empty()) return out;
  for (double x : xs) out.mean += x;
  out.mean /= static_cast<double>(xs.size());
  double var = 0.0;
  for (double x : xs) var += (x - out.mean) * (x - out.mean);
  out.std_dev = xs.size() > 1
                    ? std::sqrt(var / static_cast<double>(xs.size() - 1))
                    : 0.0;
  return out;
}
}  // namespace

std::vector<SweepPoint> RunSweep(size_t corpus_size, int folds,
                                 const std::vector<size_t>& train_sizes,
                                 size_t max_test_per_fold) {
  const datagen::CorpusGenerator generator = MakeEvalGenerator(corpus_size);
  const auto all = TakeRecords(generator, 0, corpus_size);

  // The "best" rule-based parser is built from the full corpus, then rolled
  // back per subsample (§5.1: some pattern rules cannot be rolled back, so
  // this parser is always at least as strong as one built from scratch).
  const baselines::RuleBasedParser full_rules =
      baselines::RuleBasedParser::Build(all);

  const size_t fold_size = corpus_size / static_cast<size_t>(folds);
  std::vector<SweepPoint> points;
  for (size_t train_size : train_sizes) {
    SweepPoint point;
    point.train_size = train_size;
    std::vector<double> stat_line, rule_line, stat_doc, rule_doc;
    for (int fold = 0; fold < folds; ++fold) {
      const size_t begin = static_cast<size_t>(fold) * fold_size;
      std::vector<whois::LabeledRecord> train(
          all.begin() + static_cast<ptrdiff_t>(begin),
          all.begin() +
              static_cast<ptrdiff_t>(begin + std::min(train_size, fold_size)));
      std::vector<whois::LabeledRecord> test;
      for (size_t i = 0; i < all.size() && test.size() < max_test_per_fold;
           ++i) {
        if (i < begin || i >= begin + fold_size) test.push_back(all[i]);
      }
      const whois::WhoisParser parser = TrainParser(train);
      const baselines::RuleBasedParser rules = full_rules.RollBack(train);
      const ErrorRates stat = EvaluateStatistical(parser, test);
      const ErrorRates rule = EvaluateRuleBased(rules, test);
      stat_line.push_back(stat.line);
      rule_line.push_back(rule.line);
      stat_doc.push_back(stat.document);
      rule_doc.push_back(rule.document);
    }
    const MeanStd sl = Reduce(stat_line), rl = Reduce(rule_line);
    const MeanStd sd = Reduce(stat_doc), rd = Reduce(rule_doc);
    point.stat_line_mean = sl.mean;
    point.stat_line_std = sl.std_dev;
    point.rule_line_mean = rl.mean;
    point.rule_line_std = rl.std_dev;
    point.stat_doc_mean = sd.mean;
    point.stat_doc_std = sd.std_dev;
    point.rule_doc_mean = rd.mean;
    point.rule_doc_std = rd.std_dev;
    points.push_back(point);
  }
  return points;
}

}  // namespace whoiscrf::bench::cv
