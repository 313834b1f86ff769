#include "survey/scale_run.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>

#include "datagen/record_source.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "survey/build.h"
#include "survey/normalize.h"
#include "util/string_util.h"
#include "whois/stream_pipeline.h"

namespace whoiscrf::survey {

namespace {

// Registry handles for the scale-run metrics (whoiscrf_scale_*; see
// docs/observability.md "Scale runs").
struct ScaleMetrics {
  obs::Counter* records;
  obs::Gauge* generate_seconds;
  obs::Gauge* checkpoint_seconds;
  obs::Gauge* sustained_rps;
  obs::Gauge* peak_rss_kb;
};

const ScaleMetrics& GetScaleMetrics() {
  static const ScaleMetrics metrics = [] {
    auto& reg = obs::Registry::Global();
    ScaleMetrics m;
    m.records = reg.GetCounter(
        "whoiscrf_scale_records_total",
        "Records streamed through the scale-run survey pipeline");
    m.generate_seconds = reg.GetGauge(
        "whoiscrf_scale_generate_seconds_total",
        "Cumulative reader-thread seconds spent generating scale-run "
        "records");
    m.checkpoint_seconds = reg.GetGauge(
        "whoiscrf_scale_checkpoint_seconds_total",
        "Cumulative seconds spent writing scale-run checkpoints (store "
        "fsyncs + survey snapshot + atomic replace)");
    m.sustained_rps = reg.GetGauge(
        "whoiscrf_scale_sustained_rps",
        "Sustained records/second of the most recent scale run");
    m.peak_rss_kb = reg.GetGauge(
        "whoiscrf_scale_peak_rss_kb",
        "Process peak RSS (KiB) after the most recent scale run");
    return m;
  }();
  return metrics;
}

void AppendTopKTable(std::string& out, const std::string& title,
                     const TopKResult& result) {
  out += "== " + title + " ==\n";
  for (const CountRow& row : result.top) {
    out += util::Format("  %-28s %12llu  %6.2f%%\n", row.key.c_str(),
                        static_cast<unsigned long long>(row.count),
                        row.share * 100.0);
  }
  if (result.other_count > 0) {
    out += util::Format("  %-28s %12llu\n", "(Other)",
                        static_cast<unsigned long long>(result.other_count));
  }
  if (result.unknown_count > 0) {
    out += util::Format(
        "  %-28s %12llu\n", "(Unknown)",
        static_cast<unsigned long long>(result.unknown_count));
  }
  out += util::Format("  %-28s %12llu\n\n", "Total",
                      static_cast<unsigned long long>(result.total));
}

}  // namespace

long ScaleRunPeakRssKb() {
  struct rusage ru = {};
  getrusage(RUSAGE_SELF, &ru);
  return ru.ru_maxrss;
}

std::string ScaleRunInputId(const datagen::TemporalCorpusGenerator& generator,
                            const ScaleRunOptions& options) {
  const datagen::TemporalCorpusOptions& corpus = generator.options();
  return util::Format(
             "scale-run:seed=%llu:size=%llu:events=%llu:fpe=%llu:"
             "share=%.4f:count=%llu",
             static_cast<unsigned long long>(corpus.seed),
             static_cast<unsigned long long>(corpus.size),
             static_cast<unsigned long long>(corpus.events),
             static_cast<unsigned long long>(corpus.families_per_event),
             corpus.new_registrar_share,
             static_cast<unsigned long long>(options.count)) +
         options.input_tag;
}

whois::WhoisParser TrainScaleParser(
    const datagen::TemporalCorpusGenerator& generator, size_t train_count) {
  std::vector<whois::LabeledRecord> train;
  train.reserve(train_count);
  for (size_t i = 0; i < train_count; ++i) {
    train.push_back(generator.Generate(i).thick);
  }
  whois::WhoisParserOptions options;
  options.trainer.l2_sigma = 10.0;
  options.trainer.lbfgs.max_iterations = 150;
  return whois::WhoisParser::Train(train, options);
}

ScaleRunResult RunScaleRun(const whois::WhoisParser& parser,
                           const datagen::TemporalCorpusGenerator& generator,
                           const ScaleRunOptions& options) {
  const ScaleMetrics& metrics = GetScaleMetrics();
  obs::ScopedSpan span("survey.scale_run");
  const SurveyNormalizer normalizer(generator.base().registrars());

  ScaleRunResult result;
  result.survey = SurveyAccumulator(options.brands);

  datagen::GeneratedRecordSource source(
      options.count,
      [&generator](uint64_t i) { return generator.Generate(i).thick.text; });

  whois::CheckpointedParseOptions ckpt = options.parse;
  ckpt.input_id = ScaleRunInputId(generator, options);
  // The accumulator snapshot rides inside the checkpoint, so the survey
  // state a resume restores always matches the consumed cursor exactly —
  // no record is ever double-counted or lost across a kill.
  ckpt.save_aux = [&result] { return result.survey.Serialize(); };
  ckpt.load_aux = [&result, &options](const std::string& aux) {
    if (!aux.empty()) {
      result.survey = SurveyAccumulator::Deserialize(aux);
    } else {
      result.survey = SurveyAccumulator(options.brands);
    }
  };

  const auto start = std::chrono::steady_clock::now();
  const whois::CheckpointedParseResult parse = whois::ParseStreamToStore(
      parser, source, options.store_prefix, ckpt,
      [&](uint64_t, const std::string&, const whois::ParsedWhois& parsed) {
        // The domain comes from the parsed record; on_dbl is joined
        // downstream of the parse, as in the paper.
        result.survey.Add(RowFromParse(parsed.domain_name, parsed,
                                       normalizer, /*on_dbl=*/false));
      });
  result.run_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();

  result.stats = parse.stats;
  result.records_stored = parse.records_stored;
  result.skipped = parse.skipped;
  result.quarantined = parse.quarantined;
  result.checkpoints = parse.checkpoints;
  result.checkpoint_seconds = parse.checkpoint_seconds;
  result.generate_seconds = source.generate_seconds();
  result.sustained_rps =
      result.run_seconds > 0.0
          ? static_cast<double>(parse.stats.records) / result.run_seconds
          : 0.0;
  result.peak_rss_kb = ScaleRunPeakRssKb();

  metrics.records->Inc(parse.stats.records);
  metrics.generate_seconds->Add(result.generate_seconds);
  metrics.checkpoint_seconds->Add(result.checkpoint_seconds);
  metrics.sustained_rps->Set(result.sustained_rps);
  metrics.peak_rss_kb->Set(static_cast<double>(result.peak_rss_kb));
  return result;
}

std::string RenderScaleSurveyTables(const SurveyAccumulator& acc,
                                    size_t top_k) {
  std::string out;
  out += "== creation-year histogram (Figure 4a) ==\n";
  for (const auto& [year, count] : acc.CreationHistogram()) {
    out += util::Format("  %d  %llu\n", year,
                        static_cast<unsigned long long>(count));
  }
  out += '\n';
  AppendTopKTable(out, "top registrars (Table 5)",
                  acc.TopRegistrars(top_k));
  AppendTopKTable(out, "top registrant countries, non-private (Table 3)",
                  acc.TopCountries(top_k));
  AppendTopKTable(out, "registrars of privacy-protected domains (Table 6)",
                  acc.TopPrivacyRegistrars(top_k));
  AppendTopKTable(out, "privacy services (Table 7)",
                  acc.TopPrivacyServices(top_k));
  const std::vector<CountRow> brands = acc.BrandCounts();
  if (!brands.empty()) {
    out += "== brand organizations (Table 4) ==\n";
    for (const CountRow& row : brands) {
      out += util::Format("  %-28s %12llu\n", row.key.c_str(),
                          static_cast<unsigned long long>(row.count));
    }
    out += '\n';
  }
  const double privacy_share =
      acc.records() > 0 ? static_cast<double>(acc.privacy_rows()) /
                              static_cast<double>(acc.records())
                        : 0.0;
  out += util::Format(
      "records: %llu   privacy-protected: %llu (%.2f%%)\n",
      static_cast<unsigned long long>(acc.records()),
      static_cast<unsigned long long>(acc.privacy_rows()),
      privacy_share * 100.0);
  return out;
}

}  // namespace whoiscrf::survey
