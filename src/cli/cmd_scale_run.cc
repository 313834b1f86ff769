// whoiscrf scale-run — the paper-scale survey harness (ROADMAP item 5a):
// generate-or-resume a TemporalCorpusGenerator corpus of up to 100M
// records, stream it through the checkpointed parse pipeline (optionally
// the cascade) into a sharded record store, and emit the §6 survey
// tables from the streaming SurveyAccumulator, all on bounded memory.
#include <cstdio>
#include <exception>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "cascade/cascade.h"
#include "cli/commands.h"
#include "datagen/temporal.h"
#include "net/crawl_journal.h"
#include "obs/metrics.h"
#include "survey/scale_run.h"
#include "util/string_util.h"
#include "whois/stream_checkpoint.h"

namespace whoiscrf::cli {

namespace {

std::vector<std::string> SplitBrands(const std::string& list) {
  std::vector<std::string> out;
  for (std::string_view brand : util::Split(list, ',')) {
    if (!brand.empty()) out.emplace_back(brand);
  }
  return out;
}

bool WriteTextFile(const std::string& path, const std::string& text) {
  std::ofstream os(path);
  os << text;
  os.flush();
  return os.good();
}

// BENCH_scale_run.json: the artifact the nightly scale tier and the
// bench-smoke job gate via scripts/check_bench_floor.py ("scale_run"
// section of bench/bench_floor.json).
bool WriteBenchArtifact(const std::string& path,
                        const survey::ScaleRunResult& result,
                        bool checksums_match) {
  const double checkpoint_overhead_pct =
      result.run_seconds > 0.0
          ? result.checkpoint_seconds / result.run_seconds * 100.0
          : 0.0;
  std::ofstream os(path);
  os << "{\n";
  os << "  \"bench\": \"scale_run\",\n";
  os << "  \"records\": " << result.records_stored << ",\n";
  os << "  \"records_this_run\": " << result.stats.records << ",\n";
  os << "  \"skipped\": " << result.skipped << ",\n";
  os << "  \"quarantined\": " << result.quarantined << ",\n";
  os << "  \"run_seconds\": " << result.run_seconds << ",\n";
  os << "  \"sustained_rps\": " << result.sustained_rps << ",\n";
  os << "  \"generate_seconds\": " << result.generate_seconds << ",\n";
  os << "  \"checkpoints\": " << result.checkpoints << ",\n";
  os << "  \"checkpoint_seconds\": " << result.checkpoint_seconds << ",\n";
  os << "  \"checkpoint_overhead_pct\": " << checkpoint_overhead_pct
     << ",\n";
  os << "  \"stalls\": {\"reader_s\": " << result.stats.reader_stall_seconds
     << ", \"worker_s\": " << result.stats.worker_stall_seconds
     << ", \"sink_s\": " << result.stats.sink_stall_seconds
     << ", \"sink_busy_s\": " << result.stats.sink_busy_seconds
     << ", \"batches\": " << result.stats.batches << "},\n";
  os << "  \"peak_rss_kb\": " << result.peak_rss_kb << ",\n";
  os << "  \"checksums_match\": " << (checksums_match ? "true" : "false")
     << ",\n";
  os << "  \"metrics\": " << obs::Registry::Global().RenderJson() << "\n";
  os << "}\n";
  os.flush();
  return os.good();
}

// The run's published durable state must be exactly the run the caller
// sees: the checkpoint at `prefix` is complete, its cursor accounts for
// all `count` records, and the survey snapshot inside it restores to the
// live accumulator byte for byte. This is what a later `--resume`, or a
// reader of the store, would pick up. Returns false and names the first
// failed condition in *detail otherwise.
bool PublishedStateMatches(const std::string& prefix, uint64_t count,
                           const survey::SurveyAccumulator& live,
                           std::string* detail) {
  whois::StreamCheckpoint cp;
  try {
    if (!whois::LoadStreamCheckpoint(whois::StreamCheckpointPath(prefix),
                                     cp)) {
      *detail = "no checkpoint was published";
      return false;
    }
    if (!cp.complete) {
      *detail = "the published checkpoint is not complete";
      return false;
    }
    if (cp.consumed != count || cp.store.records + cp.quarantined != count) {
      *detail = util::Format(
          "the checkpoint accounts for %llu of %llu records (%llu stored, "
          "%llu quarantined)",
          static_cast<unsigned long long>(cp.consumed),
          static_cast<unsigned long long>(count),
          static_cast<unsigned long long>(cp.store.records),
          static_cast<unsigned long long>(cp.quarantined));
      return false;
    }
    if (survey::SurveyAccumulator::Deserialize(cp.aux).Serialize() !=
        live.Serialize()) {
      *detail = "the checkpointed survey state differs from the live one";
      return false;
    }
  } catch (const std::exception& e) {
    *detail = e.what();
    return false;
  }
  return true;
}

}  // namespace

int CmdScaleRun(util::FlagParser& flags) {
  const std::string out = flags.GetString("out");
  const bool smoke = flags.GetBool("smoke");
  // --smoke shrinks every scale knob to CI-smoke size; explicit flags
  // still win so a smoke run can be steered from the command line.
  const auto smoke_default = [&](const char* name, int64_t normal,
                                 int64_t tiny) {
    const int64_t fallback = smoke ? tiny : normal;
    return flags.Has(name) ? flags.GetInt(name, fallback) : fallback;
  };
  const auto count =
      static_cast<uint64_t>(smoke_default("count", 1000000, 2000));
  const auto train_count =
      static_cast<size_t>(smoke_default("train-count", 300, 120));
  const auto checkpoint_interval = static_cast<uint64_t>(
      smoke_default("checkpoint-interval", 65536, 256));
  const auto seed = static_cast<uint64_t>(flags.GetInt("seed", 42));
  const auto events = static_cast<size_t>(flags.GetInt("events", 2));
  const auto threads = static_cast<size_t>(flags.GetInt("threads", 0));
  const bool resume = flags.GetBool("resume");
  const bool use_cascade = flags.GetBool("cascade");
  const double shadow_rate = flags.GetDouble("shadow-rate", 0.0);
  const auto top_k = static_cast<size_t>(flags.GetInt("top-k", 10));
  const std::vector<std::string> brands =
      SplitBrands(flags.GetString("brands"));
  const std::string tables_out = flags.GetString("tables-out");
  const std::string bench_out = flags.GetString("bench-out");
  const std::string journal_path = flags.GetString("journal");
  const auto watchdog_ms =
      static_cast<uint64_t>(flags.GetInt("watchdog-ms", 0));
  const auto max_record_bytes =
      static_cast<uint64_t>(flags.GetInt("max-record-bytes", 0));

  if (out.empty()) {
    std::fprintf(stderr, "scale-run: --out is required\n");
    return 2;
  }
  if (count == 0) {
    std::fprintf(stderr, "scale-run: --count must be >= 1\n");
    return 2;
  }
  if (train_count == 0 || train_count > count) {
    std::fprintf(stderr,
                 "scale-run: --train-count must be in [1, --count]\n");
    return 2;
  }
  if (use_cascade && (shadow_rate < 0.0 || shadow_rate > 1.0)) {
    std::fprintf(stderr, "scale-run: --shadow-rate must be in [0, 1]\n");
    return 2;
  }
  datagen::TemporalCorpusOptions corpus_options;
  corpus_options.size = static_cast<size_t>(count);
  corpus_options.seed = seed;
  corpus_options.events = events;
  const datagen::TemporalCorpusGenerator generator(corpus_options);

  std::fprintf(stderr,
               "scale-run: training on the first %zu records ...\n",
               train_count);
  const whois::WhoisParser parser =
      survey::TrainScaleParser(generator, train_count);

  // Cascade tiers are built from the same labeled prefix the parser
  // trained on — no external --cascade-data file is needed because the
  // corpus is synthetic and self-labeling.
  std::unique_ptr<cascade::CascadeParser> cascade_parser;
  if (use_cascade) {
    std::vector<whois::LabeledRecord> corpus;
    corpus.reserve(train_count);
    for (size_t i = 0; i < train_count; ++i) {
      corpus.push_back(generator.Generate(i).thick);
    }
    cascade::CascadeOptions cascade_options;
    cascade_options.shadow_sample_rate = shadow_rate;
    cascade_parser = std::make_unique<cascade::CascadeParser>(
        &parser, corpus, cascade_options);
  }

  std::unique_ptr<net::CrawlJournal> journal;
  if (!journal_path.empty()) {
    journal = std::make_unique<net::CrawlJournal>(journal_path);
  }

  survey::ScaleRunOptions options;
  options.store_prefix = out;
  options.count = count;
  options.parse.pipeline.threads = threads;
  options.parse.pipeline.max_record_bytes = max_record_bytes;
  options.parse.pipeline.watchdog_timeout_ms = watchdog_ms;
  options.parse.checkpoint_interval = checkpoint_interval;
  options.parse.resume = resume;
  options.brands = brands;
  options.input_tag = util::Format(":train=%zu:cascade=%d", train_count,
                                   use_cascade ? 1 : 0);
  if (cascade_parser) {
    options.parse.pipeline.parse_override =
        [&cascade = *cascade_parser](const std::string& record,
                                     whois::ParseWorkspace& ws) {
          return cascade.ParseRecord(record, ws);
        };
  }
  if (journal) {
    // One journal line per durable checkpoint: the crawl-journal is the
    // run's progress log, replayable with `whoiscrf crawl --resume`
    // tooling conventions (docs/formats.md "Crawl journal").
    options.parse.on_checkpoint =
        [&journal](const whois::StreamCheckpoint& cp) {
          journal->RecordDomain(
              util::Format("scale:%llu",
                           static_cast<unsigned long long>(cp.consumed)),
              net::CrawlResult::Status::kOk, 1);
        };
  }

  const survey::ScaleRunResult result =
      survey::RunScaleRun(parser, generator, options);

  const double checkpoint_overhead_pct =
      result.run_seconds > 0.0
          ? result.checkpoint_seconds / result.run_seconds * 100.0
          : 0.0;
  std::fprintf(stderr,
               "scale-run: %llu records stored (%llu this run, %llu "
               "skipped via resume, %llu quarantined)\n",
               static_cast<unsigned long long>(result.records_stored),
               static_cast<unsigned long long>(result.stats.records),
               static_cast<unsigned long long>(result.skipped),
               static_cast<unsigned long long>(result.quarantined));
  std::fprintf(stderr,
               "scale-run: %.0f records/s sustained over %.1fs, %llu "
               "checkpoints (%.2f%% overhead), peak RSS %ld KiB\n",
               result.sustained_rps, result.run_seconds,
               static_cast<unsigned long long>(result.checkpoints),
               checkpoint_overhead_pct, result.peak_rss_kb);
  std::fprintf(stderr,
               "scale-run: stalls — reader %.2fs, worker %.2fs, "
               "sink %.2fs; sink busy %.2fs\n",
               result.stats.reader_stall_seconds,
               result.stats.worker_stall_seconds,
               result.stats.sink_stall_seconds,
               result.stats.sink_busy_seconds);

  const std::string tables =
      survey::RenderScaleSurveyTables(result.survey, top_k);
  if (tables_out.empty()) {
    std::fputs(tables.c_str(), stdout);
  } else if (!WriteTextFile(tables_out, tables)) {
    std::fprintf(stderr, "scale-run: cannot write %s\n",
                 tables_out.c_str());
    return 1;
  }

  std::string detail;
  const bool checksums_match =
      PublishedStateMatches(out, count, result.survey, &detail);
  if (checksums_match) {
    std::fprintf(stderr,
                 "scale-run: published checkpoint is complete and its "
                 "survey snapshot matches the live tables\n");
  } else {
    std::fprintf(stderr, "scale-run: PUBLISHED STATE CHECK FAILED: %s\n",
                 detail.c_str());
  }

  if (!bench_out.empty() &&
      !WriteBenchArtifact(bench_out, result, checksums_match)) {
    std::fprintf(stderr, "scale-run: cannot write %s\n", bench_out.c_str());
    return 1;
  }
  return checksums_match ? 0 : 1;
}

}  // namespace whoiscrf::cli
