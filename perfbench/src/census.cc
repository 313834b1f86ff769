// census and census-cascade: the paper's §6 census through the streaming
// checkpointed pipeline (whois::ParseStreamToStore), the path `scale-run`
// and `parse --stream` take. Records come from a pregenerated record
// store, so the timed region measures parsing and the sink, not the
// generator. Each round streams the whole store into a fresh output store
// with 3 workers and periodic checkpoints; the sink renders JSON and folds
// a survey row into a SurveyAccumulator.
#include <algorithm>
#include <filesystem>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "cascade/cascade.h"
#include "common.h"
#include "datagen/temporal.h"
#include "obs/metrics.h"
#include "stats.h"
#include "survey/accumulator.h"
#include "survey/build.h"
#include "survey/normalize.h"
#include "trace.h"
#include "whois/json_export.h"
#include "whois/record_store.h"
#include "whois/stream_checkpoint.h"
#include "whois/whois_parser.h"

namespace perfbench {

namespace wc = whoiscrf;
namespace fs = std::filesystem;

namespace {

constexpr size_t kRecords = 24000;      // census records per round
constexpr size_t kChunk = 2000;         // generation chunk
constexpr size_t kWorkers = 3;          // pipeline parse workers
constexpr uint64_t kCheckpointEvery = 8192;
constexpr size_t kSampleEvery = 16;     // JSON digest sample stride
constexpr size_t kSetupRepeats = 5;
constexpr size_t kMinRounds = 3;
constexpr double kShadowRate = 0.02;

using ParseFn = std::function<wc::whois::ParsedWhois(const std::string&,
                                                     wc::whois::ParseWorkspace&)>;

// Reads the input store and times the reads (pipeline.read_s).
class TimedSource : public wc::whois::RecordSource {
 public:
  TimedSource(wc::whois::RecordSource& inner, int64_t parent)
      : inner_(inner), parent_(parent) {}
  bool Next(std::string& record) override {
    const int64_t t0 = NowNs();
    const bool ok = inner_.Next(record);
    const int64_t t1 = NowNs();
    read_total_ns_ += t1 - t0;
    if (ok) Tracer::Get().Record("util.read", t0, t1, parent_, pos_++);
    return ok;
  }
  int64_t read_total_ns() const { return read_total_ns_; }

 private:
  wc::whois::RecordSource& inner_;
  int64_t parent_;
  uint64_t pos_ = 0;
  int64_t read_total_ns_ = 0;
};

struct Setup {
  std::unique_ptr<wc::whois::WhoisParser> parser;
  std::unique_ptr<wc::cascade::CascadeParser> cascade;
  double train_s = 0, load_s = 0, cascade_s = 0, total_s = 0;
};

// What a user pays before the first record: train on the pregenerated
// prefix with the options survey::TrainScaleParser uses, save and reload
// the model, build the cascade from its labeled data.
Setup RunSetup(const std::vector<wc::whois::LabeledRecord>& train,
               const std::vector<wc::whois::LabeledRecord>& cascade_data,
               const std::string& model_path, bool use_cascade) {
  Setup s;
  wc::whois::WhoisParserOptions train_options;
  train_options.trainer.l2_sigma = 10.0;
  train_options.trainer.lbfgs.max_iterations = 150;
  const int64_t t0 = NowNs();
  {
    const wc::whois::WhoisParser trained =
        wc::whois::WhoisParser::Train(train, train_options);
    const int64_t t1 = NowNs();
    s.train_s = Seconds(t1 - t0);
    trained.SaveFile(model_path);
  }
  const int64_t t2 = NowNs();
  s.parser = std::make_unique<wc::whois::WhoisParser>(
      wc::whois::WhoisParser::LoadFile(model_path));
  const int64_t t3 = NowNs();
  s.load_s = Seconds(t3 - t2);
  if (use_cascade) {
    wc::cascade::CascadeOptions options;
    options.shadow_sample_rate = kShadowRate;
    s.cascade = std::make_unique<wc::cascade::CascadeParser>(
        s.parser.get(), cascade_data, options);
  }
  const int64_t t4 = NowNs();
  s.cascade_s = Seconds(t4 - t3);
  s.total_s = Seconds(t4 - t0);
  return s;
}

struct Reference {
  std::vector<uint64_t> sample_digest;  // Digest::Of(ToJson) per sample
  std::string survey_state;             // Serialize() of the in-order replay
  uint64_t agree = 0, fields = 0;       // key fields vs gold
};

// Pregenerates the census into the input store in chunks (generation is
// timed as loadgen.generate_s), and computes the offline reference from
// the same parser: sequential-equivalent parses, their JSON digests, the
// in-order survey replay, and field accuracy against gold labels.
Reference PrepareInputs(const Corpus& corpus, const ParseFn& parse, const std::string& store_prefix,
                        double* generate_s, std::vector<std::string>* sample) {
  Reference ref;
  const wc::survey::SurveyNormalizer normalizer(
      corpus.generator().base().registrars());
  wc::survey::SurveyAccumulator replay;
  wc::whois::RecordStoreWriter writer(store_prefix);
  std::vector<wc::whois::ParseWorkspace> workspaces(4);
  std::vector<wc::whois::LabeledRecord> chunk;
  std::vector<wc::whois::ParsedWhois> parsed;
  std::vector<size_t> agree;
  *generate_s = 0.0;
  for (size_t base = 0; base < kRecords; base += kChunk) {
    const size_t n = std::min(kChunk, kRecords - base);
    chunk.assign(n, {});
    parsed.assign(n, {});
    agree.assign(n, 0);
    const int64_t g0 = NowNs();
    ParallelFor(n, [&](size_t, size_t i) { chunk[i] = corpus.Record(base + i); });
    for (size_t i = 0; i < n; ++i) writer.Append(chunk[i].text);
    *generate_s += Seconds(NowNs() - g0);
    ParallelFor(n, [&](size_t t, size_t i) {
      parsed[i] = parse(chunk[i].text, workspaces[t]);
      agree[i] = AgreeingKeyFields(parsed[i], GoldParse(chunk[i]));
    });
    for (size_t i = 0; i < n; ++i) {
      const size_t index = base + i;
      if (index % kSampleEvery == 0) {
        ref.sample_digest.push_back(Digest::Of(wc::whois::ToJson(parsed[i])));
      }
      if (sample != nullptr && index % 48 == 0) sample->push_back(chunk[i].text);
      replay.Add(wc::survey::RowFromParse(parsed[i].domain_name, parsed[i],
                                          normalizer, /*on_dbl=*/false));
      ref.agree += agree[i];
      ref.fields += wc::cascade::kNumKeyFields;
    }
  }
  writer.Finish();
  ref.survey_state = replay.Serialize();
  return ref;
}

struct Round {
  double wall_s = 0;
  wc::whois::CheckpointedParseResult result;
  double read_s = 0;
  uint64_t store_bytes = 0;
  size_t state_entries = 0;
  uint64_t mismatched = 0;
  bool survey_ok = true;
};

uint64_t DirBytes(const std::string& dir) {
  uint64_t bytes = 0;
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (entry.is_regular_file()) bytes += entry.file_size();
  }
  return bytes;
}

Round RunRound(const wc::whois::WhoisParser& parser, const ParseFn& parse,
               const wc::cascade::CascadeParser* cascade,
               const wc::datagen::TemporalCorpusGenerator& generator,
               const wc::whois::RecordStoreReader& input,
               const Reference& ref, const std::string& out_dir, bool traced) {
  Round round;
  fs::remove_all(out_dir);
  fs::create_directories(out_dir);
  const wc::survey::SurveyNormalizer normalizer(generator.base().registrars());
  wc::survey::SurveyAccumulator acc;

  Tracer& tracer = Tracer::Get();
  const int64_t start = NowNs();
  const int64_t root = tracer.Open("util.pipeline", start, -1, 0);
  wc::whois::StoreRecordSource store_source(input);
  TimedSource source(store_source, root);

  wc::whois::CheckpointedParseOptions options;
  options.pipeline.threads = kWorkers;
  options.checkpoint_interval = kCheckpointEvery;
  options.input_id = "perfbench-census";
  if (traced) {
    // Traced round: a span per parse call on the worker threads, named by
    // the cascade tier that produced the result. The parse_override seam
    // does not carry the record index, so these spans have request 0.
    options.pipeline.parse_override = [&, root](const std::string& record,
                                                wc::whois::ParseWorkspace& ws) {
      const int64_t t0 = NowNs();
      if (cascade == nullptr) {
        wc::whois::ParsedWhois parsed = parser.Parse(record, ws);
        tracer.Record("whois.parse", t0, NowNs(), root, 0);
        return parsed;
      }
      wc::cascade::CascadeResult r = cascade->Parse(record, ws);
      static constexpr const char* kTierSpan[] = {"cascade.template", "cascade.rule",
                                                  "cascade.crf"};
      tracer.Record(kTierSpan[static_cast<int>(r.tier)], t0, NowNs(), root, 0);
      return std::move(r.parsed);
    };
  } else if (cascade != nullptr) {
    options.pipeline.parse_override = parse;
  }

  round.result = wc::whois::ParseStreamToStore(
      parser, source, out_dir + "/census", options,
      [&](uint64_t index, const std::string&, const wc::whois::ParsedWhois& p) {
        std::string json;
        {
          Span span("whois.json", index);
          json = wc::whois::ToJson(p);
        }
        if (index % kSampleEvery == 0 &&
            Digest::Of(json) != ref.sample_digest[index / kSampleEvery]) {
          ++round.mismatched;
        }
        wc::survey::DomainRow row;
        {
          Span span("survey.row", index);
          row = wc::survey::RowFromParse(p.domain_name, p, normalizer, false);
        }
        {
          Span span("survey.add", index);
          acc.Add(row);
        }
      });
  const int64_t end = NowNs();
  tracer.Close(root, end);
  round.wall_s = Seconds(end - start);
  round.read_s = Seconds(source.read_total_ns());
  round.store_bytes = DirBytes(out_dir);
  round.state_entries = acc.state_entries();
  round.survey_ok = acc.Serialize() == ref.survey_state;
  fs::remove_all(out_dir);
  return round;
}

double MeanNs(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double sum = 0;
  for (double x : v) sum += x;
  return sum / static_cast<double>(v.size());
}

}  // namespace

Report RunCensus(const Options& opt, bool use_cascade) {
  Report report;
  const StealMonitor steal;
  const std::string dir = opt.work_dir + "/census";
  const std::string model_path = dir + "/model.bin";
  fs::remove_all(dir);
  fs::create_directories(dir);

  const Corpus corpus(opt.seed, kRecords);
  const wc::datagen::TemporalCorpusGenerator& generator = corpus.generator();

  // Training prefix and cascade data (the prefix plus records from every
  // era): input generation, untimed.
  const int64_t g0 = NowNs();
  std::vector<wc::whois::LabeledRecord> train;
  train.reserve(Corpus::kTrainRecords);
  for (size_t i = 0; i < Corpus::kTrainRecords; ++i) {
    train.push_back(generator.Generate(i).thick);
  }
  std::vector<wc::whois::LabeledRecord> cascade_data;
  if (use_cascade) {
    cascade_data = train;
    for (size_t k = 0; k < Corpus::kCascadeRecords; ++k) {
      cascade_data.push_back(corpus.CascadeRecord(k));
    }
  }
  double generate_s = Seconds(NowNs() - g0);

  // Set-up, several times; the last one is kept.
  std::vector<double> setup_s, train_s, load_s, build_s;
  std::vector<std::pair<int64_t, int64_t>> setup_spans;
  Setup setup;
  for (size_t r = 0; r < kSetupRepeats; ++r) {
    const int64_t t0 = NowNs();
    setup = RunSetup(train, cascade_data, model_path, use_cascade);
    setup_spans.emplace_back(t0, NowNs());
    setup_s.push_back(setup.total_s);
    train_s.push_back(setup.train_s);
    load_s.push_back(setup.load_s);
    build_s.push_back(setup.cascade_s);
  }
  const wc::whois::WhoisParser& parser = *setup.parser;
  const wc::cascade::CascadeParser* cascade = setup.cascade.get();
  ParseFn parse;
  if (cascade != nullptr) {
    parse = [cascade](const std::string& r, wc::whois::ParseWorkspace& ws) {
      return cascade->ParseRecord(r, ws);
    };
  } else {
    parse = [&parser](const std::string& r, wc::whois::ParseWorkspace& ws) {
      return parser.Parse(r, ws);
    };
  }

  double prep_generate_s = 0.0;
  std::vector<std::string> sample;
  const Reference ref = PrepareInputs(corpus, parse, dir + "/input",
                                      &prep_generate_s, &sample);
  generate_s += prep_generate_s;
  const wc::whois::RecordStoreReader input(dir + "/input");
  if (input.size() != kRecords) report.Fail("input store has wrong size");

  // Timed rounds, tracing off. The median round's records/s is reported,
  // so one stall of a shared machine spoils a round, not the run.
  std::vector<double> rps, walls;
  std::vector<std::pair<int64_t, int64_t>> round_spans;
  const int64_t t_start = NowNs();
  const double budget_s = opt.trace ? opt.seconds / 2 : opt.seconds;
  const auto check = [&](const Round& round) {
    report.attempted += kRecords;
    const uint64_t bad = round.result.quarantined + round.mismatched +
                         (kRecords - std::min<uint64_t>(kRecords, round.result.stats.records)) +
                         (round.survey_ok ? 0 : 1);
    report.failed += bad;
    if (round.result.quarantined > 0) report.Fail("records were quarantined");
    if (round.mismatched > 0) report.Fail("JSON differs from the offline reference");
    if (round.result.stats.records != kRecords) report.Fail("records lost");
    if (!round.survey_ok) report.Fail("survey state differs from in-memory replay");
  };
  while (rps.size() < kMinRounds || Seconds(NowNs() - t_start) < budget_s) {
    const int64_t round_start = NowNs();
    const Round round = RunRound(parser, parse, cascade, generator, input, ref,
                                 dir + "/out", /*traced=*/false);
    round_spans.emplace_back(round_start, NowNs());
    check(round);
    walls.push_back(round.wall_s);
    rps.push_back(static_cast<double>(round.result.stats.records) / round.wall_s);
  }

  // Rounds and set-ups during which the host stole CPU time are not
  // measurements of the program (StealMonitor).
  size_t dropped_setups = 0, dropped_rounds = 0;
  const std::vector<size_t> setup_keep = steal.Clean(setup_spans, &dropped_setups);
  const std::vector<size_t> round_keep = steal.Clean(round_spans, &dropped_rounds);
  const auto pick = [](const std::vector<double>& v, const std::vector<size_t>& keep) {
    std::vector<double> out;
    for (size_t i : keep) out.push_back(v[i]);
    return out;
  };
  report.Set("setup_s", Median(pick(setup_s, setup_keep)), "s");
  report.Set("throughput_rps", Median(pick(rps, round_keep)), "1/s");
  report.Set("field_accuracy",
             ref.fields > 0 ? static_cast<double>(ref.agree) /
                                  static_cast<double>(ref.fields)
                            : 0.0,
             "ratio");
  report.Set("peak_rss_mib", SelfPeakRssMib(), "MiB");
  std::fprintf(stderr,
               "%s: %zu rounds x %zu records (%zu dropped for CPU steal), median "
               "%.0f records/s\n",
               opt.workload.c_str(), rps.size(), kRecords, dropped_rounds,
               report.metrics["throughput_rps"].value);
  if (!opt.trace) return report;

  // ---- Traced run: one more round with spans on; it never feeds the
  // end-to-end metrics above.
  auto& registry = wc::obs::Registry::Global();
  const auto counter = [&](const char* name) {
    return static_cast<double>(registry.CounterValue(name));
  };
  const double hits0 = counter("whoiscrf_compile_cache_hits_total");
  const double miss0 = counter("whoiscrf_compile_cache_misses_total");
  uint64_t shadow_samples0 = 0, shadow_dis0 = 0;
  const auto shadow_totals = [&](uint64_t* samples, uint64_t* dis) {
    *samples = 0;
    *dis = 0;
    if (cascade == nullptr) return;
    for (const auto& [name, stats] : cascade->ShadowSnapshot()) {
      *samples += stats.samples;
      *dis += stats.disagreements;
    }
  };
  shadow_totals(&shadow_samples0, &shadow_dis0);
  const auto dispatched = [&](const char* tier) {
    return static_cast<double>(registry.CounterValue(
        "whoiscrf_cascade_dispatch_total", {{"tier", tier}}));
  };
  const double rule0 = dispatched("rule");
  const double crf0 = dispatched("crf");

  Tracer& tracer = Tracer::Get();
  tracer.Reset();
  tracer.Enable(true);
  const Round last = RunRound(parser, parse, cascade, generator, input, ref,
                              dir + "/out", /*traced=*/true);
  tracer.Enable(false);
  check(last);
  const std::vector<SpanRecord> spans = tracer.Collect();
  WriteChromeTrace(opt.work_dir + "/trace_" + opt.workload + ".json", spans);
  const auto durations = [&](std::initializer_list<const char*> names) {
    std::vector<double> ns;
    for (const SpanRecord& span : spans) {
      for (const char* name : names) {
        if (std::string_view(span.name) == name) {
          ns.push_back(static_cast<double>(span.end_ns - span.start_ns));
        }
      }
    }
    return ns;
  };

  // Coverage along the blocking path: the sink thread either runs a sink
  // span, waits for the workers (sink stall: parse time on the critical
  // path), or writes a checkpoint; whatever is left is unaccounted.
  const std::map<std::string, int64_t> self = SelfTimeByName(spans);
  const auto self_s = [&](const char* name) {
    const auto it = self.find(name);
    return it == self.end() ? 0.0 : Seconds(it->second);
  };
  const double sink_spans_s =
      self_s("whois.json") + self_s("survey.row") + self_s("survey.add");
  const double coverage =
      (sink_spans_s + last.result.stats.sink_stall_seconds +
       last.result.checkpoint_seconds) /
      last.wall_s;

  // Self-time breakdown of the traced round.
  {
    std::FILE* f =
        std::fopen((opt.work_dir + "/selftime_" + opt.workload + ".txt").c_str(), "w");
    if (f != nullptr) {
      std::fprintf(f, "# self time per span name, traced round (wall %.4f s)\n",
                   last.wall_s);
      for (const auto& [name, ns] : self) {
        std::fprintf(f, "%-24s %10.4f s\n", name.c_str(), Seconds(ns));
      }
      std::fprintf(f, "%-24s %10.4f s\n", "(sink stall)",
                   last.result.stats.sink_stall_seconds);
      std::fprintf(f, "%-24s %10.4f s\n", "(checkpoint)",
                   last.result.checkpoint_seconds);
      std::fclose(f);
    }
  }

  report.Set("pipeline.read_s", last.read_s, "s");
  report.Set("pipeline.reader_stall_s", last.result.stats.reader_stall_seconds, "s");
  report.Set("pipeline.worker_stall_s", last.result.stats.worker_stall_seconds, "s");
  report.Set("pipeline.sink_stall_s", last.result.stats.sink_stall_seconds, "s");
  report.Set("store.checkpoint_s", last.result.checkpoint_seconds, "s");
  report.Set("store.checkpoints", static_cast<double>(last.result.checkpoints), "count");
  report.Set("store.bytes", static_cast<double>(last.store_bytes), "bytes");

  const std::vector<double> all_parse = durations(
      {"whois.parse", "cascade.template", "cascade.rule", "cascade.crf"});
  report.Set("whois.parse_ns_per_record", MeanNs(all_parse), "ns");
  report.Set("whois.parse_p99_us", Summarize(all_parse).p99 / 1e3, "us");
  const double hits = counter("whoiscrf_compile_cache_hits_total") - hits0;
  const double misses = counter("whoiscrf_compile_cache_misses_total") - miss0;
  report.Set("whois.lines", hits + misses, "count");
  report.Set("whois.line_cache_hit_ratio",
             hits + misses > 0 ? hits / (hits + misses) : 0.0, "ratio");
  report.Set("whois.model_load_s", Median(load_s), "s");
  report.Set("crf.train_s", Median(train_s), "s");
  report.Set("whois.json_ns_per_record", self_s("whois.json") * 1e9 / kRecords, "ns");
  report.Set("survey.row_ns_per_record", self_s("survey.row") * 1e9 / kRecords, "ns");
  report.Set("survey.add_ns_per_record", self_s("survey.add") * 1e9 / kRecords, "ns");
  report.Set("survey.state_entries", static_cast<double>(last.state_entries), "count");

  if (cascade != nullptr) {
    const std::vector<double> tier_ns[3] = {durations({"cascade.template"}),
                                            durations({"cascade.rule"}),
                                            durations({"cascade.crf"})};
    const double tiers[3] = {static_cast<double>(tier_ns[0].size()),
                             static_cast<double>(tier_ns[1].size()),
                             static_cast<double>(tier_ns[2].size())};
    const double records = tiers[0] + tiers[1] + tiers[2];
    report.Set("cascade.records", records, "count");
    report.Set("cascade.tier_share.template", tiers[0] / records, "ratio");
    report.Set("cascade.tier_share.rule", tiers[1] / records, "ratio");
    report.Set("cascade.tier_share.crf", tiers[2] / records, "ratio");
    report.Set("cascade.ns_per_record.template", MeanNs(tier_ns[0]), "ns");
    report.Set("cascade.ns_per_record.rule", MeanNs(tier_ns[1]), "ns");
    report.Set("cascade.ns_per_record.crf", MeanNs(tier_ns[2]), "ns");
    // Records that reached the rule tier = rule hits + CRF fall-throughs
    // (every CRF record passed the rule tier first).
    const double rule_hits = dispatched("rule") - rule0;
    const double crf_hits = dispatched("crf") - crf0;
    report.Set("baselines.rule_tier_records", rule_hits + crf_hits, "count");
    report.Set("baselines.rule_accept_ratio",
               rule_hits + crf_hits > 0 ? rule_hits / (rule_hits + crf_hits) : 0.0,
               "ratio");
    uint64_t samples = 0, dis = 0;
    shadow_totals(&samples, &dis);
    samples -= shadow_samples0;
    dis -= shadow_dis0;
    report.Set("cascade.shadow_samples", static_cast<double>(samples), "count");
    report.Set("cascade.shadow_disagree_ratio",
               samples > 0 ? static_cast<double>(dis) / static_cast<double>(samples)
                           : 0.0,
               "ratio");
    report.Set("cascade.build_s", Median(build_s), "s");
  }

  MeasureParserLayers(parser, sample, report);
  report.Set("loadgen.generate_s", generate_s, "s");
  report.Set("loadgen.steal_dropped", static_cast<double>(dropped_setups + dropped_rounds),
             "count");
  report.Set("trace.spans", static_cast<double>(spans.size()), "count");
  report.Set("trace.overhead_ratio", last.wall_s / Median(walls), "ratio");
  report.Set("trace.coverage_ratio", coverage, "ratio");

  // The serve layer and the router are measured in the traced run too:
  // cold traffic (parse, cache writes, eviction) beside census, hot
  // traffic (cache reads, routing) beside census-cascade.
  RunServePhases(opt, /*hot=*/use_cascade, model_path, parser, report);
  return report;
}

}  // namespace perfbench
