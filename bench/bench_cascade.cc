// Cascade throughput: records/sec of the confidence-gated parser cascade
// against the pure-CRF fast path measured in the same run, plus the
// field-level accuracy of both against gold labels — the cascade is only
// worth shipping if it is faster at EQUAL accuracy, so this bench reports
// the ratio and the accuracy delta side by side. Writes BENCH_cascade.json
// (override with WHOISCRF_BENCH_OUT); the bench-smoke CI job gates
// cascade_vs_crf_speedup and field_accuracy_delta against
// bench/bench_floor.json.
//
// The corpus is the standard mixed eval corpus (25% drifted records), so
// the dispatch mix is honest: most records hit the cheap tiers, drifted
// ones fall through to the CRF, and the shadow guard re-parses a sampled
// fraction of the cheap path (WHOISCRF_BENCH_SHADOW_RATE, default 0.02 —
// the cost of the correctness guard is part of the cascade's price).
//
// Per-tier cost: a second pass times every cascade parse on its own and
// files it under the tier that produced the result (tier_ns_per_record),
// and times the pure-CRF parse of the same record right after it.
// template_ns_per_record (a template hit, extraction included) and
// crf_ns_per_record (the CRF fast path on the same records) thus come
// from the same run under the same load; template_vs_crf_speedup is their
// ratio — how much cheaper the cheap tier is than the parser it spares —
// gated in bench/bench_floor.json. Shadow-sampled parses are left out of
// the per-tier means, since they time a CRF parse on top of the cheap one.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "bench_common.h"
#include "cascade/cascade.h"
#include "obs/metrics.h"
#include "util/env.h"
#include "whois/whois_parser.h"

namespace whoiscrf::bench {
namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// Folds a parse into a checksum so the optimizer cannot drop the work.
// (The cheap tiers do not produce a log_prob, so the fold is over label
// count and extracted-field bytes rather than the CRF score.)
double Checksum(const whois::ParsedWhois& parsed) {
  return static_cast<double>(parsed.line_labels.size()) +
         static_cast<double>(parsed.domain_name.size() +
                             parsed.registrar.size());
}

int BenchPasses() {
  static const int passes = [] {
    // Smoke runs under a parallel ctest alongside two dozen other bench
    // smokes; two passes (fastest wins) keep the speedup ratio stable
    // under that contention.
    const char* e = std::getenv("WHOISCRF_BENCH_PASSES");
    const int n =
        e != nullptr ? std::atoi(e) : (util::BenchSmoke() ? 2 : 3);
    return n > 0 ? n : 1;
  }();
  return passes;
}

struct Measurement {
  double seconds = 0.0;  // best (fastest) pass
  double records_per_sec = 0.0;
};

// Runs `run` over one slice of fresh records per pass and keeps the
// fastest pass (same protocol as bench_parse_throughput: fresh records
// per pass, warm workspace across passes, minimum defeats machine noise).
template <typename Fn>
Measurement Measure(const std::vector<std::vector<std::string>>& slices,
                    Fn&& run) {
  Measurement m;
  double sink = 0.0;
  for (size_t p = 0; p < slices.size(); ++p) {
    const auto start = Clock::now();
    sink += run(slices[p]);
    const double seconds = SecondsSince(start);
    if (p == 0 || seconds < m.seconds) m.seconds = seconds;
  }
  if (sink < 0.0) std::printf("impossible checksum %f\n", sink);
  m.records_per_sec =
      m.seconds > 0.0 && !slices.empty()
          ? static_cast<double>(slices.front().size()) / m.seconds
          : 0.0;
  return m;
}

int Main() {
  // The smoke clamp does NOT shrink this bench's corpus: with a
  // tiny training set the cheap tiers cover too little of the eval mix,
  // and every fallthrough record then pays a cold CRF workspace while the
  // pure-CRF pass amortizes its line cache over the whole slice — the
  // "speedup" at that scale measures cache warmth, not dispatch. Smoke
  // only trims the parse slice and pass count; the full-size run stays
  // well under ten seconds.
  const bool smoke = util::BenchSmoke();
  const size_t train_count = smoke ? 300 : util::Scaled(300, 100);
  const size_t parse_count = smoke ? 1000 : util::Scaled(4000, 800);

  PrintHeader("cascade", "cascade vs pure-CRF records/sec at equal accuracy");

  const size_t passes = static_cast<size_t>(BenchPasses());
  const auto generator =
      MakeEvalGenerator(train_count + passes * parse_count);
  const auto train = TakeRecords(generator, 0, train_count);
  const whois::WhoisParser parser = TrainParser(train);

  cascade::CascadeOptions cascade_options;
  cascade_options.shadow_sample_rate = std::atof(
      util::EnvString("WHOISCRF_BENCH_SHADOW_RATE", "0.02").c_str());
  const cascade::CascadeParser cascade_parser(&parser, train,
                                              cascade_options);

  // Per-pass slices of record text, plus the last pass's labeled records
  // for the accuracy accounting.
  std::vector<std::vector<std::string>> slices(passes);
  std::vector<whois::LabeledRecord> labeled;
  labeled.reserve(parse_count);
  for (size_t p = 0; p < passes; ++p) {
    slices[p].reserve(parse_count);
    for (size_t i = 0; i < parse_count; ++i) {
      whois::LabeledRecord thick =
          generator.Generate(train_count + p * parse_count + i).thick;
      slices[p].push_back(thick.text);
      if (p + 1 == passes) labeled.push_back(std::move(thick));
    }
  }

  // Warm-up: touch both paths once so lazy initialization stays out of the
  // timed regions.
  {
    whois::ParseWorkspace ws;
    (void)parser.Parse(slices.front().front(), ws);
    (void)cascade_parser.Parse(slices.front().front(), ws);
  }

  whois::ParseWorkspace crf_ws;
  const Measurement crf = Measure(slices, [&](const auto& recs) {
    double sum = 0.0;
    for (const std::string& r : recs) sum += Checksum(parser.Parse(r, crf_ws));
    return sum;
  });

  whois::ParseWorkspace cascade_ws;
  const Measurement casc = Measure(slices, [&](const auto& recs) {
    double sum = 0.0;
    for (const std::string& r : recs) {
      sum += Checksum(cascade_parser.ParseRecord(r, cascade_ws));
    }
    return sum;
  });

  // Per-tier cost: every parse timed alone on its warm workspace, each
  // cascade parse followed by the pure-CRF parse of the same record.
  const auto ns_since = [](Clock::time_point start) {
    return std::chrono::duration<double, std::nano>(Clock::now() - start)
        .count();
  };
  double tier_ns[3] = {0.0, 0.0, 0.0};
  size_t tier_timed[3] = {0, 0, 0};
  double crf_total_ns = 0.0;
  size_t crf_timed = 0;
  double timed_sink = 0.0;
  for (const auto& slice : slices) {
    for (const std::string& r : slice) {
      auto start = Clock::now();
      const cascade::CascadeResult result = cascade_parser.Parse(r, cascade_ws);
      const double cascade_ns = ns_since(start);
      start = Clock::now();
      timed_sink += Checksum(parser.Parse(r, crf_ws));
      crf_total_ns += ns_since(start);
      ++crf_timed;
      if (result.shadow_sampled) continue;
      tier_ns[static_cast<int>(result.tier)] += cascade_ns;
      ++tier_timed[static_cast<int>(result.tier)];
    }
  }
  if (timed_sink < 0.0) std::printf("impossible checksum %f\n", timed_sink);
  const auto mean_ns = [&](cascade::Tier tier) {
    const int t = static_cast<int>(tier);
    return tier_timed[t] > 0 ? tier_ns[t] / static_cast<double>(tier_timed[t])
                             : 0.0;
  };
  const double template_ns = mean_ns(cascade::Tier::kTemplate);
  const double crf_ns =
      crf_timed > 0 ? crf_total_ns / static_cast<double>(crf_timed) : 0.0;
  const double template_vs_crf =
      template_ns > 0.0 ? crf_ns / template_ns : 0.0;

  // Accuracy + dispatch accounting over the last slice's labeled records
  // (untimed; the rps numbers above already include dispatch overhead).
  size_t cascade_agree = 0;
  size_t crf_agree = 0;
  size_t total_fields = 0;
  size_t tier_counts[3] = {0, 0, 0};
  whois::ParseWorkspace acc_ws;
  for (const whois::LabeledRecord& record : labeled) {
    const whois::ParsedWhois gold = cascade::GoldParse(record);
    const cascade::CascadeResult result =
        cascade_parser.Parse(record.text, acc_ws);
    const whois::ParsedWhois pure = parser.Parse(record.text, acc_ws);
    cascade_agree += cascade::CountAgreeingKeyFields(result.parsed, gold);
    crf_agree += cascade::CountAgreeingKeyFields(pure, gold);
    total_fields += cascade::kNumKeyFields;
    ++tier_counts[static_cast<int>(result.tier)];
  }
  const double cascade_acc =
      total_fields > 0
          ? static_cast<double>(cascade_agree) /
                static_cast<double>(total_fields)
          : 1.0;
  const double crf_acc =
      total_fields > 0
          ? static_cast<double>(crf_agree) / static_cast<double>(total_fields)
          : 1.0;
  // Positive when the cascade is LESS accurate than the pure CRF; the
  // floor check caps this, so "faster but wronger" fails CI.
  const double accuracy_delta = crf_acc - cascade_acc;

  const double speedup =
      crf.records_per_sec > 0.0 ? casc.records_per_sec / crf.records_per_sec
                                : 0.0;

  uint64_t shadow_samples = 0;
  uint64_t shadow_disagreements = 0;
  for (const auto& [registrar, stats] : cascade_parser.ShadowSnapshot()) {
    shadow_samples += stats.samples;
    shadow_disagreements += stats.disagreements;
  }

  std::printf("records: %zu x %zu passes   shadow rate: %.3f\n\n",
              parse_count, passes, cascade_options.shadow_sample_rate);
  std::printf("%-22s %12s %10s %12s\n", "mode", "records/s", "vs crf",
              "field acc");
  std::printf("%-22s %12.0f %9.2fx %11.4f\n", "pure CRF",
              crf.records_per_sec, 1.0, crf_acc);
  std::printf("%-22s %12.0f %9.2fx %11.4f\n", "cascade",
              casc.records_per_sec, speedup, cascade_acc);
  std::printf("\ndispatch (last slice): template %zu  rule %zu  crf %zu\n",
              tier_counts[0], tier_counts[1], tier_counts[2]);
  std::printf("cascade per-tier cost: template %.0f ns  rule %.0f ns  crf %.0f"
              " ns\n",
              template_ns, mean_ns(cascade::Tier::kRule),
              mean_ns(cascade::Tier::kCrf));
  std::printf("pure CRF %.0f ns/record: a template hit is %.2fx cheaper\n",
              crf_ns, template_vs_crf);
  std::printf("shadow guard: %llu samples, %llu disagreements\n",
              static_cast<unsigned long long>(shadow_samples),
              static_cast<unsigned long long>(shadow_disagreements));

  const char* out_env = std::getenv("WHOISCRF_BENCH_OUT");
  const std::string out_path =
      out_env != nullptr ? out_env : "BENCH_cascade.json";
  std::ofstream os(out_path);
  os << "{\n";
  os << "  \"bench\": \"cascade\",\n";
  os << "  \"records\": " << parse_count << ",\n";
  os << "  \"passes\": " << passes << ",\n";
  os << "  \"shadow_sample_rate\": " << cascade_options.shadow_sample_rate
     << ",\n";
  os << "  \"crf_rps\": " << crf.records_per_sec << ",\n";
  os << "  \"cascade_rps\": " << casc.records_per_sec << ",\n";
  os << "  \"cascade_vs_crf_speedup\": " << speedup << ",\n";
  os << "  \"crf_field_accuracy\": " << crf_acc << ",\n";
  os << "  \"cascade_field_accuracy\": " << cascade_acc << ",\n";
  os << "  \"field_accuracy_delta\": " << accuracy_delta << ",\n";
  os << "  \"template_ns_per_record\": " << template_ns << ",\n";
  os << "  \"crf_ns_per_record\": " << crf_ns << ",\n";
  os << "  \"template_vs_crf_speedup\": " << template_vs_crf << ",\n";
  os << "  \"tier_ns_per_record\": {\"template\": " << template_ns
     << ", \"rule\": " << mean_ns(cascade::Tier::kRule)
     << ", \"crf\": " << mean_ns(cascade::Tier::kCrf) << "},\n";
  os << "  \"dispatch\": {\"template\": " << tier_counts[0]
     << ", \"rule\": " << tier_counts[1] << ", \"crf\": " << tier_counts[2]
     << "},\n";
  os << "  \"shadow\": {\"samples\": " << shadow_samples
     << ", \"disagreements\": " << shadow_disagreements << "},\n";
  // Registry snapshot: the whoiscrf_cascade_* counters cover every record
  // of every pass, not just the accuracy slice.
  os << "  \"metrics\": " << obs::Registry::Global().RenderJson() << "\n";
  os << "}\n";
  std::printf("\nwrote %s\n", out_path.c_str());
  return 0;
}

}  // namespace
}  // namespace whoiscrf::bench

int main() { return whoiscrf::bench::Main(); }
