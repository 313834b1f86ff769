// perfbench: the whoiscrf benchmark driver.
//
//   perfbench --workload <census|census-cascade>
//             --seed N --seconds S --trace 0|1 --work-dir DIR --cli PATH
//
// Prints a human-readable account on stderr and, as the last line of
// stdout, one JSON object: {"correct", "attempted", "failed", "metrics"}.
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 a
// separate traced run reports the per-layer ones (a layer a workload
// leaves idle reads 0). Exits non-zero, printing no result, when the run
// cannot be carried out.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <string>

#include "common.h"

namespace perfbench {

namespace {

struct MetricSpec {
  const char* name;
  const char* unit;
};

// End-to-end metrics: every workload reports all of them (see README.md).
constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},
    {"throughput_rps", "1/s"},
    {"field_accuracy", "ratio"},
    {"peak_rss_mib", "MiB"},
};

// Per-layer metrics, grouped by module. Ratios come with their base.
constexpr MetricSpec kPerLayer[] = {
    // util: pipeline, store, checkpoint
    {"pipeline.read_s", "s"},
    {"pipeline.reader_stall_s", "s"},
    {"pipeline.worker_stall_s", "s"},
    {"pipeline.sink_stall_s", "s"},
    {"store.checkpoint_s", "s"},
    {"store.checkpoints", "count"},
    {"store.bytes", "bytes"},
    // text
    {"text.split_ns_per_record", "ns"},
    {"text.tokenize_ns_per_line", "ns"},
    // crf
    {"crf.compile_ns_per_record", "ns"},
    {"crf.scores_ns_per_record", "ns"},
    {"crf.viterbi_ns_per_record", "ns"},
    {"crf.logz_ns_per_record", "ns"},
    {"crf.sample_records", "count"},
    {"crf.train_s", "s"},
    // whois
    {"whois.parse_ns_per_record", "ns"},
    {"whois.parse_p99_us", "us"},
    {"whois.line_cache_hit_ratio", "ratio"},
    {"whois.lines", "count"},
    {"whois.extract_ns_per_record", "ns"},
    {"whois.json_ns_per_record", "ns"},
    {"whois.model_load_s", "s"},
    // survey
    {"survey.row_ns_per_record", "ns"},
    {"survey.add_ns_per_record", "ns"},
    {"survey.state_entries", "count"},
    // cascade and baselines
    {"cascade.records", "count"},
    {"cascade.tier_share.template", "ratio"},
    {"cascade.tier_share.rule", "ratio"},
    {"cascade.tier_share.crf", "ratio"},
    {"cascade.ns_per_record.template", "ns"},
    {"cascade.ns_per_record.rule", "ns"},
    {"cascade.ns_per_record.crf", "ns"},
    {"baselines.rule_tier_records", "count"},
    {"baselines.rule_accept_ratio", "ratio"},
    {"cascade.shadow_samples", "count"},
    {"cascade.shadow_disagree_ratio", "ratio"},
    {"cascade.build_s", "s"},
    // serve and the router
    {"serve.requests", "count"},
    {"serve.cache_hit_ratio", "ratio"},
    {"serve.cache_evictions", "count"},
    {"serve.busy_ratio", "ratio"},
    {"serve.epoll_wakeups_per_request", "ratio"},
    {"serve.service_us_p50", "us"},
    {"serve.service_us_p99", "us"},
    {"serve.cache_get_ns", "ns"},
    {"serve.cache_put_ns", "ns"},
    {"serve.frame_ns", "ns"},
    {"serve.ready_s", "s"},
    {"serve.max_rate_rps", "1/s"},
    {"router.hop_us_p50", "us"},
    {"router.shard_skew", "ratio"},
    // loadgen and obs: validity checks
    {"loadgen.late_p99_ms", "ms"},
    {"loadgen.generate_s", "s"},
    {"loadgen.steal_dropped", "count"},
    {"trace.spans", "count"},
    {"trace.overhead_ratio", "ratio"},
    {"trace.coverage_ratio", "ratio"},
};

void Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload census|census-cascade --seed N "
               "--seconds S --trace 0|1 --work-dir DIR --cli PATH\n");
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return v > 0 ? "1e308" : "-1e308";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

void Report::Fail(const std::string& why) {
  if (correct) std::fprintf(stderr, "INCORRECT: %s\n", why.c_str());
  correct = false;
}

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Options opt;
  bool have_workload = false, have_seed = false, have_seconds = false,
       have_trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    try {
      if (key == "--workload") {
        opt.workload = value;
        have_workload = true;
      } else if (key == "--seed") {
        opt.seed = std::stoull(value);
        have_seed = true;
      } else if (key == "--seconds") {
        opt.seconds = std::stod(value);
        have_seconds = opt.seconds > 0;
      } else if (key == "--trace") {
        opt.trace = value == "1";
        have_trace = value == "0" || value == "1";
      } else if (key == "--work-dir") {
        opt.work_dir = value;
      } else if (key == "--cli") {
        opt.cli = value;
      } else {
        Usage();
        return 2;
      }
    } catch (const std::exception&) {
      Usage();
      return 2;
    }
  }
  if (!have_workload || !have_seed || !have_seconds || !have_trace ||
      opt.work_dir.empty() || opt.cli.empty()) {
    Usage();
    return 2;
  }
  std::filesystem::create_directories(opt.work_dir);

  Report report;
  try {
    if (opt.workload == "census") {
      report = RunCensus(opt, false);
    } else if (opt.workload == "census-cascade") {
      report = RunCensus(opt, true);
    } else {
      std::fprintf(stderr, "unknown workload %s\n", opt.workload.c_str());
      return 2;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }

  std::string metrics;
  bool first = true;
  const auto emit = [&](const MetricSpec& spec, bool required) {
    const auto it = report.metrics.find(spec.name);
    if (it == report.metrics.end() && required) {
      std::fprintf(stderr, "perfbench: %s did not report %s\n",
                   opt.workload.c_str(), spec.name);
      std::exit(1);
    }
    const double value = it == report.metrics.end() ? 0.0 : it->second.value;
    std::fprintf(stderr, "  %-34s %16.6g %s\n", spec.name, value, spec.unit);
    metrics += (first ? "" : ", ");
    metrics += "\"" + std::string(spec.name) + "\": {\"value\": " +
               JsonNumber(value) + ", \"unit\": \"" + spec.unit + "\"}";
    first = false;
  };
  if (opt.trace) {
    for (const MetricSpec& spec : kPerLayer) emit(spec, false);
  } else {
    for (const MetricSpec& spec : kEndToEnd) emit(spec, true);
  }
  if (report.attempted == 0) {
    std::fprintf(stderr, "perfbench: no operation was attempted\n");
    return 1;
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {%s}}\n",
              report.correct ? "true" : "false",
              static_cast<unsigned long long>(report.attempted),
              static_cast<unsigned long long>(report.failed), metrics.c_str());
  return 0;
}
