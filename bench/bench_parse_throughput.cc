// Parsing throughput: records/sec of the inference fast path, single- and
// multi-threaded, against the pre-workspace naive Parse loop measured in
// the same run, plus the process's peak RSS (which the per-thread parse
// workspaces dominate). Writes BENCH_parse_throughput.json (override the
// path with WHOISCRF_BENCH_OUT) so the perf trajectory is tracked across
// PRs.
//
// The ROADMAP north star is census-scale parsing (the paper's survey runs
// over 102M .com records), so this bench is the scoreboard every inference
// change should move — or at least not regress.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "obs/metrics.h"
#include "util/env.h"
#include "whois/record_stream.h"
#include "whois/stream_pipeline.h"
#include "whois/whois_parser.h"

namespace whoiscrf::bench {
namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// Process-lifetime high-water mark, KiB (Linux ru_maxrss unit). Every
// mode's workspaces are alive at some point, so this bounds what the
// parse caches cost per thread.
long PeakRssKb() {
  struct rusage ru = {};
  getrusage(RUSAGE_SELF, &ru);
  return ru.ru_maxrss;
}

// Folds a parse into a checksum so the optimizer cannot drop the work.
double Checksum(const whois::ParsedWhois& parsed) {
  return parsed.log_prob + static_cast<double>(parsed.line_labels.size());
}

int BenchPasses() {
  static const int passes = [] {
    const char* e = std::getenv("WHOISCRF_BENCH_PASSES");
    const int n = e != nullptr ? std::atoi(e) : 3;
    return n > 0 ? n : 1;
  }();
  return passes;
}

struct Measurement {
  double seconds = 0.0;  // best (fastest) pass
  double records_per_sec = 0.0;
  std::vector<double> checksums;  // one per pass/slice
};

// Runs `run` over one slice of fresh records per pass and keeps the fastest
// pass. Fresh records per pass keep the measurement honest for the cached
// fast path: every pass sees the real cross-record template overlap instead
// of re-parsing byte-identical strings, while state a mode carries across
// records (a warm ParseWorkspace — exactly what a census run holds) still
// pays off from the second pass on. The workload is deterministic, so the
// minimum is the pass least disturbed by other tenants of the machine;
// single passes here are a few hundred ms, well inside scheduler-noise
// territory.
template <typename Fn>
Measurement Measure(const std::vector<std::vector<std::string>>& slices,
                    Fn&& run) {
  Measurement m;
  for (size_t p = 0; p < slices.size(); ++p) {
    const auto start = Clock::now();
    m.checksums.push_back(run(slices[p]));
    const double seconds = SecondsSince(start);
    if (p == 0 || seconds < m.seconds) m.seconds = seconds;
  }
  m.records_per_sec =
      m.seconds > 0.0 && !slices.empty()
          ? static_cast<double>(slices.front().size()) / m.seconds
          : 0.0;
  return m;
}

int Main() {
  const size_t train_count = util::Scaled(300, 100);
  const size_t parse_count = util::Scaled(4000, 800);

  PrintHeader("throughput", "records/sec, fast path vs naive, by threads");

  const size_t passes = static_cast<size_t>(BenchPasses());
  const auto generator =
      MakeEvalGenerator(train_count + passes * parse_count);
  const auto train = TakeRecords(generator, 0, train_count);
  const whois::WhoisParser parser = TrainParser(train);

  std::vector<std::vector<std::string>> slices(passes);
  for (size_t p = 0; p < passes; ++p) {
    slices[p].reserve(parse_count);
    for (size_t i = 0; i < parse_count; ++i) {
      slices[p].push_back(
          generator.Generate(train_count + p * parse_count + i).thick.text);
    }
  }

  // Warm-up: touch every path once so first-run page faults and lazy
  // initialization don't land inside a timed region.
  {
    whois::ParseWorkspace ws;
    (void)parser.ParseNaive(slices.front().front());
    (void)parser.Parse(slices.front().front(), ws);
  }

  const Measurement naive = Measure(slices, [&](const auto& recs) {
    double sum = 0.0;
    for (const std::string& r : recs) sum += Checksum(parser.ParseNaive(r));
    return sum;
  });

  // One workspace for the whole mode, like a census worker thread: its line
  // cache carries template lines across slices, so later passes measure the
  // steady state while per-record values still miss like they would in
  // production.
  whois::ParseWorkspace fast_ws;
  const Measurement fast = Measure(slices, [&](const auto& recs) {
    double sum = 0.0;
    for (const std::string& r : recs) sum += Checksum(parser.Parse(r, fast_ws));
    return sum;
  });

  // Sweep 1,2,4,8 capped at the machine's core count, plus the core count
  // itself: on a 1-core box the old unconditional {1,2,4,8} sweep only
  // measured scheduler thrash and reported a meaningless scaling_vs_1.
  // WHOISCRF_BENCH_OVERSUBSCRIBE=1 restores the wide sweep; rows beyond
  // the core count are marked oversubscribed either way.
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  const bool sweep_wide = util::EnvInt("WHOISCRF_BENCH_OVERSUBSCRIBE", 0) != 0;
  std::vector<size_t> thread_counts;
  for (size_t n : {size_t{1}, size_t{2}, size_t{4}, size_t{8}}) {
    if (sweep_wide || n <= hw) thread_counts.push_back(n);
  }
  if (thread_counts.back() < hw) thread_counts.push_back(hw);
  // Each thread-count row streams every slice through whois::ParseStream,
  // the path `parse` and `scale-run` take. Sums run in input order, so
  // they equal the naive checksums exactly.
  std::vector<Measurement> batch(thread_counts.size());
  for (size_t i = 0; i < thread_counts.size(); ++i) {
    whois::StreamPipelineOptions options;
    options.threads = thread_counts[i];
    batch[i] = Measure(slices, [&](const auto& recs) {
      double sum = 0.0;
      whois::VectorRecordSource source(recs);
      whois::ParseStream(parser, source, options,
                         [&](uint64_t, const std::string&,
                             const whois::ParsedWhois& parsed) {
                           sum += Checksum(parsed);
                         });
      return sum;
    });
  }

  const double speedup =
      naive.records_per_sec > 0.0
          ? fast.records_per_sec / naive.records_per_sec
          : 0.0;

  std::printf("records: %zu x %zu passes   hardware threads: %u\n\n",
              parse_count, passes, hw);
  std::printf("%-22s %12s %10s\n", "mode", "records/s", "vs naive");
  std::printf("%-22s %12.0f %9.2fx\n", "naive (pre-change)",
              naive.records_per_sec, 1.0);
  std::printf("%-22s %12.0f %9.2fx\n", "fast (workspace)",
              fast.records_per_sec, speedup);
  for (size_t i = 0; i < thread_counts.size(); ++i) {
    char label[40];
    std::snprintf(label, sizeof(label), "stream x%zu%s", thread_counts[i],
                  thread_counts[i] > hw ? " (oversubscribed)" : "");
    std::printf("%-22s %12.0f %9.2fx\n", label, batch[i].records_per_sec,
                naive.records_per_sec > 0.0
                    ? batch[i].records_per_sec / naive.records_per_sec
                    : 0.0);
  }
  // Every mode parsed the same slices, so per-slice checksums must agree
  // exactly (the fast path is bit-identical, not approximately equal).
  bool checksums_match = fast.checksums == naive.checksums;
  for (const Measurement& b : batch) {
    checksums_match = checksums_match && b.checksums == naive.checksums;
  }
  if (!checksums_match) {
    std::printf("\nWARNING: mode checksums differ from naive\n");
  }
  const long peak_rss_kb = PeakRssKb();
  std::printf("\npeak RSS: %.1f MiB\n",
              static_cast<double>(peak_rss_kb) / 1024.0);

  const char* out_env = std::getenv("WHOISCRF_BENCH_OUT");
  const std::string out_path =
      out_env != nullptr ? out_env : "BENCH_parse_throughput.json";
  std::ofstream os(out_path);
  os << "{\n";
  os << "  \"bench\": \"parse_throughput\",\n";
  os << "  \"records\": " << parse_count << ",\n";
  os << "  \"passes\": " << passes << ",\n";
  os << "  \"hardware_concurrency\": " << hw << ",\n";
  os << "  \"naive_rps\": " << naive.records_per_sec << ",\n";
  os << "  \"fast_rps\": " << fast.records_per_sec << ",\n";
  os << "  \"fast_vs_naive_speedup\": " << speedup << ",\n";
  os << "  \"checksums_match\": " << (checksums_match ? "true" : "false")
     << ",\n";
  os << "  \"peak_rss_kb\": " << peak_rss_kb << ",\n";
  os << "  \"batch\": [\n";
  for (size_t i = 0; i < thread_counts.size(); ++i) {
    os << "    {\"threads\": " << thread_counts[i]
       << ", \"rps\": " << batch[i].records_per_sec << ", \"scaling_vs_1\": "
       << (batch[0].records_per_sec > 0.0
               ? batch[i].records_per_sec / batch[0].records_per_sec
               : 0.0)
       << ", \"oversubscribed\": "
       << (thread_counts[i] > hw ? "true" : "false") << "}";
    os << (i + 1 < thread_counts.size() ? ",\n" : "\n");
  }
  os << "  ],\n";
  // Registry snapshot (whoiscrf_parse_* et al.) so a bench artifact also
  // shows cache hit rates and latency buckets, not just the headline rps.
  os << "  \"metrics\": " << obs::Registry::Global().RenderJson() << "\n";
  os << "}\n";
  std::printf("\nwrote %s\n", out_path.c_str());
  return 0;
}

}  // namespace
}  // namespace whoiscrf::bench

int main() { return whoiscrf::bench::Main(); }
