// Streaming pipeline vs in-memory batch: records/sec and peak RSS at
// corpus sizes where the difference matters. Writes
// BENCH_stream_pipeline.json (override with WHOISCRF_BENCH_OUT).
//
// The point of the streaming path is bounded memory, so phase order is
// load-bearing: ru_maxrss is a process-lifetime high-water mark, and the
// in-memory mode materializes the whole corpus. Both streaming phases
// (small, then 10x large) therefore run BEFORE anything materializes the
// large corpus — if streaming memory really is flat, the two peaks match
// to within the pipeline's bounded queues, and the in-memory phase then
// pushes the high-water mark up by roughly the corpus size.
#include <sys/resource.h>
#include <unistd.h>

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
#include "survey/accumulator.h"
#include "survey/build.h"
#include "survey/normalize.h"
#include "util/chunk_reader.h"
#include "util/env.h"
#include "util/string_util.h"
#include "whois/record_store.h"
#include "whois/record_stream.h"
#include "whois/stream_checkpoint.h"
#include "whois/stream_pipeline.h"
#include "whois/whois_parser.h"

namespace whoiscrf::bench {
namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// Folds a parse into a checksum so the optimizer cannot drop the work.
// Summed in input order in every mode, so cross-mode sums are exactly
// equal (same doubles, same order), not approximately.
double Checksum(const whois::ParsedWhois& parsed) {
  return parsed.log_prob + static_cast<double>(parsed.line_labels.size());
}

// Process-lifetime high-water mark, KiB (Linux ru_maxrss unit).
long PeakRssKb() {
  struct rusage ru = {};
  getrusage(RUSAGE_SELF, &ru);
  return ru.ru_maxrss;
}

// Current resident set, KiB, from /proc/self/status (0 if unavailable).
long CurrentRssKb() {
  std::ifstream is("/proc/self/status");
  std::string line;
  while (std::getline(is, line)) {
    if (line.rfind("VmRSS:", 0) == 0) {
      return std::atol(line.c_str() + 6);
    }
  }
  return 0;
}

struct PhaseResult {
  uint64_t records = 0;
  double seconds = 0.0;
  double records_per_sec = 0.0;
  double checksum = 0.0;
  long peak_rss_kb = 0;     // high-water mark after the phase
  long current_rss_kb = 0;  // resident set right after the phase
};

void FinishPhase(PhaseResult& r, Clock::time_point start) {
  r.seconds = SecondsSince(start);
  r.records_per_sec =
      r.seconds > 0.0 ? static_cast<double>(r.records) / r.seconds : 0.0;
  r.peak_rss_kb = PeakRssKb();
  r.current_rss_kb = CurrentRssKb();
}

// Writes records [begin, begin+count) of the corpus as a %%-delimited text
// file, one record at a time — the corpus is never resident.
void WriteCorpusFile(const datagen::CorpusGenerator& generator, size_t begin,
                     size_t count, const std::string& path) {
  std::ofstream os(path);
  if (!os) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    std::exit(1);
  }
  for (size_t i = begin; i < begin + count; ++i) {
    os << generator.Generate(i).thick.text << "%%\n";
  }
}

PhaseResult StreamFile(const whois::WhoisParser& parser,
                       const std::string& path,
                       const whois::StreamPipelineOptions& options,
                       whois::StreamPipelineStats* stats_out) {
  PhaseResult r;
  const auto start = Clock::now();
  util::FileByteSource bytes(path);
  whois::TextRecordSource source(bytes);
  const whois::StreamPipelineStats stats = whois::ParseStream(
      parser, source, options,
      [&](uint64_t, const std::string&, const whois::ParsedWhois& parsed) {
        r.checksum += Checksum(parsed);
        ++r.records;
      });
  FinishPhase(r, start);
  if (stats_out != nullptr) *stats_out = stats;
  return r;
}

// Removes every artifact a checkpointed store run can leave: shards,
// unsealed .tmp shards, the quarantine store, and the checkpoint file.
void RemoveStoreArtifacts(const std::string& prefix) {
  for (const std::string& p : {prefix, prefix + "-quarantine"}) {
    for (size_t s = 0; s < 1000; ++s) {
      const std::string shard = whois::RecordStoreShardPath(p, s);
      const bool had_final = std::remove(shard.c_str()) == 0;
      const bool had_tmp = std::remove((shard + ".tmp").c_str()) == 0;
      if (!had_final && !had_tmp) break;
    }
  }
  std::remove(whois::StreamCheckpointPath(prefix).c_str());
}

void PrintPhase(const char* name, const PhaseResult& r) {
  std::printf("%-28s %9llu rec %8.2fs %10.0f rec/s  peak %ld KiB (rss %ld)\n",
              name, static_cast<unsigned long long>(r.records), r.seconds,
              r.records_per_sec, r.peak_rss_kb, r.current_rss_kb);
}

void WritePhaseJson(std::ofstream& os, const char* key, const PhaseResult& r,
                    bool trailing_comma) {
  os << "  \"" << key << "\": {\"records\": " << r.records
     << ", \"seconds\": " << r.seconds << ", \"rps\": " << r.records_per_sec
     << ", \"checksum\": " << util::Format("%.17g", r.checksum)
     << ", \"peak_rss_kb\": " << r.peak_rss_kb
     << ", \"current_rss_kb\": " << r.current_rss_kb << "}"
     << (trailing_comma ? ",\n" : "\n");
}

int Main() {
  const size_t train_count = util::Scaled(300, 100);
  const size_t small_count = util::Scaled(10000, 1000);
  const size_t large_count = util::Scaled(100000, 10000);

  PrintHeader("stream_pipeline",
              "streaming vs in-memory parse: throughput and peak RSS");

  const auto generator =
      MakeEvalGenerator(train_count + small_count + large_count);
  const auto train = TakeRecords(generator, 0, train_count);
  const whois::WhoisParser parser = TrainParser(train);

  whois::StreamPipelineOptions options;  // every phase: hardware threads
  options.threads = std::max(1u, std::thread::hardware_concurrency());

  const std::string tmp_prefix =
      util::Format("/tmp/whoiscrf_stream_bench_%d", static_cast<int>(getpid()));
  const std::string small_path = tmp_prefix + "_small.txt";
  const std::string large_path = tmp_prefix + "_large.txt";
  const std::string store_prefix = tmp_prefix + "_store";
  WriteCorpusFile(generator, train_count, small_count, small_path);
  WriteCorpusFile(generator, train_count + small_count, large_count,
                  large_path);

  // Warm-up: one parse so lazy initialization is off the clock.
  {
    whois::ParseWorkspace ws;
    (void)parser.Parse(generator.Generate(train_count).thick.text, ws);
  }

  // Streaming phases first — see the header comment for why order matters.
  whois::StreamPipelineStats small_stats, large_stats;
  const PhaseResult stream_small =
      StreamFile(parser, small_path, options, &small_stats);
  const PhaseResult stream_large =
      StreamFile(parser, large_path, options, &large_stats);

  // Streaming survey over the small corpus: rows folded into the
  // accumulator straight off the pipeline, corpus never resident.
  PhaseResult survey_stream;
  {
    const auto start = Clock::now();
    util::FileByteSource bytes(small_path);
    whois::TextRecordSource source(bytes);
    const survey::SurveyNormalizer normalizer(generator.registrars());
    survey::SurveyAccumulator acc;
    whois::ParseStream(
        parser, source, options,
        [&](uint64_t, const std::string&, const whois::ParsedWhois& parsed) {
          acc.Add(survey::RowFromParse(parsed.domain_name, parsed, normalizer,
                                       /*on_dbl=*/false));
        });
    survey_stream.records = acc.records();
    survey_stream.checksum = static_cast<double>(acc.records());
    FinishPhase(survey_stream, start);
  }

  // Pack the small corpus into a sharded store and stream-parse it back,
  // so the binary path gets the same crash coverage as the text path.
  PhaseResult store_roundtrip;
  {
    const auto start = Clock::now();
    {
      util::FileByteSource bytes(small_path);
      whois::TextRecordSource source(bytes);
      whois::RecordStoreWriter writer(store_prefix);
      std::string record;
      while (source.Next(record)) writer.Append(record);
      writer.Finish();
    }
    const whois::RecordStoreReader store(store_prefix);
    whois::StoreRecordSource source(store);
    whois::ParseStream(
        parser, source, options,
        [&](uint64_t, const std::string&, const whois::ParsedWhois& parsed) {
          store_roundtrip.checksum += Checksum(parsed);
          ++store_roundtrip.records;
        });
    FinishPhase(store_roundtrip, start);
  }

  // Checkpoint overhead: stream the small corpus into a store twice —
  // once with a bare writer (no durability), once through
  // ParseStreamToStore with its fsync-every-interval checkpoint
  // discipline. The rps ratio is the price of crash safety (target: the
  // default interval costs <=3%).
  const std::string plain_store_prefix = tmp_prefix + "_store_plain";
  const std::string ckpt_store_prefix = tmp_prefix + "_store_ckpt";
  PhaseResult store_plain;
  {
    const auto start = Clock::now();
    util::FileByteSource bytes(small_path);
    whois::TextRecordSource source(bytes);
    whois::RecordStoreWriter writer(plain_store_prefix);
    whois::ParseStream(
        parser, source, options,
        [&](uint64_t, const std::string& record,
            const whois::ParsedWhois& parsed) {
          writer.Append(record);
          store_plain.checksum += Checksum(parsed);
          ++store_plain.records;
        });
    writer.Finish();
    FinishPhase(store_plain, start);
  }
  PhaseResult store_ckpt;
  {
    const auto start = Clock::now();
    util::FileByteSource bytes(small_path);
    whois::TextRecordSource source(bytes);
    whois::CheckpointedParseOptions ckpt_options;
    ckpt_options.pipeline = options;
    ckpt_options.checkpoint_interval = 1024;
    ckpt_options.input_id = "file:" + small_path;
    whois::ParseStreamToStore(
        parser, source, ckpt_store_prefix, ckpt_options,
        [&](uint64_t, const std::string&, const whois::ParsedWhois& parsed) {
          store_ckpt.checksum += Checksum(parsed);
          ++store_ckpt.records;
        });
    FinishPhase(store_ckpt, start);
  }

  // In-memory batch over the large corpus, last: it materializes the
  // whole corpus first (hoisting the high-water mark by its size) and then
  // streams the vector through the same pipeline.
  PhaseResult inmem_large;
  {
    const auto start = Clock::now();
    const std::vector<std::string> records =
        whois::ReadAllRecords(large_path);
    whois::VectorRecordSource source(records);
    whois::ParseStream(
        parser, source, options,
        [&](uint64_t, const std::string&, const whois::ParsedWhois& parsed) {
          inmem_large.checksum += Checksum(parsed);
          ++inmem_large.records;
        });
    FinishPhase(inmem_large, start);
  }

  std::printf("threads: %zu   records: %zu / %zu (small/large)\n\n",
              options.threads, small_count, large_count);
  PrintPhase("stream small", stream_small);
  PrintPhase("stream large", stream_large);
  PrintPhase("stream survey build", survey_stream);
  PrintPhase("store pack+scan (small)", store_roundtrip);
  PrintPhase("store write plain", store_plain);
  PrintPhase("store write ckpt", store_ckpt);
  PrintPhase("in-memory batch large", inmem_large);

  const bool checksums_match =
      stream_large.checksum == inmem_large.checksum &&
      stream_small.checksum == store_roundtrip.checksum &&
      stream_small.checksum == store_plain.checksum &&
      stream_small.checksum == store_ckpt.checksum;
  const double ckpt_overhead_pct =
      store_plain.records_per_sec > 0.0
          ? (1.0 - store_ckpt.records_per_sec / store_plain.records_per_sec) *
                100.0
          : 0.0;
  const double stream_vs_inmem =
      inmem_large.records_per_sec > 0.0
          ? stream_large.records_per_sec / inmem_large.records_per_sec
          : 0.0;
  const long stream_peak_delta_kb =
      stream_large.peak_rss_kb - stream_small.peak_rss_kb;
  std::printf(
      "\nstreaming vs in-memory: %.2fx   checksums %s\n"
      "streaming peak RSS delta small->large (10x records): %ld KiB\n"
      "checkpoint overhead (interval 1024): %.2f%% rps (target <= 3%%)\n",
      stream_vs_inmem, checksums_match ? "match" : "MISMATCH",
      stream_peak_delta_kb, ckpt_overhead_pct);

  const char* out_env = std::getenv("WHOISCRF_BENCH_OUT");
  const std::string out_path =
      out_env != nullptr ? out_env : "BENCH_stream_pipeline.json";
  std::ofstream os(out_path);
  os << "{\n";
  os << "  \"bench\": \"stream_pipeline\",\n";
  os << "  \"records_small\": " << small_count << ",\n";
  os << "  \"records_large\": " << large_count << ",\n";
  os << "  \"threads\": " << options.threads << ",\n";
  WritePhaseJson(os, "stream_small", stream_small, true);
  WritePhaseJson(os, "stream_large", stream_large, true);
  WritePhaseJson(os, "stream_survey_build", survey_stream, true);
  WritePhaseJson(os, "store_roundtrip", store_roundtrip, true);
  WritePhaseJson(os, "store_write_plain", store_plain, true);
  WritePhaseJson(os, "store_write_ckpt", store_ckpt, true);
  WritePhaseJson(os, "inmem_large", inmem_large, true);
  os << "  \"stream_vs_inmem_ratio\": " << stream_vs_inmem << ",\n";
  os << "  \"checkpoint_overhead_pct\": " << ckpt_overhead_pct << ",\n";
  os << "  \"checksums_match\": " << (checksums_match ? "true" : "false")
     << ",\n";
  os << "  \"stream_peak_rss_delta_kb\": " << stream_peak_delta_kb << ",\n";
  os << "  \"stream_large_stalls\": {\"reader_s\": "
     << large_stats.reader_stall_seconds
     << ", \"worker_s\": " << large_stats.worker_stall_seconds
     << ", \"sink_s\": " << large_stats.sink_stall_seconds
     << ", \"batches\": " << large_stats.batches << "},\n";
  os << "  \"metrics\": " << obs::Registry::Global().RenderJson() << "\n";
  os << "}\n";
  std::printf("\nwrote %s\n", out_path.c_str());

  std::remove(small_path.c_str());
  std::remove(large_path.c_str());
  RemoveStoreArtifacts(store_prefix);
  RemoveStoreArtifacts(plain_store_prefix);
  RemoveStoreArtifacts(ckpt_store_prefix);
  return checksums_match ? 0 : 1;
}

}  // namespace
}  // namespace whoiscrf::bench

int main() { return whoiscrf::bench::Main(); }
