// Paper-scale harness bench: exercises `scale-run`'s whole contract at
// bench scale and prices its durability. Three phases:
//
//   1. fresh    — RunScaleRun end to end (generate -> checkpointed store
//                 -> streaming survey); sustained rps + peak RSS.
//   2. plain    — the same records through a bare ParseStream (no store,
//                 no checkpoints); the rps ratio is what durability costs.
//   3. kill     — a run aborted mid-stream from its checkpoint callback,
//                 then resumed; the resumed store bytes and the serialized
//                 survey accumulator must equal phase 1's exactly.
//
// checksums_match is phase 3's identity, so the bench floor gate
// (bench/bench_floor.json "scale_run") fails on any bit-level divergence,
// not just on slowdowns. Writes BENCH_bench_scale_run.json (override with
// WHOISCRF_BENCH_OUT).
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <stdexcept>
#include <string>

#include "bench_common.h"
#include "datagen/record_source.h"
#include "datagen/temporal.h"
#include "obs/metrics.h"
#include "survey/scale_run.h"
#include "util/env.h"
#include "util/string_util.h"
#include "whois/record_store.h"
#include "whois/stream_checkpoint.h"
#include "whois/stream_pipeline.h"

namespace whoiscrf::bench {
namespace {

using Clock = std::chrono::steady_clock;

// Thrown by the kill-phase checkpoint observer; distinct type so the
// bench cannot accidentally swallow a real pipeline error.
struct InjectedKill : std::runtime_error {
  InjectedKill() : std::runtime_error("injected mid-run kill") {}
};

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

// FNV-1a over all sealed shards of a store, streamed in small chunks —
// the byte-identity unit the kill/resume phase compares. Hashing instead
// of materializing keeps the bench's own peak RSS representative of the
// harness (a 50k-record store is tens of MB; the corpus-sized buffers
// would dwarf the bounded-memory pipeline being measured). The byte count
// is folded in so equal hashes of different-length stores cannot pass.
uint64_t HashStoreBytes(const std::string& prefix) {
  uint64_t hash = 14695981039346656037ull;
  uint64_t total_bytes = 0;
  char buf[65536];
  for (size_t s = 0; s < 1000; ++s) {
    std::ifstream is(whois::RecordStoreShardPath(prefix, s),
                     std::ios::binary);
    if (!is) break;
    while (is) {
      is.read(buf, sizeof(buf));
      const std::streamsize n = is.gcount();
      for (std::streamsize i = 0; i < n; ++i) {
        hash ^= static_cast<unsigned char>(buf[i]);
        hash *= 1099511628211ull;
      }
      total_bytes += static_cast<uint64_t>(n);
    }
  }
  return hash ^ total_bytes;
}

int Main() {
  const size_t train_count = util::Scaled(300, 100);
  const size_t count = util::Scaled(50000, 2000);

  PrintHeader("scale_run",
              "paper-scale harness: durability cost + survey bit-identity");

  datagen::TemporalCorpusOptions corpus_options;
  corpus_options.size = count;
  corpus_options.seed = kCorpusSeed;
  const datagen::TemporalCorpusGenerator generator(corpus_options);
  const whois::WhoisParser parser =
      survey::TrainScaleParser(generator, train_count);

  const std::string tmp_prefix =
      util::Format("/tmp/whoiscrf_scale_bench_%d", static_cast<int>(getpid()));
  const std::string fresh_prefix = tmp_prefix + "_fresh";
  const std::string resume_prefix = tmp_prefix + "_resume";

  survey::ScaleRunOptions options;
  options.count = count;
  // ~8 checkpoints per run so the kill lands well inside the stream.
  options.parse.checkpoint_interval =
      std::max<uint64_t>(static_cast<uint64_t>(count) / 8, 16);

  // Phase 1: fresh end-to-end run.
  options.store_prefix = fresh_prefix;
  const survey::ScaleRunResult fresh =
      survey::RunScaleRun(parser, generator, options);
  const std::string fresh_survey = fresh.survey.Serialize();
  const uint64_t fresh_hash = HashStoreBytes(fresh_prefix);

  // Phase 2: the same records through a bare pipeline — no store, no
  // checkpoints, no accumulator. What remains is the parse itself.
  double plain_rps = 0.0;
  {
    const auto start = Clock::now();
    datagen::GeneratedRecordSource source(
        count, [&](uint64_t i) { return generator.Generate(i).thick.text; });
    whois::StreamPipelineOptions pipeline;
    uint64_t records = 0;
    whois::ParseStream(parser, source, pipeline,
                       [&](uint64_t, const std::string&,
                           const whois::ParsedWhois&) { ++records; });
    const double seconds =
        std::chrono::duration<double>(Clock::now() - start).count();
    plain_rps = seconds > 0.0 ? static_cast<double>(records) / seconds : 0.0;
  }

  // Phase 3: kill the run from its checkpoint observer halfway through,
  // then resume. Durable state must carry the run to the same bytes.
  options.store_prefix = resume_prefix;
  const uint64_t kill_at = static_cast<uint64_t>(count) / 2;
  options.parse.on_checkpoint = [&](const whois::StreamCheckpoint& cp) {
    if (!cp.complete && cp.consumed >= kill_at) throw InjectedKill();
  };
  bool killed = false;
  try {
    (void)survey::RunScaleRun(parser, generator, options);
  } catch (const InjectedKill&) {
    killed = true;
  }
  options.parse.on_checkpoint = nullptr;
  options.parse.resume = true;
  const survey::ScaleRunResult resumed =
      survey::RunScaleRun(parser, generator, options);
  options.parse.resume = false;
  const bool resume_matches =
      killed && resumed.skipped >= kill_at &&
      resumed.survey.Serialize() == fresh_survey &&
      HashStoreBytes(resume_prefix) == fresh_hash;

  const bool checksums_match = resume_matches;
  const double durability_overhead_pct =
      plain_rps > 0.0 ? (1.0 - fresh.sustained_rps / plain_rps) * 100.0 : 0.0;
  const double checkpoint_overhead_pct =
      fresh.run_seconds > 0.0
          ? fresh.checkpoint_seconds / fresh.run_seconds * 100.0
          : 0.0;
  const long peak_rss_kb = survey::ScaleRunPeakRssKb();

  std::printf("records: %zu   train: %zu   checkpoints: %llu\n", count,
              train_count, static_cast<unsigned long long>(fresh.checkpoints));
  std::printf("scale-run sustained: %10.0f rec/s\n", fresh.sustained_rps);
  std::printf("plain pipeline:      %10.0f rec/s\n", plain_rps);
  std::printf("durability overhead: %.2f%% rps (checkpoint time %.2f%%)\n",
              durability_overhead_pct, checkpoint_overhead_pct);
  std::printf("kill+resume: %s (skipped %llu past the kill checkpoint)\n",
              resume_matches ? "byte-identical" : "MISMATCH",
              static_cast<unsigned long long>(resumed.skipped));
  std::printf("peak RSS: %ld KiB\n", peak_rss_kb);

  const char* out_env = std::getenv("WHOISCRF_BENCH_OUT");
  const std::string out_path =
      out_env != nullptr ? out_env : "BENCH_bench_scale_run.json";
  std::ofstream os(out_path);
  os << "{\n";
  os << "  \"bench\": \"scale_run\",\n";
  os << "  \"records\": " << count << ",\n";
  os << "  \"train_count\": " << train_count << ",\n";
  os << "  \"sustained_rps\": " << fresh.sustained_rps << ",\n";
  os << "  \"plain_rps\": " << plain_rps << ",\n";
  os << "  \"durability_overhead_pct\": " << durability_overhead_pct << ",\n";
  os << "  \"checkpoints\": " << fresh.checkpoints << ",\n";
  os << "  \"checkpoint_seconds\": " << fresh.checkpoint_seconds << ",\n";
  os << "  \"checkpoint_overhead_pct\": " << checkpoint_overhead_pct << ",\n";
  os << "  \"generate_seconds\": " << fresh.generate_seconds << ",\n";
  os << "  \"run_seconds\": " << fresh.run_seconds << ",\n";
  os << "  \"resume_skipped\": " << resumed.skipped << ",\n";
  os << "  \"resume_matches\": " << (resume_matches ? "true" : "false")
     << ",\n";
  os << "  \"checksums_match\": " << (checksums_match ? "true" : "false")
     << ",\n";
  os << "  \"peak_rss_kb\": " << peak_rss_kb << ",\n";
  os << "  \"stalls\": {\"reader_s\": " << fresh.stats.reader_stall_seconds
     << ", \"worker_s\": " << fresh.stats.worker_stall_seconds
     << ", \"sink_s\": " << fresh.stats.sink_stall_seconds
     << ", \"batches\": " << fresh.stats.batches << "},\n";
  os << "  \"metrics\": " << obs::Registry::Global().RenderJson() << "\n";
  os << "}\n";
  std::printf("\nwrote %s\n", out_path.c_str());

  RemoveStoreArtifacts(fresh_prefix);
  RemoveStoreArtifacts(resume_prefix);
  return checksums_match ? 0 : 1;
}

}  // namespace
}  // namespace whoiscrf::bench

int main() { return whoiscrf::bench::Main(); }
