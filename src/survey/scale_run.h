// Paper-scale survey runs (ROADMAP item 5a): one driver that streams a
// 10-100M-record TemporalCorpusGenerator corpus through the checkpointed
// parse pipeline into a sharded record store while folding every parsed
// record into a streaming SurveyAccumulator — the §6 census at the
// paper's 102M-record scale, on bounded memory.
//
// The pieces and why they compose safely:
//   * GeneratedRecordSource renders records one at a time (never a
//     materialized corpus) and Skips in O(1) on resume;
//   * ParseStreamToStore owns durability: the store, the quarantine, and
//     the checkpoint cursor;
//   * the accumulator snapshot rides inside the checkpoint's aux payload,
//     so cursor and survey state are atomically consistent — a killed run
//     resumed with `resume = true` reproduces the uninterrupted run's
//     store bytes AND survey tables exactly.
//
// The cascade stays out of this library: callers that want tiered
// dispatch (the CLI's `scale-run --cascade`) pass a parse_override, the
// same seam `parse --stream --cascade` uses.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "datagen/temporal.h"
#include "survey/accumulator.h"
#include "whois/stream_checkpoint.h"
#include "whois/whois_parser.h"

namespace whoiscrf::survey {

struct ScaleRunOptions {
  std::string store_prefix;  // required: record store + checkpoint prefix
  uint64_t count = 1000000;  // records to stream (corpus positions 0..N)
  size_t threads = 0;        // parse workers; 0 = hardware concurrency
  size_t batch_records = 64;
  size_t queue_capacity = 8;
  // Scale runs favor a larger interval than parse --stream's 4096: at
  // millions of records per run, fsync cadence dominates checkpoint cost.
  uint64_t checkpoint_interval = 65536;
  uint64_t max_record_bytes = 0;
  uint64_t watchdog_timeout_ms = 0;
  bool resume = false;
  std::vector<std::string> brands;  // Table 4 orgs to track (may be empty)
  // Appended to the computed checkpoint input id. Callers fold anything
  // that changes parse results (training size, cascade on/off) in here so
  // a checkpoint cannot resume under a different parser configuration.
  std::string input_tag;
  // Optional tiered dispatch (see header comment).
  std::function<whois::ParsedWhois(const std::string& record,
                                   whois::ParseWorkspace& ws)>
      parse_override;
  // Observes every durable checkpoint (e.g. to journal run progress).
  std::function<void(const whois::StreamCheckpoint& cp)> on_checkpoint;
};

struct ScaleRunResult {
  SurveyAccumulator survey;          // the §6 aggregates over all records
  whois::StreamPipelineStats stats;  // this run only (post-skip)
  uint64_t records_stored = 0;       // total records in the finished store
  uint64_t skipped = 0;              // records resumed past via checkpoint
  uint64_t quarantined = 0;
  uint64_t checkpoints = 0;
  double run_seconds = 0.0;         // wall time of the streaming phase
  double generate_seconds = 0.0;    // reader-thread time inside Generate
  double checkpoint_seconds = 0.0;  // durability overhead (fsync + aux)
  double sustained_rps = 0.0;       // stats.records / run_seconds
  long peak_rss_kb = 0;             // process high-water mark after the run
};

// The checkpoint identity of a scale run: corpus parameters + count +
// the caller's input_tag. Two runs share a checkpoint iff they would
// generate and parse identical records.
std::string ScaleRunInputId(const datagen::TemporalCorpusGenerator& generator,
                            const ScaleRunOptions& options);

// Trains the parser a scale run uses: the first `train_count` thick
// records of the corpus (pre-drift era), bench-standard trainer settings.
whois::WhoisParser TrainScaleParser(
    const datagen::TemporalCorpusGenerator& generator, size_t train_count);

// Runs (or resumes) the scale run. Updates the whoiscrf_scale_* metrics
// (docs/observability.md) and throws on unrecoverable pipeline errors.
ScaleRunResult RunScaleRun(const whois::WhoisParser& parser,
                           const datagen::TemporalCorpusGenerator& generator,
                           const ScaleRunOptions& options);

// Renders the §6 survey tables (creation-year histogram, top registrars,
// top registrant countries, privacy registrars/services, brand counts)
// as plain text.
std::string RenderScaleSurveyTables(const SurveyAccumulator& acc,
                                    size_t top_k);

// Process-lifetime peak RSS in KiB (getrusage ru_maxrss).
long ScaleRunPeakRssKb();

}  // namespace whoiscrf::survey
