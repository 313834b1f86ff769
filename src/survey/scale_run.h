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
// same seam `parse --cascade` uses.
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
  // Scale runs favor a larger checkpoint interval than `parse
  // --store-out`'s 4096: at millions of records per run, fsync cadence
  // dominates checkpoint cost.
  ScaleRunOptions() { parse.checkpoint_interval = 65536; }

  std::string store_prefix;  // required: record store + checkpoint prefix
  uint64_t count = 1000000;  // records to stream (corpus positions 0..N)
  std::vector<std::string> brands;  // Table 4 orgs to track (may be empty)
  // Appended to the computed checkpoint input id. Callers fold anything
  // that changes parse results (training size, cascade on/off) in here so
  // a checkpoint cannot resume under a different parser configuration.
  std::string input_tag;
  // The checkpointed pipeline the run streams through: worker threads,
  // record-size limit, watchdog, tiered dispatch (parse_override; see
  // header comment), checkpoint interval, resume and on_checkpoint.
  // RunScaleRun sets input_id, save_aux and load_aux itself.
  whois::CheckpointedParseOptions parse;
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
