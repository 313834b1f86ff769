// Durable checkpoint/resume for `parse --store-out`: the glue
// between ParseStream (in-order sink), RecordStoreWriter (durable store
// cursors), and util::AtomicWriteFile (atomic snapshots).
//
// Contract: a checkpoint is written only after both the main store and the
// quarantine store have been fsync'd up to the recorded cursors, so a
// checkpoint never references bytes that could be lost in a crash. Resume
// truncates each store back to its cursor and replays the input from the
// recorded consumed count — an interrupted-then-resumed run produces a
// store byte-identical to an uninterrupted one (docs/formats.md "Stream
// checkpoint").
#pragma once

#include <cstdint>
#include <functional>
#include <string>

#include "whois/record_store.h"
#include "whois/stream_pipeline.h"

namespace whoiscrf::whois {

// Parsed form of `<store_prefix>.ckpt`. Plain-text, one key per line; see
// docs/formats.md for the serialization.
struct StreamCheckpoint {
  bool complete = false;    // the run finished; resume is a no-op
  uint64_t consumed = 0;    // input records fully accounted for (sunk or
                            // quarantined), a prefix of the input order
  uint64_t quarantined = 0; // quarantine entries among `consumed`
  std::string input_id;     // identity of the input; mismatch aborts resume
  StoreCursor store;        // main store position at `consumed`
  StoreCursor quarantine;   // quarantine store position at `consumed`
  // Opaque caller state snapshot (arbitrary bytes), captured at the same
  // `consumed` cursor via CheckpointedParseOptions::save_aux. Riding
  // inside the atomically-replaced checkpoint file is what keeps derived
  // state (e.g. a scale run's survey accumulator) consistent with the
  // cursor: there is no crash window where one is newer than the other.
  std::string aux;
};

// Checkpoint file path for a store prefix: `<prefix>.ckpt`.
std::string StreamCheckpointPath(const std::string& store_prefix);

// Serialization used by SaveStreamCheckpoint / LoadStreamCheckpoint;
// exposed for tests.
std::string FormatStreamCheckpoint(const StreamCheckpoint& cp);
StreamCheckpoint ParseStreamCheckpoint(const std::string& text);

// Atomically replaces the checkpoint file (write + fsync + rename).
void SaveStreamCheckpoint(const std::string& path, const StreamCheckpoint& cp);
// Returns false when no checkpoint exists; throws on a malformed one.
bool LoadStreamCheckpoint(const std::string& path, StreamCheckpoint& cp);

// Quarantine store entry: a small header line with the record's global
// input index and the error reason, followed by the raw record bytes.
// Keeping the reason inside the entry means the quarantine store needs no
// sidecar file with its own crash-safety story.
std::string FormatQuarantineEntry(uint64_t index, const std::string& reason,
                                  const std::string& record);
// Inverse of FormatQuarantineEntry. Throws std::runtime_error on a
// malformed entry.
void ParseQuarantineEntry(const std::string& entry, uint64_t& index,
                          std::string& reason, std::string& record);

struct CheckpointedParseOptions {
  StreamPipelineOptions pipeline;   // on_quarantine is installed internally
  RecordStoreOptions store;
  // Records between checkpoints. Smaller = less work redone after a
  // crash, more fsync traffic (bench: bench_stream_pipeline measures the
  // overhead).
  uint64_t checkpoint_interval = 4096;
  // Resume from `<prefix>.ckpt` when it exists; without a checkpoint a
  // resume run behaves like a fresh one.
  bool resume = false;
  // Identity of the input corpus (e.g. "file:<path>"); stored in the
  // checkpoint and verified on resume so a checkpoint can't silently
  // replay against a different input.
  std::string input_id;
  // Snapshot of caller-derived state, taken at every checkpoint (after
  // the sink has seen every record up to the cursor) and stored in the
  // checkpoint's aux payload. Paired with `load_aux`, which on resume
  // receives the payload of the loaded checkpoint (possibly empty) before
  // any record is replayed. Both optional; see StreamCheckpoint::aux.
  std::function<std::string()> save_aux;
  std::function<void(const std::string& aux)> load_aux;
  // Observes every durable checkpoint just after it is written (periodic
  // and final) — e.g. to journal run progress. Runs on the calling
  // thread; a throw aborts the run like a sink throw.
  std::function<void(const StreamCheckpoint& cp)> on_checkpoint;
};

struct CheckpointedParseResult {
  StreamPipelineStats stats;     // this run only (post-skip records)
  uint64_t skipped = 0;          // input records skipped via the checkpoint
  uint64_t quarantined = 0;      // total across interrupted + this run
  uint64_t records_stored = 0;   // total records in the finished store
  uint64_t checkpoints = 0;      // checkpoints written by this run
  // Wall time spent inside checkpoint writes (store fsyncs + aux snapshot
  // + atomic checkpoint replace); the run's durability overhead.
  double checkpoint_seconds = 0.0;
};

// Streams `source` through ParseStream into a record store at
// `store_prefix`, quarantining poison records into
// `<store_prefix>-quarantine` and checkpointing durably every
// `checkpoint_interval` records. `sink` (optional) observes each stored
// record after it is appended, with its global input index. The final
// checkpoint is written with complete=1 and kept, so resuming a finished
// run is an idempotent no-op.
CheckpointedParseResult ParseStreamToStore(
    const WhoisParser& parser, RecordSource& source,
    const std::string& store_prefix, const CheckpointedParseOptions& options,
    const std::function<void(uint64_t index, const std::string& record,
                             const ParsedWhois& parsed)>& sink = nullptr);

}  // namespace whoiscrf::whois
