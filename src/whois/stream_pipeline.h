// Three-stage streaming parse pipeline: reader → parser workers → in-order
// sink, with bounded queues at both couplings so memory stays
// O(batch * queue depth) however large the corpus is.
//
//   RecordSource ──► [input queue] ──► worker × N ──► [output queue] ──► sink
//      (1 thread)      bounded          per-thread       bounded        (caller
//                                     ParseWorkspace                    thread)
//
// Ordering contract: batches carry sequence numbers; the caller thread
// reorders completed batches with a small stash, so `sink` observes
// records in exact input order with no global barrier — a slow batch
// stalls emission, never computation, and the stash is bounded by
// (input capacity + workers + output capacity) batches because every
// upstream stage blocks on its queue.
//
// Batch recycling: the sink hands each spent batch back to the reader,
// which destroys its parses and reuses its record strings' capacity for
// the next reads, so the in-order thread runs sink calls and little else.
//
// Backpressure contract: the reader blocks once `queue_capacity` batches
// are waiting to be parsed; workers block once `queue_capacity` parsed
// batches are waiting to be emitted. A throwing sink (or source) cancels
// both queues, joins all threads, and rethrows on the calling thread.
//
// Failure model (docs/architecture.md "Failure model"): with
// `on_quarantine` set, a *parser* exception is contained — the raw record
// is handed to the quarantine callback with the error reason and the run
// continues; infrastructure errors (source I/O, sink I/O, queue
// cancellation) still abort the run. Without `on_quarantine` any
// exception aborts, preserving the pre-containment contract.
#pragma once

#include <cstdint>
#include <functional>
#include <stdexcept>
#include <string>

#include "whois/record_stream.h"
#include "whois/whois_parser.h"

namespace whoiscrf::whois {

// Thrown (on the calling thread) when the stage watchdog detects that no
// batch crossed any queue for `watchdog_timeout_ms`. The message names the
// suspect stage and the queue depths at trip time.
class StreamStallError : public std::runtime_error {
 public:
  explicit StreamStallError(const std::string& what)
      : std::runtime_error(what) {}
};

struct StreamPipelineOptions {
  // Parser worker threads; 0 = hardware concurrency (min 1).
  size_t threads = 0;
  // Records per work item. Large enough to amortize queue hand-offs
  // against ~100µs parses; small enough to keep batches cache-friendly.
  size_t batch_records = 64;
  // Batches each queue may hold before its producer blocks. Peak pipeline
  // memory ≈ (2*queue_capacity + threads + stash + 2) * batch_records
  // records and parses: every batch is in flight, being filled or drained
  // by the reader, or a spare (record strings only), and the reader
  // allocates a batch only when no spare is left.
  size_t queue_capacity = 8;
  // Per-record error containment: when set, a record whose parse throws is
  // NOT emitted to the sink; instead `on_quarantine(index, record, reason)`
  // runs on the calling thread, in input order, interleaved with sink
  // calls. `index` is the record's global input position — the sink sees
  // gaps at quarantined indices. When unset (default), a parser exception
  // aborts the run.
  std::function<void(uint64_t index, const std::string& record,
                     const std::string& reason)>
      on_quarantine = nullptr;
  // With containment on, records larger than this are quarantined without
  // attempting a parse (0 = no limit). Guards workspace memory against
  // pathological inputs.
  uint64_t max_record_bytes = 0;
  // Stage watchdog: if no batch crosses any queue for this many
  // milliseconds, cancel the pipeline and raise StreamStallError instead
  // of hanging forever (0 = disabled). Note: a stage wedged inside user
  // code that never returns cannot be interrupted — the watchdog unwedges
  // every queue wait, which covers deadlock-shaped stalls.
  uint64_t watchdog_timeout_ms = 0;
  // Replaces parser.Parse for each record (workspace supplied per worker
  // thread). This is how the parser cascade (src/cascade/) plugs into the
  // streaming path — `parse --cascade` routes every record through
  // CascadeParser::ParseRecord; tests also use it to inject deterministic
  // parses. The callable must be safe to invoke concurrently
  // with distinct workspaces. Unset = plain parser.Parse.
  std::function<ParsedWhois(const std::string& record, ParseWorkspace& ws)>
      parse_override = nullptr;
};

struct StreamPipelineStats {
  uint64_t records = 0;      // records delivered to the sink
  uint64_t quarantined = 0;  // records diverted to on_quarantine
  uint64_t batches = 0;
  double reader_stall_seconds = 0.0;  // reader blocked on a full input queue
  double worker_stall_seconds = 0.0;  // workers blocked (empty in/full out)
  double sink_stall_seconds = 0.0;    // caller blocked on an empty out queue
  // Caller time inside sink and quarantine callbacks, timed per batch.
  double sink_busy_seconds = 0.0;
};

// Parses every record of `source`, invoking
// `sink(index, record, parsed)` on the calling thread in input order.
// Output is identical to calling WhoisParser::Parse on each record
// sequentially. Registers/updates the whoiscrf_stream_* metrics
// (docs/observability.md).
StreamPipelineStats ParseStream(
    const WhoisParser& parser, RecordSource& source,
    const StreamPipelineOptions& options,
    const std::function<void(uint64_t index, const std::string& record,
                             const ParsedWhois& parsed)>& sink);

}  // namespace whoiscrf::whois
