#include "whois/stream_pipeline.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <exception>
#include <map>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/bounded_queue.h"
#include "util/string_util.h"

namespace whoiscrf::whois {

namespace {

// Registry handles for the streaming pipeline (whoiscrf_stream_*; see
// docs/observability.md). Resolved once; ParseStream flushes per-call
// tallies, and the queue-depth gauges are updated once per batch hand-off.
struct StreamMetrics {
  obs::Counter* records;
  obs::Counter* batches;
  obs::Counter* quarantined;
  obs::Counter* watchdog_trips;
  obs::Gauge* reader_stall_seconds;
  obs::Gauge* worker_stall_seconds;
  obs::Gauge* sink_stall_seconds;
  obs::Gauge* sink_busy_seconds;
  obs::Gauge* input_depth;
  obs::Gauge* output_depth;
};

const StreamMetrics& GetStreamMetrics() {
  static const StreamMetrics metrics = [] {
    auto& reg = obs::Registry::Global();
    StreamMetrics m;
    m.records = reg.GetCounter("whoiscrf_stream_records_total",
                               "Records parsed through the streaming pipeline");
    m.batches = reg.GetCounter("whoiscrf_stream_batches_total",
                               "Record batches handed between pipeline stages");
    m.quarantined = reg.GetCounter(
        "whoiscrf_stream_quarantined_total",
        "Records diverted to quarantine because their parse threw or they "
        "exceeded max_record_bytes");
    m.watchdog_trips = reg.GetCounter(
        "whoiscrf_stream_watchdog_trips_total",
        "Times the stage watchdog cancelled a pipeline run for making no "
        "progress within the configured deadline");
    m.reader_stall_seconds = reg.GetGauge(
        "whoiscrf_stream_reader_stall_seconds_total",
        "Cumulative seconds the reader stage blocked on a full input queue");
    m.worker_stall_seconds = reg.GetGauge(
        "whoiscrf_stream_worker_stall_seconds_total",
        "Cumulative seconds parser workers blocked on pipeline queues "
        "(summed across workers)");
    m.sink_stall_seconds = reg.GetGauge(
        "whoiscrf_stream_sink_stall_seconds_total",
        "Cumulative seconds the in-order sink blocked waiting for parses");
    m.sink_busy_seconds = reg.GetGauge(
        "whoiscrf_stream_sink_busy_seconds_total",
        "Cumulative seconds the calling thread spent inside sink and "
        "quarantine callbacks");
    m.input_depth = reg.GetGauge(
        "whoiscrf_stream_queue_depth",
        "Batches currently queued between pipeline stages",
        {{"queue", "input"}});
    m.output_depth = reg.GetGauge(
        "whoiscrf_stream_queue_depth",
        "Batches currently queued between pipeline stages",
        {{"queue", "output"}});
    return m;
  }();
  return metrics;
}

struct Batch {
  uint64_t seq = 0;
  uint64_t first_index = 0;  // global input index of records[0]
  std::vector<std::string> records;
  std::vector<ParsedWhois> parses;
  // Containment mode only: errors[r] non-empty means records[r] was
  // quarantined (parses[r] is a placeholder). Empty vector when
  // containment is off.
  std::vector<std::string> errors;
};

// Record buffers above this capacity are freed, not reused; WHOIS records
// are a few KiB.
constexpr size_t kMaxKeptRecordBytes = 64 * 1024;

// Spent batches travel back from the sink to the reader, which destroys
// their parses and refills their record strings. Pushing never blocks the
// sink: every batch on the list was admitted by the bounded queues, so
// the list is bounded by the batches in circulation.
struct ReturnedBatches {
  std::mutex mu;
  std::condition_variable cv;
  std::vector<Batch> batches;
  bool sink_done = false;  // no batch will be returned any more
};

}  // namespace

StreamPipelineStats ParseStream(
    const WhoisParser& parser, RecordSource& source,
    const StreamPipelineOptions& options,
    const std::function<void(uint64_t index, const std::string& record,
                             const ParsedWhois& parsed)>& sink) {
  const StreamMetrics& metrics = GetStreamMetrics();
  obs::ScopedSpan span("whois.parse_stream");

  const size_t threads =
      options.threads != 0
          ? options.threads
          : std::max<size_t>(1, std::thread::hardware_concurrency());
  const size_t batch_records = std::max<size_t>(1, options.batch_records);

  util::BoundedQueue<Batch> input(options.queue_capacity);
  util::BoundedQueue<Batch> output(options.queue_capacity);

  // First failure from any stage wins; the queues are cancelled so every
  // other stage unblocks and exits.
  std::mutex error_mu;
  std::exception_ptr error;
  auto fail = [&](std::exception_ptr e) {
    {
      std::lock_guard<std::mutex> lock(error_mu);
      if (!error) error = std::move(e);
    }
    input.Cancel();
    output.Cancel();
  };

  StreamPipelineStats stats;
  std::mutex stats_mu;  // guards the worker-stall sum across worker exits

  // Watchdog heartbeat: bumped on every queue hand-off and every emitted
  // batch. The monitor thread only compares values, so relaxed ordering
  // is enough.
  std::atomic<uint64_t> progress{0};

  ReturnedBatches returned;

  std::thread reader([&] {
    double stalled = 0.0;
    // Drained batches: parses freed, record strings kept for their
    // capacity. The reader allocates a batch only when none is spare.
    std::vector<Batch> spare;
    try {
      std::vector<Batch> drained;
      uint64_t seq = 0;
      uint64_t next_index = 0;
      bool more = true;
      while (more) {
        {
          std::lock_guard<std::mutex> lock(returned.mu);
          drained.swap(returned.batches);
        }
        for (Batch& spent : drained) {
          spent.parses.clear();
          spent.errors.clear();
          // An outsized record's buffer is not worth keeping for the run.
          for (std::string& record : spent.records) {
            if (record.capacity() > kMaxKeptRecordBytes) {
              std::string().swap(record);
            }
          }
          spare.push_back(std::move(spent));
        }
        drained.clear();
        Batch batch;
        if (!spare.empty()) {
          batch = std::move(spare.back());
          spare.pop_back();
        }
        batch.seq = seq;
        batch.first_index = next_index;
        size_t filled = 0;
        while (filled < batch_records) {
          if (filled == batch.records.size()) batch.records.emplace_back();
          if (!(more = source.Next(batch.records[filled]))) break;
          ++filled;
        }
        batch.records.resize(filled);
        if (filled == 0) break;
        next_index += filled;
        if (!input.Push(std::move(batch), &stalled)) break;  // cancelled
        progress.fetch_add(1, std::memory_order_relaxed);
        metrics.input_depth->Set(static_cast<double>(input.Size()));
        ++seq;
      }
    } catch (...) {
      fail(std::current_exception());
    }
    input.Close();
    metrics.reader_stall_seconds->Add(stalled);
    stats.reader_stall_seconds = stalled;
    // Input is done; keep freeing what the sink hands back until it ends,
    // so the tail of the run is not freed on the sink either.
    spare.clear();
    for (;;) {
      std::vector<Batch> drained;
      std::unique_lock<std::mutex> lock(returned.mu);
      returned.cv.wait(lock, [&] {
        return !returned.batches.empty() || returned.sink_done;
      });
      const bool done = returned.sink_done;
      drained.swap(returned.batches);
      lock.unlock();
      if (done && drained.empty()) break;
    }
  });

  // The last worker out closes the output queue so the sink loop ends.
  std::atomic<size_t> live_workers{threads};
  std::vector<std::thread> workers;
  workers.reserve(threads);
  for (size_t w = 0; w < threads; ++w) {
    workers.emplace_back([&] {
      double stalled = 0.0;
      try {
        ParseWorkspace ws;
        const bool contain = static_cast<bool>(options.on_quarantine);
        auto do_parse = [&](const std::string& record) {
          return options.parse_override ? options.parse_override(record, ws)
                                        : parser.Parse(record, ws);
        };
        while (auto batch = input.Pop(&stalled)) {
          progress.fetch_add(1, std::memory_order_relaxed);
          obs::ScopedSpan batch_span("whois.stream_batch");
          batch->parses.reserve(batch->records.size());
          if (contain) batch->errors.reserve(batch->records.size());
          for (const std::string& record : batch->records) {
            if (!contain) {
              batch->parses.push_back(do_parse(record));
              continue;
            }
            // Containment: only the parse itself is guarded. Anything a
            // queue or allocator throws still reaches fail() below.
            std::string err;
            if (options.max_record_bytes != 0 &&
                record.size() > options.max_record_bytes) {
              err = util::Format("record of %zu bytes exceeds limit of %llu",
                                 record.size(),
                                 static_cast<unsigned long long>(
                                     options.max_record_bytes));
              batch->parses.emplace_back();
            } else {
              try {
                batch->parses.push_back(do_parse(record));
              } catch (const std::exception& e) {
                err = e.what();
                if (err.empty()) err = "parser exception";
                batch->parses.resize(batch->errors.size() + 1);
              } catch (...) {
                err = "parser exception (non-standard)";
                batch->parses.resize(batch->errors.size() + 1);
              }
            }
            batch->errors.push_back(std::move(err));
          }
          if (!output.Push(std::move(*batch), &stalled)) break;  // cancelled
          progress.fetch_add(1, std::memory_order_relaxed);
          metrics.output_depth->Set(static_cast<double>(output.Size()));
        }
      } catch (...) {
        fail(std::current_exception());
      }
      if (live_workers.fetch_sub(1) == 1) output.Close();
      metrics.worker_stall_seconds->Add(stalled);
      std::lock_guard<std::mutex> lock(stats_mu);
      stats.worker_stall_seconds += stalled;
    });
  }

  // Stage watchdog: trips when the heartbeat counter sits still for the
  // full deadline, then cancels both queues so every blocked stage
  // unwinds. Checks in quarter-deadline slices so shutdown latency stays
  // bounded without busy-waiting.
  std::mutex watchdog_mu;
  std::condition_variable watchdog_cv;
  bool pipeline_done = false;
  std::thread watchdog;
  if (options.watchdog_timeout_ms > 0) {
    watchdog = std::thread([&] {
      const auto deadline =
          std::chrono::milliseconds(options.watchdog_timeout_ms);
      const auto slice = std::max(deadline / 4,
                                  std::chrono::milliseconds(1));
      uint64_t last = progress.load(std::memory_order_relaxed);
      auto stale = std::chrono::milliseconds(0);
      std::unique_lock<std::mutex> lock(watchdog_mu);
      for (;;) {
        if (watchdog_cv.wait_for(lock, slice, [&] { return pipeline_done; })) {
          return;
        }
        const uint64_t now = progress.load(std::memory_order_relaxed);
        if (now != last) {
          last = now;
          stale = std::chrono::milliseconds(0);
          continue;
        }
        stale += slice;
        if (stale < deadline) continue;
        const size_t in_depth = input.Size();
        const size_t out_depth = output.Size();
        const size_t workers_alive = live_workers.load();
        // Heuristic stage diagnosis from where batches piled up.
        const char* suspect =
            out_depth > 0 ? "sink"
            : in_depth >= options.queue_capacity
                ? "parser workers"
                : "reader/source";
        metrics.watchdog_trips->Inc();
        fail(std::make_exception_ptr(StreamStallError(util::Format(
            "stream watchdog: no pipeline progress for %llu ms "
            "(input queue depth %zu/%zu, output queue depth %zu/%zu, "
            "live workers %zu) — suspect stage: %s",
            static_cast<unsigned long long>(options.watchdog_timeout_ms),
            in_depth, options.queue_capacity, out_depth,
            options.queue_capacity, workers_alive, suspect))));
        return;
      }
    });
  }

  // In-order emission on the calling thread: stash out-of-order batches
  // until the next sequence number lands. The stash stays bounded because
  // every earlier stage blocks on a bounded queue. Record indices come
  // from the batch (global input positions), so the sink sees gaps where
  // records were quarantined.
  std::map<uint64_t, Batch> pending;
  uint64_t next_seq = 0;
  uint64_t emitted = 0;
  uint64_t quarantined = 0;
  double sink_stalled = 0.0;
  double sink_busy = 0.0;
  try {
    while (auto batch = output.Pop(&sink_stalled)) {
      progress.fetch_add(1, std::memory_order_relaxed);
      pending.emplace(batch->seq, std::move(*batch));
      for (auto it = pending.find(next_seq); it != pending.end();
           it = pending.find(next_seq)) {
        const Batch& ready = it->second;
        const auto busy_start = std::chrono::steady_clock::now();
        for (size_t r = 0; r < ready.records.size(); ++r) {
          const uint64_t index = ready.first_index + r;
          if (!ready.errors.empty() && !ready.errors[r].empty()) {
            options.on_quarantine(index, ready.records[r], ready.errors[r]);
            ++quarantined;
          } else {
            sink(index, ready.records[r], ready.parses[r]);
            ++emitted;
          }
        }
        sink_busy += std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - busy_start)
                         .count();
        ++stats.batches;
        progress.fetch_add(1, std::memory_order_relaxed);
        {
          std::lock_guard<std::mutex> lock(returned.mu);
          returned.batches.push_back(std::move(it->second));
        }
        returned.cv.notify_one();
        pending.erase(it);
        ++next_seq;
      }
    }
  } catch (...) {
    fail(std::current_exception());
  }
  {
    std::lock_guard<std::mutex> lock(returned.mu);
    returned.sink_done = true;
  }
  returned.cv.notify_one();

  reader.join();
  for (std::thread& worker : workers) worker.join();
  if (watchdog.joinable()) {
    {
      std::lock_guard<std::mutex> lock(watchdog_mu);
      pipeline_done = true;
    }
    watchdog_cv.notify_all();
    watchdog.join();
  }

  {
    std::lock_guard<std::mutex> lock(error_mu);
    if (error) std::rethrow_exception(error);
  }

  stats.records = emitted;
  stats.quarantined = quarantined;
  stats.sink_stall_seconds = sink_stalled;
  stats.sink_busy_seconds = sink_busy;
  metrics.records->Inc(emitted);
  metrics.quarantined->Inc(quarantined);
  metrics.batches->Inc(stats.batches);
  metrics.sink_stall_seconds->Add(sink_stalled);
  metrics.sink_busy_seconds->Add(sink_busy);
  metrics.input_depth->Set(0.0);
  metrics.output_depth->Set(0.0);
  return stats;
}

}  // namespace whoiscrf::whois
