// Parse-as-a-service: the always-on counterpart of `whoiscrf parse`.
//
// ParseService is the transport-independent core: requests (raw WHOIS
// record bytes) pass admission control — a util::BoundedQueue whose
// capacity is the hard bound on queued work; a full queue fast-rejects
// with Status::kBusy instead of queueing without bound — then a
// util::ThreadPool of workers (one long-lived pop loop and one
// whois::ParseWorkspace per worker) parses them and answers with the
// record's JSON, byte-identical to the offline `parse --format json`
// output. Around the hot path:
//
//   * a sharded LRU result cache keyed by record bytes (serve/cache.h):
//     repeat requests skip the CRF entirely;
//   * per-request deadlines on the net::Clock abstraction: a request that
//     waited in the queue past its deadline is answered kDeadline without
//     being parsed (SimClock makes this testable without real waiting);
//   * graceful drain: Drain() stops admitting, lets every already-admitted
//     request finish, and joins the workers — the SIGTERM path of
//     `whoiscrf serve`;
//   * whoiscrf_serve_* metrics and the serve.request trace span
//     (docs/observability.md).
//
// ParseServer is the TCP front end (docs/architecture.md "Event-driven
// serving"): a configurable number of event-loop threads
// (serve/event_loop.h) multiplex every connection with edge-triggered
// epoll — incremental frame assembly, per-connection ordered response
// slots so pipelined replies stay in request order even though workers
// finish out of order, and write-queue backpressure that stops reading a
// connection whose responses back up. Completions hop from the worker
// thread back to the owning loop via EventLoop::Post.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include "net/clock.h"
#include "serve/cache.h"
#include "serve/event_loop.h"
#include "serve/model_host.h"
#include "serve/protocol.h"
#include "util/bounded_queue.h"
#include "util/thread_pool.h"
#include "whois/whois_parser.h"

namespace whoiscrf::obs {
class Counter;
class Gauge;
class Histogram;
}  // namespace whoiscrf::obs

namespace whoiscrf::serve {

struct ParseServiceOptions {
  // Parse workers; 0 = hardware concurrency (min 1).
  size_t threads = 0;
  // Admitted-but-unstarted requests the queue may hold. Beyond this,
  // Submit fast-rejects with Status::kBusy — the admission-control bound
  // that keeps queueing delay (and memory) capped under overload.
  size_t queue_capacity = 128;
  // Result-cache capacity in entries; 0 disables the cache.
  size_t cache_entries = 4096;
  // A request not picked up by a worker within this budget (measured from
  // admission on `clock`) is answered kDeadline without being parsed.
  // 0 = no deadline.
  uint64_t deadline_ms = 0;
  // Requests larger than this are answered kError without being queued.
  uint64_t max_record_bytes = kDefaultMaxFrameBytes;
  // Deadline timebase; nullptr = an internal RealClock. Tests inject
  // net::SimClock to exercise expiry without real waiting.
  net::Clock* clock = nullptr;
  // Mirrors StreamPipelineOptions::parse_override: replaces parser.Parse
  // for each request. `serve --cascade-data` routes requests through the
  // parser cascade (src/cascade/) this way; tests use it to inject
  // deterministic parses. Must be safe to invoke concurrently with
  // distinct workspaces. Unset = plain parser.Parse.
  std::function<whois::ParsedWhois(const std::string& record,
                                   whois::ParseWorkspace& ws)>
      parse_override = nullptr;
};

struct ServeResult {
  Status status = Status::kError;
  std::string body;        // JSON on kOk, reason otherwise
  bool cache_hit = false;  // kOk answered from the result cache
};

class ParseService {
 public:
  ParseService(const whois::WhoisParser& parser,
               ParseServiceOptions options = {});
  // Hot-swappable variant: every request parses with a consistent
  // (model, version) snapshot from `host` — in-flight requests finish on
  // the model they started with — and result-cache keys carry the version,
  // so a swap can never serve stale JSON (serve/model_host.h). The service
  // subscribes to `host` to evict the old version's cache entries eagerly;
  // `host` must outlive the service. Incompatible with
  // options.parse_override (which binds a fixed parser); throws
  // std::invalid_argument when both are given.
  ParseService(ModelHost* host, ParseServiceOptions options = {});
  ~ParseService();  // drains

  ParseService(const ParseService&) = delete;
  ParseService& operator=(const ParseService&) = delete;

  // Admission-controlled asynchronous submit. `done` is invoked exactly
  // once: synchronously (on the caller's thread) for fast rejects — kBusy
  // when the queue is full or the service is draining, kError for an
  // oversized record — otherwise on a worker thread with whatever the
  // worker answers. The event-loop front end's completion path: `done`
  // posts back to the connection's loop.
  void SubmitAsync(std::string record,
                   std::function<void(ServeResult&&)> done);

  // SubmitAsync wrapped in a future.
  std::future<ServeResult> Submit(std::string record);

  // Submit + wait; the synchronous path for callers that own a thread
  // (tests, the router's health probe).
  ServeResult Handle(std::string record);

  // Graceful drain: stop admitting (Submit answers kBusy), finish every
  // already-admitted request, join the workers. Idempotent; also run by
  // the destructor.
  void Drain();

  bool draining() const {
    return draining_.load(std::memory_order_relaxed);
  }
  size_t threads() const { return num_threads_; }
  size_t queue_depth() const { return queue_.Size(); }

 private:
  struct Request {
    std::string record;
    uint64_t deadline_ms = 0;  // absolute on clock_; 0 = none
    uint64_t start_us = 0;     // admission time, steady clock
    std::function<void(ServeResult&&)> done;
  };

  ParseService(const whois::WhoisParser* parser, ModelHost* host,
               ParseServiceOptions options);

  void WorkerLoop();
  void Finish(Request& req, Status status, std::string body, bool cache_hit);
  obs::Counter* StatusCounter(Status status);

  // Exactly one of parser_ / host_ is set. With a host, cache keys are
  // version-suffixed (ResultCache::AppendVersionSuffix).
  const whois::WhoisParser* parser_ = nullptr;
  ModelHost* host_ = nullptr;
  uint64_t host_subscription_ = 0;
  const ParseServiceOptions options_;
  const size_t num_threads_;
  net::RealClock real_clock_;
  net::Clock* clock_;
  std::unique_ptr<ResultCache> cache_;
  util::BoundedQueue<Request> queue_;
  std::atomic<bool> draining_{false};
  std::mutex drain_mu_;  // serializes Drain callers around the pool join
  std::unique_ptr<util::ThreadPool> pool_;

  // Registry metrics, resolved once at construction
  // (docs/observability.md "Serve").
  struct Metrics {
    obs::Counter* ok = nullptr;
    obs::Counter* busy = nullptr;
    obs::Counter* deadline = nullptr;
    obs::Counter* error = nullptr;
    obs::Counter* cache_hits = nullptr;
    obs::Counter* cache_misses = nullptr;
    obs::Counter* cache_evictions = nullptr;
    obs::Gauge* queue_depth = nullptr;
    obs::Gauge* cache_entries = nullptr;
    obs::Gauge* cache_bytes = nullptr;
    obs::Histogram* latency_us = nullptr;
  };
  Metrics metrics_;
};

struct ParseServerOptions {
  ParseServiceOptions service;
  // TCP port on 127.0.0.1; 0 = ephemeral (read the bound port back with
  // port()).
  uint16_t port = 0;
  // Cap on one request frame; larger length prefixes draw kError and the
  // connection closes (the payload cannot be skipped safely).
  size_t max_frame_bytes = kDefaultMaxFrameBytes;
  // Event-loop threads multiplexing connections; 0 = 1. Accepted
  // connections are spread round-robin.
  size_t event_loops = 1;
  // Per-connection write-queue bound: a connection whose unsent response
  // bytes exceed this stops being read until the peer drains to half the
  // bound; 0 = unbounded.
  size_t write_queue_max_bytes = 4u << 20;
  // SO_SNDBUF for accepted sockets, in bytes; 0 = the kernel default,
  // which autotunes up to tcp_wmem's max (often 4 MiB). A small pinned
  // buffer makes a slow reader back responses up into the write queue
  // after a known number of bytes.
  int send_buffer_bytes = 0;
  // listen(2) backlog.
  int listen_backlog = 1024;
  // Shutdown grace for flushing responses to slow readers before their
  // connections are force-closed.
  uint64_t drain_flush_ms = 5000;
};

class ParseServer {
 public:
  // Binds 127.0.0.1 and starts accepting immediately. Throws
  // std::runtime_error if the socket cannot be created/bound.
  ParseServer(const whois::WhoisParser& parser, ParseServerOptions options);
  // Hot-swappable variant (see the ParseService host constructor); `host`
  // must outlive the server.
  ParseServer(ModelHost* host, ParseServerOptions options);
  ~ParseServer();

  ParseServer(const ParseServer&) = delete;
  ParseServer& operator=(const ParseServer&) = delete;

  uint16_t port() const { return port_; }
  ParseService& service() { return service_; }

  // Graceful shutdown: stop accepting, drain the service (every admitted
  // request is answered and written), flush per-connection write queues
  // (bounded by drain_flush_ms for peers that stop reading), then stop
  // the event-loop threads. Idempotent; also run by the destructor.
  void Shutdown();

 private:
  // One event-loop thread and the connections it owns. `conns` and
  // `draining` are loop-thread-only.
  struct LoopCtx {
    explicit LoopCtx(obs::Counter* wakeups) : loop(wakeups) {}
    EventLoop loop;
    std::thread thread;
    std::unordered_set<std::shared_ptr<FrameConn>> conns;
    bool draining = false;
  };

  void Init();  // shared constructor tail: metrics, listener, loops
  void AcceptReady();  // loop 0: accept until EAGAIN, spread round-robin
  void AttachConn(LoopCtx* ctx, int fd);

  const ParseServerOptions options_;
  ParseService service_;
  int listen_fd_ = -1;
  uint16_t port_ = 0;
  std::atomic<bool> stop_{false};

  std::vector<std::unique_ptr<LoopCtx>> loops_;
  size_t next_loop_ = 0;  // round-robin cursor; loop-0-thread-only
  std::atomic<int64_t> writeq_total_{0};

  obs::Counter* connections_total_ = nullptr;
  obs::Gauge* active_connections_ = nullptr;
  obs::Counter* epoll_wakeups_ = nullptr;
  obs::Gauge* writeq_bytes_ = nullptr;
  obs::Counter* backpressure_stalls_ = nullptr;
};

}  // namespace whoiscrf::serve
