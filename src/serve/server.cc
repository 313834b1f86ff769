#include "serve/server.h"

#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <exception>
#include <stdexcept>
#include <utility>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "whois/json_export.h"

namespace whoiscrf::serve {

namespace {

size_t ResolveThreads(size_t threads) {
  if (threads != 0) return threads;
  return std::max(1u, std::thread::hardware_concurrency());
}

}  // namespace

ParseService::ParseService(const whois::WhoisParser& parser,
                           ParseServiceOptions options)
    : ParseService(&parser, nullptr, std::move(options)) {}

ParseService::ParseService(ModelHost* host, ParseServiceOptions options)
    : ParseService(nullptr, host, std::move(options)) {
  if (host == nullptr) {
    throw std::invalid_argument("ParseService: model host is null");
  }
  if (options_.parse_override != nullptr) {
    throw std::invalid_argument(
        "ParseService: parse_override is incompatible with a model host "
        "(the override binds a fixed parser; hot swap would not reach it)");
  }
}

ParseService::ParseService(const whois::WhoisParser* parser, ModelHost* host,
                           ParseServiceOptions options)
    : parser_(parser),
      host_(host),
      options_(std::move(options)),
      num_threads_(ResolveThreads(options_.threads)),
      clock_(options_.clock != nullptr ? options_.clock : &real_clock_),
      queue_(options_.queue_capacity) {
  if (options_.cache_entries > 0) {
    cache_ = std::make_unique<ResultCache>(options_.cache_entries);
  }

  auto& registry = obs::Registry::Global();
  const auto status_counter = [&](const char* status) {
    return registry.GetCounter("whoiscrf_serve_requests_total",
                               "parse-service requests by final status",
                               {{"status", status}});
  };
  metrics_.ok = status_counter("ok");
  metrics_.busy = status_counter("busy");
  metrics_.deadline = status_counter("deadline");
  metrics_.error = status_counter("error");
  metrics_.cache_hits = registry.GetCounter(
      "whoiscrf_serve_cache_hits_total",
      "requests answered from the result cache");
  metrics_.cache_misses = registry.GetCounter(
      "whoiscrf_serve_cache_misses_total",
      "requests that had to be parsed (result cache miss)");
  metrics_.cache_evictions = registry.GetCounter(
      "whoiscrf_serve_cache_evictions_total",
      "result-cache entries evicted to stay within capacity");
  metrics_.queue_depth = registry.GetGauge(
      "whoiscrf_serve_queue_depth",
      "requests admitted but not yet picked up by a worker");
  metrics_.cache_entries = registry.GetGauge(
      "whoiscrf_serve_cache_entries", "result-cache entries currently held");
  metrics_.cache_bytes = registry.GetGauge(
      "whoiscrf_serve_cache_bytes",
      "result-cache key+value payload bytes currently held");
  metrics_.latency_us = registry.GetHistogram(
      "whoiscrf_serve_request_latency_us",
      "admission-to-response latency of admitted requests, microseconds",
      {10, 25, 50, 100, 250, 500, 1000, 2500, 5000, 10000, 25000, 50000,
       100000});

  // Eager reclamation: when the host swaps models, the old version's cache
  // entries can never be hit again (keys carry the version) — drop them now
  // instead of letting them squat in the LRU until capacity pressure.
  if (host_ != nullptr && cache_ != nullptr) {
    host_subscription_ =
        host_->Subscribe([this](uint64_t old_version, uint64_t) {
          const size_t evicted = cache_->EvictVersion(old_version);
          if (evicted > 0) metrics_.cache_evictions->Inc(evicted);
          metrics_.cache_entries->Set(
              static_cast<double>(cache_->entries()));
          metrics_.cache_bytes->Set(static_cast<double>(cache_->bytes()));
        });
  }

  pool_ = std::make_unique<util::ThreadPool>(num_threads_);
  for (size_t i = 0; i < num_threads_; ++i) {
    pool_->Post([this] { WorkerLoop(); });
  }
}

ParseService::~ParseService() {
  if (host_ != nullptr && host_subscription_ != 0) {
    host_->Unsubscribe(host_subscription_);
  }
  Drain();
}

void ParseService::SubmitAsync(std::string record,
                               std::function<void(ServeResult&&)> done) {
  Request req;
  req.record = std::move(record);
  req.start_us = obs::MonotonicMicros();
  req.done = std::move(done);

  if (req.record.size() > options_.max_record_bytes) {
    metrics_.error->Inc();
    req.done(ServeResult{Status::kError, "record too large", false});
    return;
  }
  // Inline cache-hit fast path: a hit needs no worker, so answering at
  // submit time saves the queue hand-off (two cross-thread wakes per
  // request). On the epoll front end this runs on the event-loop thread —
  // a sharded-LRU probe, cheap enough to keep the loop responsive — and
  // hot repeated traffic never leaves that thread. A miss is NOT counted
  // here: the record may hit by the time a worker picks it up (an
  // identical in-flight request completing first), and the worker's own
  // probe counts each admitted request exactly once.
  if (cache_ != nullptr) {
    // With a model host the probe key carries the CURRENT version, so a
    // request arriving after a swap can only hit entries the new model
    // produced. (The worker re-reads the version for its own probe/insert;
    // a swap between the two probes just turns this one into a miss.)
    if (host_ != nullptr) {
      ResultCache::AppendVersionSuffix(req.record, host_->version());
    }
    std::string body;
    const size_t record_hash = ResultCache::Hash(req.record);
    const bool hit = cache_->Get(req.record, record_hash, &body);
    if (host_ != nullptr) ResultCache::StripVersionSuffix(req.record);
    if (hit) {
      metrics_.cache_hits->Inc();
      Finish(req, Status::kOk, std::move(body), true);
      return;
    }
  }
  if (options_.deadline_ms != 0) {
    req.deadline_ms = clock_->NowMs() + options_.deadline_ms;
  }
  // TryPush (not Push): a full queue must answer immediately, not block
  // the acceptor — bounded queueing delay is the whole point of admission
  // control. A closed queue (draining) fails the same way.
  size_t depth = 0;
  if (draining() || !queue_.TryPush(req, &depth)) {
    metrics_.busy->Inc();
    req.done(ServeResult{Status::kBusy, "server busy", false});
    return;
  }
  metrics_.queue_depth->Set(static_cast<double>(depth));
}

std::future<ServeResult> ParseService::Submit(std::string record) {
  auto promise = std::make_shared<std::promise<ServeResult>>();
  std::future<ServeResult> result = promise->get_future();
  SubmitAsync(std::move(record), [promise](ServeResult&& r) {
    promise->set_value(std::move(r));
  });
  return result;
}

ServeResult ParseService::Handle(std::string record) {
  return Submit(std::move(record)).get();
}

void ParseService::WorkerLoop() {
  whois::ParseWorkspace ws;
  while (true) {
    size_t depth = 0;
    std::optional<Request> item = queue_.Pop(nullptr, &depth);
    if (!item.has_value()) return;  // closed and drained
    metrics_.queue_depth->Set(static_cast<double>(depth));
    Request& req = *item;
    obs::ScopedSpan span("serve.request");

    if (req.deadline_ms != 0 && clock_->NowMs() > req.deadline_ms) {
      Finish(req, Status::kDeadline, "deadline exceeded", false);
      continue;
    }
    // One consistent (model, version) snapshot per request: the parse and
    // the cache insert both use it, so a swap mid-request just means this
    // request finishes — and caches — under the model it started with.
    ModelHost::Snapshot snap;
    const whois::WhoisParser* parser = parser_;
    if (host_ != nullptr) {
      snap = host_->Acquire();
      parser = snap.model.get();
    }
    std::string body;
    if (host_ != nullptr && cache_ != nullptr) {
      ResultCache::AppendVersionSuffix(req.record, snap.version);
    }
    const size_t record_hash =
        cache_ != nullptr ? ResultCache::Hash(req.record) : 0;
    if (cache_ != nullptr && cache_->Get(req.record, record_hash, &body)) {
      metrics_.cache_hits->Inc();
      Finish(req, Status::kOk, std::move(body), true);
      continue;
    }
    if (cache_ != nullptr) {
      metrics_.cache_misses->Inc();
      if (host_ != nullptr) ResultCache::StripVersionSuffix(req.record);
    }
    try {
      const whois::ParsedWhois parsed =
          options_.parse_override != nullptr
              ? options_.parse_override(req.record, ws)
              : parser->Parse(req.record, ws);
      body = whois::ToJson(parsed);
    } catch (const std::exception& e) {
      Finish(req, Status::kError, std::string("parse failed: ") + e.what(),
             false);
      continue;
    }
    if (cache_ != nullptr) {
      // req.record is not needed past this point; move it in as the key
      // (re-tagged with the snapshot version when hot swap is on — the
      // suffix bytes are identical to the ones record_hash was computed
      // over, so the precomputed hash stays valid).
      if (host_ != nullptr) {
        ResultCache::AppendVersionSuffix(req.record, snap.version);
      }
      const size_t evicted =
          cache_->Put(std::move(req.record), record_hash, body);
      if (evicted > 0) metrics_.cache_evictions->Inc(evicted);
      metrics_.cache_entries->Set(static_cast<double>(cache_->entries()));
      metrics_.cache_bytes->Set(static_cast<double>(cache_->bytes()));
    }
    Finish(req, Status::kOk, std::move(body), false);
  }
}

void ParseService::Finish(Request& req, Status status, std::string body,
                          bool cache_hit) {
  metrics_.latency_us->Observe(
      static_cast<double>(obs::MonotonicMicros() - req.start_us));
  StatusCounter(status)->Inc();
  req.done(ServeResult{status, std::move(body), cache_hit});
}

obs::Counter* ParseService::StatusCounter(Status status) {
  switch (status) {
    case Status::kOk:
      return metrics_.ok;
    case Status::kBusy:
      return metrics_.busy;
    case Status::kDeadline:
      return metrics_.deadline;
    case Status::kError:
      return metrics_.error;
  }
  return metrics_.error;
}

void ParseService::Drain() {
  draining_.store(true, std::memory_order_relaxed);
  // Close, not Cancel: already-admitted requests drain through the
  // workers, so every accepted request still gets its answer.
  queue_.Close();
  std::lock_guard<std::mutex> lock(drain_mu_);
  pool_.reset();  // joins the workers once the queue is empty
  metrics_.queue_depth->Set(0.0);
}

// --- TCP front end --------------------------------------------------------

ParseServer::ParseServer(const whois::WhoisParser& parser,
                         ParseServerOptions options)
    : options_(std::move(options)), service_(parser, options_.service) {
  Init();
}

ParseServer::ParseServer(ModelHost* host, ParseServerOptions options)
    : options_(std::move(options)), service_(host, options_.service) {
  Init();
}

void ParseServer::Init() {
  auto& registry = obs::Registry::Global();
  connections_total_ = registry.GetCounter(
      "whoiscrf_serve_connections_total", "TCP connections accepted");
  active_connections_ = registry.GetGauge(
      "whoiscrf_serve_active_connections", "TCP connections currently open");
  epoll_wakeups_ = registry.GetCounter(
      "whoiscrf_serve_epoll_wakeups_total",
      "event-loop epoll_wait returns (readiness batches dispatched)");
  writeq_bytes_ = registry.GetGauge(
      "whoiscrf_serve_writeq_bytes",
      "response bytes buffered in per-connection write queues");
  backpressure_stalls_ = registry.GetCounter(
      "whoiscrf_serve_backpressure_stalls_total",
      "connections paused because their write queue exceeded the bound");

  listen_fd_ = CreateListener(options_.port, options_.listen_backlog, &port_);
  SetNonBlocking(listen_fd_);
  const size_t n = std::max<size_t>(1, options_.event_loops);
  loops_.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    loops_.push_back(std::make_unique<LoopCtx>(epoll_wakeups_));
  }
  // Registering before Run() starts is the one off-thread AddFd allowed.
  loops_[0]->loop.AddFd(listen_fd_, EPOLLIN | EPOLLET,
                        [this](uint32_t) { AcceptReady(); });
  for (auto& ctx : loops_) {
    ctx->thread = std::thread([loop = &ctx->loop] { loop->Run(); });
  }
}

void ParseServer::AcceptReady() {
  // Edge-triggered: drain the accept queue completely or new connections
  // stall until the next edge.
  while (listen_fd_ >= 0) {
    const int fd =
        ::accept4(listen_fd_, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // EAGAIN (drained) or listener gone
    }
    SetTcpNoDelay(fd);
    if (options_.send_buffer_bytes > 0) {
      ::setsockopt(fd, SOL_SOCKET, SO_SNDBUF, &options_.send_buffer_bytes,
                   sizeof(options_.send_buffer_bytes));
    }
    connections_total_->Inc();
    active_connections_->Add(1.0);
    LoopCtx* ctx = loops_[next_loop_++ % loops_.size()].get();
    if (ctx == loops_[0].get()) {
      AttachConn(ctx, fd);
    } else {
      ctx->loop.Post([this, ctx, fd] { AttachConn(ctx, fd); });
    }
  }
}

void ParseServer::AttachConn(LoopCtx* ctx, int fd) {
  if (ctx->draining) {  // raced shutdown; refuse politely
    ::close(fd);
    active_connections_->Add(-1.0);
    return;
  }
  FrameConnOptions conn_options;
  conn_options.max_frame_bytes = options_.max_frame_bytes;
  conn_options.write_queue_max_bytes = options_.write_queue_max_bytes;
  FrameConnMetrics conn_metrics{writeq_bytes_, backpressure_stalls_,
                                &writeq_total_};
  auto conn = std::make_shared<FrameConn>(&ctx->loop, fd, conn_options,
                                          conn_metrics);
  // Raw `this`-style captures only: the conn's own shared_ptr in its
  // callbacks would be a reference cycle. The completion path captures a
  // fresh shared_ptr per request, which is exactly the lifetime needed.
  FrameConn* raw = conn.get();
  conn->on_request = [this, ctx, raw](std::string&& record) {
    const uint64_t seq = raw->OpenSlot();
    auto self = raw->shared_from_this();
    service_.SubmitAsync(
        std::move(record),
        [ctx, self = std::move(self), seq](ServeResult&& result) {
          // Inline completions (the cache-hit fast path answers inside
          // SubmitAsync, i.e. on this loop thread) write the slot
          // directly — the dispatch loop holds a handler reference, and
          // every FrameConn loop re-checks closed_/paused_, so a
          // synchronous CompleteSlot mid-ConsumeFrames is safe. Worker
          // completions hop to the owning loop; ServeResult is move-only
          // in spirit (big body), shared_ptr keeps the lambda copyable
          // for std::function.
          if (ctx->loop.InLoopThread()) {
            self->CompleteSlot(seq, result.status, std::move(result.body));
            return;
          }
          auto boxed = std::make_shared<ServeResult>(std::move(result));
          ctx->loop.Post([self, seq, boxed] {
            self->CompleteSlot(seq, boxed->status, std::move(boxed->body));
          });
        });
  };
  conn->on_closed = [this, ctx](FrameConn& c) {
    active_connections_->Add(-1.0);
    ctx->conns.erase(c.shared_from_this());
    if (ctx->draining && ctx->conns.empty()) ctx->loop.Stop();
  };
  ctx->conns.insert(conn);
  conn->Start();
}

ParseServer::~ParseServer() { Shutdown(); }

void ParseServer::Shutdown() {
  if (stop_.exchange(true)) return;
  // 1. Stop accepting: the listener lives on loop 0, so close it there.
  std::promise<void> closed;
  loops_[0]->loop.Post([this, &closed] {
    if (listen_fd_ >= 0) {
      loops_[0]->loop.DelFd(listen_fd_);
      ::close(listen_fd_);
      listen_fd_ = -1;
    }
    closed.set_value();
  });
  closed.get_future().wait();

  // 2. Drain the service. Every admitted request's completion is posted
  //    to its loop before Drain returns (the workers are joined), so the
  //    drain tasks below — posted after — run with all responses already
  //    serialized into their connections' write queues (FIFO per loop).
  service_.Drain();

  // 3. Flush and close every connection; a loop stops once its last
  //    connection is gone.
  for (auto& ctx : loops_) {
    ctx->loop.Post([ctx = ctx.get()] {
      ctx->draining = true;
      auto conns = ctx->conns;  // CloseAfterFlush may erase synchronously
      for (const auto& conn : conns) conn->CloseAfterFlush();
      if (ctx->conns.empty()) ctx->loop.Stop();
    });
  }

  // 4. Watchdog: a peer that stops reading its responses would hold its
  //    loop open forever; force-close stragglers after the grace period.
  struct Watch {
    std::mutex mu;
    std::condition_variable cv;
    bool done = false;
  };
  auto watch = std::make_shared<Watch>();
  std::thread watchdog([this, watch] {
    std::unique_lock<std::mutex> lock(watch->mu);
    const auto grace = std::chrono::milliseconds(options_.drain_flush_ms);
    if (!watch->cv.wait_for(lock, grace, [&] { return watch->done; })) {
      for (auto& ctx : loops_) {
        ctx->loop.Post([ctx = ctx.get()] {
          auto conns = ctx->conns;
          for (const auto& conn : conns) conn->Close();
          ctx->loop.Stop();
        });
      }
    }
  });
  for (auto& ctx : loops_) {
    if (ctx->thread.joinable()) ctx->thread.join();
  }
  {
    std::lock_guard<std::mutex> lock(watch->mu);
    watch->done = true;
  }
  watch->cv.notify_all();
  watchdog.join();
}

}  // namespace whoiscrf::serve
