// Event-driven serving core: a minimal epoll reactor (EventLoop) plus the
// non-blocking framed-connection state machine (FrameConn) built on it.
// This is the serving front end: one loop thread multiplexes thousands of
// sockets instead of parking one thread per client (docs/architecture.md
// "Event-driven serving").
//
// EventLoop is a plain epoll wrapper: edge-triggered fd readiness
// dispatched to per-fd handlers, plus a thread-safe Post() queue (eventfd
// wakeup) that is how other threads — parse workers finishing a request,
// the shutdown path — inject work into the loop thread. Everything else
// (every FrameConn, the listener) is owned by exactly one loop thread and
// is only ever touched there, so the connection state machine needs no
// locks.
//
// FrameConn speaks the length-prefixed framing of serve/protocol.h over a
// non-blocking socket:
//
//   * incremental frame assembly — partial reads accumulate in a buffer
//     until a full frame is present, so a client trickling one byte at a
//     time costs memory, not a blocked thread;
//   * ordered response slots — each request frame opens a slot in arrival
//     order; completions may land out of order (workers race) but
//     responses are serialized strictly in slot order, preserving the
//     protocol's pipelining contract;
//   * write-queue backpressure — responses that the socket cannot absorb
//     queue in userspace; past `write_queue_max_bytes` the connection
//     stops reading (its EPOLLIN interest is dropped) until the queue
//     drains below half the bound, so a client that sends fast and reads
//     slowly is throttled instead of ballooning server memory.
//
// The same machinery runs the parse server's client connections and both
// sides of the shard router (serve/router.h): `response_stream` flips the
// parser to response frames for router→backend connections.
#pragma once

#include <sys/epoll.h>

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>

#include "serve/protocol.h"

namespace whoiscrf::obs {
class Counter;
class Gauge;
}  // namespace whoiscrf::obs

namespace whoiscrf::serve {

// One epoll reactor. Run() is called by exactly one thread (the loop
// thread); Stop() and Post() are thread-safe; the fd-registration calls
// must only be made from the loop thread (or before Run starts).
class EventLoop {
 public:
  // Handler receives the EPOLL* event bits for its fd.
  using FdHandler = std::function<void(uint32_t)>;

  // `wakeups`, when given, counts epoll_wait returns
  // (whoiscrf_serve_epoll_wakeups_total).
  explicit EventLoop(obs::Counter* wakeups = nullptr);
  ~EventLoop();

  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  // Runs until Stop(). After the loop exits, any tasks still in the Post
  // queue are drained once (they must tolerate running on a stopped loop;
  // stale completions for closed connections are no-ops by design).
  void Run();
  void Stop();

  // Enqueues `task` to run on the loop thread, FIFO. Thread-safe.
  void Post(std::function<void()> task);

  // fd registration; loop thread only. `events` are EPOLL* bits
  // (typically EPOLLIN | EPOLLET). The handler is kept alive while
  // dispatching, so it may remove (even close) its own fd.
  void AddFd(int fd, uint32_t events, FdHandler handler);
  void ModFd(int fd, uint32_t events);
  void DelFd(int fd);

  bool InLoopThread() const {
    return std::this_thread::get_id() == loop_thread_.load();
  }

 private:
  void RunPosted();
  void Wake();

  int epoll_fd_ = -1;
  int wake_fd_ = -1;
  std::atomic<bool> stop_{false};
  std::atomic<bool> wake_armed_{false};
  std::mutex post_mu_;
  std::deque<std::function<void()>> posted_;
  std::unordered_map<int, std::shared_ptr<FdHandler>> handlers_;
  std::atomic<std::thread::id> loop_thread_{};
  obs::Counter* wakeups_;
};

// Metrics shared by every FrameConn of one server: the write-queue gauge
// is a process-wide byte total (backed by `writeq_total` so concurrent
// connections can delta it), the stall counter counts backpressure pauses.
struct FrameConnMetrics {
  obs::Gauge* writeq_bytes = nullptr;
  obs::Counter* backpressure_stalls = nullptr;
  std::atomic<int64_t>* writeq_total = nullptr;
};

struct FrameConnOptions {
  size_t max_frame_bytes = kDefaultMaxFrameBytes;
  // Backpressure bound on buffered response bytes; 0 disables (used by
  // router->backend connections, which are bounded by the shard's own
  // admission control instead).
  size_t write_queue_max_bytes = 4u << 20;
  // Incoming frames are responses (status byte + body) instead of
  // requests — the router's backend-facing connections.
  bool response_stream = false;
  // The fd has a non-blocking connect() in flight; writes buffer until
  // EPOLLOUT reports the connect outcome.
  bool connecting = false;
};

// One non-blocking framed connection, owned by its loop thread. All
// methods (and all callbacks) run on that thread; cross-thread completions
// go through EventLoop::Post.
class FrameConn : public std::enable_shared_from_this<FrameConn> {
 public:
  FrameConn(EventLoop* loop, int fd, FrameConnOptions options,
            FrameConnMetrics metrics);
  ~FrameConn();

  FrameConn(const FrameConn&) = delete;
  FrameConn& operator=(const FrameConn&) = delete;

  // Exactly one of these fires per complete incoming frame, depending on
  // options_.response_stream.
  std::function<void(std::string&&)> on_request;
  std::function<void(Status, std::string&&)> on_response;
  // Fires once, right after the fd is closed (pending slots discarded).
  std::function<void(FrameConn&)> on_closed;

  // Registers the fd with the loop. Call once, on the loop thread.
  void Start();

  // Opens the next response slot (request arrival order) and returns its
  // sequence number. CompleteSlot may be called in any order; responses
  // are written strictly in slot order. Completing a slot on a closed
  // connection is a no-op.
  uint64_t OpenSlot();
  void CompleteSlot(uint64_t seq, Status status, std::string body);

  // Appends one request frame to the write queue (router forward path).
  void SendRequestFrame(std::string_view payload);

  // Immediate close: fd closed, pending slots and buffered writes
  // discarded, on_closed fired.
  void Close();

  // Graceful close: stop reading new frames; once every open slot has
  // completed and the write queue has drained, close. (The drain path of
  // Shutdown, and the response to a clean client EOF with responses still
  // owed.)
  void CloseAfterFlush();

  bool closed() const { return closed_; }
  size_t pending_slots() const { return slots_.size(); }
  size_t buffered_write_bytes() const { return outbuf_.size() - out_off_; }
  int fd() const { return fd_; }

 private:
  struct Slot {
    bool done = false;
    Status status = Status::kError;
    std::string body;
  };

  void HandleEvents(uint32_t events);
  void ReadInput();
  void ConsumeFrames();
  void DispatchFrames();
  void FlushWrites();
  void UpdateInterest();
  void NoteWriteBytes(int64_t delta);
  void CheckBackpressure();
  void MaybeFinishClose();

  EventLoop* loop_;
  int fd_;
  const FrameConnOptions options_;
  const FrameConnMetrics metrics_;

  std::string inbuf_;  // unconsumed incoming bytes
  size_t in_off_ = 0;
  std::string outbuf_;  // unsent outgoing bytes
  size_t out_off_ = 0;

  std::deque<Slot> slots_;  // open slots, front = next to answer
  uint64_t base_seq_ = 0;   // seq of slots_.front()
  uint64_t next_seq_ = 0;

  uint32_t interest_ = 0;  // currently armed EPOLL* bits
  bool registered_ = false;
  bool want_write_ = false;    // EPOLLOUT armed for a pending flush
  bool paused_ = false;        // reading stopped by backpressure
  bool refuse_input_ = false;  // reading stopped for good (EOF/drain/abuse)
  bool corked_ = false;        // batch writes while dispatching frames
  bool close_after_flush_ = false;
  bool connecting_;
  bool closed_ = false;
};

// Listener/socket helpers shared by the server and router front ends.
// CreateListener throws std::runtime_error on failure; returns the fd and
// writes the bound port to *port (useful with port 0 = ephemeral).
int CreateListener(uint16_t port, int backlog, uint16_t* bound_port);
void SetNonBlocking(int fd);
void SetTcpNoDelay(int fd);

}  // namespace whoiscrf::serve
