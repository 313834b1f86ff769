#include "serve/event_loop.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <stdexcept>
#include <utility>
#include <vector>

#include "obs/metrics.h"
#include "util/little_endian.h"

namespace whoiscrf::serve {

namespace {

[[noreturn]] void ThrowErrno(const char* what) {
  throw std::runtime_error(std::string(what) + ": " +
                           std::strerror(errno));  // NOLINT(concurrency-mt)
}

}  // namespace

// ---------------------------------------------------------------------------
// EventLoop

EventLoop::EventLoop(obs::Counter* wakeups) : wakeups_(wakeups) {
  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  if (epoll_fd_ < 0) ThrowErrno("epoll_create1");
  wake_fd_ = ::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
  if (wake_fd_ < 0) ThrowErrno("eventfd");
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = wake_fd_;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_fd_, &ev) != 0) {
    ThrowErrno("epoll_ctl(wake)");
  }
}

EventLoop::~EventLoop() {
  if (wake_fd_ >= 0) ::close(wake_fd_);
  if (epoll_fd_ >= 0) ::close(epoll_fd_);
}

void EventLoop::Run() {
  loop_thread_.store(std::this_thread::get_id());
  std::vector<epoll_event> events(256);
  while (!stop_.load(std::memory_order_acquire)) {
    const int n = ::epoll_wait(epoll_fd_, events.data(),
                               static_cast<int>(events.size()), -1);
    if (n < 0) {
      if (errno == EINTR) continue;
      ThrowErrno("epoll_wait");
    }
    if (wakeups_ != nullptr) wakeups_->Inc();
    for (int i = 0; i < n; ++i) {
      const int fd = events[i].data.fd;
      if (fd == wake_fd_) {
        uint64_t drain = 0;
        while (::read(wake_fd_, &drain, sizeof(drain)) > 0) {
        }
        wake_armed_.store(false, std::memory_order_release);
        continue;
      }
      // Copy the handler shared_ptr: the handler may DelFd (even close)
      // its own fd while we dispatch to it.
      auto it = handlers_.find(fd);
      if (it == handlers_.end()) continue;
      auto handler = it->second;
      (*handler)(events[i].events);
    }
    RunPosted();
    if (n == static_cast<int>(events.size())) events.resize(events.size() * 2);
  }
  // Late tasks (worker completions racing Stop) must still run so their
  // captures are released on the loop thread; connections they reference
  // are closed, making them no-ops.
  RunPosted();
}

void EventLoop::Stop() {
  stop_.store(true, std::memory_order_release);
  Wake();
}

void EventLoop::Post(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(post_mu_);
    posted_.push_back(std::move(task));
  }
  if (!wake_armed_.exchange(true, std::memory_order_acq_rel)) Wake();
}

void EventLoop::RunPosted() {
  // Drain repeatedly: tasks posted from the loop thread while draining
  // must run before we block in epoll_wait again.
  while (true) {
    std::deque<std::function<void()>> batch;
    {
      std::lock_guard<std::mutex> lock(post_mu_);
      if (posted_.empty()) return;
      batch.swap(posted_);
    }
    for (auto& task : batch) task();
  }
}

void EventLoop::Wake() {
  const uint64_t one = 1;
  [[maybe_unused]] const ssize_t w = ::write(wake_fd_, &one, sizeof(one));
}

void EventLoop::AddFd(int fd, uint32_t events, FdHandler handler) {
  handlers_[fd] = std::make_shared<FdHandler>(std::move(handler));
  epoll_event ev{};
  ev.events = events;
  ev.data.fd = fd;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) != 0) {
    handlers_.erase(fd);
    ThrowErrno("epoll_ctl(add)");
  }
}

void EventLoop::ModFd(int fd, uint32_t events) {
  epoll_event ev{};
  ev.events = events;
  ev.data.fd = fd;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, fd, &ev) != 0) {
    ThrowErrno("epoll_ctl(mod)");
  }
}

void EventLoop::DelFd(int fd) {
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, nullptr);
  handlers_.erase(fd);
}

// ---------------------------------------------------------------------------
// FrameConn

FrameConn::FrameConn(EventLoop* loop, int fd, FrameConnOptions options,
                     FrameConnMetrics metrics)
    : loop_(loop),
      fd_(fd),
      options_(options),
      metrics_(metrics),
      connecting_(options.connecting) {}

FrameConn::~FrameConn() {
  // Destruction without Close() only happens when Start() was never
  // called (the loop's handler map otherwise keeps the object alive).
  if (!closed_ && fd_ >= 0) ::close(fd_);
}

void FrameConn::Start() {
  interest_ = EPOLLET | EPOLLRDHUP;
  if (connecting_) {
    interest_ |= EPOLLOUT;
  } else {
    interest_ |= EPOLLIN;
  }
  auto self = shared_from_this();
  loop_->AddFd(fd_, interest_,
               [self](uint32_t events) { self->HandleEvents(events); });
  registered_ = true;
}

void FrameConn::HandleEvents(uint32_t events) {
  if (closed_) return;
  if (connecting_ && (events & (EPOLLOUT | EPOLLERR | EPOLLHUP)) != 0) {
    int err = 0;
    socklen_t len = sizeof(err);
    if (::getsockopt(fd_, SOL_SOCKET, SO_ERROR, &err, &len) != 0 || err != 0) {
      Close();
      return;
    }
    connecting_ = false;
    want_write_ = buffered_write_bytes() > 0;
    UpdateInterest();
  }
  if ((events & EPOLLERR) != 0) {
    Close();
    return;
  }
  if ((events & (EPOLLIN | EPOLLRDHUP | EPOLLHUP)) != 0 && !refuse_input_ &&
      !paused_) {
    ReadInput();
    if (closed_) return;
  }
  if ((events & EPOLLOUT) != 0 && want_write_) FlushWrites();
}

void FrameConn::ReadInput() {
  // A backpressure pause can interrupt ConsumeFrames with complete frames
  // still buffered; the resume kick lands here, so consume those before
  // touching the socket — read() may well say EAGAIN and the frames would
  // otherwise sit until the peer sends more bytes.
  ConsumeFrames();
  char chunk[64 * 1024];
  while (!closed_ && !refuse_input_ && !paused_) {
    const ssize_t n = ::read(fd_, chunk, sizeof(chunk));
    if (n > 0) {
      inbuf_.append(chunk, static_cast<size_t>(n));
      ConsumeFrames();
      continue;
    }
    if (n == 0) {
      // Peer finished sending. Responses already owed are still
      // delivered, then the connection closes.
      CloseAfterFlush();
      return;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) return;
    Close();
    return;
  }
}

void FrameConn::ConsumeFrames() {
  // Cork while dispatching: inline completions (the service's cache-hit
  // fast path) land in CompleteSlot synchronously, and flushing once per
  // read batch turns N small write() calls into one — on pipelined
  // cache-hit traffic this is the difference between one syscall per
  // response and one per readiness wake.
  corked_ = true;
  DispatchFrames();
  corked_ = false;
  if (closed_ || buffered_write_bytes() == 0) return;
  if (!want_write_) {
    FlushWrites();
  } else {
    // Already waiting for EPOLLOUT, so nothing was written: the batch's
    // inline completions only grew the queue, and the bound must be
    // checked here or reading goes on without limit.
    CheckBackpressure();
  }
}

void FrameConn::DispatchFrames() {
  while (!closed_ && !refuse_input_ && !paused_) {
    const size_t avail = inbuf_.size() - in_off_;
    if (avail < 4) break;
    const uint32_t len = util::le::GetU32(inbuf_.data() + in_off_);
    if (len > options_.max_frame_bytes) {
      if (options_.response_stream) {
        // A backend speaking garbage; nothing to salvage.
        Close();
        return;
      }
      // Mirror the blocking front end: answer kError, then close — the
      // oversized payload is unrecoverable, the stream cannot resync.
      const uint64_t seq = OpenSlot();
      refuse_input_ = true;
      close_after_flush_ = true;
      CompleteSlot(seq, Status::kError, "frame too large");
      return;
    }
    if (avail - 4 < len) break;
    std::string payload = inbuf_.substr(in_off_ + 4, len);
    in_off_ += 4 + static_cast<size_t>(len);
    if (options_.response_stream) {
      if (payload.empty()) {  // a response frame carries >= 1 status byte
        Close();
        return;
      }
      const auto status = static_cast<Status>(payload.front());
      payload.erase(0, 1);
      if (on_response) on_response(status, std::move(payload));
    } else {
      if (on_request) on_request(std::move(payload));
    }
  }
  if (in_off_ == inbuf_.size()) {
    inbuf_.clear();
    in_off_ = 0;
  } else if (in_off_ >= 4096 && in_off_ * 2 >= inbuf_.size()) {
    inbuf_.erase(0, in_off_);
    in_off_ = 0;
  }
}

uint64_t FrameConn::OpenSlot() {
  slots_.emplace_back();
  return next_seq_++;
}

void FrameConn::CompleteSlot(uint64_t seq, Status status, std::string body) {
  if (closed_ || seq < base_seq_) return;
  const size_t idx = static_cast<size_t>(seq - base_seq_);
  if (idx >= slots_.size()) return;
  Slot& slot = slots_[idx];
  slot.done = true;
  slot.status = status;
  slot.body = std::move(body);
  // Serialize the done prefix — responses leave strictly in slot order
  // no matter the order completions land in.
  size_t appended = 0;
  while (!slots_.empty() && slots_.front().done) {
    Slot& front = slots_.front();
    char head[5];
    util::le::PutU32(head, static_cast<uint32_t>(front.body.size() + 1));
    head[4] = static_cast<char>(front.status);
    outbuf_.append(head, 5);
    outbuf_.append(front.body);
    appended += 5 + front.body.size();
    slots_.pop_front();
    ++base_seq_;
  }
  if (appended > 0) {
    NoteWriteBytes(static_cast<int64_t>(appended));
    if (!corked_) FlushWrites();
  }
}

void FrameConn::SendRequestFrame(std::string_view payload) {
  if (closed_) return;
  char head[4];
  util::le::PutU32(head, static_cast<uint32_t>(payload.size()));
  outbuf_.append(head, 4);
  outbuf_.append(payload);
  NoteWriteBytes(static_cast<int64_t>(4 + payload.size()));
  if (connecting_) {
    want_write_ = true;
    return;  // flushed when EPOLLOUT reports the connect outcome
  }
  FlushWrites();
}

void FrameConn::FlushWrites() {
  if (closed_ || connecting_) return;
  while (out_off_ < outbuf_.size()) {
    const ssize_t n =
        ::write(fd_, outbuf_.data() + out_off_, outbuf_.size() - out_off_);
    if (n > 0) {
      out_off_ += static_cast<size_t>(n);
      NoteWriteBytes(-static_cast<int64_t>(n));
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      if (!want_write_) {
        want_write_ = true;
        UpdateInterest();
      }
      CheckBackpressure();
      return;
    }
    Close();
    return;
  }
  outbuf_.clear();
  out_off_ = 0;
  if (want_write_) {
    want_write_ = false;
    UpdateInterest();
  }
  CheckBackpressure();
  MaybeFinishClose();
}

void FrameConn::UpdateInterest() {
  if (!registered_ || closed_) return;
  uint32_t desired = EPOLLET | EPOLLRDHUP;
  if (!refuse_input_ && !paused_ && !connecting_) desired |= EPOLLIN;
  if (want_write_ || connecting_) desired |= EPOLLOUT;
  if (desired == interest_) return;
  interest_ = desired;
  loop_->ModFd(fd_, desired);
}

void FrameConn::NoteWriteBytes(int64_t delta) {
  if (metrics_.writeq_total == nullptr) return;
  const int64_t total = metrics_.writeq_total->fetch_add(delta) + delta;
  if (metrics_.writeq_bytes != nullptr) {
    metrics_.writeq_bytes->Set(static_cast<double>(total));
  }
}

void FrameConn::CheckBackpressure() {
  if (options_.write_queue_max_bytes == 0 || closed_) return;
  const size_t buffered = buffered_write_bytes();
  if (!paused_ && !refuse_input_ && buffered > options_.write_queue_max_bytes) {
    // Stop reading this connection until the peer drains what it already
    // owes us room for; resume at half the bound (hysteresis).
    paused_ = true;
    if (metrics_.backpressure_stalls != nullptr) {
      metrics_.backpressure_stalls->Inc();
    }
    UpdateInterest();
  } else if (paused_ && buffered <= options_.write_queue_max_bytes / 2) {
    paused_ = false;
    UpdateInterest();
    // Edge-triggered epoll will not re-report bytes that arrived while we
    // were paused — kick a fresh read pass from the loop queue (not
    // inline: we may be deep inside ReadInput already).
    auto self = shared_from_this();
    loop_->Post([self] {
      if (!self->closed_ && !self->paused_ && !self->refuse_input_) {
        self->ReadInput();
      }
    });
  }
}

void FrameConn::CloseAfterFlush() {
  if (closed_) return;
  refuse_input_ = true;
  close_after_flush_ = true;
  paused_ = false;
  UpdateInterest();
  if (!connecting_) FlushWrites();
  MaybeFinishClose();
}

void FrameConn::MaybeFinishClose() {
  if (closed_ || !close_after_flush_) return;
  if (slots_.empty() && out_off_ == outbuf_.size()) Close();
}

void FrameConn::Close() {
  if (closed_) return;
  auto self = shared_from_this();  // outlive on_closed detaching us
  closed_ = true;
  const auto buffered = static_cast<int64_t>(buffered_write_bytes());
  if (buffered > 0) NoteWriteBytes(-buffered);
  outbuf_.clear();
  out_off_ = 0;
  slots_.clear();
  if (registered_) {
    loop_->DelFd(fd_);
    registered_ = false;
  }
  ::close(fd_);
  fd_ = -1;
  if (on_closed) on_closed(*this);
}

// ---------------------------------------------------------------------------
// Socket helpers

int CreateListener(uint16_t port, int backlog, uint16_t* bound_port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) ThrowErrno("socket");
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    ThrowErrno("bind");
  }
  if (::listen(fd, backlog) != 0) {
    ::close(fd);
    ThrowErrno("listen");
  }
  if (bound_port != nullptr) {
    sockaddr_in bound{};
    socklen_t len = sizeof(bound);
    if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len) != 0) {
      ::close(fd);
      ThrowErrno("getsockname");
    }
    *bound_port = ntohs(bound.sin_port);
  }
  return fd;
}

void SetNonBlocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags >= 0) ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

void SetTcpNoDelay(int fd) {
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

}  // namespace whoiscrf::serve
