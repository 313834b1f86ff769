#include "loadgen.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <deque>
#include <limits>
#include <stdexcept>
#include <thread>

#include "stats.h"
#include "trace.h"

namespace perfbench {

namespace {

int Connect(uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL) | O_NONBLOCK);
  return fd;
}

void AppendU32(std::string& out, uint32_t v) {
  char b[4];
  std::memcpy(b, &v, 4);  // little-endian host, as the protocol requires
  out.append(b, 4);
}

// One connection's share of the schedule: requests c, c+C, c+2C, ...
void RunConnection(uint16_t port, const LoadPlan& plan, size_t c, size_t conns,
                   int64_t start_ns, int64_t drain_ns, LoadResult& out) {
  const size_t n = plan.due_ns.size();
  const int fd = Connect(port);
  if (fd < 0) return;  // every request of this connection stays kNone
  Tracer& tracer = Tracer::Get();
  std::string outbuf;
  size_t outpos = 0;
  std::string inbuf;
  size_t inpos = 0;
  std::deque<size_t> pending;
  size_t next = c;
  const int64_t last_due = n == 0 ? start_ns : start_ns + plan.due_ns[n - 1];
  const int64_t give_up = last_due + drain_ns;
  bool broken = false;
  char chunk[64 * 1024];

  while (!broken && (next < n || !pending.empty() || outpos < outbuf.size())) {
    int64_t now = NowNs();
    if (now > give_up) break;
    while (next < n && start_ns + plan.due_ns[next] <= now) {
      const std::string& rec = (*plan.records)[plan.order[next]];
      AppendU32(outbuf, static_cast<uint32_t>(rec.size()));
      outbuf += rec;
      out.sent_ns[next] = now;
      pending.push_back(next);
      next += conns;
    }
    while (outpos < outbuf.size()) {
      const ssize_t w = ::send(fd, outbuf.data() + outpos, outbuf.size() - outpos,
                               MSG_NOSIGNAL);
      if (w > 0) {
        outpos += static_cast<size_t>(w);
      } else {
        if (w < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
        if (w < 0 && errno == EINTR) continue;
        broken = true;
        break;
      }
    }
    if (outpos == outbuf.size()) {
      outbuf.clear();
      outpos = 0;
    }
    while (!broken) {
      const ssize_t r = ::recv(fd, chunk, sizeof(chunk), 0);
      if (r > 0) {
        inbuf.append(chunk, static_cast<size_t>(r));
        continue;
      }
      if (r < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
      if (r < 0 && errno == EINTR) continue;
      broken = true;  // EOF or error
    }
    const int64_t recv_now = NowNs();
    while (inbuf.size() - inpos >= 4 && !pending.empty()) {
      uint32_t len = 0;
      std::memcpy(&len, inbuf.data() + inpos, 4);
      if (inbuf.size() - inpos - 4 < len) break;
      const size_t i = pending.front();
      pending.pop_front();
      Outcome outcome = Outcome::kError;
      if (len >= 1) {
        const char status = inbuf[inpos + 4];
        const std::string_view body(inbuf.data() + inpos + 5, len - 1);
        if (status == 'O') {
          outcome = Digest::Of(body) == (*plan.expected)[plan.order[i]]
                        ? Outcome::kOk
                        : Outcome::kMismatch;
        } else if (status == 'B') {
          outcome = Outcome::kBusy;
        }
      }
      out.outcome[i] = outcome;
      out.recv_ns[i] = recv_now;
      if (tracer.enabled()) {
        const int64_t due = start_ns + plan.due_ns[i];
        const int64_t root =
            tracer.Open("loadgen.request", due, -1, static_cast<uint64_t>(i));
        tracer.Record("loadgen.late", due, out.sent_ns[i], root, i);
        tracer.Record("serve.roundtrip", out.sent_ns[i], recv_now, root, i);
        tracer.Close(root, recv_now);
      }
      inpos += 4 + len;
    }
    if (inpos > 0 && inpos == inbuf.size()) {
      inbuf.clear();
      inpos = 0;
    } else if (inpos > (1u << 20)) {
      inbuf.erase(0, inpos);
      inpos = 0;
    }
    if (broken) break;
    if (next >= n && pending.empty() && outpos == outbuf.size()) break;

    now = NowNs();
    int64_t wait_ns = give_up - now;
    if (next < n) wait_ns = std::min(wait_ns, start_ns + plan.due_ns[next] - now);
    if (wait_ns <= 0) continue;
    pollfd pfd{fd, static_cast<short>(POLLIN | (outpos < outbuf.size() ? POLLOUT : 0)),
               0};
    const timespec ts{static_cast<time_t>(wait_ns / 1000000000),
                      static_cast<long>(wait_ns % 1000000000)};
    ::ppoll(&pfd, 1, &ts, nullptr);
  }
  ::close(fd);
}

}  // namespace

double StepStats::WindowedPercentileMs(double q) const {
  std::vector<double> per_window;
  for (std::vector<double> window : window_latency_ms) {
    per_window.push_back(Percentile(window, q));
  }
  return Median(per_window);
}

bool StepStats::BacklogGrew(double rate) const {
  const double allowance = std::max(8.0, rate * 0.005);
  return Median(window_backlog_growth) > allowance;
}

LoadResult RunOpenLoop(uint16_t port, const LoadPlan& plan,
                       size_t connections, double drain_s, double window_s) {
  const size_t n = plan.due_ns.size();
  if (plan.order.size() != n || plan.step_of.size() != n) {
    throw std::invalid_argument("RunOpenLoop: plan arrays differ in size");
  }
  connections = std::clamp<size_t>(connections, 1, 4);
  LoadResult out;
  out.sent_ns.assign(n, 0);
  out.recv_ns.assign(n, 0);
  out.outcome.assign(n, Outcome::kNone);
  // Start a little in the future so every connection is up before the
  // first request is due.
  out.start_ns = NowNs() + 20'000'000;
  const auto drain_ns = static_cast<int64_t>(drain_s * 1e9);
  {
    std::vector<std::thread> threads;
    for (size_t c = 0; c < connections; ++c) {
      threads.emplace_back(RunConnection, port, std::cref(plan), c, connections,
                           out.start_ns, drain_ns, std::ref(out));
    }
    for (std::thread& t : threads) t.join();
  }

  out.steps.assign(plan.steps, StepStats{});
  std::vector<int64_t> step_start(plan.steps, std::numeric_limits<int64_t>::max());
  std::vector<int64_t> step_end(plan.steps, 0);
  for (size_t i = 0; i < n; ++i) {
    const uint32_t s = plan.step_of[i];
    step_start[s] = std::min(step_start[s], plan.due_ns[i]);
    step_end[s] = std::max(step_end[s], plan.due_ns[i]);
  }
  const auto window_ns = static_cast<int64_t>(window_s * 1e9);
  std::vector<std::vector<std::vector<double>>> windows(plan.steps);
  for (size_t s = 0; s < plan.steps; ++s) {
    if (step_start[s] > step_end[s]) continue;
    windows[s].resize(static_cast<size_t>((step_end[s] - step_start[s]) / window_ns) + 1);
  }
  const auto answered_at = [&](size_t i) {
    return out.recv_ns[i] == 0 ? std::numeric_limits<int64_t>::max()
                               : out.recv_ns[i] - out.start_ns;
  };
  for (size_t i = 0; i < n; ++i) {
    const uint32_t s = plan.step_of[i];
    StepStats& st = out.steps[s];
    const int64_t due = out.start_ns + plan.due_ns[i];
    if (out.sent_ns[i] != 0) {
      ++st.sent;
      st.late_ms.push_back(static_cast<double>(out.sent_ns[i] - due) / 1e6);
    }
    double latency = std::numeric_limits<double>::infinity();
    switch (out.outcome[i]) {
      case Outcome::kOk:
        ++st.ok;
        latency = static_cast<double>(out.recv_ns[i] - due) / 1e6;
        st.latency_ms.push_back(latency);
        break;
      case Outcome::kBusy: ++st.busy; break;
      case Outcome::kMismatch: ++st.mismatched; break;
      case Outcome::kError:
      case Outcome::kNone: ++st.error; break;
    }
    windows[s][static_cast<size_t>((plan.due_ns[i] - step_start[s]) / window_ns)]
        .push_back(latency);
  }
  // Backlog at time t: requests due at or before t and not answered by t.
  const auto backlog = [&](int64_t t) {
    uint64_t count = 0;
    for (size_t i = 0; i < n; ++i) {
      if (plan.due_ns[i] <= t && answered_at(i) > t) ++count;
    }
    return count;
  };
  for (size_t s = 0; s < plan.steps; ++s) {
    StepStats& st = out.steps[s];
    for (size_t w = 0; w < windows[s].size(); ++w) {
      if (windows[s][w].empty()) continue;
      st.window_latency_ms.push_back(std::move(windows[s][w]));
      const int64_t t0 = step_start[s] + static_cast<int64_t>(w) * window_ns;
      const int64_t t1 = std::min(t0 + window_ns, step_end[s]);
      st.window_backlog_growth.push_back(static_cast<double>(backlog(t1)) -
                                         static_cast<double>(backlog(t0)));
    }
  }
  return out;
}

}  // namespace perfbench
