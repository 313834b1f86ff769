// Open-loop load generator for the serve workloads. Requests leave on a
// fixed schedule whether or not earlier ones were answered, so a stalled
// server builds a queue instead of slowing the client down; every latency
// is timed from the request's *due* time, which charges a stall to every
// request it delays. One process, one thread per connection (at most
// four), requests dealt round-robin over the connections.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct LoadPlan {
  const std::vector<std::string>* records = nullptr;  // request payloads
  // Digest::Of(expected JSON body) for each record; a kOk body with any
  // other digest counts as mismatched.
  const std::vector<uint64_t>* expected = nullptr;
  std::vector<uint32_t> order;     // request i sends records[order[i]]
  std::vector<int64_t> due_ns;     // request i is due this long after start
  std::vector<uint32_t> step_of;   // ladder step of request i
  size_t steps = 1;
};

// Outcome code of one request.
enum class Outcome : uint8_t {
  kNone = 0,   // never answered (counted as a connection error)
  kOk,         // kOk status and the expected body
  kBusy,       // kBusy status
  kError,      // kError / kDeadline status, or a connection error
  kMismatch,   // kOk status with a body that differs from the reference
};

struct StepStats {
  uint64_t sent = 0, ok = 0, busy = 0, error = 0, mismatched = 0;
  std::vector<double> latency_ms;  // answered-ok requests, from due time
  std::vector<double> late_ms;     // how late each request was sent
  // Per window of the step (RunOpenLoop's window_s, by due time): every
  // request's latency, failures counted as infinitely slow (a failed
  // request misses any latency limit), and how much the backlog of
  // due-but-unanswered requests grew across the window.
  std::vector<std::vector<double>> window_latency_ms;
  std::vector<double> window_backlog_growth;
  uint64_t failed() const { return busy + error + mismatched; }
  uint64_t attempted() const { return ok + failed(); }
  // Median over windows of each window's q-quantile: one stall of the
  // machine spoils one window, not the step.
  double WindowedPercentileMs(double q) const;
  double P99Ms() const { return WindowedPercentileMs(0.99); }
  // The backlog grew when the median window ended with more requests
  // outstanding than it started with, beyond an allowance of 5 ms of
  // requests at the step's rate.
  bool BacklogGrew(double rate) const;
};

struct LoadResult {
  std::vector<StepStats> steps;
  std::vector<int64_t> sent_ns;   // per request, absolute steady clock
  std::vector<int64_t> recv_ns;   // per request, 0 if unanswered
  std::vector<Outcome> outcome;   // per request
  int64_t start_ns = 0;           // schedule origin, absolute
};

// Runs `plan` against 127.0.0.1:port over `connections` connections,
// summarizing each step in windows of `window_s` seconds.
// After the last due time, waits up to `drain_s` for outstanding replies;
// anything still unanswered counts as an error. With tracing enabled,
// records loadgen.request / loadgen.late / serve.roundtrip spans per
// request.
LoadResult RunOpenLoop(uint16_t port, const LoadPlan& plan,
                       size_t connections, double drain_s, double window_s);

}  // namespace perfbench
