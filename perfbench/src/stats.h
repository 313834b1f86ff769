// Small numeric helpers shared by every workload: percentiles, the Zipf
// request sampler, the open-loop send schedule, and the order-sensitive
// digest used for output checks. All deterministic, all unit-tested in
// perfbench/tests/perfbench_test.cc.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "util/random.h"

namespace perfbench {

// Linear-interpolation percentile (q in [0, 1]) of `values`, the same
// definition as numpy's default. Reorders `values`. 0 for an empty input.
double Percentile(std::vector<double>& values, double q);

// Median and p99 of a sample, with its size.
struct Summary {
  double p50 = 0.0;
  double p99 = 0.0;
  size_t n = 0;
};
Summary Summarize(std::vector<double> values);

double Median(std::vector<double> values);

// Draws ranks in [0, n) with P(k) proportional to 1 / (k + 1)^s, by binary
// search over a precomputed CDF. Deterministic for a given seed.
class ZipfSampler {
 public:
  ZipfSampler(size_t n, double s, uint64_t seed);
  size_t Next();

 private:
  std::vector<double> cdf_;
  whoiscrf::util::Rng rng_;
};

// Open-loop schedule: request i is due `i / rate` seconds after the start
// of its step, steps back to back. Returns each request's due offset in
// nanoseconds from the schedule start; `step_of[i]` receives its step.
struct Step {
  double rate = 0.0;     // requests per second
  double seconds = 0.0;  // step length
};
std::vector<int64_t> BuildSchedule(const std::vector<Step>& steps,
                                   std::vector<uint32_t>* step_of);

// Order-sensitive 64-bit digest (FNV-1a over length-prefixed items), so
// that {"ab","c"} and {"a","bc"} differ.
class Digest {
 public:
  void Add(std::string_view item);
  uint64_t value() const { return h_; }
  static uint64_t Of(std::string_view item) {
    Digest d;
    d.Add(item);
    return d.value();
  }

 private:
  void Mix(const void* data, size_t n);
  uint64_t h_ = 1469598103934665603ULL;
};

// Samples the machine's CPU steal time (the hypervisor running someone
// else on our virtual CPUs, /proc/stat) every 20 ms while it lives, so a
// measurement window can be checked for interference afterwards. Windows
// the host stole from are not measurements of the program; Clean() drops
// them, and keeps everything if too little would be left.
class StealMonitor {
 public:
  StealMonitor();
  ~StealMonitor();
  StealMonitor(const StealMonitor&) = delete;
  StealMonitor& operator=(const StealMonitor&) = delete;

  // Share of the machine's CPU time stolen in [t0_ns, t1_ns] (steady
  // clock), 0 when /proc/stat has no steal column.
  double StealShare(int64_t t0_ns, int64_t t1_ns) const;

  // Indices of the windows whose steal share is at most kMaxSteal, or all
  // of them when fewer than a third would remain. `dropped` receives how
  // many were left out.
  static constexpr double kMaxSteal = 0.02;
  std::vector<size_t> Clean(const std::vector<std::pair<int64_t, int64_t>>& windows,
                            size_t* dropped) const;

 private:
  void Run();
  double TicksAt(int64_t t_ns) const;  // interpolated cumulative steal

  double ticks_per_ns_;  // USER_HZ * online CPUs / 1e9: the capacity
  std::atomic<bool> stop_{false};
  mutable std::mutex mu_;  // guards samples_
  std::vector<std::pair<int64_t, double>> samples_;  // (time, steal ticks)
  std::thread thread_;
};

}  // namespace perfbench
