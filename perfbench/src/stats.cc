#include "stats.h"

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>

#include "trace.h"

namespace perfbench {

double Percentile(std::vector<double>& values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  q = std::clamp(q, 0.0, 1.0);
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  // Written so that infinite samples (failed requests) stay infinite
  // instead of turning into inf - inf = NaN.
  if (frac == 0.0 || values[hi] == values[lo]) return values[lo];
  return values[lo] * (1.0 - frac) + values[hi] * frac;
}

Summary Summarize(std::vector<double> values) {
  Summary s;
  s.n = values.size();
  s.p50 = Percentile(values, 0.5);
  s.p99 = Percentile(values, 0.99);
  return s;
}

double Median(std::vector<double> values) { return Percentile(values, 0.5); }

ZipfSampler::ZipfSampler(size_t n, double s, uint64_t seed) : rng_(seed) {
  if (n == 0) throw std::invalid_argument("ZipfSampler: n must be > 0");
  cdf_.resize(n);
  double total = 0.0;
  for (size_t k = 0; k < n; ++k) {
    total += 1.0 / std::pow(static_cast<double>(k + 1), s);
    cdf_[k] = total;
  }
  for (double& c : cdf_) c /= total;
  cdf_.back() = 1.0;
}

size_t ZipfSampler::Next() {
  const double u = rng_.UniformDouble();
  const auto it = std::upper_bound(cdf_.begin(), cdf_.end(), u);
  return std::min<size_t>(static_cast<size_t>(it - cdf_.begin()),
                          cdf_.size() - 1);
}

std::vector<int64_t> BuildSchedule(const std::vector<Step>& steps,
                                   std::vector<uint32_t>* step_of) {
  std::vector<int64_t> due;
  if (step_of != nullptr) step_of->clear();
  double step_start_s = 0.0;
  for (size_t s = 0; s < steps.size(); ++s) {
    const Step& step = steps[s];
    if (step.rate <= 0.0 || step.seconds <= 0.0) {
      throw std::invalid_argument("BuildSchedule: rate and length must be > 0");
    }
    const auto count = static_cast<size_t>(std::llround(step.rate * step.seconds));
    for (size_t i = 0; i < count; ++i) {
      const double t = step_start_s + static_cast<double>(i) / step.rate;
      due.push_back(static_cast<int64_t>(std::llround(t * 1e9)));
      if (step_of != nullptr) step_of->push_back(static_cast<uint32_t>(s));
    }
    step_start_s += step.seconds;
  }
  return due;
}

void Digest::Mix(const void* data, size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < n; ++i) {
    h_ ^= p[i];
    h_ *= 1099511628211ULL;
  }
}

void Digest::Add(std::string_view item) {
  const uint64_t len = item.size();
  Mix(&len, sizeof(len));
  Mix(item.data(), item.size());
}

namespace {

// Cumulative steal ticks of all CPUs (8th value of the "cpu" line), or -1.
double ReadStealTicks() {
  std::ifstream is("/proc/stat");
  std::string line;
  if (!std::getline(is, line) || line.rfind("cpu ", 0) != 0) return -1;
  std::istringstream fields(line.substr(4));
  double v = 0;
  for (int i = 0; i < 8; ++i) {
    if (!(fields >> v)) return -1;
  }
  return v;
}

}  // namespace

StealMonitor::StealMonitor()
    : ticks_per_ns_(static_cast<double>(::sysconf(_SC_CLK_TCK)) *
                    static_cast<double>(std::max(1L, ::sysconf(_SC_NPROCESSORS_ONLN))) /
                    1e9) {
  const double ticks = ReadStealTicks();
  if (ticks >= 0) {
    samples_.emplace_back(NowNs(), ticks);
    thread_ = std::thread([this] { Run(); });
  }
}

StealMonitor::~StealMonitor() {
  stop_.store(true);
  if (thread_.joinable()) thread_.join();
}

void StealMonitor::Run() {
  while (!stop_.load()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    const double ticks = ReadStealTicks();
    std::lock_guard<std::mutex> lock(mu_);
    samples_.emplace_back(NowNs(), ticks);
  }
}

double StealMonitor::TicksAt(int64_t t_ns) const {
  // Callers hold mu_.
  const auto it = std::lower_bound(
      samples_.begin(), samples_.end(), t_ns,
      [](const std::pair<int64_t, double>& s, int64_t t) { return s.first < t; });
  if (it == samples_.begin()) return it->second;
  if (it == samples_.end()) return samples_.back().second;
  const auto prev = it - 1;
  const double frac = static_cast<double>(t_ns - prev->first) /
                      static_cast<double>(it->first - prev->first);
  return prev->second + (it->second - prev->second) * frac;
}

double StealMonitor::StealShare(int64_t t0_ns, int64_t t1_ns) const {
  std::lock_guard<std::mutex> lock(mu_);
  if (samples_.empty() || t1_ns <= t0_ns) return 0.0;
  const double stolen = TicksAt(t1_ns) - TicksAt(t0_ns);
  return stolen / (static_cast<double>(t1_ns - t0_ns) * ticks_per_ns_);
}

std::vector<size_t> StealMonitor::Clean(
    const std::vector<std::pair<int64_t, int64_t>>& windows, size_t* dropped) const {
  std::vector<size_t> kept, all;
  for (size_t w = 0; w < windows.size(); ++w) {
    all.push_back(w);
    if (StealShare(windows[w].first, windows[w].second) <= kMaxSteal) kept.push_back(w);
  }
  if (kept.size() * 3 < windows.size()) kept = all;
  if (dropped != nullptr) *dropped = windows.size() - kept.size();
  return kept;
}

}  // namespace perfbench
