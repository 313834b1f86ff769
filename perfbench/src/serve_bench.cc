// The serve layer and the router, measured inside a census workload's
// traced run: an open loop into `whoiscrf shard-router` over two
// `whoiscrf serve` backends (1 worker, 1 event loop each), over TCP, with
// every reply checked against ToJson(Parse(record)) computed offline from
// the same model file.
//
//   hot:  requests drawn Zipf(1.0) from a fixed pool; each backend's result
//         cache is smaller than the pool but the two together hold it, so
//         most requests are cache reads.
//   cold: every request is a record never seen before, so every one
//         misses, parses, and inserts into a full cache (eviction).
//
// Phases: a traced phase at a fixed nominal rate (latency timed from each
// request's due time), the router-hop comparison, and the open-loop rate
// ladder (highest fixed rate keeping p99 within 5 ms, errors within 0.1%
// and the backlog flat). Cache and queue counters come from the backends'
// --metrics-out files at exit.
#include <algorithm>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common.h"
#include "datagen/temporal.h"
#include "loadgen.h"
#include "procs.h"
#include "serve/router.h"
#include "stats.h"
#include "trace.h"
#include "whois/json_export.h"
#include "whois/whois_parser.h"

namespace perfbench {

namespace wc = whoiscrf;
namespace fs = std::filesystem;

namespace {

constexpr size_t kBackends = 2;
constexpr size_t kConnections = 4;
constexpr size_t kPool = 4096;          // hot: distinct records
constexpr double kZipfS = 1.0;
constexpr size_t kCacheEntries = 2304;  // per backend: < kPool <= 2x
constexpr double kWarmupSeconds = 0.5;
// Nominal windows hold 1000 requests, so each window's p99 has ten
// samples beyond it.
constexpr double kNominalWindowRequests = 1000;
constexpr double kStepWindow = 0.25;
constexpr double kLatencyLimitMs = 5.0;
constexpr double kErrorLimit = 0.001;
constexpr double kStepSeconds = 1.0;
// Children drain and exit on their own after this long, so none outlives
// the benchmark even if it dies without stopping them (a run takes well
// under a minute).
constexpr const char* kChildLifetimeMs = "150000";
constexpr double kHopRate = 500.0;
constexpr double kHopSeconds = 1.0;

// Fixed rates, never derived from a run (README.md "Serve phases").
struct Rates {
  double nominal;
  std::vector<double> ladder;
};
const Rates& RatesFor(bool hot) {
  static const Rates kHot{8000.0,
                          {10000, 15000, 20000, 30000, 40000, 50000, 60000,
                           80000, 100000, 120000, 150000}};
  static const Rates kCold{4000.0,
                           {2000, 2500, 3000, 3500, 4000, 5000, 6000, 7000,
                            8000, 9000, 10000, 12000, 14000}};
  return hot ? kHot : kCold;
}

// Prometheus text -> sum of every sample per metric name (labels folded),
// plus per-label-set values under the full "name{labels}" key.
std::map<std::string, double> ReadProm(const std::string& path) {
  std::map<std::string, double> out;
  std::ifstream is(path);
  std::string line;
  while (std::getline(is, line)) {
    if (line.empty() || line[0] == '#') continue;
    const size_t space = line.rfind(' ');
    if (space == std::string::npos) continue;
    const std::string key = line.substr(0, space);
    double value = 0;
    try {
      value = std::stod(line.substr(space + 1));
    } catch (const std::exception&) {
      continue;
    }
    out[key] += value;
    const size_t brace = key.find('{');
    if (brace != std::string::npos) out[key.substr(0, brace)] += value;
  }
  return out;
}

struct Deployment {
  std::vector<std::unique_ptr<Child>> backends;
  std::unique_ptr<Child> router;
  std::vector<uint16_t> backend_ports;
  uint16_t port = 0;
  double ready_s = 0;  // spawn -> backends listening
};

// Spawns the backends and the router and waits until a health probe
// through the router succeeds.
std::unique_ptr<Deployment> Deploy(const Options& opt, const std::string& dir,
                                   const std::string& model) {
  auto d = std::make_unique<Deployment>();
  const int64_t t0 = NowNs();
  for (size_t b = 0; b < kBackends; ++b) {
    const std::string tag = dir + "/backend" + std::to_string(b);
    d->backends.push_back(std::make_unique<Child>(
        std::vector<std::string>{
            opt.cli, "serve", "--model", model, "--port", "0", "--threads", "1",
            "--event-loops", "1", "--cache-entries", std::to_string(kCacheEntries),
            "--drain-after-ms", kChildLifetimeMs, "--metrics-out", tag + ".prom"},
        tag + ".log"));
  }
  std::string backends;
  for (auto& b : d->backends) {
    d->backend_ports.push_back(b->WaitForPort(30.0));
    backends += (backends.empty() ? "" : ",") + std::to_string(d->backend_ports.back());
  }
  d->ready_s = Seconds(NowNs() - t0);
  d->router = std::make_unique<Child>(
      std::vector<std::string>{opt.cli, "shard-router", "--backends", backends, "--port",
                               "0", "--drain-after-ms", kChildLifetimeMs,
                               "--metrics-out", dir + "/router.prom"},
      dir + "/router.log");
  d->port = d->router->WaitForPort(30.0);
  const int64_t deadline = NowNs() + 30'000'000'000;
  while (!ProbeOnce(d->port, 1.0)) {
    if (NowNs() > deadline) throw std::runtime_error("router never became healthy");
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  return d;
}

void StopAll(Deployment& d) {
  if (d.router) d.router->Stop(15.0);
  for (auto& b : d.backends) b->Stop(15.0);
}

LoadPlan MakePlan(const std::vector<std::string>& records,
                  const std::vector<uint64_t>& expected,
                  const std::vector<Step>& steps,
                  const std::function<uint32_t()>& next_record) {
  LoadPlan plan;
  plan.records = &records;
  plan.expected = &expected;
  plan.due_ns = BuildSchedule(steps, &plan.step_of);
  plan.steps = steps.size();
  plan.order.reserve(plan.due_ns.size());
  for (size_t i = 0; i < plan.due_ns.size(); ++i) plan.order.push_back(next_record());
  return plan;
}

}  // namespace

void RunServePhases(const Options& opt, bool hot, const std::string& model_path,
                    const wc::whois::WhoisParser& parser, Report& report) {
  const Rates& rates = RatesFor(hot);
  const std::string name = hot ? "serve-hot" : "serve-cold";
  const std::string dir = opt.work_dir + "/" + name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  const double nominal_s = std::max(1.0, opt.seconds / 4);

  // ---- Inputs, generated before anything is timed. Cold traffic needs
  // one fresh record per request, and keeps a reserve at the end of the
  // list for the router-hop comparison.
  double ladder_requests = 0;
  for (double r : rates.ladder) ladder_requests += r * kStepSeconds;
  const double nominal_requests = rates.nominal * (kWarmupSeconds + nominal_s);
  const size_t hop_reserve = static_cast<size_t>(4 * kHopRate * kHopSeconds) + 256;
  const size_t distinct =
      hot ? kPool
          : static_cast<size_t>(nominal_requests + ladder_requests) + hop_reserve;
  const Corpus corpus(opt.seed, distinct);
  std::vector<std::string> records(distinct);
  ParallelFor(distinct, [&](size_t, size_t i) { records[i] = corpus.Record(i).text; });

  // Offline reference: the digest of each record's expected body.
  std::vector<uint64_t> expected(distinct);
  {
    std::vector<wc::whois::ParseWorkspace> ws(4);
    ParallelFor(distinct, [&](size_t t, size_t i) {
      expected[i] = Digest::Of(wc::whois::ToJson(parser.Parse(records[i], ws[t])));
    });
  }

  ZipfSampler zipf(kPool, kZipfS, opt.seed ^ 0x5eed);
  uint32_t next_fresh = 0;
  const std::function<uint32_t()> next_record = [&]() -> uint32_t {
    if (hot) return static_cast<uint32_t>(zipf.Next());
    if (next_fresh + hop_reserve >= distinct) {
      throw std::runtime_error(name + " ran out of records");
    }
    return next_fresh++;
  };

  const std::unique_ptr<Deployment> dep = Deploy(opt, dir, model_path);

  // Steps before `first_step` (warm-up) are checked for wrong bodies but
  // not counted.
  const auto account = [&](const LoadResult& res, bool count_busy, size_t first_step) {
    for (size_t s = 0; s < res.steps.size(); ++s) {
      const StepStats& st = res.steps[s];
      if (st.mismatched > 0) report.Fail("served body differs from the offline reference");
      if (s < first_step) continue;
      report.attempted += st.attempted();
      report.failed += st.mismatched + st.error + (count_busy ? st.busy : 0);
    }
  };

  // ---- Nominal rate, traced: a warm-up step, then the measured step.
  Tracer& tracer = Tracer::Get();
  tracer.Reset();
  tracer.Enable(true);
  const LoadPlan plan = MakePlan(
      records, expected, {{rates.nominal, kWarmupSeconds}, {rates.nominal, nominal_s}},
      next_record);
  const LoadResult res = RunOpenLoop(dep->port, plan, kConnections, 10.0,
                                     kNominalWindowRequests / rates.nominal);
  tracer.Enable(false);
  account(res, true, /*first_step=*/1);
  const StepStats& nominal = res.steps[1];
  if (nominal.failed() > 0) report.Fail("requests failed at the nominal rate");
  const std::vector<SpanRecord> spans = tracer.Collect();
  WriteChromeTrace(opt.work_dir + "/trace_" + name + ".json", spans);
  std::fprintf(stderr,
               "%s: nominal %.0f req/s for %.1f s: %llu ok; median window p50 %.3f ms, "
               "p99 %.3f ms; late p99 %.3f ms\n",
               name.c_str(), rates.nominal, nominal_s,
               static_cast<unsigned long long>(nominal.ok),
               nominal.WindowedPercentileMs(0.5), nominal.P99Ms(),
               Summarize(nominal.late_ms).p99);

  // Router hop: the same requests at a low rate, directly to backend 0
  // and through the router. Only requests the ring sends to backend 0, so
  // both paths see the same cache state.
  const wc::serve::HashRing ring(kBackends, 64);
  std::vector<uint32_t> shard0;
  for (size_t k = 0; k < distinct && shard0.size() < 2 * kHopRate * kHopSeconds; ++k) {
    const auto i = static_cast<uint32_t>(hot ? k : distinct - 1 - k);
    if (ring.Owner(wc::serve::Fnv1a64(records[i])) == 0) shard0.push_back(i);
  }
  size_t hop_next = 0;
  const auto hop_record = [&]() -> uint32_t {
    return shard0[hot ? (hop_next++ % 64) : (hop_next++ % shard0.size())];
  };
  double direct_p50 = 0, routed_p50 = 0;
  for (int pass = 0; pass < 2; ++pass) {
    const uint16_t port = pass == 0 ? dep->backend_ports[0] : dep->port;
    const LoadPlan hp = MakePlan(records, expected, {{kHopRate, kHopSeconds}}, hop_record);
    const LoadResult hr = RunOpenLoop(port, hp, 1, 10.0, kNominalWindowRequests / kHopRate);
    account(hr, true, 0);
    (pass == 0 ? direct_p50 : routed_p50) = Summarize(hr.steps[0].latency_ms).p50;
  }

  // Rate ladder: the highest fixed rate whose median-window p99 stays
  // within 5 ms, with errors within 0.1% and no backlog growth. A single
  // missed step (a stall of the machine) does not end the scan; two in a
  // row do. Busy replies above capacity are the ladder's expected
  // outcome, not failures; wrong bodies and dropped connections are.
  double max_rate = 0;
  int misses = 0;
  for (double rate : rates.ladder) {
    const LoadPlan lp = MakePlan(records, expected, {{rate, kStepSeconds}}, next_record);
    const LoadResult lr = RunOpenLoop(dep->port, lp, kConnections, 10.0, kStepWindow);
    account(lr, false, 0);
    const StepStats& st = lr.steps[0];
    const double error_rate =
        st.attempted() > 0
            ? static_cast<double>(st.failed()) / static_cast<double>(st.attempted())
            : 1.0;
    const double p99 = st.P99Ms();
    const bool grew = st.BacklogGrew(rate);
    const bool pass = p99 <= kLatencyLimitMs && error_rate <= kErrorLimit && !grew;
    std::fprintf(stderr, "  ladder %6.0f req/s: p99 %8.3f ms, errors %.4f%s%s\n", rate,
                 p99, error_rate, grew ? ", backlog grew" : "",
                 pass ? "" : "  (limit missed)");
    if (pass) {
      max_rate = rate;
      misses = 0;
    } else if (++misses == 2) {
      break;
    }
  }

  StopAll(*dep);
  std::map<std::string, double> backend;
  for (size_t b = 0; b < kBackends; ++b) {
    for (const auto& [k, v] : ReadProm(dir + "/backend" + std::to_string(b) + ".prom")) {
      backend[k] += v;
    }
  }
  const std::map<std::string, double> router = ReadProm(dir + "/router.prom");
  const auto prom = [](const std::map<std::string, double>& m, const std::string& key) {
    const auto it = m.find(key);
    return it == m.end() ? 0.0 : it->second;
  };
  const double hits = prom(backend, "whoiscrf_serve_cache_hits_total");
  const double misses_total = prom(backend, "whoiscrf_serve_cache_misses_total");
  const double requests = prom(backend, "whoiscrf_serve_requests_total");
  report.Set("serve.requests", requests, "count");
  report.Set("serve.cache_hit_ratio",
             hits + misses_total > 0 ? hits / (hits + misses_total) : 0.0, "ratio");
  report.Set("serve.cache_evictions", prom(backend, "whoiscrf_serve_cache_evictions_total"),
             "count");
  report.Set("serve.busy_ratio",
             requests > 0
                 ? prom(backend, "whoiscrf_serve_requests_total{status=\"busy\"}") / requests
                 : 0.0,
             "ratio");
  report.Set("serve.epoll_wakeups_per_request",
             requests > 0 ? prom(backend, "whoiscrf_serve_epoll_wakeups_total") / requests
                          : 0.0,
             "ratio");
  report.Set("serve.ready_s", dep->ready_s, "s");
  report.Set("serve.max_rate_rps", max_rate, "1/s");
  report.Set("router.hop_us_p50", (routed_p50 - direct_p50) * 1e3, "us");
  double max_fwd = 0, sum_fwd = 0;
  for (size_t b = 0; b < kBackends; ++b) {
    const double f = prom(router, "whoiscrf_router_forwarded_total{shard=\"" +
                                      std::to_string(b) + "\"}");
    max_fwd = std::max(max_fwd, f);
    sum_fwd += f;
  }
  report.Set("router.shard_skew",
             sum_fwd > 0 ? max_fwd / (sum_fwd / static_cast<double>(kBackends)) : 0.0,
             "ratio");
  report.Set("loadgen.late_p99_ms", Summarize(nominal.late_ms).p99, "ms");

  // Self time of the traced nominal phase, beside the backends' mean
  // service time (admission to answer) and the router hop.
  {
    const double service_count = prom(backend, "whoiscrf_serve_request_latency_us_count");
    std::ofstream os(opt.work_dir + "/selftime_" + name + ".txt");
    os << "# self time per span name, traced nominal phase\n";
    for (const auto& [span, ns] : SelfTimeByName(spans)) {
      os << span << " " << Seconds(ns) << " s\n";
    }
    os << "(backend service, mean per request) "
       << (service_count > 0
               ? prom(backend, "whoiscrf_serve_request_latency_us_sum") / service_count / 1e3
               : 0.0)
       << " ms\n";
    os << "(router hop, p50) " << std::max(0.0, routed_p50 - direct_p50) << " ms\n";
  }

  MeasureServeLayers(parser, records, plan.order, kCacheEntries, report);
}

}  // namespace perfbench
