#include "obs/report.h"

#include <fstream>
#include <stdexcept>

#include "util/json.h"

namespace whoiscrf::obs {

namespace {

bool EndsWith(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

// The derived block turns raw counters into the numbers a human asks for
// first. Keys appear only when their inputs are present, so a `train` run
// report doesn't carry zero-filled parse rates.
void RenderDerived(const Registry& registry, const RunInfo& info,
                   util::JsonWriter& w) {
  w.Key("derived").BeginObject();
  const double wall = info.wall_seconds;

  const auto records = registry.CounterValue("whoiscrf_parse_records_total");
  if (records > 0 && wall > 0.0) {
    w.Key("parse_records_per_sec")
        .Double(static_cast<double>(records) / wall);
  }
  const auto hits =
      registry.CounterValue("whoiscrf_compile_cache_hits_total");
  const auto misses =
      registry.CounterValue("whoiscrf_compile_cache_misses_total");
  if (hits + misses > 0) {
    w.Key("compile_cache_hit_rate")
        .Double(static_cast<double>(hits) /
                static_cast<double>(hits + misses));
  }

  const auto queries = registry.CounterValue("whoiscrf_crawl_queries_total");
  if (queries > 0 && wall > 0.0) {
    w.Key("crawl_queries_per_sec")
        .Double(static_cast<double>(queries) / wall);
  }
  uint64_t crawled = 0;
  for (const char* status : {"ok", "no_match", "thin_only", "failed"}) {
    crawled += registry.CounterValue("whoiscrf_crawl_results_total",
                                     {{"status", status}});
  }
  if (crawled > 0) {
    w.Key("crawl_success_rate")
        .Double(static_cast<double>(registry.CounterValue(
                    "whoiscrf_crawl_results_total", {{"status", "ok"}})) /
                static_cast<double>(crawled));
  }
  w.EndObject();
}

}  // namespace

std::string RenderRunReport(const Registry& registry, const RunInfo& info) {
  util::JsonWriter w;
  w.BeginObject();
  w.Field("schema", "whoiscrf.run_report.v1");
  w.Field("command", info.command);
  w.Key("exit_code").Int(info.exit_code);
  w.Key("wall_seconds").Double(info.wall_seconds);
  RenderDerived(registry, info, w);
  w.Key("metrics");
  registry.RenderJson(w);
  w.EndObject();
  return w.str();
}

void WriteMetricsFile(const std::string& path, const Registry& registry,
                      const RunInfo& info) {
  const bool prometheus = EndsWith(path, ".prom") || EndsWith(path, ".txt");
  const bool append = EndsWith(path, ".jsonl");
  std::ofstream os(path, append ? std::ios::app : std::ios::trunc);
  if (!os) {
    throw std::runtime_error("WriteMetricsFile: cannot open " + path);
  }
  if (prometheus) {
    os << registry.RenderPrometheus();
  } else {
    os << RenderRunReport(registry, info) << "\n";
  }
  if (!os.good()) {
    throw std::runtime_error("WriteMetricsFile: write failed for " + path);
  }
}

}  // namespace whoiscrf::obs
