// Tests for the observability layer: metric semantics, sharded-counter
// aggregation under a thread pool, exporter golden outputs, trace spans,
// and the run-report / metrics-file contract from docs/observability.md.
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "obs/metrics.h"
#include "obs/report.h"
#include "obs/trace.h"
#include "util/thread_pool.h"

namespace whoiscrf::obs {
namespace {

std::string ReadFile(const std::string& path) {
  std::ifstream is(path);
  std::ostringstream ss;
  ss << is.rdbuf();
  return ss.str();
}

// ---------------------------------------------------------------- counters

TEST(CounterTest, IncAndValue) {
  Registry reg;
  Counter* c = reg.GetCounter("test_counter");
  EXPECT_EQ(c->Value(), 0u);
  c->Inc();
  c->Inc(41);
  EXPECT_EQ(c->Value(), 42u);
}

TEST(CounterTest, GetOrCreateReturnsSameInstance) {
  Registry reg;
  Counter* a = reg.GetCounter("test_counter");
  Counter* b = reg.GetCounter("test_counter");
  EXPECT_EQ(a, b);
  a->Inc();
  EXPECT_EQ(reg.CounterValue("test_counter"), 1u);
}

TEST(CounterTest, LabelsSelectDistinctInstances) {
  Registry reg;
  Counter* ok = reg.GetCounter("test_results", "", {{"status", "ok"}});
  Counter* failed = reg.GetCounter("test_results", "", {{"status", "failed"}});
  EXPECT_NE(ok, failed);
  ok->Inc(3);
  failed->Inc();
  EXPECT_EQ(reg.CounterValue("test_results", {{"status", "ok"}}), 3u);
  EXPECT_EQ(reg.CounterValue("test_results", {{"status", "failed"}}), 1u);
  // Label order is irrelevant: the registry keys by the sorted set.
  Counter* ok2 = reg.GetCounter("test_results", "",
                                {{"status", "ok"}});
  EXPECT_EQ(ok, ok2);
}

TEST(CounterTest, ShardedAggregationUnderThreadPool) {
  Registry reg;
  Counter* c = reg.GetCounter("test_parallel");
  util::ThreadPool pool(8);
  constexpr size_t kIncrements = 100000;
  pool.ParallelFor(kIncrements, [&](size_t i) { c->Inc(i % 3 + 1); });
  uint64_t expected = 0;
  for (size_t i = 0; i < kIncrements; ++i) expected += i % 3 + 1;
  // The shards must not lose or double-count a single add.
  EXPECT_EQ(c->Value(), expected);
}

TEST(RegistryTest, KindMismatchThrows) {
  Registry reg;
  reg.GetCounter("test_metric");
  EXPECT_THROW(reg.GetGauge("test_metric"), std::invalid_argument);
  EXPECT_THROW(reg.GetHistogram("test_metric", "", {1.0}),
               std::invalid_argument);
}

TEST(RegistryTest, InvalidNameThrows) {
  Registry reg;
  EXPECT_THROW(reg.GetCounter(""), std::invalid_argument);
  EXPECT_THROW(reg.GetCounter("has space"), std::invalid_argument);
  EXPECT_THROW(reg.GetCounter("has-dash"), std::invalid_argument);
  EXPECT_THROW(reg.GetCounter("9starts_with_digit"), std::invalid_argument);
}

TEST(RegistryTest, ResetZeroesButKeepsRegistrations) {
  Registry reg;
  Counter* c = reg.GetCounter("test_counter");
  Gauge* g = reg.GetGauge("test_gauge");
  Histogram* h = reg.GetHistogram("test_hist", "", {1.0, 2.0});
  c->Inc(5);
  g->Set(2.5);
  h->Observe(1.5);
  reg.Reset();
  EXPECT_EQ(c->Value(), 0u);
  EXPECT_EQ(g->Value(), 0.0);
  EXPECT_EQ(h->Count(), 0u);
  EXPECT_EQ(h->Sum(), 0.0);
  // The same pointers keep working after Reset.
  c->Inc();
  EXPECT_EQ(reg.CounterValue("test_counter"), 1u);
}

// ------------------------------------------------------------------ gauges

TEST(GaugeTest, SetAddValue) {
  Registry reg;
  Gauge* g = reg.GetGauge("test_gauge");
  EXPECT_EQ(g->Value(), 0.0);
  g->Set(1.5);
  EXPECT_EQ(g->Value(), 1.5);
  g->Add(0.25);
  g->Add(-0.5);
  EXPECT_DOUBLE_EQ(g->Value(), 1.25);
}

TEST(GaugeTest, ConcurrentAddLosesNothing) {
  Registry reg;
  Gauge* g = reg.GetGauge("test_gauge");
  util::ThreadPool pool(8);
  constexpr size_t kAdds = 10000;
  pool.ParallelFor(kAdds, [&](size_t) { g->Add(1.0); });
  EXPECT_DOUBLE_EQ(g->Value(), static_cast<double>(kAdds));
}

// -------------------------------------------------------------- histograms

TEST(HistogramTest, PrometheusLeBucketSemantics) {
  Registry reg;
  Histogram* h = reg.GetHistogram("test_hist", "", {1.0, 5.0, 10.0});
  h->Observe(0.5);   // <= 1
  h->Observe(1.0);   // == bound -> inclusive, still bucket le=1
  h->Observe(3.0);   // <= 5
  h->Observe(10.0);  // == bound -> bucket le=10
  h->Observe(11.0);  // overflow -> +Inf
  const std::vector<uint64_t> counts = h->BucketCounts();
  ASSERT_EQ(counts.size(), 4u);
  EXPECT_EQ(counts[0], 2u);  // 0.5, 1.0
  EXPECT_EQ(counts[1], 1u);  // 3.0
  EXPECT_EQ(counts[2], 1u);  // 10.0
  EXPECT_EQ(counts[3], 1u);  // 11.0
  EXPECT_EQ(h->Count(), 5u);
  EXPECT_DOUBLE_EQ(h->Sum(), 25.5);
}

TEST(HistogramTest, NonIncreasingBoundsThrow) {
  Registry reg;
  EXPECT_THROW(reg.GetHistogram("test_bad1", "", {2.0, 1.0}),
               std::invalid_argument);
  EXPECT_THROW(reg.GetHistogram("test_bad2", "", {1.0, 1.0}),
               std::invalid_argument);
}

TEST(HistogramTest, FamilySharesFirstBounds) {
  Registry reg;
  Histogram* a =
      reg.GetHistogram("test_hist", "", {1.0, 2.0}, {{"k", "a"}});
  // Later bounds are ignored; the family layout is fixed.
  Histogram* b =
      reg.GetHistogram("test_hist", "", {9.0, 99.0}, {{"k", "b"}});
  EXPECT_EQ(a->bounds(), b->bounds());
}

// --------------------------------------------------------------- exporters

TEST(ExporterTest, PrometheusGolden) {
  Registry reg;
  reg.GetCounter("test_requests_total", "Total requests")->Inc(3);
  reg.GetGauge("test_temperature", "Current temperature")->Set(21.5);
  Histogram* h =
      reg.GetHistogram("test_latency_ms", "Request latency", {1.0, 10.0});
  h->Observe(0.5);
  h->Observe(5.0);
  h->Observe(50.0);
  const std::string expected =
      "# HELP test_latency_ms Request latency\n"
      "# TYPE test_latency_ms histogram\n"
      "test_latency_ms_bucket{le=\"1\"} 1\n"
      "test_latency_ms_bucket{le=\"10\"} 2\n"
      "test_latency_ms_bucket{le=\"+Inf\"} 3\n"
      "test_latency_ms_sum 55.5\n"
      "test_latency_ms_count 3\n"
      "# HELP test_requests_total Total requests\n"
      "# TYPE test_requests_total counter\n"
      "test_requests_total 3\n"
      "# HELP test_temperature Current temperature\n"
      "# TYPE test_temperature gauge\n"
      "test_temperature 21.5\n";
  EXPECT_EQ(reg.RenderPrometheus(), expected);
}

TEST(ExporterTest, PrometheusLabelsGolden) {
  Registry reg;
  reg.GetCounter("test_results", "", {{"status", "ok"}})->Inc(2);
  reg.GetCounter("test_results", "", {{"status", "failed"}})->Inc();
  const std::string expected =
      "# TYPE test_results counter\n"
      "test_results{status=\"failed\"} 1\n"
      "test_results{status=\"ok\"} 2\n";
  EXPECT_EQ(reg.RenderPrometheus(), expected);
}

// Reads back one label value of the text exposition format, undoing its
// three escapes. Returns false on a malformed escape or a missing quote.
bool UnescapeLabelValue(std::string_view body, size_t& pos,
                        std::string& out) {
  out.clear();
  while (pos < body.size()) {
    const char c = body[pos++];
    if (c == '"') return true;
    if (c == '\n') return false;  // a raw newline would end the sample line
    if (c != '\\') {
      out += c;
      continue;
    }
    if (pos == body.size()) return false;
    switch (body[pos++]) {
      case '\\': out += '\\'; break;
      case '"': out += '"'; break;
      case 'n': out += '\n'; break;
      default: return false;
    }
  }
  return false;
}

TEST(ExporterTest, PrometheusLabelValuesAreEscapedAndRoundTrip) {
  // The cascade labels shadow metrics with the registrar string parsed out
  // of a record, so a label value can hold anything a record can.
  const std::string registrar = "Evil \"Quoted\" Registrar\\Inc\nLine2";
  Registry reg;
  reg.GetCounter("whoiscrf_cascade_shadow_samples_total", "",
                 {{"registrar", registrar}})
      ->Inc(3);
  const std::string text = reg.RenderPrometheus();
  const std::string prefix = "whoiscrf_cascade_shadow_samples_total{";
  const size_t start = text.find('\n' + prefix);
  ASSERT_NE(start, std::string::npos) << text;
  const size_t line_end = text.find('\n', start + 1);
  ASSERT_NE(line_end, std::string::npos);
  const std::string line = text.substr(start + 1, line_end - start - 1);
  // One physical line per sample, ending in the value.
  EXPECT_EQ(line, prefix +
                      "registrar=\"Evil \\\"Quoted\\\" "
                      "Registrar\\\\Inc\\nLine2\"} 3");
  size_t pos = prefix.size() + std::string("registrar=\"").size();
  std::string decoded;
  ASSERT_TRUE(UnescapeLabelValue(line, pos, decoded)) << line;
  EXPECT_EQ(decoded, registrar);
  EXPECT_EQ(line.substr(pos), "} 3");
  // The instance is still found by its raw (unescaped) label value.
  EXPECT_EQ(reg.CounterValue("whoiscrf_cascade_shadow_samples_total",
                             {{"registrar", registrar}}),
            3u);
}

TEST(ExporterTest, JsonGolden) {
  Registry reg;
  reg.GetCounter("test_count")->Inc(7);
  reg.GetGauge("test_gauge")->Set(1.5);
  Histogram* h = reg.GetHistogram("test_hist", "", {1.0, 2.0});
  h->Observe(0.5);
  h->Observe(3.0);
  const std::string expected =
      "{\"counters\":[{\"name\":\"test_count\",\"value\":7}],"
      "\"gauges\":[{\"name\":\"test_gauge\",\"value\":1.5}],"
      "\"histograms\":[{\"name\":\"test_hist\",\"bounds\":[1,2],"
      "\"counts\":[1,0,1],\"count\":2,\"sum\":3.5}]}";
  EXPECT_EQ(reg.RenderJson(), expected);
}

// ------------------------------------------------------------------ traces

TEST(TraceTest, DisabledTracerRecordsNothing) {
  Tracer tracer;
  { ScopedSpan span(tracer, "test.span"); }
  EXPECT_EQ(tracer.EventCount(), 0u);
}

TEST(TraceTest, EnabledTracerRecordsSpans) {
  Tracer tracer;
  tracer.Enable();
  { ScopedSpan span(tracer, "test.outer"); }
  tracer.Record("test.manual", 100, 50);
  EXPECT_EQ(tracer.EventCount(), 2u);
  std::ostringstream os;
  tracer.WriteChromeTrace(os);
  const std::string json = os.str();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"test.outer\""), std::string::npos);
  EXPECT_NE(json.find("\"test.manual\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
}

TEST(TraceTest, SpansFromWorkerThreadsAllRecorded) {
  Tracer tracer;
  tracer.Enable();
  util::ThreadPool pool(4);
  constexpr size_t kSpans = 1000;
  pool.ParallelFor(kSpans, [&](size_t) { ScopedSpan span(tracer, "test.w"); });
  EXPECT_EQ(tracer.EventCount(), kSpans);
  tracer.Clear();
  EXPECT_EQ(tracer.EventCount(), 0u);
}

// -------------------------------------------------------------- run report

TEST(ReportTest, RunReportSchemaAndDerived) {
  Registry reg;
  reg.GetCounter("whoiscrf_parse_records_total")->Inc(100);
  reg.GetCounter("whoiscrf_compile_cache_hits_total")->Inc(75);
  reg.GetCounter("whoiscrf_compile_cache_misses_total")->Inc(25);
  RunInfo info;
  info.command = "parse";
  info.exit_code = 0;
  info.wall_seconds = 2.0;
  const std::string report = RenderRunReport(reg, info);
  EXPECT_NE(report.find("\"schema\":\"whoiscrf.run_report.v1\""),
            std::string::npos);
  EXPECT_NE(report.find("\"command\":\"parse\""), std::string::npos);
  EXPECT_NE(report.find("\"exit_code\":0"), std::string::npos);
  EXPECT_NE(report.find("\"parse_records_per_sec\":50"), std::string::npos);
  EXPECT_NE(report.find("\"compile_cache_hit_rate\":0.75"),
            std::string::npos);
  // No crawl metrics registered -> no crawl keys in `derived`.
  EXPECT_EQ(report.find("crawl_success_rate"), std::string::npos);
}

TEST(ReportTest, MetricsFileExtensionSelectsFormat) {
  Registry reg;
  reg.GetCounter("whoiscrf_parse_records_total", "Parsed records")->Inc(5);
  RunInfo info;
  info.command = "parse";
  info.wall_seconds = 1.0;

  const std::string prom = ::testing::TempDir() + "test_obs_metrics.prom";
  WriteMetricsFile(prom, reg, info);
  const std::string prom_text = ReadFile(prom);
  EXPECT_NE(prom_text.find("# TYPE whoiscrf_parse_records_total counter"),
            std::string::npos);
  EXPECT_NE(prom_text.find("whoiscrf_parse_records_total 5"),
            std::string::npos);

  const std::string jsonl = ::testing::TempDir() + "test_obs_metrics.jsonl";
  std::remove(jsonl.c_str());
  WriteMetricsFile(jsonl, reg, info);
  info.command = "eval";
  WriteMetricsFile(jsonl, reg, info);  // .jsonl appends
  std::ifstream is(jsonl);
  std::string line;
  std::vector<std::string> lines;
  while (std::getline(is, line)) lines.push_back(line);
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_NE(lines[0].find("\"command\":\"parse\""), std::string::npos);
  EXPECT_NE(lines[1].find("\"command\":\"eval\""), std::string::npos);

  EXPECT_THROW(WriteMetricsFile("/nonexistent-dir/x.json", reg, info),
               std::runtime_error);
}

// The global registry picks up the parser fast-path metrics; this is what
// the docs cross-check script and the CLI --metrics-out flag rely on.
TEST(ReportTest, GlobalRegistryIsSingleton) {
  Registry& a = Registry::Global();
  Registry& b = Registry::Global();
  EXPECT_EQ(&a, &b);
}

}  // namespace
}  // namespace whoiscrf::obs
