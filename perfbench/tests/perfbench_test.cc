// Unit tests of the benchmark's own helpers. Build and run with
// `python3 perfbench/run.py --selftest`.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

#include "loadgen.h"
#include "stats.h"
#include "trace.h"

namespace perfbench {
namespace {

TEST(Percentile, InterpolatesLikeNumpy) {
  std::vector<double> v = {4, 1, 3, 2};
  EXPECT_DOUBLE_EQ(Percentile(v, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(Percentile(v, 1.0), 4.0);
  EXPECT_DOUBLE_EQ(Percentile(v, 0.5), 2.5);
  EXPECT_DOUBLE_EQ(Percentile(v, 0.25), 1.75);
  std::vector<double> empty;
  EXPECT_DOUBLE_EQ(Percentile(empty, 0.5), 0.0);
}

TEST(Percentile, InfiniteSamplesStayInfinite) {
  const double inf = std::numeric_limits<double>::infinity();
  std::vector<double> v(100, 1.0);
  v[98] = inf;
  v[99] = inf;
  EXPECT_TRUE(std::isinf(Percentile(v, 0.99)));
  std::vector<double> w = {1.0, inf, inf};
  EXPECT_TRUE(std::isinf(Percentile(w, 0.75)));
  EXPECT_FALSE(std::isnan(Percentile(w, 0.75)));
}

TEST(Summarize, ReportsMedianP99AndCount) {
  std::vector<double> v;
  for (int i = 1; i <= 101; ++i) v.push_back(i);
  const Summary s = Summarize(v);
  EXPECT_EQ(s.n, 101u);
  EXPECT_DOUBLE_EQ(s.p50, 51.0);
  EXPECT_DOUBLE_EQ(s.p99, 100.0);
}

TEST(ZipfSampler, DeterministicForASeed) {
  ZipfSampler a(1000, 1.0, 7), b(1000, 1.0, 7), c(1000, 1.0, 8);
  bool differs = false;
  for (int i = 0; i < 1000; ++i) {
    const size_t x = a.Next();
    EXPECT_EQ(x, b.Next());
    EXPECT_LT(x, 1000u);
    if (x != c.Next()) differs = true;
  }
  EXPECT_TRUE(differs);
}

TEST(ZipfSampler, FrequenciesFollowThePowerLaw) {
  constexpr size_t kN = 100;
  constexpr int kDraws = 200000;
  ZipfSampler z(kN, 1.0, 1);
  std::vector<int> counts(kN, 0);
  for (int i = 0; i < kDraws; ++i) ++counts[z.Next()];
  double harmonic = 0;
  for (size_t k = 1; k <= kN; ++k) harmonic += 1.0 / static_cast<double>(k);
  for (size_t k : {0u, 1u, 9u}) {
    const double expected = kDraws / (static_cast<double>(k + 1) * harmonic);
    EXPECT_NEAR(counts[k], expected, expected * 0.05) << "rank " << k;
  }
  EXPECT_GT(counts[0], counts[1]);
  EXPECT_GT(counts[1], counts[10]);
}

TEST(BuildSchedule, SpacesRequestsEvenlyPerStep) {
  std::vector<uint32_t> step_of;
  const std::vector<int64_t> due =
      BuildSchedule({{1000.0, 0.5}, {2000.0, 0.25}}, &step_of);
  ASSERT_EQ(due.size(), 1000u);
  ASSERT_EQ(step_of.size(), 1000u);
  EXPECT_EQ(due[0], 0);
  EXPECT_EQ(due[1], 1000000);
  EXPECT_EQ(step_of[499], 0u);
  EXPECT_EQ(step_of[500], 1u);
  EXPECT_EQ(due[500], 500000000);
  EXPECT_EQ(due[501], 500500000);
  for (size_t i = 1; i < due.size(); ++i) EXPECT_GT(due[i], due[i - 1]);
}

TEST(BuildSchedule, RejectsEmptySteps) {
  EXPECT_THROW(BuildSchedule({{0.0, 1.0}}, nullptr), std::invalid_argument);
}

TEST(Digest, IsOrderAndBoundarySensitive) {
  Digest ab_c, a_bc, c_ab, ab_c2;
  ab_c.Add("ab");
  ab_c.Add("c");
  a_bc.Add("a");
  a_bc.Add("bc");
  c_ab.Add("c");
  c_ab.Add("ab");
  ab_c2.Add("ab");
  ab_c2.Add("c");
  EXPECT_NE(ab_c.value(), a_bc.value());
  EXPECT_NE(ab_c.value(), c_ab.value());
  EXPECT_EQ(ab_c.value(), ab_c2.value());
  EXPECT_EQ(Digest::Of("{\"a\":1}"), Digest::Of("{\"a\":1}"));
  EXPECT_NE(Digest::Of("{\"a\":1}"), Digest::Of("{\"a\":2}"));
}

TEST(SelfTime, SubtractsTheUnionOfChildren) {
  std::vector<SpanRecord> spans(4);
  spans[0] = {"util.pipeline", 0, 100, 1, -1, 0, 1};
  spans[1] = {"whois.parse", 10, 40, 2, 1, 0, 1};
  spans[2] = {"whois.parse", 30, 60, 3, 1, 0, 2};  // overlaps the first
  spans[3] = {"whois.json", 90, 120, 4, 1, 0, 1};  // runs past its parent
  const auto self = SelfTimeByName(spans);
  EXPECT_EQ(self.at("util.pipeline"), 100 - (50 + 10));
  EXPECT_EQ(self.at("whois.parse"), 60);
  EXPECT_EQ(self.at("whois.json"), 30);
}

TEST(Tracer, RecordsOnlyWhenEnabledAndLinksParents) {
  Tracer& tracer = Tracer::Get();
  tracer.Reset();
  { Span ignored("util.off"); }
  EXPECT_TRUE(tracer.Collect().empty());
  tracer.Enable(true);
  int64_t outer_id = -1;
  {
    Span outer("util.outer", 7);
    outer_id = outer.id();
    Span inner("whois.inner", 7);
  }
  tracer.Enable(false);
  const std::vector<SpanRecord> spans = tracer.Collect();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[0].id, outer_id);
  EXPECT_EQ(spans[1].parent, outer_id);
  EXPECT_EQ(spans[1].request, 7u);
  EXPECT_LE(spans[0].start_ns, spans[1].start_ns);
  EXPECT_GE(spans[0].end_ns, spans[1].end_ns);
  tracer.Reset();
}

TEST(StepStats, MedianWindowIgnoresOneStall) {
  const double inf = std::numeric_limits<double>::infinity();
  StepStats st;
  st.window_latency_ms = {{0.4}, {0.5}, {40.0}, {0.45}, {0.5}};
  EXPECT_DOUBLE_EQ(st.P99Ms(), 0.5);
  st.window_latency_ms = {{inf}, {0.3, inf}, {0.5}};
  EXPECT_TRUE(std::isinf(st.P99Ms()));
  std::vector<double> window(100, 1.0);
  window[99] = 9.0;
  st.window_latency_ms = {window, window, window};
  EXPECT_DOUBLE_EQ(st.WindowedPercentileMs(0.5), 1.0);
  EXPECT_GT(st.P99Ms(), 1.0);
  st.window_backlog_growth = {0, 1, 500, 0, 2};
  EXPECT_FALSE(st.BacklogGrew(1000.0));
  st.window_backlog_growth = {50, 60, 70};
  EXPECT_TRUE(st.BacklogGrew(1000.0));
}

}  // namespace
}  // namespace perfbench
