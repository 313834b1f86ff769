// Utility layer: string helpers, deterministic RNG, tables, thread pool,
// little-endian codec.
#include <atomic>
#include <cmath>
#include <condition_variable>
#include <functional>
#include <limits>
#include <memory>
#include <mutex>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "util/env.h"
#include "util/little_endian.h"
#include "util/random.h"
#include "util/string_util.h"
#include "util/table.h"
#include "util/thread_pool.h"

namespace whoiscrf::util {
namespace {

TEST(StringUtilTest, Trim) {
  EXPECT_EQ(Trim("  a b  "), "a b");
  EXPECT_EQ(Trim("\t\r\n x \t"), "x");
  EXPECT_EQ(Trim(""), "");
  EXPECT_EQ(Trim("   "), "");
  EXPECT_EQ(TrimLeft("  a "), "a ");
  EXPECT_EQ(TrimRight("  a "), "  a");
}

TEST(StringUtilTest, Case) {
  EXPECT_EQ(ToLower("AbC123"), "abc123");
  EXPECT_EQ(ToUpper("aBc"), "ABC");
}

TEST(StringUtilTest, Split) {
  const auto parts = Split("a,b,,c", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[2], "");
  EXPECT_EQ(parts[3], "c");
}

TEST(StringUtilTest, SplitWhitespace) {
  const auto parts = SplitWhitespace("  a \t b\nc  ");
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "b");
  EXPECT_EQ(parts[2], "c");
  EXPECT_TRUE(SplitWhitespace("   ").empty());
}

TEST(StringUtilTest, SplitLines) {
  const auto lines = SplitLines("a\nb\r\nc\rd");
  ASSERT_EQ(lines.size(), 4u);
  EXPECT_EQ(lines[0], "a");
  EXPECT_EQ(lines[1], "b");
  EXPECT_EQ(lines[2], "c");
  EXPECT_EQ(lines[3], "d");
}

TEST(StringUtilTest, JoinAndReplace) {
  EXPECT_EQ(Join(std::vector<std::string>{"a", "b"}, ", "), "a, b");
  EXPECT_EQ(ReplaceAll("aXbXc", "X", "--"), "a--b--c");
  EXPECT_EQ(ReplaceAll("aaa", "aa", "b"), "ba");
}

TEST(StringUtilTest, CaseInsensitiveSearch) {
  EXPECT_TRUE(ContainsIgnoreCase("Whois Server: X", "whois server"));
  EXPECT_FALSE(ContainsIgnoreCase("abc", "abd"));
  EXPECT_TRUE(EqualsIgnoreCase("GoDaddy", "godaddy"));
  EXPECT_FALSE(EqualsIgnoreCase("a", "ab"));
}

TEST(StringUtilTest, Predicates) {
  EXPECT_TRUE(StartsWith("abcdef", "abc"));
  EXPECT_TRUE(EndsWith("abcdef", "def"));
  EXPECT_TRUE(IsDigits("12345"));
  EXPECT_FALSE(IsDigits("12a"));
  EXPECT_FALSE(IsDigits(""));
  EXPECT_TRUE(HasAlnum(" a "));
  EXPECT_FALSE(HasAlnum("---"));
}

TEST(StringUtilTest, WithCommasAndFormat) {
  EXPECT_EQ(WithCommas(0), "0");
  EXPECT_EQ(WithCommas(999), "999");
  EXPECT_EQ(WithCommas(1234567), "1,234,567");
  EXPECT_EQ(WithCommas(-1234), "-1,234");
  EXPECT_EQ(Format("%d-%s", 5, "x"), "5-x");
}

TEST(RngTest, DeterministicPerSeed) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.NextU64(), b.NextU64());
  Rng c(43);
  EXPECT_NE(Rng(42).NextU64(), c.NextU64());
}

TEST(RngTest, UniformIntInRange) {
  Rng rng(1);
  std::set<int64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const int64_t v = rng.UniformInt(3, 7);
    EXPECT_GE(v, 3);
    EXPECT_LE(v, 7);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 5u);  // every value hit
  EXPECT_EQ(rng.UniformInt(5, 5), 5);
  EXPECT_THROW(rng.UniformInt(7, 3), std::invalid_argument);
}

TEST(RngTest, UniformDoubleInUnitInterval) {
  Rng rng(2);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    const double v = rng.UniformDouble();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
    sum += v;
  }
  EXPECT_NEAR(sum / 10000, 0.5, 0.02);
}

TEST(RngTest, WeightedIndexRespectsWeights) {
  Rng rng(3);
  const std::vector<double> weights = {1.0, 0.0, 3.0};
  size_t counts[3] = {0, 0, 0};
  for (int i = 0; i < 20000; ++i) ++counts[rng.WeightedIndex(weights)];
  EXPECT_EQ(counts[1], 0u);
  EXPECT_NEAR(static_cast<double>(counts[2]) / counts[0], 3.0, 0.25);
  EXPECT_THROW(rng.WeightedIndex(std::vector<double>{0.0, 0.0}),
               std::invalid_argument);
  EXPECT_THROW(rng.WeightedIndex(std::vector<double>{-1.0, 2.0}),
               std::invalid_argument);
}

TEST(RngTest, BernoulliEdges) {
  Rng rng(4);
  EXPECT_FALSE(rng.Bernoulli(0.0));
  EXPECT_TRUE(rng.Bernoulli(1.0));
  int hits = 0;
  for (int i = 0; i < 10000; ++i) hits += rng.Bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(hits / 10000.0, 0.3, 0.02);
}

TEST(RngTest, ZipfIsDecreasing) {
  Rng rng(5);
  std::vector<size_t> counts(10, 0);
  for (int i = 0; i < 50000; ++i) ++counts[rng.Zipf(10, 1.0)];
  EXPECT_GT(counts[0], counts[4]);
  EXPECT_GT(counts[4], counts[9]);
}

TEST(RngTest, ShuffleIsPermutation) {
  Rng rng(6);
  std::vector<int> v = {1, 2, 3, 4, 5, 6, 7, 8};
  auto sorted = v;
  rng.Shuffle(v);
  auto copy = v;
  std::sort(copy.begin(), copy.end());
  EXPECT_EQ(copy, sorted);
}

TEST(RngTest, ForkDecorrelates) {
  Rng parent(7);
  Rng child1 = parent.Fork(1);
  Rng child2 = parent.Fork(2);
  EXPECT_NE(child1.NextU64(), child2.NextU64());
}

TEST(RngTest, GaussianMoments) {
  Rng rng(8);
  double sum = 0;
  double sq = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double g = rng.Gaussian();
    sum += g;
    sq += g * g;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.03);
  EXPECT_NEAR(sq / n, 1.0, 0.05);
}

TEST(TextTableTest, RendersAlignedColumns) {
  TextTable table({"Country", "Number", "(% All)"});
  table.AddRow({"United States", "34,236,575", "(47.6)"});
  table.AddRow({"China", "6,908,865", "(9.6)"});
  table.AddSeparator();
  table.AddRow({"Total", "71,865,317", "(100.0)"});
  const std::string out = table.Render();
  EXPECT_NE(out.find("United States"), std::string::npos);
  EXPECT_NE(out.find("---"), std::string::npos);
  // Right alignment: the numbers line up at the right edge.
  EXPECT_NE(out.find("  6,908,865"), std::string::npos);
}

TEST(TextTableTest, RejectsBadRows) {
  TextTable table({"a", "b"});
  EXPECT_THROW(table.AddRow({"only-one"}), std::invalid_argument);
  EXPECT_THROW(TextTable({}), std::invalid_argument);
}

TEST(ThreadPoolTest, ParallelForCoversRange) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(100);
  pool.ParallelFor(100, [&](size_t i) { hits[i]++; });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolTest, ForkJoinRunsEveryItemOnce) {
  ThreadPool pool(3);
  for (size_t n : {1, 2, 3, 4, 7, 16, 1000}) {
    std::vector<std::atomic<int>> hits(n);
    std::atomic<size_t> bad_slot{0};
    pool.ForkJoin(n, [&](size_t i, size_t slot) {
      hits[i]++;
      if (slot > pool.size()) bad_slot++;
    });
    for (auto& h : hits) EXPECT_EQ(h.load(), 1) << "n=" << n;
    EXPECT_EQ(bad_slot.load(), 0u);
  }
}

TEST(ThreadPoolTest, PropagatesExceptions) {
  ThreadPool pool(2);
  EXPECT_THROW(pool.ParallelFor(
                   4, [](size_t i) {
                     if (i == 2) throw std::runtime_error("boom");
                   }),
               std::runtime_error);
}

TEST(ThreadPoolTest, ForkJoinPropagatesFirstExceptionAfterEveryItem) {
  ThreadPool pool(3);
  std::atomic<int> calls{0};
  try {
    pool.ForkJoin(100, [&](size_t i, size_t) {
      calls++;
      if (i % 10 == 3) throw std::runtime_error("item " + std::to_string(i));
    });
    FAIL() << "no exception";
  } catch (const std::runtime_error& e) {
    EXPECT_EQ(std::string(e.what()).rfind("item ", 0), 0u) << e.what();
  }
  EXPECT_EQ(calls.load(), 100);
  // The error does not leak into the next call.
  calls = 0;
  pool.ForkJoin(10, [&](size_t, size_t) { calls++; });
  EXPECT_EQ(calls.load(), 10);
}

TEST(ThreadPoolTest, BackToBackCallsLeaveNoChunkBehind) {
  // Many short fork-joins in a row: an item of one call must not run
  // during the next (a late worker claiming from a reset cursor), and a
  // lost wake-up of the caller would hang; the sanitizers watch the
  // handover of the pool's fork-join state between calls.
  ThreadPool pool(4);
  size_t total = 0;
  for (int round = 0; round < 20000; ++round) {
    std::atomic<size_t> sum{0};
    pool.ForkJoin(4, [&](size_t i, size_t) { sum += i + 1; });
    total += sum.load();
  }
  EXPECT_EQ(total, 200000u);
}

// Parks every worker of a pool in a posted task until Release(). The
// parked tasks use this object until the pool has joined its workers, so
// declare it before the pool.
class BlockedWorkers {
 public:
  void Park(ThreadPool& pool) {
    for (size_t i = 0; i < pool.size(); ++i) {
      pool.Post([this] {
        std::unique_lock<std::mutex> lock(mu_);
        ++parked_;
        cv_.notify_all();
        cv_.wait(lock, [this] { return released_; });
      });
    }
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return parked_ == pool.size(); });
  }
  void Release() {
    std::lock_guard<std::mutex> lock(mu_);
    released_ = true;
    cv_.notify_all();
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  size_t parked_ = 0;
  bool released_ = false;
};

TEST(ThreadPoolTest, ForkJoinCompletesWhileEveryWorkerIsBlocked) {
  BlockedWorkers blocked;
  ThreadPool pool(2);
  blocked.Park(pool);
  std::vector<int> hits(64, 0);
  bool all_on_caller = true;
  pool.ForkJoin(hits.size(), [&](size_t i, size_t slot) {
    hits[i]++;
    all_on_caller = all_on_caller && slot == 0;
  });
  EXPECT_TRUE(all_on_caller);
  for (int h : hits) EXPECT_EQ(h, 1);
  blocked.Release();
}

TEST(ThreadPoolTest, WorkerWakingAfterReturnTouchesNoFreedState) {
  std::atomic<int> calls{0};
  BlockedWorkers blocked;
  {
    ThreadPool pool(3);
    blocked.Park(pool);
    {
      // The callable and what it points to die when the call returns; a
      // worker that still ran an item would use them after free.
      auto state = std::make_unique<std::vector<int>>(32, 0);
      const std::function<void(size_t, size_t)> fn =
          [&calls, s = state.get(), pad = std::string(64, 'x')](size_t i,
                                                                size_t) {
            (*s)[i] += static_cast<int>(pad.size());
            calls++;
          };
      pool.ForkJoin(state->size(), fn);
    }
    // The workers wake now, find the fork-join over, and go back to
    // waiting; the pool's destructor then joins them.
    blocked.Release();
  }
  EXPECT_EQ(calls.load(), 32);
}

TEST(ThreadPoolTest, EmptyRangeIsNoop) {
  ThreadPool pool(2);
  pool.ParallelFor(0, [](size_t) { FAIL(); });
}

TEST(EnvTest, ScaledAppliesFloor) {
  // Without WHOISCRF_SCALE set, Scaled is identity (with floor).
  EXPECT_EQ(Scaled(100), 100u);
  EXPECT_EQ(Scaled(0, 5), 5u);
  EXPECT_EQ(EnvInt("WHOISCRF_NONEXISTENT_VAR", 7), 7);
  EXPECT_EQ(EnvString("WHOISCRF_NONEXISTENT_VAR", "x"), "x");
}

TEST(LittleEndianTest, PinsKnownBytes) {
  char b4[4];
  le::PutU32(b4, 0x01020304u);
  EXPECT_EQ(std::string(b4, 4), std::string("\x04\x03\x02\x01", 4));
  EXPECT_EQ(le::GetU32(b4), 0x01020304u);

  char b8[8];
  le::PutU64(b8, 0x0102030405060708ull);
  EXPECT_EQ(std::string(b8, 8),
            std::string("\x08\x07\x06\x05\x04\x03\x02\x01", 8));
  EXPECT_EQ(le::GetU64(b8), 0x0102030405060708ull);
  le::PutU64(b8, 0xF0E0D0C0B0A09080ull);  // high bits survive the char cast
  EXPECT_EQ(le::GetU64(b8), 0xF0E0D0C0B0A09080ull);

  // Streams carry the same bytes; a double is the u64 of its bits.
  std::stringstream ss;
  le::WriteU32(ss, 0x01020304u);
  le::WriteF64(ss, 1.0);  // 0x3FF0000000000000
  le::WriteString(ss, "ab");
  EXPECT_EQ(ss.str(), std::string("\x04\x03\x02\x01"
                                  "\x00\x00\x00\x00\x00\x00\xF0\x3F"
                                  "\x02\x00\x00\x00"
                                  "ab",
                                  18));
}

TEST(LittleEndianTest, StreamRoundTripAndTruncation) {
  const double values[] = {0.0, -0.0, 3.141592653589793, -1e-300,
                           std::numeric_limits<double>::infinity()};
  std::stringstream ss;
  le::WriteU64(ss, 0xFFFFFFFFFFFFFFFEull);
  for (double v : values) le::WriteF64(ss, v);
  le::WriteString(ss, "");
  le::WriteString(ss, "whois");
  EXPECT_EQ(le::ReadU64(ss, "test"), 0xFFFFFFFFFFFFFFFEull);
  for (double v : values) {
    const double got = le::ReadF64(ss, "test");
    EXPECT_EQ(got, v);
    EXPECT_EQ(std::signbit(got), std::signbit(v));
  }
  EXPECT_EQ(le::ReadString(ss, "test"), "");
  EXPECT_EQ(le::ReadString(ss, "test"), "whois");

  // A short read throws with the caller's context.
  std::stringstream shortstream(std::string("\x01\x02", 2));
  try {
    le::ReadU32(shortstream, "Thing::Load");
    FAIL() << "expected a throw";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "Thing::Load: truncated stream");
  }
  std::stringstream short_string(std::string("\x05\x00\x00\x00" "abc", 7));
  EXPECT_THROW(le::ReadString(short_string, "x"), std::runtime_error);
}

}  // namespace
}  // namespace whoiscrf::util
