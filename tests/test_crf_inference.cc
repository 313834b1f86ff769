// CRF inference correctness: the dynamic programs of the paper's appendix
// are validated against brute-force enumeration, the analytic gradient
// of the log-likelihood against finite differences, and the exp-domain
// path log-probability against long-double references and across every
// path that reports it.
#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <sstream>
#include <vector>

#include <gtest/gtest.h>

#include "crf/inference.h"
#include "crf/likelihood.h"
#include "crf/model.h"
#include "crf/tagger.h"
#include "crf/viterbi.h"
#include "crf/workspace.h"
#include "datagen/temporal.h"
#include "text/line_splitter.h"
#include "util/random.h"
#include "util/thread_pool.h"
#include "whois/record_stream.h"
#include "whois/stream_pipeline.h"
#include "whois/whois_parser.h"

namespace whoiscrf::crf {
namespace {

// Builds a small random model over `num_labels` labels and `num_attrs`
// attributes, with every attribute transition-eligible.
CrfModel RandomModel(int num_labels, int num_attrs, uint64_t seed) {
  text::Vocabulary vocab;
  for (int a = 0; a < num_attrs; ++a) {
    vocab.Count("attr" + std::to_string(a));
  }
  vocab.Freeze(1);
  std::vector<int> slots;
  for (int a = 0; a < num_attrs; ++a) slots.push_back(a);
  std::vector<std::string> labels;
  for (int l = 0; l < num_labels; ++l) {
    // append, not "L" + ...: libstdc++ 12 raises a false -Wrestrict on
    // that temporary once this function is inlined.
    labels.emplace_back("L").append(std::to_string(l));
  }
  CrfModel model(labels, std::move(vocab), slots);
  util::Rng rng(seed);
  for (double& w : model.weights()) w = rng.Gaussian() * 0.7;
  return model;
}

// Random compiled sequence over the model's attributes.
CompiledSequence RandomSequence(const CrfModel& model, int length,
                                uint64_t seed) {
  util::Rng rng(seed);
  CompiledSequence seq;
  const int num_attrs = static_cast<int>(model.vocab().size());
  for (int t = 0; t < length; ++t) {
    CompiledItem item;
    const int n = static_cast<int>(rng.UniformInt(1, 3));
    for (int i = 0; i < n; ++i) {
      const int attr = static_cast<int>(rng.UniformInt(0, num_attrs - 1));
      item.attrs.push_back(attr);
      if (rng.Bernoulli(0.5)) item.trans_slots.push_back(attr);
    }
    seq.push_back(std::move(item));
  }
  return seq;
}

TEST(LogSumExpTest, MatchesDirectComputation) {
  const double v[] = {0.5, -1.0, 2.0, 0.0};
  const double direct =
      std::log(std::exp(0.5) + std::exp(-1.0) + std::exp(2.0) + std::exp(0.0));
  EXPECT_NEAR(LogSumExp(v, 4), direct, 1e-12);
}

TEST(LogSumExpTest, StableForLargeValues) {
  const double v[] = {1000.0, 1000.0};
  EXPECT_NEAR(LogSumExp(v, 2), 1000.0 + std::log(2.0), 1e-9);
}

TEST(LogSumExpTest, AllNegativeInfinity) {
  const double inf = std::numeric_limits<double>::infinity();
  const double v[] = {-inf, -inf};
  EXPECT_TRUE(std::isinf(LogSumExp(v, 2)));
  EXPECT_LT(LogSumExp(v, 2), 0);
}

// LogSumExp adds 1.0 for terms equal to the max instead of calling
// exp(0); that must not change a bit against the plain loop, including
// with ties, -inf entries and all--inf input.
TEST(LogSumExpTest, MatchesNaiveReferenceBitForBit) {
  const double inf = std::numeric_limits<double>::infinity();
  const auto naive = [](const std::vector<double>& v) {
    double max = -std::numeric_limits<double>::infinity();
    for (double x : v) max = std::max(max, x);
    if (!std::isfinite(max)) return max;
    double sum = 0.0;
    for (double x : v) sum += std::exp(x - max);
    return max + std::log(sum);
  };
  util::Rng rng(2015);
  for (int trial = 0; trial < 2000; ++trial) {
    const int n = static_cast<int>(rng.UniformInt(1, 12));
    std::vector<double> v(static_cast<size_t>(n));
    for (double& x : v) x = rng.UniformDouble() * 40.0 - 20.0;
    // Ties: copy one entry over others (several copies of the max in
    // some trials).
    for (int k = static_cast<int>(rng.UniformInt(0, 3)); k > 0; --k) {
      v[static_cast<size_t>(rng.UniformInt(0, n - 1))] =
          v[static_cast<size_t>(rng.UniformInt(0, n - 1))];
    }
    if (trial % 3 == 0) v[static_cast<size_t>(rng.UniformInt(0, n - 1))] = -inf;
    if (trial % 50 == 0) std::fill(v.begin(), v.end(), -inf);
    const double got = LogSumExp(v.data(), n);
    const double want = naive(v);
    uint64_t got_bits, want_bits;
    std::memcpy(&got_bits, &got, sizeof(got));
    std::memcpy(&want_bits, &want, sizeof(want));
    EXPECT_EQ(got_bits, want_bits) << "trial " << trial;
  }
}

class InferenceBruteForceTest
    : public ::testing::TestWithParam<std::tuple<int, int, uint64_t>> {};

TEST_P(InferenceBruteForceTest, LogPartitionMatchesEnumeration) {
  const auto [num_labels, length, seed] = GetParam();
  CrfModel model = RandomModel(num_labels, 5, seed);
  const CompiledSequence seq = RandomSequence(model, length, seed + 1);
  const auto scores = model.ComputeScores(seq);
  EXPECT_NEAR(LogPartition(scores), LogPartitionBruteForce(scores), 1e-8);
}

TEST_P(InferenceBruteForceTest, ViterbiMatchesEnumeration) {
  const auto [num_labels, length, seed] = GetParam();
  CrfModel model = RandomModel(num_labels, 5, seed);
  const CompiledSequence seq = RandomSequence(model, length, seed + 2);
  const auto scores = model.ComputeScores(seq);
  const ViterbiResult fast = Decode(scores);
  const ViterbiResult slow = DecodeBruteForce(scores);
  EXPECT_NEAR(fast.score, slow.score, 1e-9);
  EXPECT_EQ(fast.labels, slow.labels);
}

TEST_P(InferenceBruteForceTest, NodeMarginalsSumToOne) {
  const auto [num_labels, length, seed] = GetParam();
  CrfModel model = RandomModel(num_labels, 5, seed);
  const CompiledSequence seq = RandomSequence(model, length, seed + 3);
  const Posteriors post = ForwardBackward(model.ComputeScores(seq));
  for (int t = 0; t < post.T; ++t) {
    double sum = 0.0;
    for (int j = 0; j < post.L; ++j) sum += post.node[t * post.L + j];
    EXPECT_NEAR(sum, 1.0, 1e-9) << "t=" << t;
  }
}

TEST_P(InferenceBruteForceTest, EdgeMarginalsConsistentWithNodes) {
  const auto [num_labels, length, seed] = GetParam();
  CrfModel model = RandomModel(num_labels, 5, seed);
  const CompiledSequence seq = RandomSequence(model, length, seed + 4);
  const Posteriors post = ForwardBackward(model.ComputeScores(seq));
  const int L = post.L;
  for (int t = 1; t < post.T; ++t) {
    for (int j = 0; j < L; ++j) {
      double sum = 0.0;
      for (int i = 0; i < L; ++i) sum += post.edge[t * L * L + i * L + j];
      EXPECT_NEAR(sum, post.node[t * L + j], 1e-9) << "t=" << t << " j=" << j;
    }
    for (int i = 0; i < L; ++i) {
      double sum = 0.0;
      for (int j = 0; j < L; ++j) sum += post.edge[t * L * L + i * L + j];
      EXPECT_NEAR(sum, post.node[(t - 1) * L + i], 1e-9);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    SmallModels, InferenceBruteForceTest,
    ::testing::Values(std::make_tuple(2, 1, 7u), std::make_tuple(2, 4, 11u),
                      std::make_tuple(3, 3, 13u), std::make_tuple(3, 6, 17u),
                      std::make_tuple(4, 5, 19u), std::make_tuple(5, 4, 23u),
                      std::make_tuple(6, 3, 29u), std::make_tuple(2, 8, 31u)));

TEST(SequenceLogProbTest, NormalizesOverAllPaths) {
  CrfModel model = RandomModel(3, 4, 99);
  const CompiledSequence seq = RandomSequence(model, 4, 100);
  const auto scores = model.ComputeScores(seq);
  // Sum of exp(log-prob) over all 3^4 paths must be 1.
  double total = 0.0;
  std::vector<int> labels(4, 0);
  while (true) {
    total += std::exp(SequenceLogProb(scores, labels));
    int pos = 0;
    while (pos < 4) {
      if (++labels[static_cast<size_t>(pos)] < 3) break;
      labels[static_cast<size_t>(pos)] = 0;
      ++pos;
    }
    if (pos == 4) break;
  }
  EXPECT_NEAR(total, 1.0, 1e-8);
}

TEST(GradientCheckTest, AnalyticMatchesFiniteDifference) {
  CrfModel model = RandomModel(3, 6, 123);
  Dataset data;
  util::Rng rng(321);
  for (int r = 0; r < 4; ++r) {
    const CompiledSequence seq = RandomSequence(model, 5, 400 + r);
    std::vector<int> gold;
    for (size_t t = 0; t < seq.size(); ++t) {
      gold.push_back(static_cast<int>(rng.UniformInt(0, 2)));
    }
    data.sequences.push_back(seq);
    data.labels.push_back(gold);
  }
  LogLikelihood objective(model, data, /*l2_sigma=*/2.0);

  std::vector<double> w = model.weights();
  std::vector<double> grad;
  const double f0 = objective.Evaluate(w, grad);
  ASSERT_TRUE(std::isfinite(f0));

  util::Rng pick(555);
  const double eps = 1e-6;
  for (int trial = 0; trial < 25; ++trial) {
    const size_t k = static_cast<size_t>(
        pick.UniformInt(0, static_cast<int64_t>(w.size()) - 1));
    std::vector<double> w_plus = w;
    std::vector<double> w_minus = w;
    w_plus[k] += eps;
    w_minus[k] -= eps;
    std::vector<double> scratch;
    const double f_plus = objective.Evaluate(w_plus, scratch);
    const double f_minus = objective.Evaluate(w_minus, scratch);
    const double numeric = (f_plus - f_minus) / (2 * eps);
    EXPECT_NEAR(grad[k], numeric, 1e-4)
        << "weight index " << k << " of " << w.size();
  }
}

TEST(GradientCheckTest, ZeroGradientAtOptimumOfSingleLabelProblem) {
  // With no regularization and a dataset where every line has the same
  // label, pushing that label's weights to +inf maximizes likelihood; the
  // gradient at w=0 must point toward the gold label (negative component).
  CrfModel model = RandomModel(2, 2, 1);
  for (double& w : model.weights()) w = 0.0;
  Dataset data;
  CompiledSequence seq(3);
  for (auto& item : seq) item.attrs = {0};
  data.sequences.push_back(seq);
  data.labels.push_back({0, 0, 0});
  LogLikelihood objective(model, data, /*l2_sigma=*/0.0);
  std::vector<double> grad;
  objective.Evaluate(model.weights(), grad);
  EXPECT_LT(grad[model.UnigramIndex(0, 0)], 0.0);
  EXPECT_GT(grad[model.UnigramIndex(0, 1)], 0.0);
}

TEST(ModelSerializationTest, RoundTripsExactly) {
  CrfModel model = RandomModel(4, 7, 77);
  std::stringstream ss;
  model.Save(ss);
  const CrfModel loaded = CrfModel::Load(ss);
  EXPECT_EQ(loaded.num_labels(), model.num_labels());
  EXPECT_EQ(loaded.label_names(), model.label_names());
  EXPECT_EQ(loaded.num_weights(), model.num_weights());
  EXPECT_EQ(loaded.weights(), model.weights());
  EXPECT_EQ(loaded.num_transition_slots(), model.num_transition_slots());
  // Decoding behavior identical.
  const CompiledSequence seq = RandomSequence(model, 6, 78);
  EXPECT_EQ(Decode(model.ComputeScores(seq)).labels,
            Decode(loaded.ComputeScores(seq)).labels);
}

TEST(ModelSerializationTest, RejectsCorruptStream) {
  std::stringstream ss;
  ss << "not a model";
  EXPECT_THROW(CrfModel::Load(ss), std::runtime_error);
}

// A saved v2 stream with its trailing support block (u32 size + bytes)
// replaced by one declaring `declared` bytes and carrying `present` of them.
// Older writers filled the block with the label bigrams seen in training.
std::string WithSupportBlock(const CrfModel& model, uint32_t declared,
                             size_t present) {
  std::stringstream ss;
  model.Save(ss);
  std::string bytes = ss.str();
  bytes.resize(bytes.size() - 4);  // Save writes an empty block
  for (int shift = 0; shift < 32; shift += 8) {
    bytes.push_back(static_cast<char>((declared >> shift) & 0xFF));
  }
  bytes.append(present, '\x01');
  return bytes;
}

TEST(ModelSerializationTest, FullSupportBlockLoadsLikeEmptyBlock) {
  const CrfModel model = RandomModel(3, 4, 91);
  std::stringstream empty_block;
  model.Save(empty_block);
  std::stringstream full_block(WithSupportBlock(model, 9, 9));
  const CrfModel a = CrfModel::Load(empty_block);
  const CrfModel b = CrfModel::Load(full_block);
  EXPECT_EQ(a.weights(), b.weights());
  for (uint64_t seed = 0; seed < 8; ++seed) {
    const CompiledSequence seq = RandomSequence(a, 7, 300 + seed);
    const ViterbiResult da = Decode(a.ComputeScores(seq));
    const ViterbiResult db = Decode(b.ComputeScores(seq));
    EXPECT_EQ(da.labels, db.labels);
    EXPECT_EQ(da.score, db.score);
  }
  // Re-saving drops the block: both load to the same bytes.
  std::stringstream resaved_a;
  std::stringstream resaved_b;
  a.Save(resaved_a);
  b.Save(resaved_b);
  EXPECT_EQ(resaved_a.str(), resaved_b.str());
}

TEST(ModelSerializationTest, RejectsWrongSizeSupport) {
  const CrfModel model = RandomModel(3, 4, 92);
  // Only 0 and L*L = 9 are valid; the block is present in full each time
  // (except for the huge claim), so only the size check can reject it.
  for (const uint32_t declared : {1u, 5u, 8u, 10u, 81u}) {
    std::stringstream ss(WithSupportBlock(model, declared, declared));
    EXPECT_THROW(CrfModel::Load(ss), std::runtime_error)
        << "declared=" << declared;
  }
  std::stringstream huge(WithSupportBlock(model, 0xFFFFFFFFu, 16));
  EXPECT_THROW(CrfModel::Load(huge), std::runtime_error);
}

TEST(ModelSerializationTest, RejectsTruncatedSupport) {
  const CrfModel model = RandomModel(3, 4, 94);
  for (const size_t present : {size_t{0}, size_t{1}, size_t{8}}) {
    std::stringstream ss(WithSupportBlock(model, 9, present));
    EXPECT_THROW(CrfModel::Load(ss), std::runtime_error)
        << "present=" << present;
  }
}

TEST(ModelSerializationTest, LoadsVersion1StreamsWithoutSupport) {
  // A v1 stream is a v2 stream with the version field rewound and the
  // trailing support block (an empty one: a u32 size of 0) cut off.
  const CrfModel model = RandomModel(4, 7, 93);
  std::stringstream ss;
  model.Save(ss);
  std::string bytes = ss.str();
  bytes[4] = 1;  // version u32 (little-endian) follows the 4-byte magic
  bytes.resize(bytes.size() - 4);
  std::stringstream v1(bytes);
  const CrfModel loaded = CrfModel::Load(v1);
  EXPECT_EQ(loaded.weights(), model.weights());
}

TEST(InferenceEdgeCases, SingleLineSequence) {
  CrfModel model = RandomModel(3, 3, 5);
  CompiledSequence seq(1);
  seq[0].attrs = {0, 1};
  const auto scores = model.ComputeScores(seq);
  const Posteriors post = ForwardBackward(scores);
  double sum = 0.0;
  for (int j = 0; j < 3; ++j) sum += post.node[static_cast<size_t>(j)];
  EXPECT_NEAR(sum, 1.0, 1e-9);
  EXPECT_EQ(Decode(scores).labels.size(), 1u);
}

TEST(InferenceEdgeCases, EmptySequenceThrows) {
  CrfModel model = RandomModel(3, 3, 6);
  const CrfModel::Scores empty{};
  EXPECT_THROW(ForwardBackward(empty), std::invalid_argument);
  EXPECT_THROW(Decode(empty), std::invalid_argument);
  EXPECT_THROW(LogPartition(empty), std::invalid_argument);
}

TEST(InferenceEdgeCases, ParallelEvaluationMatchesSerial) {
  CrfModel model = RandomModel(4, 8, 42);
  Dataset data;
  util::Rng rng(43);
  for (int r = 0; r < 12; ++r) {
    const CompiledSequence seq = RandomSequence(model, 7, 500 + r);
    std::vector<int> gold;
    for (size_t t = 0; t < seq.size(); ++t) {
      gold.push_back(static_cast<int>(rng.UniformInt(0, 3)));
    }
    data.sequences.push_back(seq);
    data.labels.push_back(gold);
  }
  std::vector<double> grad_serial;
  std::vector<double> grad_parallel;
  CrfModel model2 = model;
  LogLikelihood serial(model, data, 1.5, nullptr);
  util::ThreadPool pool(4);
  LogLikelihood parallel(model2, data, 1.5, &pool);
  const double f1 = serial.Evaluate(model.weights(), grad_serial);
  const double f2 = parallel.Evaluate(model2.weights(), grad_parallel);
  EXPECT_NEAR(f1, f2, 1e-9);
  ASSERT_EQ(grad_serial.size(), grad_parallel.size());
  for (size_t k = 0; k < grad_serial.size(); ++k) {
    ASSERT_NEAR(grad_serial[k], grad_parallel[k], 1e-9) << "k=" << k;
  }
}


// --- PathLogProb -----------------------------------------------------------

// Dense random log-potentials: unary ~ N(0, unary_sd^2), pairwise
// ~ N(0, pair_sd^2).
CrfModel::Scores RandomScores(int L, int T, double unary_sd, double pair_sd,
                              uint64_t seed) {
  util::Rng rng(seed);
  CrfModel::Scores s;
  s.T = T;
  s.L = L;
  s.unary.resize(static_cast<size_t>(T) * L);
  for (double& u : s.unary) u = rng.Gaussian() * unary_sd;
  s.pairwise.resize(static_cast<size_t>(T) * L * L);
  for (double& p : s.pairwise) p = rng.Gaussian() * pair_sd;
  return s;
}

std::vector<int> RandomPath(int L, int T, util::Rng& rng) {
  std::vector<int> y(static_cast<size_t>(T));
  for (int& label : y) label = static_cast<int>(rng.UniformInt(0, L - 1));
  return y;
}

// The pairwise + unary potential of stepping from label i at t-1 to j at t.
long double Step(const CrfModel::Scores& s, int t, int i, int j) {
  return static_cast<long double>(s.PairRow(t)[i * s.L + j]) +
         s.unary[static_cast<size_t>(t) * s.L + j];
}

long double PathScoreLd(const CrfModel::Scores& s, const std::vector<int>& y) {
  long double score = s.unary[static_cast<size_t>(y[0])];
  for (int t = 1; t < s.T; ++t) {
    score += Step(s, t, y[static_cast<size_t>(t - 1)], y[static_cast<size_t>(t)]);
  }
  return score;
}

// -log1p(eps) by the same relative recursion as PathLogProb, in long
// double and with every factor exponentiated as one difference. Long
// double's range covers every case below, so it needs no rescaling.
long double LongDoubleLogProb(const CrfModel::Scores& s,
                              const std::vector<int>& y) {
  const int L = s.L;
  std::vector<long double> cur(static_cast<size_t>(L)), next(cur.size());
  for (int j = 0; j < L; ++j) {
    cur[static_cast<size_t>(j)] =
        j == y[0] ? 0.0L
                  : expl(static_cast<long double>(s.unary[static_cast<size_t>(j)]) -
                         s.unary[static_cast<size_t>(y[0])]);
  }
  for (int t = 1; t < s.T; ++t) {
    const int yp = y[static_cast<size_t>(t - 1)];
    const int yt = y[static_cast<size_t>(t)];
    const long double on = Step(s, t, yp, yt);
    for (int j = 0; j < L; ++j) {
      long double acc = 0.0L;
      for (int i = 0; i < L; ++i) {
        acc += cur[static_cast<size_t>(i)] * expl(Step(s, t, i, j) - on);
      }
      if (j != yt) acc += expl(Step(s, t, yp, j) - on);
      next[static_cast<size_t>(j)] = acc;
    }
    cur.swap(next);
  }
  long double eps = 0.0L;
  for (long double a : cur) eps += a;
  return -log1pl(eps);
}

// -log1p(eps) with eps = sum over every other path of exp(s(y') - s(y)).
long double BruteForceLogProb(const CrfModel::Scores& s,
                              const std::vector<int>& y) {
  const long double own = PathScoreLd(s, y);
  long double eps = 0.0L;
  std::vector<int> other(static_cast<size_t>(s.T), 0);
  while (true) {
    if (other != y) eps += expl(PathScoreLd(s, other) - own);
    int pos = 0;
    while (pos < s.T) {
      if (++other[static_cast<size_t>(pos)] < s.L) break;
      other[static_cast<size_t>(pos)] = 0;
      ++pos;
    }
    if (pos == s.T) break;
  }
  return -log1pl(eps);
}

double RelErr(double got, long double want) {
  if (want == 0.0L) return got == 0.0 ? 0.0 : 1.0;
  return static_cast<double>(fabsl((static_cast<long double>(got) - want) / want));
}

constexpr double kMaxRelErr = 1e-13;

TEST(PathLogProbTest, MatchesBruteForceEnumeration) {
  util::Rng rng(7);
  for (int L : {2, 3, 6, 12}) {
    for (int T = 1; T <= 6; ++T) {
      if (std::pow(L, T) > 3e5) continue;
      for (uint64_t seed = 0; seed < 3; ++seed) {
        const CrfModel::Scores s =
            RandomScores(L, T, 1.5, 1.0, 1000 * L + 10 * T + seed);
        std::vector<std::vector<int>> paths = {Decode(s).labels,
                                               RandomPath(L, T, rng)};
        Workspace ws;
        for (const std::vector<int>& y : paths) {
          const double got = PathLogProb(s, y, ws);
          EXPECT_LE(RelErr(got, BruteForceLogProb(s, y)), kMaxRelErr)
              << "L=" << L << " T=" << T << " seed=" << seed;
        }
      }
    }
  }
}

TEST(PathLogProbTest, MatchesLongDoubleReferenceFlatToPeaked) {
  struct Shape {
    double unary_sd, pair_sd;
  };
  // Flat (eps ~ L^T, past 2^512 for long records), moderate, and peaked.
  const Shape shapes[] = {{0.01, 0.01}, {1.5, 1.0}, {6.0, 3.0}};
  util::Rng rng(11);
  Workspace ws;  // reused across sizes, as the parse fast path does
  for (int L : {2, 6, 12}) {
    for (int T : {1, 2, 17, 64, 200}) {
      for (const Shape& shape : shapes) {
        const CrfModel::Scores s = RandomScores(
            L, T, shape.unary_sd, shape.pair_sd, 97 * L + T);
        std::vector<std::vector<int>> paths = {Decode(s).labels,
                                               RandomPath(L, T, rng)};
        for (const std::vector<int>& y : paths) {
          const double got = PathLogProb(s, y, ws);
          ASSERT_TRUE(std::isfinite(got));
          EXPECT_LE(got, 0.0);
          EXPECT_LE(RelErr(got, LongDoubleLogProb(s, y)), kMaxRelErr)
              << "L=" << L << " T=" << T << " unary_sd=" << shape.unary_sd;
        }
      }
    }
  }
}

TEST(PathLogProbTest, RescalesOutsideDoubleRange) {
  Workspace ws;
  // Flat, long: eps ~ 12^300 > DBL_MAX, so only the rescaled sum stays
  // finite. The +5000 offset on every unary score leaves every
  // probability unchanged but puts s(y) and log Z near 1.5e6, where the
  // fallback `score - log Z` keeps only ~1e-12 of log P's ~-745.
  CrfModel::Scores flat = RandomScores(12, 300, 0.01, 0.01, 5);
  for (double& u : flat.unary) u += 5000.0;
  util::Rng rng(3);
  for (const std::vector<int>& y : {Decode(flat).labels, RandomPath(12, 300, rng)}) {
    EXPECT_LE(RelErr(PathLogProb(flat, y, ws), LongDoubleLogProb(flat, y)),
              kMaxRelErr);
  }
  // Peaked: one path leads every position by ~400 nats, so eps ~ 1e-170
  // sits below 2^-512 from the first step on.
  CrfModel::Scores peaked = RandomScores(6, 120, 1.0, 1.0, 6);
  const std::vector<int> y = RandomPath(6, 120, rng);
  for (int t = 0; t < peaked.T; ++t) {
    peaked.unary[static_cast<size_t>(t) * 6 + y[static_cast<size_t>(t)]] += 400.0;
  }
  const double got = PathLogProb(peaked, y, ws);
  EXPECT_LT(got, 0.0);
  EXPECT_GT(got, -1e-150);
  EXPECT_LE(RelErr(got, LongDoubleLogProb(peaked, y)), kMaxRelErr);
}

TEST(PathLogProbTest, FallsBackToLogPartitionBeyondExpRange) {
  CrfModel model = RandomModel(4, 5, 17);
  model.weights()[model.TransitionIndex(1, 2)] = -800.0;
  const CompiledSequence seq = RandomSequence(model, 9, 18);
  const CrfModel::Scores scores = model.ComputeScores(seq);
  // A path through the -800 transition: exp(-800) is 0 in double, so the
  // exp-domain frame cannot be formed and the log-domain form answers.
  std::vector<int> through = {0, 1, 2, 3, 0, 1, 2, 1, 0};
  double score = 0.0;
  for (int t = 0; t < scores.T; ++t) {
    score += scores.unary[static_cast<size_t>(t) * 4 + through[static_cast<size_t>(t)]];
    if (t >= 1) {
      score += scores.PairRow(t)[through[static_cast<size_t>(t - 1)] * 4 +
                                 through[static_cast<size_t>(t)]];
    }
  }
  Workspace ws;
  EXPECT_EQ(PathLogProb(scores, through, ws), score - LogPartition(scores));
  // The Viterbi path avoids it; the vanished alternatives weigh nothing.
  const std::vector<int> best = Decode(scores).labels;
  EXPECT_LE(RelErr(PathLogProb(scores, best, ws),
                   LongDoubleLogProb(scores, best)),
            kMaxRelErr);
}

TEST(PathLogProbTest, SuppliedExpRowsGiveTheSameBits) {
  // Row tables the way the WHOIS fast path builds them: shared blocks
  // through pair_rows, with exp_pair_rows holding their std::exp.
  CrfModel model = RandomModel(6, 8, 21);
  const CompiledSequence seq = RandomSequence(model, 40, 22);
  const CrfModel::Scores dense = model.ComputeScores(seq);
  CrfModel::Scores rows = dense;
  std::vector<std::vector<double>> exp_blocks(seq.size());
  rows.pair_rows.assign(seq.size(), nullptr);
  rows.exp_pair_rows.assign(seq.size(), nullptr);
  for (int t = 1; t < dense.T; ++t) {
    rows.pair_rows[static_cast<size_t>(t)] = dense.PairRow(t);
    for (int ij = 0; ij < 36; ++ij) {
      exp_blocks[static_cast<size_t>(t)].push_back(std::exp(dense.PairRow(t)[ij]));
    }
    rows.exp_pair_rows[static_cast<size_t>(t)] = exp_blocks[static_cast<size_t>(t)].data();
  }
  Workspace ws;
  const std::vector<int> y = Decode(dense).labels;
  EXPECT_EQ(PathLogProb(rows, y, ws), PathLogProb(dense, y, ws));
}

TEST(PathLogProbTest, EveryTaggerPathReportsTheSameDouble) {
  CrfModel model = RandomModel(5, 10, 31);
  const Tagger tagger(model);
  for (uint64_t r = 0; r < 20; ++r) {
    const CompiledSequence seq = RandomSequence(model, 3 + static_cast<int>(r), 40 + r);
    std::vector<text::LineAttributes> lines;
    for (const CompiledItem& item : seq) {
      text::LineAttributes attrs;
      for (int a : item.attrs) {
        attrs.attrs.push_back(model.vocab().Name(a));
        attrs.transition.push_back(std::find(item.trans_slots.begin(),
                                             item.trans_slots.end(), a) !=
                                   item.trans_slots.end());
      }
      lines.push_back(std::move(attrs));
    }
    const TagResult classic = tagger.TagWithConfidence(lines);
    const CrfModel::Scores scores = model.ComputeScores(model.Compile(lines));
    EXPECT_EQ(classic.sequence_log_prob,
              SequenceLogProb(scores, classic.labels)) << r;
    EXPECT_LE(RelErr(classic.sequence_log_prob,
                     LongDoubleLogProb(scores, classic.labels)),
              kMaxRelErr) << r;
  }
}

TEST(PathLogProbTest, WhoisParsePathsAgreeOnDriftedCorpus) {
  // Train on the pre-drift era, parse records from every era: Parse,
  // ParseStream and ParseNaive, and the level-1 tagger on the same lines,
  // must report one double, within 1e-13 of the reference; LabelLines
  // must return ParseNaive's labels.
  datagen::TemporalCorpusOptions options;
  options.size = 600;
  options.seed = 19;
  const datagen::TemporalCorpusGenerator generator(options);
  std::vector<whois::LabeledRecord> train;
  for (size_t i = 0; i < 100; ++i) train.push_back(generator.Generate(i).thick);
  const whois::WhoisParser parser = whois::WhoisParser::Train(train);

  std::vector<std::string> records;
  for (size_t i = 100; i < options.size; i += 5) {
    records.push_back(generator.Generate(i).thick.text);
  }
  std::vector<double> streamed;
  whois::StreamPipelineOptions stream_options;
  stream_options.threads = 2;
  whois::VectorRecordSource source(records);
  whois::ParseStream(parser, source, stream_options,
                     [&](uint64_t, const std::string&,
                         const whois::ParsedWhois& parsed) {
                       streamed.push_back(parsed.log_prob);
                     });
  ASSERT_EQ(streamed.size(), records.size());
  const text::Tokenizer tokenizer(parser.options().tokenizer);
  const CrfModel& level1 = parser.level1_model();
  const Tagger tagger(level1);
  whois::ParseWorkspace pws;
  for (size_t r = 0; r < records.size(); ++r) {
    const double fast = parser.Parse(records[r], pws).log_prob;
    EXPECT_EQ(streamed[r], fast) << r;
    EXPECT_EQ(parser.ParseNaive(records[r]).log_prob, fast) << r;

    const std::vector<text::Line> lines = text::SplitRecord(records[r]);
    ASSERT_FALSE(lines.empty());
    std::vector<text::LineAttributes> attrs;
    for (const text::Line& line : lines) attrs.push_back(tokenizer.Extract(line));
    const TagResult classic = tagger.TagWithConfidence(attrs);
    EXPECT_EQ(classic.sequence_log_prob, fast) << r;
    // The evaluation path (LabelLines) against the reference parse.
    EXPECT_EQ(parser.LabelLines(records[r]),
              parser.ParseNaive(records[r]).line_labels) << r;

    const CrfModel::Scores scores = level1.ComputeScores(level1.Compile(attrs));
    EXPECT_LE(RelErr(fast, LongDoubleLogProb(scores, classic.labels)),
              kMaxRelErr) << r;
  }
}

// --- ForwardBackward ---------------------------------------------------------

// Dense scores drawn uniformly from [-magnitude, magnitude].
CrfModel::Scores UniformScores(int L, int T, double magnitude, uint64_t seed) {
  util::Rng rng(seed);
  CrfModel::Scores s;
  s.T = T;
  s.L = L;
  s.unary.resize(static_cast<size_t>(T) * L);
  s.pairwise.resize(static_cast<size_t>(T) * L * L);
  for (double& u : s.unary) {
    u = (2.0 * rng.UniformDouble() - 1.0) * magnitude;
  }
  for (double& p : s.pairwise) {
    p = (2.0 * rng.UniformDouble() - 1.0) * magnitude;
  }
  return s;
}

// Largest |got - want| over two equally sized vectors.
double MaxAbsDiff(const std::vector<double>& got,
                  const std::vector<double>& want) {
  EXPECT_EQ(got.size(), want.size());
  double worst = 0.0;
  for (size_t k = 0; k < got.size() && k < want.size(); ++k) {
    worst = std::max(worst, std::fabs(got[k] - want[k]));
  }
  return worst;
}

bool SameBits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

// Node and edge marginals by enumerating all L^T paths in long double.
Posteriors BruteForcePosteriors(const CrfModel::Scores& s) {
  const int T = s.T;
  const int L = s.L;
  const size_t LL = static_cast<size_t>(L) * L;
  std::vector<long double> node(static_cast<size_t>(T) * L, 0.0L);
  std::vector<long double> edge(static_cast<size_t>(T) * LL, 0.0L);
  const long double log_z = LogPartitionBruteForce(s);
  std::vector<int> y(static_cast<size_t>(T), 0);
  while (true) {
    const long double p = expl(PathScoreLd(s, y) - log_z);
    for (int t = 0; t < T; ++t) {
      node[static_cast<size_t>(t) * L + y[static_cast<size_t>(t)]] += p;
      if (t >= 1) {
        edge[static_cast<size_t>(t) * LL +
             static_cast<size_t>(y[static_cast<size_t>(t - 1)]) * L +
             y[static_cast<size_t>(t)]] += p;
      }
    }
    int pos = 0;
    while (pos < T) {
      if (++y[static_cast<size_t>(pos)] < L) break;
      y[static_cast<size_t>(pos)] = 0;
      ++pos;
    }
    if (pos == T) break;
  }
  Posteriors post;
  post.T = T;
  post.L = L;
  post.log_z = static_cast<double>(log_z);
  post.node.assign(node.begin(), node.end());
  post.edge.assign(edge.begin(), edge.end());
  return post;
}

// The log-domain forward-backward in long double: LogDomainForwardBackward's
// recursion with 11 more bits, so its marginals are exact to ~1e-15 where
// the double recursion's exp(alpha + beta - log Z) loses the digits of
// |log Z| (~1e-11 at |log Z| ~ 2e4).
Posteriors LongDoublePosteriors(const CrfModel::Scores& s) {
  const int T = s.T;
  const int L = s.L;
  const size_t LL = static_cast<size_t>(L) * L;
  const auto lse = [](const std::vector<long double>& v) {
    const long double m = *std::max_element(v.begin(), v.end());
    long double sum = 0.0L;
    for (long double x : v) sum += expl(x - m);
    return m + logl(sum);
  };
  std::vector<long double> alpha(static_cast<size_t>(T) * L);
  std::vector<long double> beta(static_cast<size_t>(T) * L, 0.0L);
  std::vector<long double> terms(static_cast<size_t>(L));
  for (int j = 0; j < L; ++j) {
    alpha[static_cast<size_t>(j)] = s.unary[static_cast<size_t>(j)];
  }
  for (int t = 1; t < T; ++t) {
    for (int j = 0; j < L; ++j) {
      for (int i = 0; i < L; ++i) {
        terms[static_cast<size_t>(i)] =
            alpha[static_cast<size_t>(t - 1) * L + i] + Step(s, t, i, j);
      }
      alpha[static_cast<size_t>(t) * L + j] = lse(terms);
    }
  }
  for (int t = T - 2; t >= 0; --t) {
    for (int i = 0; i < L; ++i) {
      for (int j = 0; j < L; ++j) {
        terms[static_cast<size_t>(j)] =
            Step(s, t + 1, i, j) + beta[static_cast<size_t>(t + 1) * L + j];
      }
      beta[static_cast<size_t>(t) * L + i] = lse(terms);
    }
  }
  const long double log_z = lse(std::vector<long double>(
      alpha.end() - L, alpha.end()));
  Posteriors post;
  post.T = T;
  post.L = L;
  post.log_z = static_cast<double>(log_z);
  post.node.resize(static_cast<size_t>(T) * L);
  post.edge.assign(static_cast<size_t>(T) * LL, 0.0);
  for (size_t k = 0; k < post.node.size(); ++k) {
    post.node[k] = static_cast<double>(expl(alpha[k] + beta[k] - log_z));
  }
  for (int t = 1; t < T; ++t) {
    for (int i = 0; i < L; ++i) {
      for (int j = 0; j < L; ++j) {
        const long double log_p = alpha[static_cast<size_t>(t - 1) * L + i] +
                                  Step(s, t, i, j) +
                                  beta[static_cast<size_t>(t) * L + j] - log_z;
        post.edge[static_cast<size_t>(t) * LL + static_cast<size_t>(i) * L +
                  j] = static_cast<double>(expl(log_p));
      }
    }
  }
  return post;
}

constexpr double kMarginalTol = 1e-12;

// The scaled recursion against the log-domain one, in double
// (LogDomainForwardBackward) and in long double. The double reference's
// marginals, exp(alpha + beta - log Z), carry a few ulps of |log Z|
// (~1.5e-11 at |log Z| ~ 2e4), so against it the marginal bound widens by
// 1e-15 |log Z|; against the long-double recursion it is 1e-12 flat.
TEST(ForwardBackwardTest, MatchesLogDomainReferenceOnRandomScores) {
  Workspace ws;
  Workspace ref_ws;
  for (int L : {6, 12}) {
    for (int T = 1; T <= 60; ++T) {
      for (double magnitude : {0.5, 5.0, 50.0, 200.0}) {
        SCOPED_TRACE(testing::Message() << "L=" << L << " T=" << T
                                        << " magnitude=" << magnitude);
        const CrfModel::Scores s = UniformScores(
            L, T, magnitude, 7919u * static_cast<uint64_t>(T) + L);
        const Posteriors& got = ForwardBackward(s, ws);
        const Posteriors& want = LogDomainForwardBackward(s, ref_ws);
        ASSERT_EQ(got.T, T);
        ASSERT_EQ(got.L, L);
        const double z_scale = std::max(1.0, std::fabs(want.log_z));
        EXPECT_LE(std::fabs(got.log_z - want.log_z), 1e-12 * z_scale);
        EXPECT_LE(MaxAbsDiff(got.node, want.node),
                  kMarginalTol + 1e-15 * z_scale);
        EXPECT_LE(MaxAbsDiff(got.edge, want.edge),
                  kMarginalTol + 1e-15 * z_scale);

        const Posteriors exact = LongDoublePosteriors(s);
        EXPECT_LE(std::fabs(got.log_z - exact.log_z), 1e-12 * z_scale);
        EXPECT_LE(MaxAbsDiff(got.node, exact.node), kMarginalTol);
        EXPECT_LE(MaxAbsDiff(got.edge, exact.edge), kMarginalTol);
      }
    }
  }
}

TEST(ForwardBackwardTest, MatchesBruteForceEnumeration) {
  Workspace ws;
  for (int L : {6, 12}) {
    for (int T = 1; std::pow(L, T) <= 3e5; ++T) {
      for (double magnitude : {1.0, 30.0, 200.0}) {
        SCOPED_TRACE(testing::Message() << "L=" << L << " T=" << T
                                        << " magnitude=" << magnitude);
        const CrfModel::Scores s = UniformScores(L, T, magnitude, 31u * T + L);
        const Posteriors& got = ForwardBackward(s, ws);
        const Posteriors brute = BruteForcePosteriors(s);
        EXPECT_LE(std::fabs(got.log_z - brute.log_z),
                  1e-12 * std::max(1.0, std::fabs(brute.log_z)));
        EXPECT_LE(MaxAbsDiff(got.node, brute.node), kMarginalTol);
        EXPECT_LE(MaxAbsDiff(got.edge, brute.edge), kMarginalTol);
      }
    }
  }
}

TEST(ForwardBackwardTest, WithoutEdgesKeepsNodesAndLogZ) {
  const CrfModel::Scores s = UniformScores(12, 40, 20.0, 5);
  Workspace ws;
  const Posteriors full = ForwardBackward(s, ws, /*with_edges=*/true);
  const Posteriors& nodes = ForwardBackward(s, ws, /*with_edges=*/false);
  EXPECT_TRUE(nodes.edge.empty());
  EXPECT_EQ(nodes.log_z, full.log_z);
  EXPECT_TRUE(SameBits(nodes.node, full.node));
}

TEST(ForwardBackwardTest, SuppliedExpRowsGiveTheSameBits) {
  // Shared blocks through pair_rows and their std::exp through
  // exp_pair_rows, as LogLikelihood's block table supplies them.
  const CrfModel::Scores dense = UniformScores(6, 30, 40.0, 11);
  CrfModel::Scores rows = dense;
  const size_t LL = 36;
  std::vector<double> exp_blocks(static_cast<size_t>(dense.T) * LL);
  rows.pair_rows.assign(static_cast<size_t>(dense.T), nullptr);
  rows.exp_pair_rows.assign(static_cast<size_t>(dense.T), nullptr);
  for (int t = 1; t < dense.T; ++t) {
    double* block = &exp_blocks[static_cast<size_t>(t) * LL];
    for (size_t ij = 0; ij < LL; ++ij) {
      block[ij] = std::exp(dense.PairRow(t)[ij]);
    }
    rows.pair_rows[static_cast<size_t>(t)] = dense.PairRow(t);
    rows.exp_pair_rows[static_cast<size_t>(t)] = block;
  }
  Workspace ws;
  const Posteriors own = ForwardBackward(dense, ws);
  const Posteriors& supplied = ForwardBackward(rows, ws);
  EXPECT_EQ(supplied.log_z, own.log_z);
  EXPECT_TRUE(SameBits(supplied.node, own.node));
  EXPECT_TRUE(SameBits(supplied.edge, own.edge));
}

TEST(ForwardBackwardTest, PairwiseBeyondExpRangeTakesTheLogDomainFallback) {
  // exp(800) overflows, so the scaled recursion cannot run; the sequence
  // must come back exactly as the log-domain recursion computes it.
  CrfModel::Scores s = UniformScores(6, 25, 5.0, 13);
  s.pairwise[static_cast<size_t>(9) * 36 + 2 * 6 + 4] = 800.0;
  Workspace ws;
  Workspace ref_ws;
  const Posteriors& got = ForwardBackward(s, ws);
  const Posteriors& want = LogDomainForwardBackward(s, ref_ws);
  EXPECT_EQ(got.log_z, want.log_z);
  EXPECT_TRUE(SameBits(got.node, want.node));
  EXPECT_TRUE(SameBits(got.edge, want.edge));
  EXPECT_TRUE(std::isfinite(got.log_z));
  EXPECT_NEAR(got.node[static_cast<size_t>(9) * 6 + 4], 1.0, 1e-12);

  // The same through LogPartition, and with no edges requested.
  EXPECT_EQ(LogPartition(s), want.log_z);
  EXPECT_TRUE(SameBits(ForwardBackward(s, ws, false).node, want.node));
}

TEST(ForwardBackwardTest, BackwardOverflowTakesTheLogDomainFallback) {
  // Every forward scale is finite (c_1 ~ e^-700), but label 1 at t=0 has
  // forward weight exp(-1500) = 0 and backward weight e^1400 = inf, whose
  // product is NaN in the exp domain.
  CrfModel::Scores s;
  s.T = 3;
  s.L = 2;
  s.unary = {0.0, -1500.0, 0.0, 0.0, 0.0, 0.0};
  s.pairwise.assign(3 * 4, 0.0);
  const double block[4] = {-700.0, -700.0, 700.0, 700.0};
  std::copy(block, block + 4, s.pairwise.begin() + 4);
  Workspace ws;
  Workspace ref_ws;
  const Posteriors& got = ForwardBackward(s, ws);
  const Posteriors& want = LogDomainForwardBackward(s, ref_ws);
  EXPECT_EQ(got.log_z, want.log_z);
  EXPECT_TRUE(SameBits(got.node, want.node));
  EXPECT_TRUE(SameBits(got.edge, want.edge));
  for (double p : got.node) EXPECT_TRUE(std::isfinite(p));
}

// One LogLikelihood::Evaluate through the block table against the
// objective computed the dense way: ComputeScores per sequence, the
// log-domain marginals, and every feature's expected count added per
// position.
TEST(ForwardBackwardTest, BlockTableEvaluateMatchesDenseReference) {
  CrfModel model = RandomModel(6, 10, 77);
  for (double& w : model.weights()) w *= 3.0;
  Dataset data;
  util::Rng rng(78);
  for (int r = 0; r < 24; ++r) {
    const int length = static_cast<int>(rng.UniformInt(1, 40));
    data.sequences.push_back(RandomSequence(model, length, 900 + r));
    std::vector<int> gold;
    for (size_t t = 0; t < data.sequences.back().size(); ++t) {
      gold.push_back(static_cast<int>(rng.UniformInt(0, 5)));
    }
    data.labels.push_back(std::move(gold));
  }
  const double sigma = 2.0;
  const int L = model.num_labels();
  std::vector<double> ref_grad(model.num_weights(), 0.0);
  double ref_nll = 0.0;
  Workspace ws;
  for (size_t r = 0; r < data.size(); ++r) {
    const CompiledSequence& seq = data.sequences[r];
    const std::vector<int>& gold = data.labels[r];
    const CrfModel::Scores scores = model.ComputeScores(seq);
    const Posteriors& post = LogDomainForwardBackward(scores, ws);
    ref_nll += post.log_z;
    for (size_t t = 0; t < seq.size(); ++t) {
      ref_nll -= scores.unary[t * L + gold[t]];
      for (int attr : seq[t].attrs) {
        for (int j = 0; j < L; ++j) {
          ref_grad[model.UnigramIndex(attr, j)] += post.node[t * L + j];
        }
        ref_grad[model.UnigramIndex(attr, gold[t])] -= 1.0;
      }
      if (t == 0) continue;
      ref_nll -= scores.PairRow(static_cast<int>(t))[gold[t - 1] * L + gold[t]];
      for (int i = 0; i < L; ++i) {
        for (int j = 0; j < L; ++j) {
          const double e = post.edge[t * L * L + i * L + j];
          ref_grad[model.TransitionIndex(i, j)] += e;
          for (int slot : seq[t].trans_slots) {
            ref_grad[model.ObservedTransitionIndex(slot, i, j)] += e;
          }
        }
      }
      ref_grad[model.TransitionIndex(gold[t - 1], gold[t])] -= 1.0;
      for (int slot : seq[t].trans_slots) {
        ref_grad[model.ObservedTransitionIndex(slot, gold[t - 1], gold[t])] -=
            1.0;
      }
    }
  }
  const std::vector<double> w = model.weights();
  for (size_t k = 0; k < w.size(); ++k) {
    ref_nll += 0.5 * w[k] * w[k] / (sigma * sigma);
    ref_grad[k] += w[k] / (sigma * sigma);
  }

  util::ThreadPool pool(3);
  for (util::ThreadPool* p : {static_cast<util::ThreadPool*>(nullptr), &pool}) {
    SCOPED_TRACE(p == nullptr ? "serial" : "pool");
    CrfModel copy = model;
    LogLikelihood objective(copy, data, sigma, p);
    std::vector<double> grad;
    const double nll = objective.Evaluate(w, grad);
    EXPECT_LE(std::fabs(nll - ref_nll), 1e-10 * std::fabs(ref_nll));
    ASSERT_EQ(grad.size(), ref_grad.size());
    for (size_t k = 0; k < grad.size(); ++k) {
      ASSERT_LE(std::fabs(grad[k] - ref_grad[k]),
                1e-10 * std::max(1.0, std::fabs(ref_grad[k])))
          << "k=" << k;
    }
  }
}

}  // namespace
}  // namespace whoiscrf::crf
