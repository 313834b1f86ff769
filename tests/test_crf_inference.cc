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
    labels.push_back("L" + std::to_string(l));
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

}  // namespace
}  // namespace whoiscrf::crf
