// CRF inference correctness: the dynamic programs of the paper's appendix
// are validated against brute-force enumeration, and the analytic gradient
// of the log-likelihood against finite differences.
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
#include "util/random.h"

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

}  // namespace
}  // namespace whoiscrf::crf
