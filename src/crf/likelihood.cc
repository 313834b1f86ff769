#include "crf/likelihood.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <stdexcept>

#include "crf/inference.h"
#include "crf/workspace.h"

namespace whoiscrf::crf {

namespace {

// The sequences are split into this many shards, balanced by position
// count. A constant, so the split and with it the gradient's summation
// order are the same at every thread count; 16 leaves a few shards per
// thread for the fork-join to balance on the machines training runs on.
constexpr size_t kShards = 16;

// Sets `distinct` to the sorted distinct values of `ids` (at its exact
// size: shards keep it for the whole training run); returns each id's
// index in it.
std::vector<uint32_t> LocalRows(const std::vector<int>& ids,
                                std::vector<int>& distinct) {
  std::vector<int> sorted = ids;
  std::sort(sorted.begin(), sorted.end());
  distinct.assign(sorted.begin(), std::unique(sorted.begin(), sorted.end()));
  std::vector<uint32_t> rows;
  rows.reserve(ids.size());
  for (int id : ids) {
    rows.push_back(static_cast<uint32_t>(
        std::lower_bound(distinct.begin(), distinct.end(), id) -
        distinct.begin()));
  }
  return rows;
}

}  // namespace

LogLikelihood::LogLikelihood(CrfModel& model, const Dataset& data,
                             double l2_sigma, util::ThreadPool* pool)
    : model_(model), data_(data), l2_sigma_(l2_sigma), pool_(pool) {
  if (data_.sequences.size() != data_.labels.size()) {
    throw std::invalid_argument("LogLikelihood: dataset size mismatch");
  }
  const int L = model_.num_labels();
  const size_t LL = static_cast<size_t>(L) * static_cast<size_t>(L);
  size_t positions = 0;
  for (size_t r = 0; r < data_.size(); ++r) {
    if (data_.sequences[r].size() != data_.labels[r].size()) {
      throw std::invalid_argument(
          "LogLikelihood: sequence/label length mismatch");
    }
    positions += data_.sequences[r].size();
  }

  // Empirical counts, and the block each position t >= 1 reads.
  empirical_.assign(model_.num_weights(), 0.0);
  std::map<std::vector<int>, int> block_ids;
  std::vector<std::vector<int>> block_of(data_.size());
  for (size_t r = 0; r < data_.size(); ++r) {
    const CompiledSequence& seq = data_.sequences[r];
    const std::vector<int>& gold = data_.labels[r];
    for (size_t t = 0; t < seq.size(); ++t) {
      for (int attr : seq[t].attrs) {
        empirical_[model_.UnigramIndex(attr, gold[t])] += 1.0;
      }
      if (t == 0) continue;
      empirical_[model_.TransitionIndex(gold[t - 1], gold[t])] += 1.0;
      for (int slot : seq[t].trans_slots) {
        empirical_[model_.ObservedTransitionIndex(slot, gold[t - 1],
                                                  gold[t])] += 1.0;
      }
      const auto [it, added] = block_ids.try_emplace(
          seq[t].trans_slots, static_cast<int>(block_slots_.size()));
      if (added) block_slots_.push_back(seq[t].trans_slots);
      block_of[r].push_back(it->second);
    }
  }
  log_blocks_.resize(block_slots_.size() * LL);
  exp_blocks_.resize(block_slots_.size() * LL);
  block_sums_.resize(block_slots_.size() * LL);

  // Shard s ends at the first sequence that takes the running position
  // count to (s + 1) / kShards of the total; empty shards are dropped.
  size_t r = 0;
  size_t seen = 0;
  for (size_t s = 0; s < kShards && r < data_.size(); ++s) {
    Shard shard;
    shard.begin = r;
    const size_t target = (s + 1) * positions / kShards;
    while (r < data_.size() && (seen < target || s + 1 == kShards)) {
      seen += data_.sequences[r].size();
      ++r;
    }
    shard.end = r;
    if (shard.begin == shard.end) continue;
    std::vector<int> attrs;
    std::vector<int> blocks;
    for (size_t q = shard.begin; q < shard.end; ++q) {
      for (const CompiledItem& item : data_.sequences[q]) {
        attrs.insert(attrs.end(), item.attrs.begin(), item.attrs.end());
      }
      blocks.insert(blocks.end(), block_of[q].begin(), block_of[q].end());
    }
    shard.attr_rows = LocalRows(attrs, shard.attrs);
    shard.block_rows = LocalRows(blocks, shard.blocks);
    shard.node_sums.resize(shard.attrs.size() * static_cast<size_t>(L));
    shard.edge_sums.resize(shard.blocks.size() * LL);
    shards_.push_back(std::move(shard));
  }
  workspaces_.resize(pool_ != nullptr ? pool_->size() + 1 : 1);
  log_z_.resize(data_.size());
}

LogLikelihood::~LogLikelihood() = default;

void LogLikelihood::AccumulateShard(Shard& shard, Workspace& ws) {
  const int L = model_.num_labels();
  const size_t LL = static_cast<size_t>(L) * static_cast<size_t>(L);
  std::fill(shard.node_sums.begin(), shard.node_sums.end(), 0.0);
  std::fill(shard.edge_sums.begin(), shard.edge_sums.end(), 0.0);
  const uint32_t* attr_row = shard.attr_rows.data();
  const uint32_t* block_row = shard.block_rows.data();
  for (size_t r = shard.begin; r < shard.end; ++r) {
    const CompiledSequence& seq = data_.sequences[r];
    log_z_[r] = 0.0;
    if (seq.empty()) continue;
    const int T = static_cast<int>(seq.size());
    // Unary rows per position; pairwise rows point into the block table.
    CrfModel::Scores& scores = ws.scores;
    scores.T = T;
    scores.L = L;
    scores.unary.resize(static_cast<size_t>(T) * L);
    scores.pairwise.clear();
    scores.pair_rows.assign(static_cast<size_t>(T), nullptr);
    scores.exp_pair_rows.assign(static_cast<size_t>(T), nullptr);
    for (size_t t = 0; t < seq.size(); ++t) {
      model_.UnaryScores(seq[t], &scores.unary[t * static_cast<size_t>(L)]);
      if (t == 0) continue;
      const size_t b = static_cast<size_t>(shard.blocks[block_row[t - 1]]);
      scores.pair_rows[t] = &log_blocks_[b * LL];
      scores.exp_pair_rows[t] = &exp_blocks_[b * LL];
    }
    const Posteriors& post = ForwardBackward(scores, ws, /*with_edges=*/true);
    log_z_[r] = post.log_z;

    for (size_t t = 0; t < seq.size(); ++t) {
      const double* node_t = &post.node[t * static_cast<size_t>(L)];
      for (size_t k = 0; k < seq[t].attrs.size(); ++k) {
        double* row = &shard.node_sums[*attr_row++ * static_cast<size_t>(L)];
        for (int j = 0; j < L; ++j) row[j] += node_t[j];
      }
      if (t == 0) continue;
      const double* edge_t = &post.edge[t * LL];
      double* sum = &shard.edge_sums[*block_row++ * LL];
      for (size_t ij = 0; ij < LL; ++ij) sum[ij] += edge_t[ij];
    }
  }
}

double LogLikelihood::Evaluate(const std::vector<double>& w,
                               std::vector<double>& grad) {
  if (w.size() != model_.num_weights()) {
    throw std::invalid_argument("LogLikelihood::Evaluate: bad weight size");
  }
  model_.weights() = w;
  const int L = model_.num_labels();
  const size_t LL = static_cast<size_t>(L) * static_cast<size_t>(L);
  for (size_t b = 0; b < block_slots_.size(); ++b) {
    double* log_block = &log_blocks_[b * LL];
    model_.PairwiseScores(block_slots_[b], log_block);
    double* exp_block = &exp_blocks_[b * LL];
    for (size_t ij = 0; ij < LL; ++ij) exp_block[ij] = std::exp(log_block[ij]);
  }

  if (pool_ != nullptr) {
    pool_->ForkJoin(shards_.size(), [this](size_t s, size_t slot) {
      AccumulateShard(shards_[s], workspaces_[slot]);
    });
  } else {
    for (Shard& shard : shards_) AccumulateShard(shard, workspaces_[0]);
  }

  // Expected counts: the shards' rows in shard order, then each block's
  // edge sum into the base transition rows and its slots' rows.
  grad.assign(w.size(), 0.0);
  std::fill(block_sums_.begin(), block_sums_.end(), 0.0);
  for (const Shard& shard : shards_) {
    for (size_t i = 0; i < shard.attrs.size(); ++i) {
      double* g = &grad[model_.UnigramIndex(shard.attrs[i], 0)];
      const double* sum = &shard.node_sums[i * static_cast<size_t>(L)];
      for (int j = 0; j < L; ++j) g[j] += sum[j];
    }
    for (size_t i = 0; i < shard.blocks.size(); ++i) {
      double* total = &block_sums_[static_cast<size_t>(shard.blocks[i]) * LL];
      const double* sum = &shard.edge_sums[i * LL];
      for (size_t ij = 0; ij < LL; ++ij) total[ij] += sum[ij];
    }
  }
  double* base = &grad[model_.TransitionIndex(0, 0)];
  for (size_t b = 0; b < block_slots_.size(); ++b) {
    const double* sum = &block_sums_[b * LL];
    for (size_t ij = 0; ij < LL; ++ij) base[ij] += sum[ij];
    for (int slot : block_slots_[b]) {
      double* g = &grad[model_.ObservedTransitionIndex(slot, 0, 0)];
      for (size_t ij = 0; ij < LL; ++ij) g[ij] += sum[ij];
    }
  }

  // NLL = sum log Z - w . empirical + penalty; the gradient gains the
  // prior's w / sigma^2 and loses the empirical counts.
  const double inv_var = l2_sigma_ > 0.0 ? 1.0 / (l2_sigma_ * l2_sigma_) : 0.0;
  double penalty = 0.0;
  double gold_score = 0.0;
  for (size_t k = 0; k < w.size(); ++k) {
    penalty += w[k] * w[k];
    gold_score += w[k] * empirical_[k];
    grad[k] += w[k] * inv_var - empirical_[k];
  }
  double log_z = 0.0;
  for (double z : log_z_) log_z += z;
  return log_z - gold_score + 0.5 * penalty * inv_var;
}

}  // namespace whoiscrf::crf
