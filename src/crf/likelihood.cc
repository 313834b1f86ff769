#include "crf/likelihood.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <stdexcept>

#include "crf/inference.h"
#include "crf/workspace.h"

namespace whoiscrf::crf {

LogLikelihood::LogLikelihood(CrfModel& model, const Dataset& data,
                             double l2_sigma, util::ThreadPool* pool)
    : model_(model), data_(data), l2_sigma_(l2_sigma), pool_(pool) {
  if (data_.sequences.size() != data_.labels.size()) {
    throw std::invalid_argument("LogLikelihood: dataset size mismatch");
  }
  std::map<std::vector<int>, int> block_ids;
  block_of_.resize(data_.size());
  for (size_t r = 0; r < data_.size(); ++r) {
    const CompiledSequence& seq = data_.sequences[r];
    if (seq.size() != data_.labels[r].size()) {
      throw std::invalid_argument(
          "LogLikelihood: sequence/label length mismatch");
    }
    std::vector<int>& blocks = block_of_[r];
    blocks.assign(seq.size(), -1);  // position 0 has no pairwise block
    for (size_t t = 1; t < seq.size(); ++t) {
      const auto [it, added] = block_ids.try_emplace(
          seq[t].trans_slots, static_cast<int>(block_slots_.size()));
      if (added) block_slots_.push_back(seq[t].trans_slots);
      blocks[t] = it->second;
    }
  }
  const size_t LL = static_cast<size_t>(model_.num_labels()) *
                    static_cast<size_t>(model_.num_labels());
  log_blocks_.resize(block_slots_.size() * LL);
  exp_blocks_.resize(block_slots_.size() * LL);
}

void LogLikelihood::AccumulateSequence(size_t index, Workspace& ws,
                                       std::vector<double>& grad,
                                       double& nll) const {
  const CompiledSequence& seq = data_.sequences[index];
  const std::vector<int>& gold = data_.labels[index];
  if (seq.empty()) return;

  const std::vector<int>& blocks = block_of_[index];
  const int T = static_cast<int>(seq.size());
  const int L = model_.num_labels();
  const size_t LL = static_cast<size_t>(L) * static_cast<size_t>(L);
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
    const size_t b = static_cast<size_t>(blocks[t]);
    scores.pair_rows[t] = &log_blocks_[b * LL];
    scores.exp_pair_rows[t] = &exp_blocks_[b * LL];
  }
  const Posteriors& post = ForwardBackward(scores, ws, /*with_edges=*/true);

  // NLL contribution: log Z - theta . f(gold).
  double gold_score = 0.0;
  for (size_t t = 0; t < seq.size(); ++t) {
    gold_score += scores.unary[t * static_cast<size_t>(L) +
                               static_cast<size_t>(gold[t])];
    if (t >= 1) {
      const double* pair = scores.PairRow(static_cast<int>(t));
      gold_score += pair[static_cast<size_t>(gold[t - 1]) * L +
                         static_cast<size_t>(gold[t])];
    }
  }
  nll += post.log_z - gold_score;

  // Gradient: expected counts minus empirical counts, per feature.
  for (size_t t = 0; t < seq.size(); ++t) {
    const double* node_t = &post.node[t * static_cast<size_t>(L)];
    for (int attr : seq[t].attrs) {
      double* w = &grad[model_.UnigramIndex(attr, 0)];
      for (int j = 0; j < L; ++j) w[j] += node_t[j];
      grad[model_.UnigramIndex(attr, gold[t])] -= 1.0;
    }
    if (t == 0) continue;
    const double* edge_t = &post.edge[t * static_cast<size_t>(L * L)];
    {
      double* w = &grad[model_.TransitionIndex(0, 0)];
      for (int ij = 0; ij < L * L; ++ij) w[ij] += edge_t[ij];
      grad[model_.TransitionIndex(gold[t - 1], gold[t])] -= 1.0;
    }
    for (int slot : seq[t].trans_slots) {
      double* w = &grad[model_.ObservedTransitionIndex(slot, 0, 0)];
      for (int ij = 0; ij < L * L; ++ij) w[ij] += edge_t[ij];
      grad[model_.ObservedTransitionIndex(slot, gold[t - 1], gold[t])] -= 1.0;
    }
  }
}

double LogLikelihood::Evaluate(const std::vector<double>& w,
                               std::vector<double>& grad) {
  if (w.size() != model_.num_weights()) {
    throw std::invalid_argument("LogLikelihood::Evaluate: bad weight size");
  }
  model_.weights() = w;
  grad.assign(w.size(), 0.0);
  double nll = 0.0;
  const size_t LL = static_cast<size_t>(model_.num_labels()) *
                    static_cast<size_t>(model_.num_labels());
  for (size_t b = 0; b < block_slots_.size(); ++b) {
    double* log_block = &log_blocks_[b * LL];
    model_.PairwiseScores(block_slots_[b], log_block);
    double* exp_block = &exp_blocks_[b * LL];
    for (size_t ij = 0; ij < LL; ++ij) exp_block[ij] = std::exp(log_block[ij]);
  }

  if (pool_ == nullptr || pool_->size() <= 1 || data_.size() < 2) {
    Workspace ws;
    for (size_t r = 0; r < data_.size(); ++r) {
      AccumulateSequence(r, ws, grad, nll);
    }
  } else {
    const size_t chunks = std::min(data_.size(), pool_->size());
    std::vector<std::vector<double>> chunk_grads(
        chunks, std::vector<double>(w.size(), 0.0));
    std::vector<double> chunk_nll(chunks, 0.0);
    std::vector<Workspace> chunk_ws(chunks);
    pool_->ParallelChunks(data_.size(),
                          [&](size_t begin, size_t end, size_t chunk) {
                            for (size_t r = begin; r < end; ++r) {
                              AccumulateSequence(r, chunk_ws[chunk],
                                                 chunk_grads[chunk],
                                                 chunk_nll[chunk]);
                            }
                          });
    for (size_t c = 0; c < chunks; ++c) {
      nll += chunk_nll[c];
      const std::vector<double>& cg = chunk_grads[c];
      for (size_t k = 0; k < grad.size(); ++k) grad[k] += cg[k];
    }
  }

  if (l2_sigma_ > 0.0) {
    const double inv_var = 1.0 / (l2_sigma_ * l2_sigma_);
    double penalty = 0.0;
    for (size_t k = 0; k < w.size(); ++k) {
      penalty += w[k] * w[k];
      grad[k] += w[k] * inv_var;
    }
    nll += 0.5 * penalty * inv_var;
  }
  return nll;
}

}  // namespace whoiscrf::crf
