// The training objective: negative conditional log-likelihood (negated
// eq. 4) with an L2 (Gaussian prior) penalty, and its exact analytic
// gradient via the forward-backward marginals (appendix, eq. 12).
//
// The gradient of the log-likelihood with respect to theta_k is the
// difference between empirical and expected feature counts; sequences are
// independent given theta, so the per-sequence terms are computed in
// parallel (the paper notes running a parallelized L-BFGS).
#pragma once

#include <vector>

#include "crf/model.h"
#include "util/thread_pool.h"

namespace whoiscrf::crf {

struct Workspace;  // crf/workspace.h

// A compiled training set: interned sequences with gold labels.
struct Dataset {
  std::vector<CompiledSequence> sequences;
  std::vector<std::vector<int>> labels;

  size_t size() const { return sequences.size(); }
};

class LogLikelihood {
 public:
  // `model` provides the feature space; its weights are overwritten on each
  // Evaluate call. `l2_sigma` is the prior's standard deviation; the
  // penalty added to the NLL is ||w||^2 / (2 sigma^2). Pass sigma <= 0 to
  // disable regularization. `pool` may be null for single-threaded
  // evaluation.
  LogLikelihood(CrfModel& model, const Dataset& data, double l2_sigma,
                util::ThreadPool* pool = nullptr);

  // Computes the penalized NLL at `w` and writes its gradient into `grad`
  // (resized to w.size()).
  double Evaluate(const std::vector<double>& w, std::vector<double>& grad);

  size_t num_parameters() const { return model_.num_weights(); }

 private:
  // Adds one sequence's NLL contribution to *nll and its gradient to grad,
  // running all inference in `ws` (one workspace per worker thread).
  void AccumulateSequence(size_t index, Workspace& ws,
                          std::vector<double>& grad, double& nll) const;

  CrfModel& model_;
  const Dataset& data_;
  double l2_sigma_;
  util::ThreadPool* pool_;
  // The table of pairwise blocks. Position t >= 1 of sequence r reads block
  // block_of_[r][t], one per distinct `trans_slots` list in the dataset
  // (block_slots_[b]). Each Evaluate fills log_blocks_ with
  // CrfModel::PairwiseScores and exp_blocks_ with std::exp of it, so
  // sequences share the blocks instead of rebuilding one per position.
  std::vector<std::vector<int>> block_of_;
  std::vector<std::vector<int>> block_slots_;
  std::vector<double> log_blocks_;
  std::vector<double> exp_blocks_;
};

}  // namespace whoiscrf::crf
