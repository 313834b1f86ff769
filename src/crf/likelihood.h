// The training objective: negative conditional log-likelihood (negated
// eq. 4) with an L2 (Gaussian prior) penalty, and its exact analytic
// gradient via the forward-backward marginals (appendix, eq. 12).
//
// The gradient of the log-likelihood with respect to theta_k is the
// difference between expected and empirical feature counts. The empirical
// (gold) counts do not depend on theta and are counted once. The expected
// counts are summed over a fixed split of the sequences into shards that
// the paper's parallel L-BFGS would hand to its workers: each shard adds
// its node marginals into compact rows for the attributes it uses and its
// edge marginals into one sum per transition block, and the shards are
// reduced in shard order. The split does not depend on the thread count,
// so neither do the bits of the objective and gradient: a thread pool
// sets only how fast they come.
#pragma once

#include <cstdint>
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
  // evaluation; with a pool the shards run on its ForkJoin. `model`,
  // `data` and `pool` must outlive this object.
  LogLikelihood(CrfModel& model, const Dataset& data, double l2_sigma,
                util::ThreadPool* pool = nullptr);
  ~LogLikelihood();

  // Computes the penalized NLL at `w` and writes its gradient into `grad`
  // (resized to w.size()). Once `grad` has that size and every workspace
  // has grown to the longest sequence, a call allocates nothing.
  double Evaluate(const std::vector<double>& w, std::vector<double>& grad);

  size_t num_parameters() const { return model_.num_weights(); }

 private:
  // A contiguous run of sequences and the compact partial sums it writes.
  struct Shard {
    size_t begin = 0;  // sequences [begin, end)
    size_t end = 0;
    std::vector<int> attrs;          // distinct attribute ids, ascending
    std::vector<uint32_t> attr_rows;  // per attribute occurrence: its row
    std::vector<int> blocks;          // distinct transition blocks
    std::vector<uint32_t> block_rows;  // per position t >= 1: its row
    std::vector<double> node_sums;    // attrs.size() * L
    std::vector<double> edge_sums;    // blocks.size() * L * L
  };

  // Runs forward-backward over the shard's sequences, writing their log Z
  // into log_z_ and their expected counts into the shard's sums.
  void AccumulateShard(Shard& shard, Workspace& ws);

  CrfModel& model_;
  const Dataset& data_;
  double l2_sigma_;
  util::ThreadPool* pool_;
  // The table of pairwise blocks, one per distinct `trans_slots` list in
  // the dataset (block_slots_[b]). Each Evaluate fills log_blocks_ with
  // CrfModel::PairwiseScores and exp_blocks_ with std::exp of it, so
  // sequences share the blocks instead of rebuilding one per position.
  std::vector<std::vector<int>> block_slots_;
  std::vector<double> log_blocks_;
  std::vector<double> exp_blocks_;
  std::vector<Shard> shards_;
  std::vector<Workspace> workspaces_;  // one per ForkJoin slot
  std::vector<double> log_z_;          // per sequence
  std::vector<double> empirical_;      // gold feature counts
  std::vector<double> block_sums_;     // edge marginals per block
};

}  // namespace whoiscrf::crf
