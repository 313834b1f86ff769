// Trainer: builds the feature space from labeled instances (vocabulary with
// frequency trimming + transition-eligible slots) and estimates weights by
// maximizing the penalized conditional log-likelihood (paper §3.3-§3.4).
#pragma once

#include <string>
#include <vector>

#include "crf/lbfgs.h"
#include "crf/likelihood.h"
#include "crf/model.h"
#include "crf/sgd.h"

namespace whoiscrf::crf {

enum class Algorithm { kLbfgs, kSgd };

struct TrainerOptions {
  // Dictionary trimming: attributes seen fewer times than this across the
  // training corpus are dropped ("we trim words that appear very
  // infrequently", §3.3). 1 keeps everything.
  uint32_t min_attr_count = 1;
  double l2_sigma = 10.0;
  // Ablation: disable the eq. 8 observed-transition features (the model
  // keeps plain label-bigram transitions). Used by bench_ablation.
  bool use_observed_transitions = true;
  Algorithm algorithm = Algorithm::kLbfgs;
  LbfgsOptimizer::Options lbfgs;
  SgdOptimizer::Options sgd;
  // Threads for the gradient: 0 = hardware concurrency; 1 =
  // single-threaded. Sets speed only; the model does not depend on it.
  size_t threads = 0;
  bool verbose = false;
};

struct TrainStats {
  size_t num_sequences = 0;
  size_t num_lines = 0;
  size_t num_attributes = 0;     // retained dictionary entries
  size_t num_features = 0;       // total weights
  size_t num_transition_slots = 0;
  double final_objective = 0.0;
  int iterations = 0;
};

class Trainer {
 public:
  explicit Trainer(TrainerOptions options = {});

  // Trains a model from scratch. `label_names` fixes the state space; every
  // Instance's labels must index into it.
  CrfModel Train(const std::vector<std::string>& label_names,
                 const std::vector<Instance>& data,
                 TrainStats* stats = nullptr) const;

  // Adaptation (paper §5.3): rebuilds the feature space over old + new data,
  // warm-starts shared weights from `base`, and re-optimizes. This is the
  // "add one labeled example of the new format and retrain" workflow.
  CrfModel Adapt(const CrfModel& base, const std::vector<Instance>& data,
                 TrainStats* stats = nullptr) const;

  // Compiles instances against an existing model's feature space.
  static Dataset Compile(const CrfModel& model,
                         const std::vector<Instance>& data);

 private:
  CrfModel BuildModel(const std::vector<std::string>& label_names,
                      const std::vector<Instance>& data) const;
  void Optimize(CrfModel& model, const Dataset& dataset,
                TrainStats* stats) const;

  TrainerOptions options_;
};

}  // namespace whoiscrf::crf
