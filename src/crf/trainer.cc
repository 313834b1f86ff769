#include "crf/trainer.h"

#include <algorithm>
#include <memory>
#include <stdexcept>
#include <thread>
#include <unordered_set>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/logging.h"

namespace whoiscrf::crf {

namespace {

// Registry handles for the training metrics (whoiscrf_train_*; see
// docs/observability.md). Resolved once per process — training is far from
// any hot path, but there is no reason to re-probe the registry per
// iteration either.
struct TrainMetrics {
  obs::Gauge* nll;
  obs::Gauge* grad_inf_norm;
  obs::Counter* iterations;
  obs::Counter* objective_evals;
  obs::Histogram* iteration_seconds;
};

const TrainMetrics& GetTrainMetrics() {
  static const TrainMetrics metrics = [] {
    auto& reg = obs::Registry::Global();
    TrainMetrics m;
    m.nll = reg.GetGauge("whoiscrf_train_nll",
                          "Regularized negative log-likelihood after the "
                          "most recent optimizer iteration");
    m.grad_inf_norm =
        reg.GetGauge("whoiscrf_train_grad_inf_norm",
                      "Infinity norm of the objective gradient after the "
                      "most recent L-BFGS iteration");
    m.iterations = reg.GetCounter(
        "whoiscrf_train_iterations_total",
        "Optimizer iterations (L-BFGS) or epochs (SGD) completed");
    m.objective_evals = reg.GetCounter(
        "whoiscrf_train_objective_evals_total",
        "Objective/gradient evaluations, including line-search probes");
    m.iteration_seconds = reg.GetHistogram(
        "whoiscrf_train_iteration_seconds",
        "Wall time of one accepted L-BFGS iteration",
        {0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1,
         2.5, 5, 10, 30});
    return m;
  }();
  return metrics;
}

}  // namespace

Trainer::Trainer(TrainerOptions options) : options_(options) {}

CrfModel Trainer::BuildModel(const std::vector<std::string>& label_names,
                             const std::vector<Instance>& data) const {
  text::Vocabulary vocab;
  for (const Instance& inst : data) {
    if (inst.lines.size() != inst.labels.size()) {
      throw std::invalid_argument("Trainer: instance length mismatch");
    }
    for (int label : inst.labels) {
      if (label < 0 || static_cast<size_t>(label) >= label_names.size()) {
        throw std::invalid_argument("Trainer: label out of range");
      }
    }
    for (const auto& line : inst.lines) {
      for (const auto& attr : line.attrs) vocab.Count(attr);
    }
  }
  vocab.Freeze(options_.min_attr_count);

  // Transition slots: every retained attribute that appears with the
  // transition flag anywhere in the training data.
  std::unordered_set<int> slot_set;
  if (!options_.use_observed_transitions) {
    return CrfModel(label_names, std::move(vocab), {});
  }
  for (const Instance& inst : data) {
    for (const auto& line : inst.lines) {
      for (size_t i = 0; i < line.attrs.size(); ++i) {
        if (!line.transition[i]) continue;
        const int id = vocab.Lookup(line.attrs[i]);
        if (id != text::Vocabulary::kNotFound) slot_set.insert(id);
      }
    }
  }
  std::vector<int> slots(slot_set.begin(), slot_set.end());
  std::sort(slots.begin(), slots.end());
  return CrfModel(label_names, std::move(vocab), std::move(slots));
}

Dataset Trainer::Compile(const CrfModel& model,
                         const std::vector<Instance>& data) {
  Dataset out;
  out.sequences.reserve(data.size());
  out.labels.reserve(data.size());
  for (const Instance& inst : data) {
    out.sequences.push_back(model.Compile(inst.lines));
    out.labels.push_back(inst.labels);
  }
  return out;
}

void Trainer::Optimize(CrfModel& model, const Dataset& dataset,
                       TrainStats* stats) const {
  const TrainMetrics& metrics = GetTrainMetrics();
  obs::ScopedSpan train_span("crf.optimize");

  if (options_.algorithm == Algorithm::kSgd) {
    SgdOptimizer::Options sgd_options = options_.sgd;
    sgd_options.l2_sigma = options_.l2_sigma;
    sgd_options.verbose = options_.verbose || sgd_options.verbose;
    SgdOptimizer sgd(sgd_options);
    const auto result = sgd.Train(model, dataset);
    metrics.nll->Set(result.final_nll);
    metrics.iterations->Inc(static_cast<uint64_t>(
        result.epochs_run > 0 ? result.epochs_run : 0));
    if (stats != nullptr) {
      stats->final_objective = result.final_nll;
      stats->iterations = result.epochs_run;
    }
    return;
  }

  const size_t threads = options_.threads == 0
                             ? std::thread::hardware_concurrency()
                             : options_.threads;
  // ForkJoin's caller works too: threads - 1 workers make `threads`
  // running threads.
  std::unique_ptr<util::ThreadPool> pool;
  if (threads > 1 && dataset.size() > 1) {
    pool = std::make_unique<util::ThreadPool>(threads - 1);
  }
  LogLikelihood objective(model, dataset, options_.l2_sigma, pool.get());

  LbfgsOptimizer::Options lbfgs_options = options_.lbfgs;
  lbfgs_options.verbose = options_.verbose || lbfgs_options.verbose;
  lbfgs_options.on_iteration =
      [&metrics](const LbfgsOptimizer::IterationInfo& info) {
        metrics.nll->Set(info.value);
        metrics.grad_inf_norm->Set(info.grad_inf_norm);
        metrics.iterations->Inc();
        metrics.iteration_seconds->Observe(info.seconds);
        auto& tracer = obs::Tracer::Global();
        if (tracer.enabled()) {
          const uint64_t dur_us =
              static_cast<uint64_t>(info.seconds * 1e6);
          const uint64_t now_us = obs::MonotonicMicros();
          tracer.Record("crf.lbfgs_iteration",
                        now_us > dur_us ? now_us - dur_us : 0, dur_us);
        }
      };
  LbfgsOptimizer lbfgs(lbfgs_options);
  std::vector<double> w = model.weights();
  const auto result = lbfgs.Minimize(
      [&objective](const std::vector<double>& x, std::vector<double>& g) {
        return objective.Evaluate(x, g);
      },
      w);
  metrics.objective_evals->Inc(static_cast<uint64_t>(result.evaluations));
  model.weights() = w;
  if (stats != nullptr) {
    stats->final_objective = result.value;
    stats->iterations = result.iterations;
  }
}

CrfModel Trainer::Train(const std::vector<std::string>& label_names,
                        const std::vector<Instance>& data,
                        TrainStats* stats) const {
  if (data.empty()) throw std::invalid_argument("Trainer: no training data");
  CrfModel model = BuildModel(label_names, data);
  const Dataset dataset = Compile(model, data);

  if (stats != nullptr) {
    stats->num_sequences = data.size();
    stats->num_lines = 0;
    for (const auto& inst : data) stats->num_lines += inst.lines.size();
    stats->num_attributes = model.vocab().size();
    stats->num_features = model.num_weights();
    stats->num_transition_slots = model.num_transition_slots();
  }
  LOG_DEBUG("trainer: %zu sequences, %zu attrs, %zu features", data.size(),
            model.vocab().size(), model.num_weights());

  Optimize(model, dataset, stats);
  return model;
}

CrfModel Trainer::Adapt(const CrfModel& base,
                        const std::vector<Instance>& data,
                        TrainStats* stats) const {
  if (data.empty()) throw std::invalid_argument("Trainer: no training data");
  CrfModel model = BuildModel(base.label_names(), data);

  // Warm start: copy weights for every feature the two models share. This
  // makes adaptation with a handful of new examples fast and stable.
  const int L = model.num_labels();
  for (size_t a = 0; a < model.vocab().size(); ++a) {
    const int old_attr = base.vocab().Lookup(model.vocab().Name(static_cast<int>(a)));
    if (old_attr == text::Vocabulary::kNotFound) continue;
    for (int j = 0; j < L; ++j) {
      model.weights()[model.UnigramIndex(static_cast<int>(a), j)] =
          base.weights()[base.UnigramIndex(old_attr, j)];
    }
  }
  for (int i = 0; i < L; ++i) {
    for (int j = 0; j < L; ++j) {
      model.weights()[model.TransitionIndex(i, j)] =
          base.weights()[base.TransitionIndex(i, j)];
    }
  }
  for (size_t s = 0; s < model.num_transition_slots(); ++s) {
    const std::string& attr_name =
        model.vocab().Name(model.SlotAttr(static_cast<int>(s)));
    const int old_attr = base.vocab().Lookup(attr_name);
    if (old_attr == text::Vocabulary::kNotFound) continue;
    // Find the old slot for this attribute, if any.
    int old_slot = -1;
    for (size_t os = 0; os < base.num_transition_slots(); ++os) {
      if (base.SlotAttr(static_cast<int>(os)) == old_attr) {
        old_slot = static_cast<int>(os);
        break;
      }
    }
    if (old_slot < 0) continue;
    for (int i = 0; i < L; ++i) {
      for (int j = 0; j < L; ++j) {
        model.weights()[model.ObservedTransitionIndex(static_cast<int>(s), i, j)] =
            base.weights()[base.ObservedTransitionIndex(old_slot, i, j)];
      }
    }
  }

  const Dataset dataset = Compile(model, data);
  if (stats != nullptr) {
    stats->num_sequences = data.size();
    stats->num_lines = 0;
    for (const auto& inst : data) stats->num_lines += inst.lines.size();
    stats->num_attributes = model.vocab().size();
    stats->num_features = model.num_weights();
    stats->num_transition_slots = model.num_transition_slots();
  }
  Optimize(model, dataset, stats);
  return model;
}

}  // namespace whoiscrf::crf
