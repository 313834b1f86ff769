// whoiscrf retrain-loop — the self-healing lifecycle demo/driver
// (docs/lifecycle.md): streams the temporal drifting corpus in time
// order through a LifecycleController, harvests drift-signaled records,
// retrains in the background when a registrar's alarm trips, gates and
// promotes candidates, and checkpoints its state so a killed run resumes
// (--resume) exactly where it stopped. Prints a per-window key-field
// accuracy report so drift (accuracy dropping after a schema-change
// event) and recovery (accuracy restored after a promotion) are visible
// in the output.
#include <sys/stat.h>

#include <cstdio>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "cascade/cascade.h"
#include "cli/commands.h"
#include "datagen/temporal.h"
#include "lifecycle/confidence.h"
#include "lifecycle/controller.h"
#include "obs/metrics.h"
#include "util/checkpoint.h"
#include "whois/whois_parser.h"

namespace whoiscrf::cli {

namespace {

// Pre-reads the live model named by an existing state file so the
// controller can be constructed without retraining; LoadState then
// restores the rest (version, cursor, buffer).
std::optional<whois::WhoisParser> PeekStateModel(
    const std::string& state_dir) {
  std::string text;
  if (!util::ReadFileToString(state_dir + "/lifecycle.state", text)) {
    return std::nullopt;
  }
  size_t pos = 0;
  while (pos < text.size()) {
    size_t end = text.find('\n', pos);
    if (end == std::string::npos) end = text.size();
    const std::string line = text.substr(pos, end - pos);
    pos = end + 1;
    if (line.rfind("model\t", 0) == 0) {
      return whois::WhoisParser::LoadFile(state_dir + "/" +
                                          line.substr(6));
    }
  }
  return std::nullopt;
}

}  // namespace

int CmdRetrainLoop(util::FlagParser& flags) {
  const std::string state_dir = flags.GetString("state-dir");
  const auto count = static_cast<size_t>(flags.GetInt("count", 20000));
  const auto seed = static_cast<uint64_t>(flags.GetInt("seed", 42));
  const auto events = static_cast<size_t>(flags.GetInt("events", 2));
  const auto train_count =
      static_cast<size_t>(flags.GetInt("train-count", 400));
  const auto window = static_cast<size_t>(flags.GetInt("window", 64));
  const auto buffer_capacity =
      static_cast<size_t>(flags.GetInt("buffer-capacity", 512));
  const auto min_retrain =
      static_cast<size_t>(flags.GetInt("min-retrain", 64));
  const double gate_epsilon = flags.GetDouble("gate-epsilon", 0.01);
  // 0 disables the marginal scorer: drift then signals purely through
  // parse-vs-truth disagreement, and records parse ~2x faster.
  const double confidence_floor =
      flags.GetDouble("confidence-floor", 0.0);
  const auto probation_window =
      static_cast<size_t>(flags.GetInt("probation-window", 64));
  const double rollback_rate = flags.GetDouble("rollback-rate", 0.5);
  const auto report_every =
      static_cast<size_t>(flags.GetInt("report-every", 2000));
  const auto checkpoint_interval =
      static_cast<size_t>(flags.GetInt("checkpoint-interval", 4096));
  const bool resume = flags.GetBool("resume");
  // Blocking retrain at the alarm instead of the background thread:
  // deterministic record->version mapping, so recovery is visible
  // in-stream even when the input replays faster than training.
  const bool retrain_sync = flags.GetBool("retrain-sync");

  if (state_dir.empty()) {
    std::fprintf(stderr, "retrain-loop: --state-dir is required\n");
    return 2;
  }
  if (train_count == 0 || train_count >= count) {
    std::fprintf(stderr,
                 "retrain-loop: --train-count must be in (0, --count)\n");
    return 2;
  }
  ::mkdir(state_dir.c_str(), 0755);  // EEXIST is fine

  datagen::TemporalCorpusOptions corpus_options;
  corpus_options.size = count;
  corpus_options.seed = seed;
  corpus_options.events = events;
  const datagen::TemporalCorpusGenerator generator(corpus_options);
  for (const auto& event : generator.events()) {
    if (event.at_index < train_count) {
      std::fprintf(stderr,
                   "retrain-loop: --train-count %zu overlaps the first "
                   "drift event at %zu; shrink it\n",
                   train_count, event.at_index);
      return 2;
    }
  }

  lifecycle::ControllerOptions lifecycle_options;
  lifecycle_options.trainer.trainer.l2_sigma = flags.GetDouble("l2", 10.0);
  lifecycle_options.trainer.trainer.lbfgs.max_iterations =
      static_cast<int>(flags.GetInt("iterations", 60));
  lifecycle_options.trainer.trainer.threads =
      static_cast<size_t>(flags.GetInt("threads", 0));
  lifecycle_options.drift.window = window;
  lifecycle_options.buffer.capacity = buffer_capacity;
  lifecycle_options.buffer.seed = seed;
  lifecycle_options.min_retrain_records = min_retrain;
  lifecycle_options.gate_epsilon = gate_epsilon;
  lifecycle_options.confidence_floor = confidence_floor;
  lifecycle_options.probation_window = probation_window;
  lifecycle_options.rollback_disagreement_rate = rollback_rate;
  lifecycle_options.state_dir = state_dir;

  // Every candidate retrains from the clean pre-drift prefix plus the
  // harvested buffer; the prefix is regenerable, so resume re-derives it.
  std::vector<whois::LabeledRecord> base_training;
  base_training.reserve(train_count);
  for (size_t i = 0; i < train_count; ++i) {
    base_training.push_back(generator.Generate(i).thick);
  }

  std::shared_ptr<const whois::WhoisParser> initial;
  if (resume) {
    if (auto model = PeekStateModel(state_dir)) {
      initial = std::make_shared<const whois::WhoisParser>(
          std::move(*model));
    } else {
      std::fprintf(stderr,
                   "retrain-loop: --resume but no state in %s; starting "
                   "fresh\n",
                   state_dir.c_str());
    }
  }
  const bool fresh = initial == nullptr;
  if (fresh) {
    std::fprintf(stderr,
                 "retrain-loop: training initial model on %zu pre-drift "
                 "records...\n",
                 base_training.size());
    initial = std::make_shared<const whois::WhoisParser>(
        whois::WhoisParser::Train(base_training,
                                  lifecycle_options.trainer));
  }

  lifecycle::LifecycleController controller(initial, base_training,
                                            lifecycle_options);
  controller.set_on_swap(
      [](uint64_t old_version, uint64_t new_version,
         const std::shared_ptr<const whois::WhoisParser>&) {
        std::fprintf(stderr, "retrain-loop: model v%llu -> v%llu\n",
                     static_cast<unsigned long long>(old_version),
                     static_cast<unsigned long long>(new_version));
      });
  if (fresh) {
    controller.set_consumed(train_count);  // the prefix is training data
    controller.SaveState();
  } else {
    controller.LoadState();
  }

  const size_t start = static_cast<size_t>(controller.consumed());
  std::fprintf(stderr,
               "retrain-loop: streaming records [%zu, %zu) as model v%llu "
               "(%zu drift events)\n",
               start, count,
               static_cast<unsigned long long>(controller.version()),
               generator.events().size());

  // Per-report-window accuracy accumulators.
  uint64_t window_agree = 0;
  uint64_t window_fields = 0;
  size_t window_start = start;

  // Model snapshot + scorer, refreshed whenever the version moves.
  std::shared_ptr<const whois::WhoisParser> model;
  std::optional<lifecycle::MarginalScorer> scorer;
  uint64_t model_version = 0;
  whois::ParseWorkspace parse_ws;
  crf::Workspace crf_ws;

  const auto report = [&](size_t upto) {
    const double accuracy =
        window_fields == 0
            ? 1.0
            : static_cast<double>(window_agree) /
                  static_cast<double>(window_fields);
    std::printf("records [%zu, %zu): key-field accuracy %.4f, model v%llu, "
                "buffer %zu, alarmed %zu%s\n",
                window_start, upto, accuracy,
                static_cast<unsigned long long>(controller.version()),
                controller.buffer_size(),
                controller.detector().AlarmedRegistrars().size(),
                controller.retraining() ? ", retraining" : "");
    std::fflush(stdout);
    window_agree = 0;
    window_fields = 0;
    window_start = upto;
  };

  for (size_t i = start; i < count; ++i) {
    if (model_version != controller.version() || model == nullptr) {
      model = controller.Current();
      model_version = controller.version();
      scorer.emplace(*model);
    }
    const datagen::GeneratedDomain domain = generator.Generate(i);
    const whois::LabeledRecord& record = domain.thick;

    const whois::ParsedWhois parsed = model->Parse(record.text, parse_ws);
    const size_t agree =
        cascade::CountAgreeingKeyFields(parsed, cascade::GoldParse(record));
    window_agree += agree;
    window_fields += cascade::kNumKeyFields;

    // The loop driver has ground truth for every record, so the shadow
    // signal is exact: any key-field mismatch counts as a disagreement.
    lifecycle::Observation obs;
    obs.registrar = domain.facts.registrar_name;
    obs.shadow_sampled = true;
    obs.shadow_disagreed = agree < cascade::kNumKeyFields;
    if (confidence_floor > 0.0) {
      obs.confidence = scorer->Score(record.text, crf_ws);
    }
    const bool alarm = controller.Observe(obs, &record);

    const auto report_outcome = [&](const lifecycle::RetrainOutcome& out) {
      std::fprintf(
          stderr,
          "retrain-loop: retrain %s (candidate %.4f vs incumbent %.4f on "
          "%zu holdout records) -> model v%llu\n",
          std::string(lifecycle::RetrainResultName(out.result)).c_str(),
          out.gate.candidate_accuracy, out.gate.incumbent_accuracy,
          out.gate.holdout_records,
          static_cast<unsigned long long>(out.version));
    };
    if (alarm && !controller.retraining() &&
        controller.buffer_size() >= min_retrain) {
      std::fprintf(stderr,
                   "retrain-loop: drift alarm for '%s' at record %zu; "
                   "%s retrain (%zu harvested)\n",
                   obs.registrar.c_str(), i,
                   retrain_sync ? "synchronous" : "starting background",
                   controller.buffer_size());
      if (retrain_sync) {
        report_outcome(controller.RetrainNow());
      } else {
        controller.StartRetrain();
      }
    }
    if (auto outcome = controller.PollOutcome()) {
      report_outcome(*outcome);
    }

    if (checkpoint_interval != 0 && (i + 1) % checkpoint_interval == 0) {
      controller.SaveState();
    }
    if (report_every != 0 && (i + 1 - start) % report_every == 0) {
      report(i + 1);
    }
  }
  if (window_fields != 0) report(count);

  if (controller.retraining()) {
    std::fprintf(stderr,
                 "retrain-loop: waiting for in-flight retrain...\n");
    const lifecycle::RetrainOutcome outcome = controller.WaitRetrain();
    std::fprintf(stderr, "retrain-loop: final retrain %s -> model v%llu\n",
                 std::string(lifecycle::RetrainResultName(outcome.result))
                     .c_str(),
                 static_cast<unsigned long long>(outcome.version));
  }
  controller.SaveState();

  const auto& registry = obs::Registry::Global();
  const auto retrains = [&](const char* result) {
    return static_cast<unsigned long long>(registry.CounterValue(
        "whoiscrf_lifecycle_retrains_total", {{"result", result}}));
  };
  std::printf("retrain-loop: done — model v%llu, %llu promoted, "
              "%llu rejected, %llu cancelled, %llu rollbacks, "
              "%llu harvested\n",
              static_cast<unsigned long long>(controller.version()),
              retrains("promoted"), retrains("rejected"),
              retrains("cancelled"),
              static_cast<unsigned long long>(registry.CounterValue(
                  "whoiscrf_lifecycle_rollbacks_total")),
              static_cast<unsigned long long>(registry.CounterValue(
                  "whoiscrf_lifecycle_harvested_total")));
  return 0;
}

}  // namespace whoiscrf::cli
