// Self-healing lifecycle: the closed loop's accuracy recovery and the hot
// swap's cost, measured against the no-loop baseline on the temporal
// drifting corpus (docs/lifecycle.md). Three models are compared on a
// held-out post-drift window:
//
//   stale   trained on the pre-drift prefix and never touched again
//           (the no-loop baseline the drift degrades),
//   loop    the model the lifecycle controller ends the stream with
//           (drift alarms -> harvest -> retrain -> gate -> promote),
//   fresh   trained on pre-drift + post-drift data from the start
//           (the oracle ceiling the loop is chasing).
//
// The acceptance criterion is recovery_gap = fresh - loop <= 0.01: the
// closed loop must land within a point of the model that saw the drift in
// its training data, while accuracy_gain = loop - stale stays visibly
// positive. Also reports ModelHost swap latency (the RCU pointer swap the
// serve layer pays per promotion) and the observe-loop's throughput tax.
// Writes BENCH_lifecycle.json (override with WHOISCRF_BENCH_OUT); the
// bench-smoke CI job gates accuracy_gain, recovery_gap, and promotions
// against bench/bench_floor.json.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.h"
#include "cascade/cascade.h"
#include "datagen/temporal.h"
#include "lifecycle/controller.h"
#include "obs/metrics.h"
#include "serve/model_host.h"
#include "util/env.h"
#include "whois/whois_parser.h"

namespace whoiscrf::bench {
namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double AccuracyOver(const whois::WhoisParser& parser,
                    const datagen::TemporalCorpusGenerator& generator,
                    size_t begin, size_t end) {
  whois::ParseWorkspace ws;
  size_t agree = 0, total = 0;
  for (size_t i = begin; i < end; ++i) {
    const whois::LabeledRecord record = generator.Generate(i).thick;
    agree += cascade::CountAgreeingKeyFields(parser.Parse(record.text, ws),
                                             cascade::GoldParse(record));
    total += cascade::kNumKeyFields;
  }
  return total > 0 ? static_cast<double>(agree) / static_cast<double>(total)
                   : 1.0;
}

whois::WhoisParserOptions TrainOptions() {
  whois::WhoisParserOptions options;
  options.trainer.lbfgs.max_iterations = 60;
  options.trainer.threads = 1;
  return options;
}

int Main() {
  const bool smoke = util::BenchSmoke();
  // The smoke clamp keeps training (the dominant cost: the initial model
  // plus one retrain per alarm) inside the smoke budget; the stream and
  // eval windows scale with it.
  const size_t train_count = smoke ? 300 : util::Scaled(500, 300);
  const size_t stream_count = smoke ? 700 : util::Scaled(3000, 700);
  const size_t eval_count = smoke ? 200 : util::Scaled(800, 200);
  const size_t total = train_count + stream_count + eval_count;

  PrintHeader("lifecycle",
              "closed-loop drift recovery vs the no-loop baseline");

  datagen::TemporalCorpusOptions corpus_options;
  corpus_options.size = total;
  corpus_options.seed = kCorpusSeed;
  corpus_options.events = 1;  // event at total / 2
  const datagen::TemporalCorpusGenerator generator(corpus_options);
  const size_t event_at = generator.events()[0].at_index;
  const size_t stream_end = total - eval_count;

  std::vector<whois::LabeledRecord> base_training;
  base_training.reserve(train_count);
  for (size_t i = 0; i < train_count; ++i) {
    base_training.push_back(generator.Generate(i).thick);
  }

  std::printf("corpus: %zu records, drift event at %zu, stream [%zu, %zu), "
              "eval [%zu, %zu)\n",
              total, event_at, train_count, stream_end, stream_end, total);

  const auto train_start = Clock::now();
  const auto stale = std::make_shared<const whois::WhoisParser>(
      whois::WhoisParser::Train(base_training, TrainOptions()));
  const double train_seconds = SecondsSince(train_start);

  // The oracle: same base corpus plus a post-drift slice the size of the
  // lifecycle buffer, so "fresh" and "loop" learn from comparable data.
  lifecycle::ControllerOptions controller_options;
  controller_options.buffer.capacity = smoke ? 192 : 256;
  controller_options.buffer.seed = kCorpusSeed;
  controller_options.drift.window = smoke ? 16 : 32;
  controller_options.min_retrain_records = 32;
  controller_options.gate_epsilon = 0.01;
  controller_options.probation_window = 64;
  controller_options.trainer = TrainOptions();
  std::vector<whois::LabeledRecord> fresh_training = base_training;
  for (size_t i = event_at;
       i < event_at + controller_options.buffer.capacity; ++i) {
    fresh_training.push_back(generator.Generate(i).thick);
  }
  const whois::WhoisParser fresh =
      whois::WhoisParser::Train(fresh_training, TrainOptions());

  // --- No-loop baseline: the stale model streams blind. ------------------
  whois::ParseWorkspace ws;
  const auto noloop_start = Clock::now();
  double noloop_checksum = 0.0;
  for (size_t i = train_count; i < stream_end; ++i) {
    const whois::LabeledRecord record = generator.Generate(i).thick;
    noloop_checksum += static_cast<double>(
        stale->Parse(record.text, ws).line_labels.size());
  }
  const double noloop_seconds = SecondsSince(noloop_start);

  // --- Closed loop: observe, harvest on disagreement, retrain at alarms.
  lifecycle::LifecycleController controller(stale, base_training,
                                            controller_options);
  size_t promotions = 0, rejections = 0, retrains = 0;
  bool pending_alarm = false;
  double retrain_seconds = 0.0;
  const auto loop_start = Clock::now();
  for (size_t i = train_count; i < stream_end; ++i) {
    const datagen::GeneratedDomain domain = generator.Generate(i);
    const whois::LabeledRecord& record = domain.thick;
    const bool wrong =
        cascade::CountAgreeingKeyFields(
            controller.Current()->Parse(record.text, ws),
            cascade::GoldParse(record)) < cascade::kNumKeyFields;
    lifecycle::Observation obs;
    obs.registrar = domain.facts.registrar_name;
    obs.shadow_sampled = true;
    obs.shadow_disagreed = wrong;
    // An alarm that trips before the buffer has enough harvested records
    // stays pending until it does (the background driver polls the same
    // way).
    pending_alarm |= controller.Observe(obs, wrong ? &record : nullptr);
    if (pending_alarm &&
        controller.buffer_size() >= controller_options.min_retrain_records) {
      pending_alarm = false;
      const auto retrain_start = Clock::now();
      const lifecycle::RetrainOutcome outcome = controller.RetrainNow();
      retrain_seconds += SecondsSince(retrain_start);
      ++retrains;
      if (outcome.result == lifecycle::RetrainOutcome::Result::kPromoted) {
        ++promotions;
      } else if (outcome.result ==
                 lifecycle::RetrainOutcome::Result::kRejected) {
        ++rejections;
      }
    }
  }
  const double loop_seconds = SecondsSince(loop_start);

  // --- Accuracy on the held-out post-drift window. -----------------------
  const double stale_eval = AccuracyOver(*stale, generator, stream_end,
                                         total);
  const double loop_eval = AccuracyOver(*controller.Current(), generator,
                                        stream_end, total);
  const double fresh_eval = AccuracyOver(fresh, generator, stream_end,
                                         total);
  const double pre_drift = AccuracyOver(*stale, generator, train_count,
                                        train_count + eval_count);
  const double accuracy_gain = loop_eval - stale_eval;
  const double recovery_gap = fresh_eval - loop_eval;

  // --- Hot swap latency: the RCU pointer swap per promotion. -------------
  const auto next = std::make_shared<const whois::WhoisParser>(
      whois::WhoisParser::Train(base_training, TrainOptions()));
  serve::ModelHost host(stale);
  constexpr size_t kSwaps = 200;
  const auto swap_start = Clock::now();
  for (size_t i = 0; i < kSwaps; ++i) {
    host.Swap(i % 2 == 0 ? next : stale);
  }
  const double swap_avg_us = SecondsSince(swap_start) * 1e6 / kSwaps;

  const size_t streamed = stream_end - train_count;
  const double noloop_rps =
      noloop_seconds > 0.0 ? streamed / noloop_seconds : 0.0;
  const double loop_rps = loop_seconds > 0.0 ? streamed / loop_seconds : 0.0;
  const uint64_t rollbacks = obs::Registry::Global().CounterValue(
      "whoiscrf_lifecycle_rollbacks_total");

  std::printf("\ninitial training: %.2fs   retrains: %zu (%.2fs)   "
              "promotions: %zu   rejections: %zu\n",
              train_seconds, retrains, retrain_seconds, promotions,
              rejections);
  std::printf("%-28s %12s\n", "model", "field acc");
  std::printf("%-28s %12.4f   (pre-drift window: %.4f)\n", "stale (no loop)",
              stale_eval, pre_drift);
  std::printf("%-28s %12.4f   (gain %+.4f)\n", "closed loop", loop_eval,
              accuracy_gain);
  std::printf("%-28s %12.4f   (gap %+.4f)\n", "fresh (oracle)", fresh_eval,
              recovery_gap);
  std::printf("\nstream: no-loop %.0f rps, loop %.0f rps "
              "(retrain time included)\n",
              noloop_rps, loop_rps);
  std::printf("hot swap: %.3f us/swap over %zu swaps\n", swap_avg_us,
              kSwaps);
  if (noloop_checksum < 0.0) std::printf("impossible checksum\n");

  const char* out_env = std::getenv("WHOISCRF_BENCH_OUT");
  const std::string out_path =
      out_env != nullptr ? out_env : "BENCH_lifecycle.json";
  std::ofstream os(out_path);
  os << "{\n";
  os << "  \"bench\": \"lifecycle\",\n";
  os << "  \"corpus\": " << total << ",\n";
  os << "  \"train_count\": " << train_count << ",\n";
  os << "  \"streamed\": " << streamed << ",\n";
  os << "  \"eval_count\": " << eval_count << ",\n";
  os << "  \"pre_drift_accuracy\": " << pre_drift << ",\n";
  os << "  \"stale_post_accuracy\": " << stale_eval << ",\n";
  os << "  \"loop_post_accuracy\": " << loop_eval << ",\n";
  os << "  \"fresh_post_accuracy\": " << fresh_eval << ",\n";
  os << "  \"accuracy_gain\": " << accuracy_gain << ",\n";
  os << "  \"recovery_gap\": " << recovery_gap << ",\n";
  os << "  \"retrains\": " << retrains << ",\n";
  os << "  \"promotions\": " << promotions << ",\n";
  os << "  \"rejections\": " << rejections << ",\n";
  os << "  \"rollbacks\": " << rollbacks << ",\n";
  os << "  \"final_version\": " << controller.version() << ",\n";
  os << "  \"retrain_seconds\": " << retrain_seconds << ",\n";
  os << "  \"noloop_rps\": " << noloop_rps << ",\n";
  os << "  \"loop_rps\": " << loop_rps << ",\n";
  os << "  \"swap_avg_us\": " << swap_avg_us << ",\n";
  os << "  \"metrics\": " << obs::Registry::Global().RenderJson() << "\n";
  os << "}\n";
  std::printf("\nwrote %s\n", out_path.c_str());
  return 0;
}

}  // namespace
}  // namespace whoiscrf::bench

int main() { return whoiscrf::bench::Main(); }
