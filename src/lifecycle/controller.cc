#include "lifecycle/controller.h"

#include <cmath>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "cascade/cascade.h"
#include "obs/metrics.h"
#include "util/checkpoint.h"
#include "whois/stream_checkpoint.h"

namespace whoiscrf::lifecycle {

namespace {

constexpr std::string_view kStateTag = "lcs1";

}  // namespace

std::string_view RetrainResultName(RetrainOutcome::Result result) {
  switch (result) {
    case RetrainOutcome::Result::kPromoted:
      return "promoted";
    case RetrainOutcome::Result::kRejected:
      return "rejected";
    case RetrainOutcome::Result::kCancelled:
      return "cancelled";
    case RetrainOutcome::Result::kNoData:
      return "no_data";
  }
  return "unknown";
}

LifecycleController::LifecycleController(
    std::shared_ptr<const whois::WhoisParser> initial,
    std::vector<whois::LabeledRecord> base_training, ControllerOptions options)
    : options_(std::move(options)),
      base_training_(std::move(base_training)),
      detector_(options_.drift),
      current_(std::move(initial)),
      buffer_(options_.buffer) {
  if (!current_) {
    throw std::invalid_argument("LifecycleController: initial model is null");
  }
  if (options_.holdout_fraction <= 0.0 || options_.holdout_fraction >= 1.0) {
    throw std::invalid_argument(
        "LifecycleController: holdout_fraction must be in (0, 1)");
  }
  auto& registry = obs::Registry::Global();
  harvested_total_ =
      registry.GetCounter("whoiscrf_lifecycle_harvested_total",
                          "records harvested into the retraining buffer");
  buffer_gauge_ = registry.GetGauge("whoiscrf_lifecycle_buffer_records",
                                    "records in the retraining buffer");
  const char* retrains_help = "retrain cycles by outcome";
  retrains_promoted_ =
      registry.GetCounter("whoiscrf_lifecycle_retrains_total", retrains_help,
                          {{"result", "promoted"}});
  retrains_rejected_ =
      registry.GetCounter("whoiscrf_lifecycle_retrains_total", retrains_help,
                          {{"result", "rejected"}});
  retrains_cancelled_ =
      registry.GetCounter("whoiscrf_lifecycle_retrains_total", retrains_help,
                          {{"result", "cancelled"}});
  rollbacks_total_ = registry.GetCounter(
      "whoiscrf_lifecycle_rollbacks_total",
      "automatic or manual rollbacks to the previous model");
  version_gauge_ = registry.GetGauge("whoiscrf_lifecycle_model_version",
                                     "live model version number");
  version_gauge_->Set(static_cast<double>(version_));
}

LifecycleController::~LifecycleController() {
  CancelRetrain();
  if (retrain_thread_.joinable()) retrain_thread_.join();
}

std::shared_ptr<const whois::WhoisParser> LifecycleController::Current()
    const {
  std::lock_guard<std::mutex> lock(mu_);
  return current_;
}

uint64_t LifecycleController::version() const {
  std::lock_guard<std::mutex> lock(mu_);
  return version_;
}

void LifecycleController::set_on_swap(SwapCallback cb) {
  std::lock_guard<std::mutex> lock(swap_cb_mu_);
  on_swap_ = std::move(cb);
}

bool LifecycleController::Observe(const Observation& obs,
                                  const whois::LabeledRecord* truth) {
  const bool signal =
      obs.shadow_disagreed || obs.confidence < options_.confidence_floor;
  std::optional<SwapEvent> rollback;
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++consumed_;
    if (signal && truth != nullptr) {
      buffer_.Add(*truth);
      harvested_total_->Inc();
      buffer_gauge_->Set(static_cast<double>(buffer_.size()));
    }
    if (probation_active_ && obs.shadow_sampled) {
      ++probation_samples_;
      if (obs.shadow_disagreed) ++probation_bad_;
      if (probation_samples_ >= options_.probation_window) {
        const double rate = static_cast<double>(probation_bad_) /
                            static_cast<double>(probation_samples_);
        probation_active_ = false;
        if (rate >= options_.rollback_disagreement_rate) {
          std::ostringstream reason;
          reason << "post-swap shadow disagreement rate " << rate
                 << " over " << probation_samples_
                 << " samples exceeds rollback threshold "
                 << options_.rollback_disagreement_rate;
          rollback = RollbackLocked(reason.str());
        }
      }
    }
  }
  if (rollback) Publish(*rollback);
  return detector_.Observe(obs.registrar, signal);
}

size_t LifecycleController::buffer_size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return buffer_.size();
}

RetrainOutcome LifecycleController::RetrainNow() {
  cancel_.store(false);
  return RunRetrain();
}

bool LifecycleController::StartRetrain() {
  if (retrain_active_.exchange(true)) return false;
  if (retrain_thread_.joinable()) retrain_thread_.join();
  cancel_.store(false);
  retrain_thread_ = std::thread([this] {
    RetrainOutcome outcome = RunRetrain();
    {
      std::lock_guard<std::mutex> lock(outcome_mu_);
      outcome_ = std::move(outcome);
    }
    retrain_active_.store(false);
  });
  return true;
}

std::optional<RetrainOutcome> LifecycleController::PollOutcome() {
  std::lock_guard<std::mutex> lock(outcome_mu_);
  std::optional<RetrainOutcome> out = std::move(outcome_);
  outcome_.reset();
  return out;
}

RetrainOutcome LifecycleController::WaitRetrain() {
  if (retrain_thread_.joinable()) retrain_thread_.join();
  std::optional<RetrainOutcome> out = PollOutcome();
  if (out) return *out;
  RetrainOutcome none;
  none.result = RetrainOutcome::Result::kNoData;
  none.version = version();
  none.reason = "no retrain was running";
  return none;
}

RetrainOutcome LifecycleController::RunRetrain() {
  std::lock_guard<std::mutex> retrain_lock(retrain_mu_);
  RetrainOutcome outcome;

  std::vector<whois::LabeledRecord> harvested;
  std::shared_ptr<const whois::WhoisParser> incumbent;
  {
    std::lock_guard<std::mutex> lock(mu_);
    harvested = buffer_.records();
    incumbent = current_;
  }
  if (harvested.size() < options_.min_retrain_records) {
    outcome.result = RetrainOutcome::Result::kNoData;
    outcome.version = version();
    std::ostringstream reason;
    reason << "buffer holds " << harvested.size() << " records, need "
           << options_.min_retrain_records;
    outcome.reason = reason.str();
    return outcome;
  }

  // Deterministic holdout split: every k-th harvested record gates, the
  // rest train.
  const size_t k = std::max<size_t>(
      2, static_cast<size_t>(std::llround(1.0 / options_.holdout_fraction)));
  std::vector<whois::LabeledRecord> holdout;
  std::vector<whois::LabeledRecord> train = base_training_;
  for (size_t i = 0; i < harvested.size(); ++i) {
    if (i % k == 0) {
      holdout.push_back(harvested[i]);
    } else {
      train.push_back(harvested[i]);
    }
  }

  whois::WhoisParserOptions train_options = options_.trainer;
  const auto should_stop = [this] { return cancel_.load(); };
  train_options.trainer.lbfgs.should_stop = should_stop;
  train_options.trainer.sgd.should_stop = should_stop;

  std::shared_ptr<const whois::WhoisParser> candidate;
  try {
    candidate = std::make_shared<const whois::WhoisParser>(
        whois::WhoisParser::Train(train, train_options));
  } catch (const std::exception& e) {
    outcome.result = RetrainOutcome::Result::kRejected;
    outcome.version = version();
    outcome.reason = std::string("training failed: ") + e.what();
    retrains_rejected_->Inc();
    std::lock_guard<std::mutex> lock(mu_);
    QuarantineLocked(nullptr, outcome.reason, "");
    return outcome;
  }
  if (cancel_.load()) {
    outcome.result = RetrainOutcome::Result::kCancelled;
    outcome.version = version();
    outcome.reason = "cancelled during training";
    retrains_cancelled_->Inc();
    return outcome;
  }

  outcome.gate = EvaluateGate(*candidate, *incumbent, holdout);
  if (cancel_.load()) {
    outcome.result = RetrainOutcome::Result::kCancelled;
    outcome.version = version();
    outcome.reason = "cancelled during gate evaluation";
    retrains_cancelled_->Inc();
    return outcome;
  }

  std::ostringstream gate_report;
  gate_report << "candidate_accuracy=" << outcome.gate.candidate_accuracy
              << " incumbent_accuracy=" << outcome.gate.incumbent_accuracy
              << " holdout_records=" << outcome.gate.holdout_records
              << " gate_epsilon=" << options_.gate_epsilon;

  if (outcome.gate.candidate_accuracy >=
      outcome.gate.incumbent_accuracy - options_.gate_epsilon) {
    SwapEvent event;
    {
      std::lock_guard<std::mutex> lock(mu_);
      event = SwapLocked(candidate, /*keep_previous=*/true);
      buffer_.Clear();
      buffer_gauge_->Set(0.0);
      probation_active_ = options_.probation_window > 0;
      probation_samples_ = 0;
      probation_bad_ = 0;
      outcome.version = version_;
      SaveStateLocked();
    }
    detector_.ClearAll();
    Publish(event);
    outcome.result = RetrainOutcome::Result::kPromoted;
    outcome.reason = gate_report.str();
    retrains_promoted_->Inc();
    return outcome;
  }

  outcome.result = RetrainOutcome::Result::kRejected;
  outcome.version = version();
  outcome.reason = "gate failed: " + gate_report.str();
  retrains_rejected_->Inc();
  {
    std::lock_guard<std::mutex> lock(mu_);
    QuarantineLocked(candidate.get(), outcome.reason, gate_report.str());
  }
  return outcome;
}

GateResult LifecycleController::EvaluateGate(
    const whois::WhoisParser& candidate, const whois::WhoisParser& incumbent,
    const std::vector<whois::LabeledRecord>& holdout) const {
  GateResult gate;
  gate.holdout_records = holdout.size();
  if (holdout.empty()) {
    gate.candidate_accuracy = 1.0;
    gate.incumbent_accuracy = 1.0;
    return gate;
  }
  whois::ParseWorkspace candidate_ws, incumbent_ws;
  size_t candidate_agree = 0, incumbent_agree = 0, total = 0;
  for (const whois::LabeledRecord& record : holdout) {
    const whois::ParsedWhois gold = cascade::GoldParse(record);
    candidate_agree += cascade::CountAgreeingKeyFields(
        candidate.Parse(record.text, candidate_ws), gold);
    incumbent_agree += cascade::CountAgreeingKeyFields(
        incumbent.Parse(record.text, incumbent_ws), gold);
    total += cascade::kNumKeyFields;
  }
  gate.candidate_accuracy =
      static_cast<double>(candidate_agree) / static_cast<double>(total);
  gate.incumbent_accuracy =
      static_cast<double>(incumbent_agree) / static_cast<double>(total);
  return gate;
}

LifecycleController::SwapEvent LifecycleController::SwapLocked(
    std::shared_ptr<const whois::WhoisParser> next, bool keep_previous) {
  SwapEvent event;
  event.old_version = version_;
  previous_ = keep_previous ? current_ : nullptr;
  current_ = std::move(next);
  ++version_;
  event.new_version = version_;
  event.model = current_;
  version_gauge_->Set(static_cast<double>(version_));
  return event;
}

std::optional<LifecycleController::SwapEvent>
LifecycleController::RollbackLocked(const std::string& reason) {
  if (!previous_) return std::nullopt;
  std::shared_ptr<const whois::WhoisParser> bad = current_;
  SwapEvent event = SwapLocked(previous_, /*keep_previous=*/false);
  rollbacks_total_->Inc();
  QuarantineLocked(bad.get(), "rolled back: " + reason, reason);
  SaveStateLocked();
  return event;
}

bool LifecycleController::Rollback(const std::string& reason) {
  std::optional<SwapEvent> event;
  {
    std::lock_guard<std::mutex> lock(mu_);
    event = RollbackLocked(reason);
  }
  if (!event) return false;
  Publish(*event);
  return true;
}

void LifecycleController::Publish(const SwapEvent& event) {
  SwapCallback cb;
  {
    std::lock_guard<std::mutex> lock(swap_cb_mu_);
    cb = on_swap_;
  }
  if (cb) cb(event.old_version, event.new_version, event.model);
}

void LifecycleController::QuarantineLocked(const whois::WhoisParser* model,
                                           const std::string& reason,
                                           const std::string& report) {
  const uint64_t id = quarantine_entries_.size();
  std::string model_file = "-";
  if (model != nullptr && !options_.state_dir.empty()) {
    model_file = "quarantine-model-" + std::to_string(id) + ".bin";
    std::ostringstream bytes;
    model->Save(bytes);
    util::AtomicWriteFile(options_.state_dir + "/" + model_file, bytes.str());
  }
  std::ostringstream body;
  body << "quarantined candidate model\n"
       << "model_file\t" << model_file << '\n';
  if (!report.empty()) body << "gate\t" << report << '\n';
  quarantine_entries_.push_back(
      whois::FormatQuarantineEntry(id, reason, body.str()));
  if (options_.state_dir.empty()) return;
  whois::RecordStoreOptions store_options;
  store_options.records_per_shard = quarantine_entries_.size() + 1;
  whois::RecordStoreWriter writer(QuarantinePrefix(), store_options);
  for (const std::string& entry : quarantine_entries_) writer.Append(entry);
  writer.Finish();
}

uint64_t LifecycleController::consumed() const {
  std::lock_guard<std::mutex> lock(mu_);
  return consumed_;
}

void LifecycleController::set_consumed(uint64_t n) {
  std::lock_guard<std::mutex> lock(mu_);
  consumed_ = n;
}

std::string LifecycleController::StatePath() const {
  return options_.state_dir + "/lifecycle.state";
}

std::string LifecycleController::ModelPath(uint64_t version) const {
  return options_.state_dir + "/model-v" + std::to_string(version) + ".bin";
}

std::string LifecycleController::BufferPrefix() const {
  return options_.state_dir + "/buffer";
}

std::string LifecycleController::QuarantinePrefix() const {
  return options_.state_dir + "/models-quarantine";
}

void LifecycleController::SaveState() {
  std::lock_guard<std::mutex> lock(mu_);
  SaveStateLocked();
}

void LifecycleController::SaveStateLocked() {
  if (options_.state_dir.empty()) return;
  // Model bytes land durably before the state file that references them,
  // so a crash between the two writes leaves a loadable older state.
  std::ostringstream model_bytes;
  current_->Save(model_bytes);
  util::AtomicWriteFile(ModelPath(version_), model_bytes.str());
  buffer_.Save(BufferPrefix());
  std::ostringstream state;
  state << kStateTag << '\n'
        << "version\t" << version_ << '\n'
        << "model\tmodel-v" << version_ << ".bin\n"
        << "consumed\t" << consumed_ << '\n';
  util::AtomicWriteFile(StatePath(), state.str());
}

bool LifecycleController::LoadState() {
  if (options_.state_dir.empty()) return false;
  std::string text;
  if (!util::ReadFileToString(StatePath(), text)) return false;
  std::istringstream is(text);
  std::string line;
  if (!std::getline(is, line) || line != kStateTag) {
    throw std::runtime_error("LifecycleController: bad state file tag");
  }
  uint64_t version = 0, consumed = 0;
  std::string model_file;
  while (std::getline(is, line)) {
    if (line.empty()) continue;
    const size_t tab = line.find('\t');
    if (tab == std::string::npos) {
      throw std::runtime_error("LifecycleController: malformed state line");
    }
    const std::string key = line.substr(0, tab);
    const std::string value = line.substr(tab + 1);
    if (key == "version") {
      version = std::stoull(value);
    } else if (key == "model") {
      model_file = value;
    } else if (key == "consumed") {
      consumed = std::stoull(value);
    }
    // Unknown keys are ignored for forward compatibility.
  }
  if (version == 0 || model_file.empty()) {
    throw std::runtime_error("LifecycleController: incomplete state file");
  }
  auto model = std::make_shared<const whois::WhoisParser>(
      whois::WhoisParser::LoadFile(options_.state_dir + "/" + model_file));

  std::lock_guard<std::mutex> lock(mu_);
  current_ = std::move(model);
  previous_.reset();  // rollback history is not persisted
  version_ = version;
  consumed_ = consumed;
  probation_active_ = false;
  probation_samples_ = 0;
  probation_bad_ = 0;
  buffer_.Load(BufferPrefix());
  buffer_gauge_->Set(static_cast<double>(buffer_.size()));
  version_gauge_->Set(static_cast<double>(version_));
  quarantine_entries_.clear();
  try {
    whois::RecordStoreReader reader(QuarantinePrefix());
    quarantine_entries_.reserve(reader.size());
    for (uint64_t i = 0; i < reader.size(); ++i) {
      quarantine_entries_.push_back(reader.Get(i));
    }
  } catch (const std::runtime_error&) {
    // No quarantine store yet.
  }
  return true;
}

}  // namespace whoiscrf::lifecycle
