// Self-healing model lifecycle (docs/lifecycle.md): drift-detector
// hysteresis, the fail-closed retrain gate and quarantine, probation
// rollback, kill/resume durable state, reservoir-buffer determinism, RCU
// hot swap (ModelHost + versioned cache keys), and the router's jittered
// probe backoff.
//
// Run these in the -DWHOISCRF_ASAN=ON and -DWHOISCRF_TSAN=ON trees too:
// the swap-under-load and background-retrain tests are exactly the RCU
// object-lifetime races those builds exist to catch.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "cascade/cascade.h"
#include "datagen/temporal.h"
#include "lifecycle/buffer.h"
#include "lifecycle/controller.h"
#include "lifecycle/drift.h"
#include "obs/metrics.h"
#include "serve/cache.h"
#include "serve/model_host.h"
#include "serve/protocol.h"
#include "serve/router.h"
#include "serve/server.h"
#include "text/line_splitter.h"
#include "whois/json_export.h"
#include "whois/record.h"
#include "whois/record_store.h"
#include "whois/stream_checkpoint.h"
#include "whois/whois_parser.h"

namespace whoiscrf {
namespace {

using lifecycle::ControllerOptions;
using lifecycle::DriftDetector;
using lifecycle::DriftDetectorOptions;
using lifecycle::LifecycleController;
using lifecycle::Observation;
using lifecycle::RetrainBuffer;
using lifecycle::RetrainBufferOptions;
using lifecycle::RetrainOutcome;
using serve::ModelHost;
using serve::ProbeBackoff;
using serve::ResultCache;
using whois::LabeledRecord;

// ---------------------------------------------------------------------------
// Probe backoff (router satellite)

TEST(LifecycleBackoffTest, BackoffDoublesJittersCapsAndResetsOnSuccess) {
  ProbeBackoff backoff(/*base_ms=*/100, /*max_ms=*/1000, /*jitter_seed=*/7);
  EXPECT_EQ(backoff.current_ms(), 100u);
  // Success returns exactly the base cadence, un-jittered.
  EXPECT_EQ(backoff.Next(true), 100u);

  uint64_t expected = 100;
  for (int i = 0; i < 6; ++i) {
    const uint64_t delay = backoff.Next(false);
    expected = std::min<uint64_t>(expected * 2, 1000);
    EXPECT_EQ(backoff.current_ms(), expected) << "failure " << i;
    // Jitter scales by [0.75, 1.25), floored at base_ms.
    EXPECT_GE(delay, std::max<uint64_t>(100, expected - expected / 4));
    EXPECT_LE(delay, expected + expected / 4);
  }
  // The un-jittered schedule capped at max_ms.
  EXPECT_EQ(backoff.current_ms(), 1000u);
  // One success resets the whole schedule.
  EXPECT_EQ(backoff.Next(true), 100u);
  EXPECT_EQ(backoff.current_ms(), 100u);
}

TEST(LifecycleBackoffTest, JitterIsDeterministicPerSeedAndSpreadsAcrossSeeds) {
  ProbeBackoff a(100, 10000, 3), b(100, 10000, 3), c(100, 10000, 4);
  bool seeds_diverged = false;
  for (int i = 0; i < 8; ++i) {
    const uint64_t da = a.Next(false);
    EXPECT_EQ(da, b.Next(false));  // same seed, same schedule — testable
    if (da != c.Next(false)) seeds_diverged = true;
  }
  // Different routers (seeds) must not probe in lockstep.
  EXPECT_TRUE(seeds_diverged);
}

// ---------------------------------------------------------------------------
// Versioned cache keys

TEST(LifecycleCacheTest, VersionSuffixAppendStripRoundTrip) {
  std::string key = "Domain Name: A.COM\n";
  const std::string original = key;
  ResultCache::AppendVersionSuffix(key, 0x0102030405060708ULL);
  EXPECT_EQ(key.size(), original.size() + sizeof(uint64_t));
  EXPECT_EQ(key.compare(0, original.size(), original), 0);
  ResultCache::StripVersionSuffix(key);
  EXPECT_EQ(key, original);
}

TEST(LifecycleCacheTest, EvictVersionRemovesExactlyThatVersion) {
  ResultCache cache(/*max_entries=*/16, /*shards=*/2);
  const auto keyed = [](std::string record, uint64_t version) {
    ResultCache::AppendVersionSuffix(record, version);
    return record;
  };
  cache.Put(keyed("r1", 1), "v1-json-1");
  cache.Put(keyed("r2", 1), "v1-json-2");
  cache.Put(keyed("r1", 2), "v2-json-1");
  EXPECT_EQ(cache.entries(), 3u);

  EXPECT_EQ(cache.EvictVersion(1), 2u);
  EXPECT_EQ(cache.entries(), 1u);
  std::string value;
  EXPECT_FALSE(cache.Get(keyed("r1", 1), &value));
  EXPECT_FALSE(cache.Get(keyed("r2", 1), &value));
  ASSERT_TRUE(cache.Get(keyed("r1", 2), &value));
  EXPECT_EQ(value, "v2-json-1");
  // Evicting a version with no entries is a no-op.
  EXPECT_EQ(cache.EvictVersion(1), 0u);
  EXPECT_EQ(cache.EvictVersion(7), 0u);
}

// ---------------------------------------------------------------------------
// Shared fixture: a temporal corpus with one schema-change event, a stale
// model trained before the event, and a fresh model trained across it.

std::vector<LabeledRecord> Slice(const datagen::TemporalCorpusGenerator& gen,
                                 size_t begin, size_t end) {
  std::vector<LabeledRecord> out;
  out.reserve(end - begin);
  for (size_t i = begin; i < end; ++i) out.push_back(gen.Generate(i).thick);
  return out;
}

whois::WhoisParser TrainOn(const std::vector<LabeledRecord>& corpus) {
  whois::WhoisParserOptions options;
  options.trainer.lbfgs.max_iterations = 60;
  return whois::WhoisParser::Train(corpus, options);
}

std::string MakeTempDir() {
  std::string path = ::testing::TempDir() + "whoiscrf-lifecycle-XXXXXX";
  if (mkdtemp(path.data()) == nullptr) {
    throw std::runtime_error("mkdtemp failed for " + path);
  }
  return path;
}

class LifecycleModelsTest : public ::testing::Test {
 protected:
  static constexpr size_t kEventAt = 300;  // size * 1 / (events + 1)

  static void SetUpTestSuite() {
    datagen::TemporalCorpusOptions options;
    options.size = 600;
    options.seed = 42;
    options.events = 1;
    gen_ = new datagen::TemporalCorpusGenerator(options);
    ASSERT_EQ(gen_->events()[0].at_index, kEventAt);

    // Stale: has only ever seen the pre-drift schemas.
    stale_ = std::make_shared<const whois::WhoisParser>(
        TrainOn(Slice(*gen_, 0, 120)));
    // Fresh: trained across the event, covering the drifted schemas.
    std::vector<LabeledRecord> mixed = Slice(*gen_, 0, 60);
    std::vector<LabeledRecord> post = Slice(*gen_, kEventAt, kEventAt + 120);
    mixed.insert(mixed.end(), post.begin(), post.end());
    fresh_ = std::make_shared<const whois::WhoisParser>(TrainOn(mixed));

    // A post-drift record the two models provably parse to different JSON
    // (the drifted eras plant kNull decoys a stale model mislabels).
    for (size_t i = kEventAt + 120; i < 600; ++i) {
      const std::string text = gen_->Generate(i).thick.text;
      if (whois::ToJson(stale_->Parse(text)) !=
          whois::ToJson(fresh_->Parse(text))) {
        diff_record_ = new std::string(text);
        break;
      }
    }
    ASSERT_NE(diff_record_, nullptr)
        << "no post-drift record distinguishes the stale and fresh models";
  }

  static void TearDownTestSuite() {
    delete diff_record_;
    stale_.reset();
    fresh_.reset();
    delete gen_;
    diff_record_ = nullptr;
    gen_ = nullptr;
  }

  static std::string Json(const whois::WhoisParser& parser,
                          const std::string& record) {
    return whois::ToJson(parser.Parse(record));
  }

  static datagen::TemporalCorpusGenerator* gen_;
  static std::shared_ptr<const whois::WhoisParser> stale_;
  static std::shared_ptr<const whois::WhoisParser> fresh_;
  static std::string* diff_record_;
};

datagen::TemporalCorpusGenerator* LifecycleModelsTest::gen_ = nullptr;
std::shared_ptr<const whois::WhoisParser> LifecycleModelsTest::stale_;
std::shared_ptr<const whois::WhoisParser> LifecycleModelsTest::fresh_;
std::string* LifecycleModelsTest::diff_record_ = nullptr;

// ---------------------------------------------------------------------------
// Temporal drift scenarios (datagen)

TEST_F(LifecycleModelsTest, DriftEraInjectsNullDecoysDeterministically) {
  // Pre-drift records carry no decoys.
  for (size_t i = 0; i < 20; ++i) {
    EXPECT_EQ(gen_->EpochOf(i), 0u);
    EXPECT_EQ(gen_->Generate(i).thick.text.find("Renewal"), std::string::npos);
  }
  EXPECT_EQ(gen_->EpochOf(kEventAt), 1u);

  // Some post-event record from a drifted schema carries both decoy lines,
  // and both are labeled null (field-shaped noise, not data).
  bool found = false;
  for (size_t i = kEventAt; i < kEventAt + 120 && !found; ++i) {
    const LabeledRecord record = gen_->Generate(i).thick;
    if (record.text.find("Renewal") == std::string::npos) continue;
    found = true;
    const auto lines = text::SplitRecord(record.text);
    ASSERT_EQ(lines.size(), record.labels.size());
    bool saw_renewal = false, saw_provider = false;
    for (size_t j = 0; j < lines.size(); ++j) {
      if (lines[j].text.find("Renewal") != std::string::npos) {
        saw_renewal = true;
        EXPECT_EQ(record.labels[j], whois::Level1Label::kNull)
            << lines[j].text;
      }
      if (lines[j].text.find("Notice") != std::string::npos ||
          lines[j].text.find("Partner") != std::string::npos) {
        saw_provider |= record.labels[j] == whois::Level1Label::kNull;
      }
    }
    EXPECT_TRUE(saw_renewal);
    EXPECT_TRUE(saw_provider);
  }
  ASSERT_TRUE(found) << "no drifted-era record in the scan window";

  // Generation is deterministic in (options, index): a second generator
  // reproduces the stream byte for byte.
  datagen::TemporalCorpusGenerator replay(gen_->options());
  for (size_t i : {0ul, 150ul, kEventAt, kEventAt + 77, 599ul}) {
    EXPECT_EQ(replay.Generate(i).thick.text, gen_->Generate(i).thick.text);
  }
}

// ---------------------------------------------------------------------------
// ModelHost (RCU hot swap)

TEST_F(LifecycleModelsTest, ModelHostSnapshotsSurviveSwapAndVersionsGrow) {
  ModelHost host(stale_);
  std::vector<std::pair<uint64_t, uint64_t>> swaps;
  const uint64_t sub = host.Subscribe(
      [&](uint64_t from, uint64_t to) { swaps.emplace_back(from, to); });

  const ModelHost::Snapshot before = host.Acquire();
  EXPECT_EQ(before.version, 1u);
  EXPECT_EQ(before.model.get(), stale_.get());

  EXPECT_EQ(host.Swap(fresh_), 2u);
  EXPECT_EQ(host.version(), 2u);
  EXPECT_EQ(host.Current().get(), fresh_.get());
  // The pre-swap snapshot is untouched and still parses — the RCU story.
  EXPECT_EQ(before.model.get(), stale_.get());
  EXPECT_EQ(Json(*before.model, *diff_record_), Json(*stale_, *diff_record_));
  ASSERT_EQ(swaps.size(), 1u);
  EXPECT_EQ(swaps[0], std::make_pair(uint64_t{1}, uint64_t{2}));

  // Publish with an external version authority: forward only.
  host.Publish(stale_, 10);
  EXPECT_EQ(host.version(), 10u);
  EXPECT_THROW(host.Publish(fresh_, 5), std::invalid_argument);
  EXPECT_THROW(host.Publish(fresh_, 10), std::invalid_argument);
  EXPECT_EQ(obs::Registry::Global().GaugeValue("whoiscrf_serve_model_version"),
            10.0);

  host.Unsubscribe(sub);
  host.Swap(fresh_);
  EXPECT_EQ(swaps.size(), 2u);  // Publish notified; the post-unsubscribe
                                // Swap did not
}

TEST_F(LifecycleModelsTest, HotSwapNeverServesStaleCachedJson) {
  const std::string& record = *diff_record_;
  const std::string stale_json = Json(*stale_, record);
  const std::string fresh_json = Json(*fresh_, record);
  ASSERT_NE(stale_json, fresh_json);

  ModelHost host(stale_);
  serve::ParseServiceOptions options;
  options.threads = 1;
  serve::ParseService service(&host, options);

  const serve::ServeResult cold = service.Handle(record);
  ASSERT_EQ(cold.status, serve::Status::kOk);
  EXPECT_EQ(cold.body, stale_json);
  const serve::ServeResult warm = service.Handle(record);
  EXPECT_TRUE(warm.cache_hit);
  EXPECT_EQ(warm.body, stale_json);

  host.Swap(fresh_);
  // Same record bytes, new version: the old JSON must be unreachable (key
  // inequality) — and the service evicted it eagerly anyway.
  const serve::ServeResult after = service.Handle(record);
  ASSERT_EQ(after.status, serve::Status::kOk);
  EXPECT_FALSE(after.cache_hit);
  EXPECT_EQ(after.body, fresh_json);
  const serve::ServeResult cached = service.Handle(record);
  EXPECT_TRUE(cached.cache_hit);
  EXPECT_EQ(cached.body, fresh_json);
}

TEST_F(LifecycleModelsTest, SwapUnderPipelinedLoadIsByteExactPerVersion) {
  // Two pipelined bursts over one connection with a hot swap between
  // them. Every response must be kOk (zero request failures) and
  // byte-exact for its version: the pre-swap burst matches the stale
  // model's offline parse, the post-swap burst matches the fresh one —
  // repeated records included, so the versioned cache provably never
  // answers the new version with the old version's JSON.
  std::vector<std::string> records{*diff_record_};
  for (size_t i = 0; i < 3; ++i) {
    records.push_back(gen_->Generate(kEventAt + 200 + i).thick.text);
  }
  std::vector<std::string> stale_json, fresh_json;
  for (const std::string& record : records) {
    stale_json.push_back(Json(*stale_, record));
    fresh_json.push_back(Json(*fresh_, record));
  }

  ModelHost host(stale_);
  serve::ParseServerOptions options;
  options.service.threads = 2;
  serve::ParseServer server(&host, options);

  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(server.port());
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  serve::FdStream stream(fd);

  constexpr size_t kBurst = 20;  // each record served (and cached) 5 times
  const auto burst = [&](const std::vector<std::string>& expected) {
    for (size_t i = 0; i < kBurst; ++i) {
      ASSERT_TRUE(serve::WriteFrame(stream, records[i % records.size()]));
    }
    for (size_t i = 0; i < kBurst; ++i) {
      serve::Status status = serve::Status::kError;
      std::string body;
      ASSERT_EQ(serve::ReadResponse(stream, status, body,
                                    serve::kDefaultMaxFrameBytes),
                serve::FrameRead::kFrame)
          << "request " << i;
      EXPECT_EQ(status, serve::Status::kOk) << "request " << i;
      EXPECT_EQ(body, expected[i % records.size()]) << "request " << i;
    }
  };

  burst(stale_json);
  host.Swap(fresh_);
  burst(fresh_json);  // same bytes, new version: cache hits impossible
  ::close(fd);
  server.Shutdown();
  ASSERT_NE(stale_json[0], fresh_json[0]);  // the bursts truly differed
}

// ---------------------------------------------------------------------------
// Drift detector hysteresis

TEST(LifecycleDriftTest, HysteresisTripsOnceHoldsInDeadBandAndClears) {
  DriftDetectorOptions options;
  options.window = 10;
  options.trip_threshold = 0.3;
  options.trip_windows = 2;
  options.clear_threshold = 0.1;
  options.clear_windows = 2;
  DriftDetector detector(options);
  const std::string reg = "Example Registrar, Inc.";

  // Feeds one full window with `bad` drift signals; returns true if any
  // observation tripped a new alarm.
  const auto window = [&](size_t bad) {
    bool tripped = false;
    for (size_t i = 0; i < options.window; ++i) {
      tripped |= detector.Observe(reg, i < bad);
    }
    return tripped;
  };

  // Dead band (20% > clear, < trip): never alarms, however long it lasts.
  for (int i = 0; i < 5; ++i) EXPECT_FALSE(window(2));
  EXPECT_FALSE(detector.Alarmed(reg));

  // Two consecutive hot windows trip exactly one new alarm.
  EXPECT_FALSE(window(5));  // hot streak 1 of 2
  EXPECT_TRUE(window(5));
  EXPECT_TRUE(detector.Alarmed(reg));
  EXPECT_EQ(detector.State(reg).alarms_tripped, 1u);
  EXPECT_EQ(detector.AlarmedRegistrars(), std::vector<std::string>{reg});

  // Back in the dead band: the alarm holds (no flap) and does not re-trip.
  for (int i = 0; i < 4; ++i) EXPECT_FALSE(window(2));
  EXPECT_TRUE(detector.Alarmed(reg));
  EXPECT_EQ(detector.State(reg).alarms_tripped, 1u);

  // One cool window is not enough; two consecutive clear it.
  EXPECT_FALSE(window(0));
  EXPECT_TRUE(detector.Alarmed(reg));
  EXPECT_FALSE(window(0));
  EXPECT_FALSE(detector.Alarmed(reg));

  // A fresh burst re-trips: lifetime alarm count reaches 2.
  EXPECT_FALSE(window(9));
  EXPECT_TRUE(window(9));
  EXPECT_EQ(detector.State(reg).alarms_tripped, 2u);

  // Registrars are independent buckets.
  EXPECT_FALSE(detector.Alarmed("Other Registrar LLC"));
}

// ---------------------------------------------------------------------------
// Controller: gate, quarantine, probation rollback, durable state

class LifecycleControllerTest : public LifecycleModelsTest {
 protected:
  static ControllerOptions Opts(const std::string& state_dir = "") {
    ControllerOptions options;
    options.drift.window = 8;
    options.buffer.capacity = 64;
    options.buffer.seed = 7;
    options.min_retrain_records = 8;
    options.holdout_fraction = 0.25;
    options.probation_window = 6;
    options.rollback_disagreement_rate = 0.5;
    options.trainer.trainer.lbfgs.max_iterations = 40;
    options.state_dir = state_dir;
    return options;
  }

  // Harvests `n` post-drift records into the controller's buffer via the
  // shadow-disagreement signal (the cascade-backed harvest path).
  static void Harvest(LifecycleController& controller, size_t n,
                      size_t from = kEventAt) {
    for (size_t i = from; i < from + n; ++i) {
      const LabeledRecord truth = gen_->Generate(i).thick;
      Observation obs;
      obs.registrar = truth.text.substr(0, 12);
      obs.shadow_sampled = true;
      obs.shadow_disagreed = true;
      controller.Observe(obs, &truth);
    }
  }
};

TEST_F(LifecycleControllerTest, RetrainWithEmptyBufferIsNoData) {
  LifecycleController controller(stale_, Slice(*gen_, 0, 60), Opts());
  const RetrainOutcome outcome = controller.RetrainNow();
  EXPECT_EQ(outcome.result, RetrainOutcome::Result::kNoData);
  EXPECT_EQ(outcome.version, 1u);
  EXPECT_EQ(controller.version(), 1u);
  EXPECT_EQ(lifecycle::RetrainResultName(outcome.result), "no_data");
}

TEST_F(LifecycleControllerTest, FailingGateQuarantinesCandidateFailClosed) {
  const std::string dir = MakeTempDir();
  ControllerOptions options = Opts(dir);
  // An impossible gate: candidate accuracy can never exceed incumbent + 2.
  options.gate_epsilon = -2.0;
  LifecycleController controller(stale_, Slice(*gen_, 0, 120), options);
  Harvest(controller, 12);
  EXPECT_EQ(controller.buffer_size(), 12u);

  const RetrainOutcome outcome = controller.RetrainNow();
  EXPECT_EQ(outcome.result, RetrainOutcome::Result::kRejected);
  EXPECT_NE(outcome.reason.find("gate failed"), std::string::npos);
  EXPECT_GT(outcome.gate.holdout_records, 0u);
  // Fail-closed: the live model and version are untouched.
  EXPECT_EQ(controller.version(), 1u);
  EXPECT_EQ(controller.Current().get(), stale_.get());
  // The buffer survives for the next attempt.
  EXPECT_EQ(controller.buffer_size(), 12u);

  // The rejected candidate is quarantined with its gate numbers and its
  // model binary, inspectable offline (`whoiscrf quarantine`).
  whois::RecordStoreReader quarantine(dir + "/models-quarantine");
  ASSERT_EQ(quarantine.size(), 1u);
  uint64_t index = 0;
  std::string reason, body;
  whois::ParseQuarantineEntry(quarantine.Get(0), index, reason, body);
  EXPECT_NE(reason.find("gate failed"), std::string::npos);
  EXPECT_NE(body.find("model_file\tquarantine-model-0.bin"),
            std::string::npos);
  struct stat st{};
  EXPECT_EQ(::stat((dir + "/quarantine-model-0.bin").c_str(), &st), 0);
}

TEST_F(LifecycleControllerTest, PromotionThenProbationSpikeRollsBack) {
  ControllerOptions options = Opts();
  options.gate_epsilon = 2.0;  // the gate always passes: isolate the
                               // probation watchdog
  LifecycleController controller(stale_, Slice(*gen_, 0, 120), options);
  std::vector<std::pair<uint64_t, uint64_t>> swaps;
  controller.set_on_swap([&](uint64_t from, uint64_t to,
                             std::shared_ptr<const whois::WhoisParser>) {
    swaps.emplace_back(from, to);
  });

  Harvest(controller, 12);
  const RetrainOutcome outcome = controller.RetrainNow();
  ASSERT_EQ(outcome.result, RetrainOutcome::Result::kPromoted);
  EXPECT_EQ(outcome.version, 2u);
  EXPECT_EQ(controller.version(), 2u);
  EXPECT_NE(controller.Current().get(), stale_.get());
  EXPECT_EQ(controller.buffer_size(), 0u);  // consumed by the retrain
  ASSERT_EQ(swaps.size(), 1u);
  EXPECT_EQ(swaps[0], std::make_pair(uint64_t{1}, uint64_t{2}));

  // Probation: 6 shadow samples, all disagreeing — the promotion was bad.
  Observation bad;
  bad.registrar = "Example Registrar, Inc.";
  bad.shadow_sampled = true;
  bad.shadow_disagreed = true;
  for (int i = 0; i < 6; ++i) controller.Observe(bad);

  // Rolled back to the ORIGINAL model object, under a fresh version so
  // caches never confuse its second reign with its first.
  EXPECT_EQ(controller.version(), 3u);
  EXPECT_EQ(controller.Current().get(), stale_.get());
  ASSERT_EQ(swaps.size(), 2u);
  EXPECT_EQ(swaps[1], std::make_pair(uint64_t{2}, uint64_t{3}));
  // Only one step of history: nothing further to roll back to.
  EXPECT_FALSE(controller.Rollback("again"));
  EXPECT_EQ(controller.version(), 3u);
}

TEST_F(LifecycleControllerTest, BackgroundRetrainCancelsAndKeepsIncumbent) {
  ControllerOptions options = Opts();
  options.gate_epsilon = 2.0;
  LifecycleController controller(stale_, Slice(*gen_, 0, 120), options);
  Harvest(controller, 12);

  ASSERT_TRUE(controller.StartRetrain());
  EXPECT_FALSE(controller.StartRetrain());  // one retrain at a time
  controller.CancelRetrain();
  const RetrainOutcome outcome = controller.WaitRetrain();
  EXPECT_EQ(outcome.result, RetrainOutcome::Result::kCancelled);
  EXPECT_EQ(controller.version(), 1u);
  EXPECT_EQ(controller.Current().get(), stale_.get());
  EXPECT_FALSE(controller.retraining());
  // The outcome was consumed by WaitRetrain.
  EXPECT_FALSE(controller.PollOutcome().has_value());
}

TEST_F(LifecycleControllerTest, KillResumeRestoresVersionCursorAndBuffer) {
  const std::string dir = MakeTempDir();
  ControllerOptions options = Opts(dir);
  options.gate_epsilon = 2.0;
  const std::string probe = gen_->Generate(kEventAt + 50).thick.text;
  std::string promoted_json;
  uint64_t consumed = 0;

  {
    LifecycleController controller(stale_, Slice(*gen_, 0, 120), options);
    EXPECT_FALSE(controller.LoadState());  // nothing persisted yet
    controller.set_consumed(100);
    Harvest(controller, 12);
    ASSERT_EQ(controller.RetrainNow().result,
              RetrainOutcome::Result::kPromoted);
    Harvest(controller, 5, kEventAt + 20);  // post-promotion harvest
    controller.SaveState();
    promoted_json = whois::ToJson(controller.Current()->Parse(probe));
    consumed = controller.consumed();
    EXPECT_EQ(consumed, 117u);
  }  // "kill": the controller is destroyed with state on disk

  LifecycleController resumed(stale_, Slice(*gen_, 0, 120), options);
  ASSERT_TRUE(resumed.LoadState());
  EXPECT_EQ(resumed.version(), 2u);
  EXPECT_EQ(resumed.consumed(), consumed);
  EXPECT_EQ(resumed.buffer_size(), 5u);
  // The reloaded model file parses byte-identically to the promoted one.
  EXPECT_EQ(whois::ToJson(resumed.Current()->Parse(probe)), promoted_json);
}

TEST(LifecycleBufferTest, ReservoirIsDeterministicAcrossSaveLoad) {
  RetrainBufferOptions options;
  options.capacity = 8;
  options.seed = 9;
  const auto record_at = [](size_t i) {
    LabeledRecord record;
    record.text = "Domain Name: d" + std::to_string(i) + ".com\n";
    record.labels = {whois::Level1Label::kDomain};
    record.sub_labels = {std::nullopt};
    return record;
  };

  RetrainBuffer uninterrupted(options);
  for (size_t i = 0; i < 60; ++i) uninterrupted.Add(record_at(i));
  EXPECT_EQ(uninterrupted.size(), options.capacity);
  EXPECT_EQ(uninterrupted.seen(), 60u);

  // The same stream with a save/load in the middle lands on the exact
  // same reservoir — the keep/replace decision is a pure hash of
  // (seed, n), not process-local RNG state.
  const std::string prefix = MakeTempDir() + "/buffer";
  RetrainBuffer first_half(options);
  for (size_t i = 0; i < 30; ++i) first_half.Add(record_at(i));
  first_half.Save(prefix);
  RetrainBuffer second_half(options);
  ASSERT_TRUE(second_half.Load(prefix));
  EXPECT_EQ(second_half.seen(), 30u);
  for (size_t i = 30; i < 60; ++i) second_half.Add(record_at(i));

  ASSERT_EQ(second_half.size(), uninterrupted.size());
  for (size_t i = 0; i < uninterrupted.size(); ++i) {
    EXPECT_EQ(second_half.records()[i].text, uninterrupted.records()[i].text)
        << "reservoir slot " << i;
  }

  // Loading from a prefix that was never saved leaves the buffer empty.
  RetrainBuffer missing(options);
  EXPECT_FALSE(missing.Load(prefix + "-nonexistent"));
  EXPECT_EQ(missing.size(), 0u);
}

// The closed loop end to end at miniature scale: drift trips the alarm,
// the retrained candidate passes the gate, and the promoted model heals
// the post-drift accuracy a stale model lost. This is the acceptance
// criterion of docs/lifecycle.md in unit-test form (bench_lifecycle runs
// it at full scale).
TEST_F(LifecycleControllerTest, ClosedLoopRecoversPostDriftAccuracy) {
  ControllerOptions options = Opts();
  options.gate_epsilon = 0.01;
  options.drift.window = 6;  // small stream: trip within two short windows
  LifecycleController controller(stale_, Slice(*gen_, 0, 120), options);

  // Stream post-drift records; harvest the ones the stale model gets
  // wrong (truth-signal harvesting, as the retrain-loop driver does).
  whois::ParseWorkspace ws;
  const auto accuracy_over = [&](const whois::WhoisParser& parser,
                                 size_t begin, size_t end) {
    size_t agree = 0, total = 0;
    for (size_t i = begin; i < end; ++i) {
      const LabeledRecord record = gen_->Generate(i).thick;
      const whois::ParsedWhois gold = cascade::GoldParse(record);
      agree +=
          cascade::CountAgreeingKeyFields(parser.Parse(record.text, ws), gold);
      total += cascade::kNumKeyFields;
    }
    return static_cast<double>(agree) / static_cast<double>(total);
  };

  bool alarmed = false;
  for (size_t i = kEventAt; i < kEventAt + 96; ++i) {
    const LabeledRecord record = gen_->Generate(i).thick;
    const whois::ParsedWhois gold = cascade::GoldParse(record);
    const bool wrong =
        cascade::CountAgreeingKeyFields(
            controller.Current()->Parse(record.text, ws), gold) <
        cascade::kNumKeyFields;
    Observation obs;
    obs.registrar = gen_->Generate(i).facts.registrar_name;
    obs.shadow_sampled = true;
    obs.shadow_disagreed = wrong;
    alarmed |= controller.Observe(obs, wrong ? &record : nullptr);
  }
  ASSERT_TRUE(alarmed) << "drift never tripped an alarm";
  ASSERT_GE(controller.buffer_size(), options.min_retrain_records);

  // Score on records the loop never harvested from.
  const double before = accuracy_over(*controller.Current(), kEventAt + 96,
                                      kEventAt + 160);
  const RetrainOutcome outcome = controller.RetrainNow();
  ASSERT_EQ(outcome.result, RetrainOutcome::Result::kPromoted);
  const double after = accuracy_over(*controller.Current(), kEventAt + 96,
                                     kEventAt + 160);
  EXPECT_LT(before, 1.0);  // the stale model measurably degraded
  EXPECT_GT(after, before);
  // Within 0.01 of a model trained on post-drift data from the start.
  const double fresh_accuracy =
      accuracy_over(*fresh_, kEventAt + 96, kEventAt + 160);
  EXPECT_GE(after, fresh_accuracy - 0.01);
}

}  // namespace
}  // namespace whoiscrf
