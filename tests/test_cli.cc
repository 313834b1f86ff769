// CLI layer: flag parsing, raw-record splitting, per-command help,
// command round trips through temporary files, and `parse`'s one pipeline
// path (flags that need --store-out, the watchdog, byte-identical output
// across threads, --store-out and the cascade).
#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "cascade/cascade.h"
#include "cli/commands.h"
#include "cli/help.h"
#include "net/crawl_journal.h"
#include "obs/metrics.h"
#include "util/checkpoint.h"
#include "util/flags.h"
#include "whois/json_export.h"
#include "whois/record_store.h"
#include "whois/record_stream.h"
#include "whois/stream_checkpoint.h"
#include "whois/stream_pipeline.h"
#include "whois/training_data.h"
#include "whois/whois_parser.h"

namespace whoiscrf {
namespace {

util::FlagParser Parse(std::vector<const char*> args) {
  args.insert(args.begin(), "prog");
  return util::FlagParser(static_cast<int>(args.size()), args.data(), 1);
}

TEST(FlagParserTest, SpaceAndEqualsSyntax) {
  auto flags = Parse({"--name", "value", "--count=7", "--flag"});
  EXPECT_EQ(flags.GetString("name"), "value");
  EXPECT_EQ(flags.GetInt("count", 0), 7);
  EXPECT_TRUE(flags.GetBool("flag"));
  EXPECT_TRUE(flags.UnconsumedFlags().empty());
}

TEST(FlagParserTest, DefaultsAndMissing) {
  auto flags = Parse({});
  EXPECT_EQ(flags.GetString("missing", "fallback"), "fallback");
  EXPECT_EQ(flags.GetInt("missing", 9), 9);
  EXPECT_DOUBLE_EQ(flags.GetDouble("missing", 0.5), 0.5);
  EXPECT_FALSE(flags.GetBool("missing"));
}

TEST(FlagParserTest, Positional) {
  auto flags = Parse({"file1", "--k", "3", "file2"});
  ASSERT_EQ(flags.positional().size(), 2u);
  EXPECT_EQ(flags.positional()[0], "file1");
  EXPECT_EQ(flags.positional()[1], "file2");
}

TEST(FlagParserTest, ErrorsOnBadInteger) {
  auto flags = Parse({"--count", "abc"});
  EXPECT_EQ(flags.GetInt("count", 3), 3);
  EXPECT_FALSE(flags.errors().empty());
}

TEST(FlagParserTest, DuplicateFlagIsError) {
  auto flags = Parse({"--a", "1", "--a", "2"});
  EXPECT_FALSE(flags.errors().empty());
}

TEST(FlagParserTest, UnconsumedFlagsReported) {
  auto flags = Parse({"--used", "1", "--unused", "2"});
  flags.GetInt("used", 0);
  const auto unconsumed = flags.UnconsumedFlags();
  ASSERT_EQ(unconsumed.size(), 1u);
  EXPECT_EQ(unconsumed[0], "--unused");
}

TEST(FlagParserTest, BooleanFalseValues) {
  auto flags = Parse({"--a=false", "--b=0", "--c=yes"});
  EXPECT_FALSE(flags.GetBool("a"));
  EXPECT_FALSE(flags.GetBool("b"));
  EXPECT_TRUE(flags.GetBool("c"));
}

TEST(ReadAllRecordsTest, SplitsOnSeparatorLines) {
  const std::string path = ::testing::TempDir() + "/raw_records.txt";
  {
    std::ofstream os(path);
    os << "Domain Name: A.COM\nRegistrar: X\n%%\n"
       << "Domain Name: B.COM\n%%\n";
  }
  const auto records = whois::ReadAllRecords(path);
  ASSERT_EQ(records.size(), 2u);
  EXPECT_NE(records[0].find("A.COM"), std::string::npos);
  EXPECT_NE(records[1].find("B.COM"), std::string::npos);
  EXPECT_EQ(records[1].find("A.COM"), std::string::npos);
}

TEST(ReadAllRecordsTest, SingleRecordWithoutSeparator) {
  const std::string path = ::testing::TempDir() + "/raw_single.txt";
  {
    std::ofstream os(path);
    os << "Domain Name: ONLY.COM\n";
  }
  const auto records = whois::ReadAllRecords(path);
  ASSERT_EQ(records.size(), 1u);
}

TEST(ReadAllRecordsTest, MissingFileThrows) {
  EXPECT_THROW(whois::ReadAllRecords("/nonexistent/raw.txt"),
               std::runtime_error);
}

TEST(CliCommandsTest, GenTrainEvalRoundTrip) {
  const std::string dir = ::testing::TempDir();
  const std::string train_path = dir + "/cli_round_train.txt";
  const std::string model_path = dir + "/cli_round.model";

  {
    auto flags = Parse({"--out", train_path.c_str(), "--count", "80",
                        "--seed", "5"});
    ASSERT_EQ(cli::CmdGen(flags), 0);
  }
  {
    auto flags = Parse({"--data", train_path.c_str(), "--model",
                        model_path.c_str(), "--iterations", "80"});
    ASSERT_EQ(cli::CmdTrain(flags), 0);
  }
  {
    // Evaluating the model on its own training data must be perfect.
    auto flags = Parse({"--model", model_path.c_str(), "--data",
                        train_path.c_str()});
    EXPECT_EQ(cli::CmdEval(flags), 0);
  }
}

TEST(CliCommandsTest, GenRequiresOut) {
  auto flags = Parse({"--count", "5"});
  EXPECT_EQ(cli::CmdGen(flags), 2);
}

TEST(CliCommandsTest, TrainRequiresDataAndModel) {
  auto flags = Parse({"--data", "x"});
  EXPECT_EQ(cli::CmdTrain(flags), 2);
}

TEST(RunCommandTest, UnknownCommandReturnsNullopt) {
  auto flags = Parse({});
  EXPECT_FALSE(cli::RunCommand("definitely-not-a-command", flags).has_value());
}

TEST(RunCommandTest, ParseMetricsOutWritesRunReport) {
  const std::string dir = ::testing::TempDir();
  const std::string train_path = dir + "/run_cmd_train.txt";
  const std::string model_path = dir + "/run_cmd.model";
  const std::string raw_path = dir + "/run_cmd_raw.txt";
  const std::string metrics_path = dir + "/run_cmd_metrics.json";

  {
    auto flags = Parse({"--out", train_path.c_str(), "--count", "60",
                        "--seed", "7"});
    ASSERT_EQ(cli::RunCommand("gen", flags), 0);
  }
  {
    auto flags = Parse({"--data", train_path.c_str(), "--model",
                        model_path.c_str(), "--iterations", "60"});
    ASSERT_EQ(cli::RunCommand("train", flags), 0);
  }
  {
    std::ofstream os(raw_path);
    os << "Domain Name: EXAMPLE.COM\nRegistrar: EXAMPLE REGISTRAR LLC\n";
  }
  {
    auto flags = Parse({"--model", model_path.c_str(), "--in",
                        raw_path.c_str(), "--format", "fields",
                        "--metrics-out", metrics_path.c_str()});
    ASSERT_EQ(cli::RunCommand("parse", flags), 0);
    // --metrics-out was consumed by RunCommand, not left for CmdParse.
    EXPECT_TRUE(flags.UnconsumedFlags().empty());
  }

  std::ifstream is(metrics_path);
  ASSERT_TRUE(is.good());
  std::string report((std::istreambuf_iterator<char>(is)),
                     std::istreambuf_iterator<char>());
  EXPECT_NE(report.find("\"schema\":\"whoiscrf.run_report.v1\""),
            std::string::npos);
  EXPECT_NE(report.find("\"command\":\"parse\""), std::string::npos);
  EXPECT_NE(report.find("\"exit_code\":0"), std::string::npos);
  EXPECT_NE(report.find("\"wall_seconds\":"), std::string::npos);
  // The parse fast path registered and incremented its record counter.
  EXPECT_NE(report.find("\"whoiscrf_parse_records_total\""),
            std::string::npos);
  // Training inside this process also left the optimizer metrics behind.
  EXPECT_NE(report.find("\"whoiscrf_train_iterations_total\""),
            std::string::npos);
}

TEST(CliCommandsTest, GenNewTld) {
  const std::string path = ::testing::TempDir() + "/cli_tld.txt";
  auto flags = Parse({"--out", path.c_str(), "--count", "3", "--new-tld",
                      "coop"});
  ASSERT_EQ(cli::CmdGen(flags), 0);
  std::ifstream is(path);
  std::string content((std::istreambuf_iterator<char>(is)),
                      std::istreambuf_iterator<char>());
  EXPECT_NE(content.find(".coop"), std::string::npos);
}

TEST(CliCommandsTest, StreamStoreQuarantinesAndResumesIdempotently) {
  const std::string dir = ::testing::TempDir();
  const std::string train_path = dir + "/cli_ckpt_train.txt";
  const std::string model_path = dir + "/cli_ckpt.model";
  const std::string raw_path = dir + "/cli_ckpt_raw.txt";
  const std::string store_prefix = dir + "/cli_ckpt_store";

  {
    auto flags = Parse({"--out", train_path.c_str(), "--count", "60",
                        "--seed", "11"});
    ASSERT_EQ(cli::CmdGen(flags), 0);
  }
  {
    auto flags = Parse({"--data", train_path.c_str(), "--model",
                        model_path.c_str(), "--iterations", "60"});
    ASSERT_EQ(cli::CmdTrain(flags), 0);
  }
  {
    // Three clean records plus one oversized poison record.
    std::ofstream os(raw_path);
    os << "Domain Name: A.COM\nRegistrar: One\n%%\n"
       << "Domain Name: HUGE.COM\n" << std::string(9000, 'x') << "\n%%\n"
       << "Domain Name: B.COM\nRegistrar: Two\n%%\n"
       << "Domain Name: C.COM\nRegistrar: Three\n%%\n";
  }
  {
    auto flags = Parse({"--model", model_path.c_str(), "--in",
                        raw_path.c_str(), "--store-out",
                        store_prefix.c_str(), "--max-record-bytes", "4096",
                        "--checkpoint-interval", "2"});
    ASSERT_EQ(cli::CmdParse(flags), 0);
  }
  // The oversized record was quarantined, not fatal: 3 records stored,
  // 1 quarantine entry, checkpoint marked complete.
  {
    const whois::RecordStoreReader store(store_prefix);
    EXPECT_EQ(store.size(), 3u);
    const whois::RecordStoreReader quarantine(store_prefix + "-quarantine");
    ASSERT_EQ(quarantine.size(), 1u);
    uint64_t index = 0;
    std::string reason;
    std::string raw;
    whois::ParseQuarantineEntry(quarantine.Get(0), index, reason, raw);
    EXPECT_EQ(index, 1u);
    EXPECT_NE(raw.find("HUGE.COM"), std::string::npos);
    whois::StreamCheckpoint cp;
    ASSERT_TRUE(whois::LoadStreamCheckpoint(
        whois::StreamCheckpointPath(store_prefix), cp));
    EXPECT_TRUE(cp.complete);
    EXPECT_EQ(cp.consumed, 4u);
  }
  // --resume on a finished run skips everything and leaves the store
  // byte-identical.
  std::string shard_before;
  ASSERT_TRUE(util::ReadFileToString(
      whois::RecordStoreShardPath(store_prefix, 0), shard_before));
  {
    auto flags = Parse({"--model", model_path.c_str(), "--in",
                        raw_path.c_str(), "--store-out",
                        store_prefix.c_str(), "--max-record-bytes", "4096",
                        "--checkpoint-interval", "2", "--resume"});
    ASSERT_EQ(cli::CmdParse(flags), 0);
  }
  std::string shard_after;
  ASSERT_TRUE(util::ReadFileToString(
      whois::RecordStoreShardPath(store_prefix, 0), shard_after));
  EXPECT_EQ(shard_before, shard_after);
}

TEST(CliCommandsTest, CascadeRequiresData) {
  auto flags = Parse({"--model", "unused.model", "--cascade"});
  EXPECT_EQ(cli::CmdParse(flags), 2);
}

TEST(RunCommandTest, HelpPrintsFlagTable) {
  for (const char* command :
       {"gen", "train", "parse", "adapt", "eval", "select", "crawl",
        "serve"}) {
    ASSERT_NE(cli::CommandHelp(command), nullptr) << command;
  }
  EXPECT_EQ(cli::CommandHelp("nonsense"), nullptr);

  auto flags = Parse({"--help"});
  ::testing::internal::CaptureStdout();
  const auto code = cli::RunCommand("parse", flags);
  const std::string out = ::testing::internal::GetCapturedStdout();
  ASSERT_TRUE(code.has_value());
  EXPECT_EQ(*code, 0);
  // The flag table names every parse flag, including the cascade knobs
  // and the global telemetry flags.
  for (const char* flag :
       {"--model", "--cascade", "--cascade-data", "--shadow-rate",
        "--metrics-out", "--trace-out"}) {
    EXPECT_NE(out.find(flag), std::string::npos) << flag;
  }
}

TEST(CliCommandsTest, CascadeParseRoundTrip) {
  const std::string dir = ::testing::TempDir();
  const std::string train_path = dir + "/cli_cascade_train.txt";
  const std::string model_path = dir + "/cli_cascade.model";
  const std::string raw_path = dir + "/cli_cascade_raw.txt";

  {
    auto flags = Parse({"--out", train_path.c_str(), "--count", "60",
                        "--seed", "21"});
    ASSERT_EQ(cli::CmdGen(flags), 0);
  }
  {
    auto flags = Parse({"--data", train_path.c_str(), "--model",
                        model_path.c_str(), "--iterations", "60"});
    ASSERT_EQ(cli::CmdTrain(flags), 0);
  }
  {
    // Raw input drawn from the same corpus: the cascade's cheap tiers
    // must absorb these without touching the CRF.
    const auto corpus = whois::ReadLabeledRecordsFile(train_path);
    std::ofstream os(raw_path);
    for (size_t i = 0; i < 10; ++i) os << corpus[i].text << "%%\n";
  }
  {
    auto flags = Parse({"--model", model_path.c_str(), "--in",
                        raw_path.c_str(), "--cascade", "--cascade-data",
                        train_path.c_str(), "--shadow-rate", "1.0",
                        "--format", "fields"});
    ::testing::internal::CaptureStdout();
    ASSERT_EQ(cli::CmdParse(flags), 0);
    const std::string out = ::testing::internal::GetCapturedStdout();
    EXPECT_TRUE(flags.UnconsumedFlags().empty());
    EXPECT_NE(out.find("domain:"), std::string::npos);
  }
  {
    // The checkpointed --store-out path takes the same flags.
    const std::string store_prefix = dir + "/cli_cascade_store";
    auto flags = Parse({"--model", model_path.c_str(), "--in",
                        raw_path.c_str(), "--store-out",
                        store_prefix.c_str(), "--cascade", "--cascade-data",
                        train_path.c_str(), "--format", "fields"});
    ::testing::internal::CaptureStdout();
    ASSERT_EQ(cli::CmdParse(flags), 0);
    const std::string out = ::testing::internal::GetCapturedStdout();
    EXPECT_TRUE(flags.UnconsumedFlags().empty());
    EXPECT_NE(out.find("domain:"), std::string::npos);
    std::remove(whois::RecordStoreShardPath(store_prefix, 0).c_str());
    std::remove(whois::StreamCheckpointPath(store_prefix).c_str());
  }
}

// A small model trained once per test process through `gen` + `train`;
// its labeled training corpus doubles as --cascade-data. Paths are
// per-process (ctest runs each test in its own process, often several at
// once), and the files are removed at exit.
struct TrainedModel {
  TrainedModel()
      : data(::testing::TempDir() + "/cli_shared_" +
             std::to_string(::getpid()) + "_train.txt"),
        model(::testing::TempDir() + "/cli_shared_" +
              std::to_string(::getpid()) + ".model") {
    auto gen = Parse({"--out", data.c_str(), "--count", "60", "--seed",
                      "21"});
    auto train = Parse({"--data", data.c_str(), "--model", model.c_str(),
                        "--iterations", "60"});
    if (cli::CmdGen(gen) != 0 || cli::CmdTrain(train) != 0) {
      throw std::runtime_error("cannot train the shared CLI test model");
    }
  }
  ~TrainedModel() {
    std::remove(data.c_str());
    std::remove(model.c_str());
  }
  TrainedModel(const TrainedModel&) = delete;
  TrainedModel& operator=(const TrainedModel&) = delete;
  std::string data;
  std::string model;
};

const TrainedModel& SharedModel() {
  static const TrainedModel trained;
  return trained;
}

// Writes `records` %%-framed to `path`.
void WriteRawRecords(const std::string& path,
                     const std::vector<std::string>& records) {
  std::ofstream os(path);
  for (const std::string& record : records) os << record << "%%\n";
}

// Runs `parse` with `args` and returns its stdout; `code` gets the exit
// code.
std::string RunParse(std::vector<const char*> args, int* code) {
  auto flags = Parse(std::move(args));
  ::testing::internal::CaptureStdout();
  *code = cli::CmdParse(flags);
  return ::testing::internal::GetCapturedStdout();
}

// --resume, --checkpoint-interval and --max-record-bytes only mean
// something on the checkpointed --store-out path; without it they are
// rejected rather than silently ignored.
void ExpectRequiresStoreOut(std::vector<const char*> extra) {
  const TrainedModel& trained = SharedModel();
  const std::string raw_path = ::testing::TempDir() + "/cli_store_only_" +
                               std::to_string(::getpid()) + ".txt";
  WriteRawRecords(raw_path, {"Domain Name: A.COM\nRegistrar: One\n",
                             "Domain Name: HUGE.COM\n" +
                                 std::string(9000, 'x') + "\n"});
  std::vector<const char*> args = {"--model", trained.model.c_str(), "--in",
                                   raw_path.c_str(), "--format", "json"};
  args.insert(args.end(), extra.begin(), extra.end());
  int code = -1;
  const std::string out = RunParse(args, &code);
  EXPECT_EQ(code, 2);
  EXPECT_EQ(out, "");  // nothing parsed
  std::remove(raw_path.c_str());
}

TEST(CliCommandsTest, ParseMaxRecordBytesRequiresStoreOut) {
  ExpectRequiresStoreOut({"--max-record-bytes", "4096"});
}

TEST(CliCommandsTest, ParseResumeRequiresStoreOut) {
  ExpectRequiresStoreOut({"--resume"});
}

TEST(CliCommandsTest, ParseCheckpointIntervalRequiresStoreOut) {
  ExpectRequiresStoreOut({"--checkpoint-interval", "2"});
}

TEST(CliCommandsTest, ParseWatchdogCancelsStalledRunWithoutStoreOut) {
  // The input is a FIFO whose only writer never writes: the reader stalls
  // on its first read, the watchdog trips and cancels the run, and the
  // writer then closes so the stalled read returns and the run can unwind.
  const TrainedModel& trained = SharedModel();
  const std::string fifo_path = ::testing::TempDir() + "/cli_watchdog.fifo";
  std::remove(fifo_path.c_str());
  ASSERT_EQ(::mkfifo(fifo_path.c_str(), 0600), 0);
  // O_RDWR opens a FIFO without waiting for a reader, and keeps a writer
  // attached so parse's own open does not block either.
  const int writer = ::open(fifo_path.c_str(), O_RDWR | O_CLOEXEC);
  ASSERT_GE(writer, 0);
  const auto trips = [] {
    return obs::Registry::Global().CounterValue(
        "whoiscrf_stream_watchdog_trips_total");
  };
  const uint64_t trips_before = trips();
  std::thread closer([&] {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(20);
    while (trips() == trips_before &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    ::close(writer);
  });
  auto flags = Parse({"--model", trained.model.c_str(), "--in",
                      fifo_path.c_str(), "--watchdog-ms", "100"});
  std::string what;
  try {
    cli::CmdParse(flags);
  } catch (const whois::StreamStallError& e) {
    what = e.what();
  } catch (const std::exception& e) {
    ADD_FAILURE() << "unexpected exception: " << e.what();
  }
  closer.join();
  std::remove(fifo_path.c_str());
  EXPECT_EQ(trips(), trips_before + 1);
  EXPECT_NE(what.find("reader"), std::string::npos) << what;
}

TEST(CliCommandsTest, ParseOutputIdenticalAcrossThreadsStoreAndCascade) {
  // One corpus-parse path: json and fields output, at 1 and 4 threads,
  // with and without --store-out, must be byte-identical, and json must
  // equal the sequential parse. The cascade (shadow-sampling every
  // cheap-tier record) must agree with its own sequential run the same
  // way; it differs from the CRF on some records.
  const TrainedModel& trained = SharedModel();
  const std::string dir = ::testing::TempDir();
  const std::string drifted_path = dir + "/cli_bytes_drifted.txt";
  const std::string raw_path = dir + "/cli_bytes_raw.txt";
  {
    auto flags = Parse({"--out", drifted_path.c_str(), "--count", "40",
                        "--seed", "5", "--drift", "0.6"});
    ASSERT_EQ(cli::CmdGen(flags), 0);
  }
  {
    std::vector<std::string> texts;
    for (const auto& record : whois::ReadLabeledRecordsFile(drifted_path)) {
      texts.push_back(record.text);
    }
    WriteRawRecords(raw_path, texts);
  }
  // Sequential references for json: the CRF, and the cascade on one
  // workspace (what the parse command did before it streamed).
  std::string expected_json;
  std::string expected_cascade_json;
  {
    const whois::WhoisParser parser =
        whois::WhoisParser::LoadFile(trained.model);
    cascade::CascadeOptions options;
    options.shadow_sample_rate = 1.0;
    const cascade::CascadeParser cascade_parser(
        &parser, whois::ReadLabeledRecordsFile(trained.data), options);
    whois::ParseWorkspace ws;
    for (const std::string& record : whois::ReadAllRecords(raw_path)) {
      expected_json += whois::ToJson(parser.Parse(record, ws)) + "\n";
      expected_cascade_json +=
          whois::ToJson(cascade_parser.ParseRecord(record, ws)) + "\n";
    }
  }
  ASSERT_NE(expected_json, expected_cascade_json);

  for (const char* format : {"json", "fields"}) {
    for (const bool cascade : {false, true}) {
      std::string reference;
      for (const char* threads : {"1", "4"}) {
        for (const bool store : {false, true}) {
          SCOPED_TRACE(::testing::Message()
                       << format << (cascade ? " cascade" : "") << " threads "
                       << threads << (store ? " --store-out" : ""));
          const std::string store_prefix =
              dir + "/cli_bytes_store_" + threads;
          std::vector<const char*> args = {
              "--model", trained.model.c_str(), "--in", raw_path.c_str(),
              "--format", format, "--threads", threads};
          if (store) {
            args.insert(args.end(), {"--store-out", store_prefix.c_str()});
          }
          if (cascade) {
            args.insert(args.end(),
                        {"--cascade", "--cascade-data", trained.data.c_str(),
                         "--shadow-rate", "1.0"});
          }
          int code = -1;
          const std::string out = RunParse(args, &code);
          ASSERT_EQ(code, 0);
          ASSERT_FALSE(out.empty());
          if (reference.empty()) reference = out;
          EXPECT_EQ(out, reference);
          if (std::string(format) == "json") {
            EXPECT_EQ(out, cascade ? expected_cascade_json : expected_json);
          }
        }
      }
    }
  }
  for (const char* threads : {"1", "4"}) {
    const std::string store_prefix = dir + "/cli_bytes_store_" + threads;
    std::remove(whois::RecordStoreShardPath(store_prefix, 0).c_str());
    std::remove(whois::StreamCheckpointPath(store_prefix).c_str());
  }
  std::remove(drifted_path.c_str());
  std::remove(raw_path.c_str());
}

TEST(CliCommandsTest, CrawlJournalResumeSkipsCompletedDomains) {
  const std::string journal_path =
      ::testing::TempDir() + "/cli_crawl.journal";
  std::remove(journal_path.c_str());
  {
    auto flags = Parse({"--domains", "25", "--seed", "3", "--journal",
                        journal_path.c_str()});
    ASSERT_EQ(cli::CmdCrawl(flags), 0);
  }
  const net::CrawlJournal::Replay replay =
      net::CrawlJournal::Load(journal_path);
  EXPECT_EQ(replay.domains.size(), 25u);

  // The resumed run skips every journaled domain and appends nothing new.
  {
    auto flags = Parse({"--domains", "25", "--seed", "3", "--journal",
                        journal_path.c_str(), "--resume"});
    ASSERT_EQ(cli::CmdCrawl(flags), 0);
  }
  const net::CrawlJournal::Replay after =
      net::CrawlJournal::Load(journal_path);
  EXPECT_EQ(after.domains.size(), 25u);
  std::remove(journal_path.c_str());
}

TEST(CliCommandsTest, ScaleRunRequiresOut) {
  auto flags = Parse({"--smoke"});
  EXPECT_EQ(cli::CmdScaleRun(flags), 2);
}

TEST(CliCommandsTest, ScaleRunRejectsBadShadowRate) {
  auto flags = Parse({"--smoke", "--out", "/tmp/x", "--cascade",
                      "--shadow-rate", "1.5"});
  EXPECT_EQ(cli::CmdScaleRun(flags), 2);
}

TEST(CliCommandsTest, ScaleRunSmokeStreamsChecksAndResumes) {
  const std::string dir = ::testing::TempDir();
  const std::string prefix = dir + "/cli_scale_run";
  const std::string bench_path = dir + "/cli_scale_bench.json";
  const std::string tables_path = dir + "/cli_scale_tables.txt";

  const auto read_file = [](const std::string& path) {
    std::ifstream is(path);
    std::string text((std::istreambuf_iterator<char>(is)),
                     std::istreambuf_iterator<char>());
    return text;
  };
  const auto run_args = [&](bool resume) {
    std::vector<const char*> args = {
        "--smoke",       "--count",       "300",
        "--train-count", "100",           "--checkpoint-interval",
        "64",            "--out",         prefix.c_str(),
        "--bench-out",   bench_path.c_str(), "--tables-out",
        tables_path.c_str()};
    if (resume) args.push_back("--resume");
    return args;
  };

  {
    auto flags = Parse(run_args(false));
    ASSERT_EQ(cli::CmdScaleRun(flags), 0);
    EXPECT_TRUE(flags.UnconsumedFlags().empty());
  }
  // The §6 tables and the floor-gated bench artifact both materialized,
  // and the published checkpoint (complete, all records, survey snapshot)
  // matched the live run.
  const std::string tables = read_file(tables_path);
  EXPECT_NE(tables.find("creation-year histogram"), std::string::npos);
  EXPECT_NE(read_file(bench_path).find("\"checksums_match\": true"),
            std::string::npos);

  const whois::StreamCheckpoint cp = whois::ParseStreamCheckpoint(
      read_file(whois::StreamCheckpointPath(prefix)));
  EXPECT_TRUE(cp.complete);
  EXPECT_EQ(cp.consumed, 300u);
  EXPECT_FALSE(cp.aux.empty());  // the serialized survey accumulator

  // Resuming the finished run is an idempotent no-op with identical
  // tables, restored from the checkpointed survey snapshot.
  {
    auto flags = Parse(run_args(true));
    ASSERT_EQ(cli::CmdScaleRun(flags), 0);
  }
  EXPECT_EQ(read_file(tables_path), tables);
  EXPECT_NE(read_file(bench_path).find("\"checksums_match\": true"),
            std::string::npos);

  // A published checkpoint whose cursor no longer accounts for every
  // record fails the check: exit 1 and checksums_match false.
  {
    whois::StreamCheckpoint short_cp = cp;
    short_cp.consumed = 299;
    whois::SaveStreamCheckpoint(whois::StreamCheckpointPath(prefix),
                                short_cp);
    auto flags = Parse(run_args(true));
    EXPECT_EQ(cli::CmdScaleRun(flags), 1);
  }
  EXPECT_NE(read_file(bench_path).find("\"checksums_match\": false"),
            std::string::npos);

  for (size_t s = 0; s < 8; ++s) {
    std::remove(whois::RecordStoreShardPath(prefix, s).c_str());
    std::remove(
        whois::RecordStoreShardPath(prefix + "-quarantine", s).c_str());
  }
  std::remove(whois::StreamCheckpointPath(prefix).c_str());
  std::remove(bench_path.c_str());
  std::remove(tables_path.c_str());
}

}  // namespace
}  // namespace whoiscrf
