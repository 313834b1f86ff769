// CLI layer: flag parsing, raw-record splitting, per-command help, and
// command round trips through temporary files.
#include <cstdio>
#include <fstream>
#include <iterator>

#include <gtest/gtest.h>

#include "cli/commands.h"
#include "cli/help.h"
#include "net/crawl_journal.h"
#include "util/checkpoint.h"
#include "util/flags.h"
#include "whois/record_store.h"
#include "whois/stream_checkpoint.h"
#include "whois/training_data.h"

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

TEST(ReadRawRecordsTest, SplitsOnSeparatorLines) {
  const std::string path = ::testing::TempDir() + "/raw_records.txt";
  {
    std::ofstream os(path);
    os << "Domain Name: A.COM\nRegistrar: X\n%%\n"
       << "Domain Name: B.COM\n%%\n";
  }
  const auto records = cli::ReadRawRecords(path);
  ASSERT_EQ(records.size(), 2u);
  EXPECT_NE(records[0].find("A.COM"), std::string::npos);
  EXPECT_NE(records[1].find("B.COM"), std::string::npos);
  EXPECT_EQ(records[1].find("A.COM"), std::string::npos);
}

TEST(ReadRawRecordsTest, SingleRecordWithoutSeparator) {
  const std::string path = ::testing::TempDir() + "/raw_single.txt";
  {
    std::ofstream os(path);
    os << "Domain Name: ONLY.COM\n";
  }
  const auto records = cli::ReadRawRecords(path);
  ASSERT_EQ(records.size(), 1u);
}

TEST(ReadRawRecordsTest, MissingFileThrows) {
  EXPECT_THROW(cli::ReadRawRecords("/nonexistent/raw.txt"),
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
                        raw_path.c_str(), "--stream", "--store-out",
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
                        raw_path.c_str(), "--stream", "--store-out",
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
    // The streaming path takes the same flags.
    auto flags = Parse({"--model", model_path.c_str(), "--in",
                        raw_path.c_str(), "--stream", "--cascade",
                        "--cascade-data", train_path.c_str(), "--format",
                        "fields"});
    ::testing::internal::CaptureStdout();
    ASSERT_EQ(cli::CmdParse(flags), 0);
    const std::string out = ::testing::internal::GetCapturedStdout();
    EXPECT_TRUE(flags.UnconsumedFlags().empty());
    EXPECT_NE(out.find("domain:"), std::string::npos);
  }
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
