// whoiscrf — command-line interface to the statistical WHOIS parser.
//
//   whoiscrf gen     generate a labeled synthetic corpus
//   whoiscrf train   train a parser from labeled records
//   whoiscrf parse   parse raw records to structured output
//   whoiscrf eval    evaluate a model against labeled records
//   whoiscrf select  rank unlabeled records for manual labeling
//   whoiscrf crawl   crawl the simulated .com and emit parsed JSON
//   whoiscrf serve   run the concurrent parse service on 127.0.0.1
//   whoiscrf shard-router
//                    consistent-hash front end over N serve backends
//   whoiscrf retrain-loop
//                    closed-loop drift detection + retraining driver
//   whoiscrf scale-run
//                    paper-scale streaming survey harness
//   whoiscrf quarantine
//                    inspect a quarantine record store
//
// Run `whoiscrf <command> --help` for per-command flags.
#include <cstdio>
#include <cstring>
#include <exception>
#include <string>

#include "cli/commands.h"

namespace {

void PrintUsage() {
  std::fprintf(stderr,
               "usage: whoiscrf <command> [flags]\n"
               "\n"
               "commands:\n"
               "  gen     --out FILE --count N [--seed S] [--drift F] "
               "[--new-tld TLD]\n"
               "  train   --data FILE --model FILE [--sgd] [--l2 SIGMA] "
               "[--min-count K]\n"
               "  parse   --model FILE [--in FILE] [--format "
               "json|rdap|fields|labels] [--threads N]\n"
               "          [--watchdog-ms MS] [--store-out PREFIX [--resume]\n"
               "          [--checkpoint-interval N] [--max-record-bytes N]]\n"
               "          [--cascade --cascade-data FILE "
               "[--shadow-rate R]]\n"
               "  adapt   --model FILE --data FILE --out FILE\n"
               "  eval    --model FILE --data FILE [--confusion]\n"
               "  select  --model FILE --in FILE [--k N]\n"
               "  crawl   [--domains N] [--seed S] [--model FILE] [--json]\n"
               "          [--journal FILE] [--resume]\n"
               "  serve   --model FILE [--port N] [--threads K]\n"
               "          [--queue-capacity N] [--cache-entries N]\n"
               "          [--deadline-ms D] [--max-record-bytes N]\n"
               "          [--event-loops N]\n"
               "          [--model-watch [--model-watch-ms MS]]\n"
               "          [--cascade-data FILE [--shadow-rate R]]\n"
               "  shard-router\n"
               "          --backends P1,P2,... [--port N] [--vnodes N]\n"
               "          [--health-interval-ms MS] [--health-timeout-ms MS]\n"
               "  retrain-loop\n"
               "          --state-dir DIR [--count N] [--seed S] "
               "[--events K]\n"
               "          [--train-count N] [--resume]\n"
               "  scale-run\n"
               "          --out PREFIX [--count N] [--smoke] [--resume]\n"
               "          [--cascade [--shadow-rate R]]\n"
               "          [--tables-out FILE] [--bench-out FILE]\n"
               "  quarantine\n"
               "          (ls | cat --index N | export [--out FILE]) "
               "--store PREFIX\n"
               "\n"
               "global flags (every command):\n"
               "  --metrics-out FILE   write metrics when the command ends\n"
               "                       (.prom/.txt Prometheus, .jsonl append,\n"
               "                       else JSON run report)\n"
               "  --trace-out FILE     record trace spans; open the file at\n"
               "                       chrome://tracing or ui.perfetto.dev\n"
               "  --help               per-command flag table\n");
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    PrintUsage();
    return 2;
  }
  const std::string command = argv[1];
  whoiscrf::util::FlagParser flags(argc, argv, 2);

  try {
    const std::optional<int> run = whoiscrf::cli::RunCommand(command, flags);
    if (!run.has_value()) {
      std::fprintf(stderr, "unknown command '%s'\n", command.c_str());
      PrintUsage();
      return 2;
    }
    int code = *run;
    for (const auto& unused : flags.UnconsumedFlags()) {
      std::fprintf(stderr, "warning: unused flag %s\n", unused.c_str());
    }
    for (const auto& error : flags.errors()) {
      std::fprintf(stderr, "error: %s\n", error.c_str());
      code = 2;
    }
    return code;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
