// Subcommands of the `whoiscrf` command-line tool. Each takes the parsed
// flags and returns a process exit code. Implementations live in one file
// per command; cli_main.cc dispatches.
#pragma once

#include <optional>

#include "util/flags.h"

namespace whoiscrf::cli {

// Dispatches `command` to its Cmd* implementation, handling the global
// telemetry flags every subcommand accepts: --metrics-out=PATH writes the
// metrics registry / run report when the command finishes, --trace-out=PATH
// enables trace spans and writes Chrome trace JSON. Returns the command's
// exit code, or nullopt for an unknown command (caller prints usage).
std::optional<int> RunCommand(const std::string& command,
                              util::FlagParser& flags);

// whoiscrf gen     --out FILE --count N [--seed S] [--drift F] [--new-tld T]
// Generates a labeled synthetic corpus in the training-data text format.
int CmdGen(util::FlagParser& flags);

// whoiscrf train   --data FILE --model FILE [--sgd] [--l2 SIGMA]
//                  [--min-count K] [--iterations N] [--threads N]
// Trains the two-level parser from labeled records.
int CmdTrain(util::FlagParser& flags);

// whoiscrf parse   --model FILE [--in FILE | --in-store PREFIX]
//                  [--format json|rdap|fields|labels] [--threads N]
//                  [--watchdog-ms MS] [--store-out PREFIX [--resume]
//                   [--checkpoint-interval N] [--max-record-bytes N]]
//                  [--cascade --cascade-data FILE [--shadow-rate R]
//                   [--rule-coverage-min X] [--rule-max-unknown N]]
// Parses raw records (from --in or stdin; multiple records separated by a
// line containing only "%%"; --in-store reads a sharded binary record
// store instead) through the bounded-memory pipeline (docs/architecture.md
// "Streaming pipeline"), so corpora larger than RAM parse without being
// materialized, and prints structured output in input order. --store-out
// also packs the raw records into a checkpointed sharded store with a
// quarantine for poison records (the crash-safe path; --resume,
// --checkpoint-interval and --max-record-bytes require it); --cascade
// dispatches through the template -> rules -> CRF cascade
// (docs/cascade.md). Run `whoiscrf parse --help` for the full flag table.
int CmdParse(util::FlagParser& flags);

// whoiscrf adapt   --model FILE --data FILE --out FILE
// Warm-started retraining (the §5.3 maintenance workflow): --data is the
// training set including any newly labeled failure cases.
int CmdAdapt(util::FlagParser& flags);

// whoiscrf eval    --model FILE --data FILE [--confusion]
// Evaluates a trained model against labeled records (line/document error).
int CmdEval(util::FlagParser& flags);

// whoiscrf select  --model FILE --in FILE [--k N]
// Active learning: ranks unlabeled records by parse confidence and prints
// the k records most in need of manual labeling.
int CmdSelect(util::FlagParser& flags);

// whoiscrf crawl   [--domains N] [--seed S] [--model FILE] [--json]
// Runs the simulated registry/registrar crawl; with --model, parses every
// thick record and emits one JSON object per domain.
int CmdCrawl(util::FlagParser& flags);

// whoiscrf serve   --model FILE [--port N] [--threads K]
//                  [--queue-capacity N] [--cache-entries N]
//                  [--deadline-ms D] [--max-record-bytes N]
//                  [--drain-after-ms MS] [--cascade-data FILE
//                  [--shadow-rate R] [--rule-coverage-min X]
//                  [--rule-max-unknown N]]
// Concurrent parse service on 127.0.0.1: answers raw records with parsed
// JSON over the length-prefixed framing protocol (docs/formats.md), with a
// result cache, admission control, and graceful drain on SIGTERM/SIGINT.
// --cascade-data serves through the parser cascade (docs/cascade.md).
int CmdServe(util::FlagParser& flags);

// whoiscrf shard-router --backends P1,P2,... [--port N] [--vnodes N]
//                       [--health-interval-ms MS] [--health-timeout-ms MS]
//                       [--max-record-bytes N] [--writeq-max-bytes N]
//                       [--listen-backlog N] [--drain-after-ms MS]
// Consistent-hash front end over N backend `serve` processes: each raw
// record hashes to the same shard every time (cache affinity), frames
// forward asynchronously through the epoll event loop, and unhealthy
// shards are ejected/re-admitted by periodic health checks
// (docs/formats.md "Router health checks").
int CmdShardRouter(util::FlagParser& flags);

// whoiscrf retrain-loop --state-dir DIR [--count N] [--seed S]
//                       [--events K] [--train-count N] [--resume] ...
// Closed-loop lifecycle driver (docs/lifecycle.md): streams the temporal
// drifting corpus in time order through a LifecycleController — harvest,
// background retrain on drift alarms, gated promotion, rollback — and
// checkpoints to --state-dir so a killed run resumes with --resume.
int CmdRetrainLoop(util::FlagParser& flags);

// whoiscrf scale-run --out PREFIX [--count N] [--seed S] [--events K]
//                    [--train-count N] [--threads N] [--resume]
//                    [--checkpoint-interval N] [--cascade [--shadow-rate R]]
//                    [--smoke] [--tables-out FILE]
//                    [--bench-out FILE] [--journal FILE] [--brands A,B]
// Paper-scale survey harness (ROADMAP 5a): streams a 10-100M-record
// temporal corpus through the checkpointed parse pipeline into a sharded
// store while folding every record into the streaming SurveyAccumulator,
// then emits the §6 tables. Bounded memory at any corpus size; a killed
// run continues byte-identically with --resume. --smoke shrinks every
// knob to CI-smoke size; --bench-out writes the BENCH_scale_run.json
// artifact gated by bench/bench_floor.json.
int CmdScaleRun(util::FlagParser& flags);

// whoiscrf quarantine (ls | cat --index N | export [--out FILE])
//                     --store PREFIX
// Inspects a quarantine record store: the poison-record store of the
// checkpointed parse pipeline or the failed-candidate store of the model
// lifecycle (docs/lifecycle.md "Fail-closed quarantine").
int CmdQuarantine(util::FlagParser& flags);

}  // namespace whoiscrf::cli
