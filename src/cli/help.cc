#include "cli/help.h"

#include <string>
#include <unordered_map>

namespace whoiscrf::cli {

namespace {

// Flags every subcommand accepts, appended to each command's help.
constexpr const char* kGlobalFlags = R"HELP(
global flags (every command):
  --metrics-out FILE     write the metrics registry when the command ends
                         (.prom/.txt Prometheus text, .jsonl appends one
                         run-report line, anything else a JSON run report)
  --trace-out FILE       record trace spans and write Chrome trace JSON
                         (open at chrome://tracing or ui.perfetto.dev)
  --help                 print this help and exit
)HELP";

constexpr const char* kGenHelp = R"HELP(usage: whoiscrf gen --out FILE [flags]

Generate a labeled synthetic WHOIS corpus in the training-data text format
(docs/formats.md).

flags:
  --out FILE             output path (required)
  --count N              number of domains to generate (default 100)
  --seed S               RNG seed (default 42)
  --drift F              fraction of records drawn from drifted template
                         variants (default 0.25)
  --new-tld TLD          also emit records for a held-out TLD, for
                         adaptation experiments
)HELP";

constexpr const char* kTrainHelp = R"HELP(usage: whoiscrf train --data FILE --model FILE [flags]

Train the two-level CRF parser from labeled records.

flags:
  --data FILE            labeled training records (required)
  --model FILE           output model path (required)
  --l2 SIGMA             L2 regularization sigma (default 10.0)
  --min-count K          minimum attribute count to keep a feature
                         (default 1)
  --iterations N         L-BFGS iteration cap (default 150)
  --threads N            training threads (default 0 = hardware)
  --sgd                  train with SGD instead of L-BFGS
  --epochs N             SGD epochs, with --sgd (default 30)
  --verbose              print per-iteration objective values
)HELP";

constexpr const char* kParseHelp = R"HELP(usage: whoiscrf parse --model FILE [flags]

Parse raw WHOIS records (from --in, --in-store, or stdin; multiple records
separated by a line containing only "%%") through the bounded-memory
pipeline (the corpus is never materialized; docs/architecture.md) and print
structured output in input order.

flags:
  --model FILE           trained model (required)
  --in FILE              raw records file ("" or omitted = stdin)
  --in-store PREFIX      read a sharded binary record store instead
  --store-out PREFIX     also pack raw records into a checkpointed sharded
                         binary store: the crash-safe path (quarantine +
                         resume)
  --format FMT           json | rdap | fields | labels (default fields)
  --threads N            worker threads (default 0 = hardware)
  --watchdog-ms MS       pipeline stall watchdog: if no batch moves for MS,
                         cancel the run and exit 1 naming the suspect stage
                         (default 0 = off)
  --resume               with --store-out: continue an interrupted run from
                         the checkpoint
  --checkpoint-interval N
                         with --store-out: records between checkpoints
                         (default 4096)
  --max-record-bytes N   with --store-out: quarantine records larger than N
                         bytes (default 0 = off)
  --cascade              dispatch through the parser cascade
                         (template -> rules -> CRF; docs/cascade.md)
  --cascade-data FILE    labeled records the cascade's template and rule
                         tiers are built from (required with --cascade)
  --shadow-rate R        fraction of cheap-path records shadow-parsed
                         through the CRF (default 0 = off)
  --rule-coverage-min X  minimum learned-rule coverage to keep a record at
                         the rule tier (default 0.98)
  --rule-max-unknown N   titled lines unknown to the rule base before a
                         record falls through to the CRF (default 0)
)HELP";

constexpr const char* kAdaptHelp = R"HELP(usage: whoiscrf adapt --model FILE --data FILE --out FILE

Warm-started retraining (the paper's maintenance workflow): --data is the
training set including any newly labeled failure cases.

flags:
  --model FILE           model to adapt (required)
  --data FILE            labeled records to retrain on (required)
  --out FILE             output model path (required)
)HELP";

constexpr const char* kEvalHelp = R"HELP(usage: whoiscrf eval --model FILE --data FILE [flags]

Evaluate a trained model against labeled records (line and document error).

flags:
  --model FILE           trained model (required)
  --data FILE            labeled evaluation records (required)
  --confusion            also print the level-1 confusion matrix
)HELP";

constexpr const char* kSelectHelp = R"HELP(usage: whoiscrf select --model FILE --in FILE [flags]

Active learning: rank unlabeled records by parse confidence and print the k
records most in need of manual labeling.

flags:
  --model FILE           trained model (required)
  --in FILE              raw records to rank (required)
  --k N                  how many records to print (default 5)
)HELP";

constexpr const char* kCrawlHelp = R"HELP(usage: whoiscrf crawl [flags]

Run the simulated registry/registrar crawl; with --model, parse every thick
record and emit one JSON object per domain.

flags:
  --domains N            domains to crawl (default 200)
  --seed S               RNG seed (default 42)
  --model FILE           parse thick records with this model
  --json                 emit JSON even without --model
  --journal FILE         durable crawl journal for crash-safe resume
  --resume               continue from an existing --journal
)HELP";

constexpr const char* kServeHelp = R"HELP(usage: whoiscrf serve --model FILE [flags]

Run the concurrent parse service on 127.0.0.1: raw records in, parsed JSON
out, over the length-prefixed framing protocol (docs/formats.md). SIGTERM
or SIGINT drains gracefully.

flags:
  --model FILE           trained model (required)
  --port N               listen port (default 0 = ephemeral)
  --threads K            worker threads (default 0 = hardware)
  --queue-capacity N     admission-control queue bound (default 128)
  --cache-entries N      result cache capacity (default 4096)
  --deadline-ms D        per-request deadline (default 0 = none)
  --max-record-bytes N   maximum request frame size
  --drain-after-ms MS    self-drain after MS, for tests/demos that cannot
                         send signals (default 0 = run until signaled)
  --event-loops N        event-loop threads multiplexing connections
                         (default 1)
  --writeq-max-bytes N   per-connection write-queue bound before the
                         connection stops being read (backpressure;
                         default 4194304, 0 = unbounded)
  --listen-backlog N     listen(2) backlog (default 1024)
  --model-watch          hot model reload (docs/lifecycle.md "Hot swap"):
                         poll --model for changes, load off the serving
                         path, swap atomically; SIGHUP forces a reload
                         check; a load failure keeps the current model;
                         mutually exclusive with --cascade-data
  --model-watch-ms MS    model file poll cadence (default 1000)
  --cascade-data FILE    serve through the parser cascade built from these
                         labeled records (docs/cascade.md)
  --shadow-rate R        cascade shadow-sample rate (default 0 = off)
  --rule-coverage-min X  cascade rule-tier coverage gate (default 0.98)
  --rule-max-unknown N   cascade rule-tier unknown-title budget (default 0)
)HELP";

constexpr const char* kRetrainLoopHelp =
    R"HELP(usage: whoiscrf retrain-loop --state-dir DIR [flags]

Closed-loop self-healing lifecycle driver (docs/lifecycle.md): stream the
temporal drifting corpus in time order, harvest drift-signaled records
into the retraining buffer, retrain in the background when a registrar's
drift alarm trips, gate candidates against the incumbent on held-out
data, promote (or quarantine) them, and roll back a promotion whose
post-swap disagreement rate spikes. State checkpoints to --state-dir so a
killed run continues with --resume.

flags:
  --state-dir DIR        durable lifecycle state: live model, retraining
                         buffer, cursor, quarantined candidates (required;
                         created if missing)
  --count N              temporal corpus size = records streamed
                         (default 20000)
  --seed S               corpus + reservoir RNG seed (default 42)
  --events K             schema-change events, evenly spaced (default 2)
  --train-count N        pre-drift prefix used to train the initial model
                         and as every candidate's base corpus
                         (default 400)
  --resume               continue from an existing --state-dir checkpoint
  --retrain-sync         retrain inline at the alarm instead of on the
                         background thread (deterministic record->version
                         mapping for tests and replayed streams)
  --window N             drift-detector window per registrar (default 64)
  --buffer-capacity N    harvest reservoir capacity (default 512)
  --min-retrain N        harvested records required before a retrain
                         starts (default 64)
  --gate-epsilon X       promotion gate: candidate holdout accuracy must
                         be >= incumbent - X (default 0.01)
  --confidence-floor X   also harvest records whose marginal confidence
                         falls below X (default 0 = truth-signal only)
  --probation-window N   post-promotion shadow samples scored before the
                         promotion is trusted (default 64)
  --rollback-rate X      probation disagreement rate that rolls the
                         promotion back (default 0.5)
  --report-every N       records per accuracy report line (default 2000)
  --checkpoint-interval N
                         records between state checkpoints (default 4096)
  --iterations N         L-BFGS iteration cap per (re)train (default 60)
  --l2 SIGMA             L2 regularization sigma (default 10.0)
  --threads N            training threads (default 0 = hardware)
)HELP";

constexpr const char* kScaleRunHelp =
    R"HELP(usage: whoiscrf scale-run --out PREFIX [flags]

Paper-scale survey harness (docs/architecture.md "Paper-scale runs"):
generates a temporal synthetic corpus one record at a time, streams it
through the checkpointed parse pipeline into a sharded record store at
--out, folds every parsed record into the streaming survey accumulator,
and prints the paper's §6 tables. Memory stays bounded at any --count;
a killed run continues byte-identically with --resume; --bench-out
writes the BENCH_scale_run.json artifact the nightly scale CI tier
gates against bench/bench_floor.json. After the run it reloads the
published checkpoint and exits 1 unless it is complete, accounts for
all --count records, and holds a survey snapshot equal to the printed
tables (the artifact's checksums_match).

flags:
  --out PREFIX           record store + checkpoint prefix (required)
  --count N              corpus size = records streamed (default 1000000;
                         --smoke 2000)
  --seed S               corpus RNG seed (default 42)
  --events K             schema-change events in the temporal corpus,
                         evenly spaced (default 2)
  --train-count N        corpus prefix the parser trains on (default 300;
                         --smoke 120)
  --threads N            parse workers (default 0 = hardware)
  --resume               continue from PREFIX.ckpt instead of restarting
  --checkpoint-interval N
                         records between durable checkpoints (default
                         65536; --smoke 256)
  --cascade              dispatch through the template -> rules -> CRF
                         cascade built from the training prefix
  --shadow-rate R        cascade shadow-sample rate in [0,1] (default 0)
  --smoke                CI-smoke preset: shrinks count/train-count/
                         checkpoint-interval defaults; explicit flags
                         still win
  --top-k N              rows per survey table (default 10)
  --brands A,B,...       registrant orgs to count exactly (Table 4)
  --tables-out FILE      write the survey tables here instead of stdout
  --bench-out FILE       write the BENCH_scale_run.json artifact
  --journal FILE         append one crawl-journal line per checkpoint
  --watchdog-ms MS       pipeline stall watchdog: if no batch moves for MS,
                         cancel the run and exit 1 naming the suspect stage
                         (default 0 = off)
  --max-record-bytes N   quarantine records larger than N bytes
)HELP";

constexpr const char* kQuarantineHelp =
    R"HELP(usage: whoiscrf quarantine (ls | cat | export) --store PREFIX [flags]

Inspect a quarantine record store: the poison-record store the
checkpointed parse pipeline writes next to its output store, or the
failed-candidate store the model lifecycle keeps under its state dir
(docs/lifecycle.md "Fail-closed quarantine"). --store accepts either the
main store prefix (the quarantine rides at PREFIX-quarantine) or the
quarantine store's own prefix.

modes:
  ls                     one TSV line per entry: index, reason, bytes
  cat                    print one entry's raw record (reason to stderr)
  export                 dump all records, %%-framed, re-parseable by
                         `whoiscrf parse --in`

flags:
  --store PREFIX         record store prefix (required)
  --index N              which entry to cat (the index column of ls)
  --out FILE             export destination (default stdout)
)HELP";

constexpr const char* kShardRouterHelp =
    R"HELP(usage: whoiscrf shard-router --backends P1,P2,... [flags]

Consistent-hash front end over N backend `whoiscrf serve` processes: each
raw record always routes to the same shard (cache affinity), frames are
forwarded asynchronously through the epoll event loop, and periodic health
checks eject and re-admit shards automatically (docs/formats.md "Router
health checks"). SIGTERM or SIGINT drains gracefully.

flags:
  --backends LIST        comma-separated backend endpoints, each "port" or
                         "ip:port" on loopback (required)
  --port N               listen port (default 0 = ephemeral)
  --vnodes N             virtual ring points per shard (default 64)
  --health-interval-ms MS
                         health-probe cadence (default 1000; 0 = off)
  --health-timeout-ms MS health-probe budget: connect + empty frame +
                         complete response (default 250)
  --max-record-bytes N   maximum request frame size
  --writeq-max-bytes N   per-connection write-queue bound before the
                         connection stops being read (backpressure;
                         default 4194304, 0 = unbounded)
  --listen-backlog N     listen(2) backlog (default 1024)
  --drain-after-ms MS    self-drain after MS, for tests/demos that cannot
                         send signals (default 0 = run until signaled)
)HELP";

}  // namespace

const char* CommandHelp(const std::string& command) {
  static const std::unordered_map<std::string, std::string>* table = [] {
    auto* t = new std::unordered_map<std::string, std::string>;
    const auto add = [t](const char* name, const char* body) {
      (*t)[name] = std::string(body) + kGlobalFlags;
    };
    add("gen", kGenHelp);
    add("train", kTrainHelp);
    add("parse", kParseHelp);
    add("adapt", kAdaptHelp);
    add("eval", kEvalHelp);
    add("select", kSelectHelp);
    add("crawl", kCrawlHelp);
    add("serve", kServeHelp);
    add("shard-router", kShardRouterHelp);
    add("retrain-loop", kRetrainLoopHelp);
    add("scale-run", kScaleRunHelp);
    add("quarantine", kQuarantineHelp);
    return t;
  }();
  const auto it = table->find(command);
  return it == table->end() ? nullptr : it->second.c_str();
}

}  // namespace whoiscrf::cli
