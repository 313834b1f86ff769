#include <cstdio>
#include <iostream>
#include <memory>
#include <stdexcept>

#include "cascade/cascade.h"
#include "cli/commands.h"
#include "obs/metrics.h"
#include "text/line_splitter.h"
#include "util/chunk_reader.h"
#include "whois/json_export.h"
#include "whois/record_store.h"
#include "whois/record_stream.h"
#include "whois/stream_checkpoint.h"
#include "whois/stream_pipeline.h"
#include "whois/whois_parser.h"

namespace whoiscrf::cli {

namespace {

bool KnownFormat(const std::string& format) {
  return format == "json" || format == "rdap" || format == "labels" ||
         format == "fields";
}

void PrintParsed(const std::string& format, const std::string& record,
                 const whois::ParsedWhois& parsed) {
  if (format == "json") {
    std::printf("%s\n", whois::ToJson(parsed).c_str());
  } else if (format == "rdap") {
    std::printf("%s\n", whois::ToRdapJson(parsed).c_str());
  } else if (format == "labels") {
    const auto lines = text::SplitRecord(record);
    for (size_t t = 0; t < lines.size(); ++t) {
      std::printf("%-10s %s\n",
                  std::string(whois::Level1Name(parsed.line_labels[t]))
                      .c_str(),
                  lines[t].text.c_str());
    }
    std::printf("\n");
  } else {  // fields
    std::printf("domain:     %s\n", parsed.domain_name.c_str());
    std::printf("registrar:  %s\n", parsed.registrar.c_str());
    std::printf("created:    %s\n", parsed.created.c_str());
    std::printf("expires:    %s\n", parsed.expires.c_str());
    std::printf("registrant: %s%s%s\n", parsed.registrant.name.c_str(),
                parsed.registrant.org.empty() ? "" : " / ",
                parsed.registrant.org.c_str());
    std::printf("country:    %s\n", parsed.registrant.country.c_str());
    std::printf("email:      %s\n", parsed.registrant.email.c_str());
    std::printf("confidence: %.4f\n\n", parsed.log_prob);
  }
}

// Post-run cascade summary: where records landed and what the shadow
// guard saw (mirrors the serve command's drain summary).
void PrintCascadeSummary(const cascade::CascadeParser& cascade) {
  const auto& registry = obs::Registry::Global();
  const auto by_tier = [&](const char* tier) {
    return static_cast<unsigned long long>(registry.CounterValue(
        "whoiscrf_cascade_dispatch_total", {{"tier", tier}}));
  };
  std::fprintf(stderr,
               "parse: cascade dispatch — %llu template, %llu rule, "
               "%llu crf\n",
               by_tier("template"), by_tier("rule"), by_tier("crf"));
  for (const auto& [registrar, stats] : cascade.ShadowSnapshot()) {
    std::fprintf(stderr,
                 "parse: shadow %s — %llu sampled, %llu disagreed\n",
                 registrar.c_str(),
                 static_cast<unsigned long long>(stats.samples),
                 static_cast<unsigned long long>(stats.disagreements));
  }
}

}  // namespace

int CmdParse(util::FlagParser& flags) {
  const std::string model_path = flags.GetString("model");
  const std::string in = flags.GetString("in");
  const std::string in_store = flags.GetString("in-store");
  const std::string store_out = flags.GetString("store-out");
  const std::string format = flags.GetString("format", "fields");
  const size_t threads =
      static_cast<size_t>(flags.GetInt("threads", 0));  // 0 = hardware
  // --cascade: dispatch template -> rules -> CRF (docs/cascade.md), with
  // the cheap tiers built from the --cascade-data labeled corpus.
  const bool use_cascade = flags.GetBool("cascade");
  std::string cascade_data;
  cascade::CascadeOptions cascade_options;
  if (use_cascade) {
    cascade_data = flags.GetString("cascade-data");
    cascade_options.shadow_sample_rate = flags.GetDouble("shadow-rate", 0.0);
    cascade_options.rule_coverage_min =
        flags.GetDouble("rule-coverage-min", cascade_options.rule_coverage_min);
    cascade_options.rule_max_unknown_titles = static_cast<size_t>(
        flags.GetInt("rule-max-unknown",
                     static_cast<int64_t>(
                         cascade_options.rule_max_unknown_titles)));
  }
  const bool resume = flags.GetBool("resume");
  const auto checkpoint_interval =
      static_cast<uint64_t>(flags.GetInt("checkpoint-interval", 4096));
  const auto watchdog_ms =
      static_cast<uint64_t>(flags.GetInt("watchdog-ms", 0));
  const auto max_record_bytes =
      static_cast<uint64_t>(flags.GetInt("max-record-bytes", 0));
  if (model_path.empty()) {
    std::fprintf(stderr, "parse: --model is required\n");
    return 2;
  }
  if (!KnownFormat(format)) {
    std::fprintf(stderr, "parse: unknown --format '%s'\n", format.c_str());
    return 2;
  }
  // Checkpoints, resume and quarantine all live in the --store-out path;
  // without it these flags would be read and silently ignored.
  if (store_out.empty()) {
    for (const char* flag : {"resume", "checkpoint-interval",
                             "max-record-bytes"}) {
      if (flags.Has(flag)) {
        std::fprintf(stderr, "parse: --%s requires --store-out\n", flag);
        return 2;
      }
    }
  }
  if (use_cascade) {
    if (cascade_data.empty()) {
      std::fprintf(stderr, "parse: --cascade requires --cascade-data\n");
      return 2;
    }
    if (cascade_options.shadow_sample_rate < 0.0 ||
        cascade_options.shadow_sample_rate > 1.0) {
      std::fprintf(stderr, "parse: --shadow-rate must be in [0, 1]\n");
      return 2;
    }
  }
  const whois::WhoisParser parser = whois::WhoisParser::LoadFile(model_path);

  // The cascade's cheap tiers are rebuilt from the labeled corpus at
  // startup (they are just hash maps; construction is negligible next to
  // model load).
  std::unique_ptr<cascade::CascadeParser> cascade_parser;
  if (use_cascade) {
    cascade_parser = std::make_unique<cascade::CascadeParser>(
        &parser, whois::ReadLabeledRecordsFile(cascade_data),
        cascade_options);
  }

  // Every corpus goes through the bounded-memory pipeline (never
  // materialized), and output is printed in input order.
  std::unique_ptr<whois::RecordStoreReader> store_reader;
  std::unique_ptr<util::ByteSource> bytes;
  std::unique_ptr<whois::RecordSource> source;
  std::string input_id;
  if (!in_store.empty()) {
    store_reader = std::make_unique<whois::RecordStoreReader>(in_store);
    source = std::make_unique<whois::StoreRecordSource>(*store_reader);
    input_id = "store:" + in_store;
  } else {
    bytes = in.empty()
                ? std::unique_ptr<util::ByteSource>(
                      std::make_unique<util::StreamByteSource>(std::cin))
                : std::make_unique<util::FileByteSource>(in);
    source = std::make_unique<whois::TextRecordSource>(*bytes);
    input_id = in.empty() ? "stdin" : "file:" + in;
  }
  whois::StreamPipelineOptions options;
  options.threads = threads;
  options.watchdog_timeout_ms = watchdog_ms;
  if (cascade_parser) {
    options.parse_override = [&cascade = *cascade_parser](
                                 const std::string& record,
                                 whois::ParseWorkspace& ws) {
      return cascade.ParseRecord(record, ws);
    };
  }
  const auto print = [&](uint64_t, const std::string& record,
                         const whois::ParsedWhois& parsed) {
    PrintParsed(format, record, parsed);
  };
  if (store_out.empty()) {
    whois::ParseStream(parser, *source, options, print);
  } else {
    // Crash-safe path: records land in a checkpointed store, poison
    // records go to `<store_out>-quarantine`, and --resume continues an
    // interrupted run from `<store_out>.ckpt`.
    whois::CheckpointedParseOptions ckpt;
    ckpt.pipeline = options;
    ckpt.pipeline.max_record_bytes = max_record_bytes;
    ckpt.checkpoint_interval = checkpoint_interval;
    ckpt.resume = resume;
    ckpt.input_id = input_id;
    const whois::CheckpointedParseResult result =
        whois::ParseStreamToStore(parser, *source, store_out, ckpt, print);
    std::fprintf(stderr,
                 "parse: %llu records stored (%llu skipped via resume, "
                 "%llu quarantined)\n",
                 static_cast<unsigned long long>(result.records_stored),
                 static_cast<unsigned long long>(result.skipped),
                 static_cast<unsigned long long>(result.quarantined));
  }
  if (cascade_parser) PrintCascadeSummary(*cascade_parser);
  return 0;
}

}  // namespace whoiscrf::cli
