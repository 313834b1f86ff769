// Shared types of the benchmark driver: command-line options, the metric
// report every workload fills, and the workload entry points.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "datagen/temporal.h"
#include "whois/record.h"

namespace whoiscrf::whois {
class WhoisParser;
}  // namespace whoiscrf::whois

namespace perfbench {

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir;  // scratch space for stores, logs and traces
  std::string cli;       // path of the built `whoiscrf` binary
};

struct Metric {
  double value = 0.0;
  std::string unit;
};

struct Report {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::map<std::string, Metric> metrics;  // end-to-end and per-layer
  // Marks the run incorrect and says why on stderr.
  void Fail(const std::string& why);
  void Set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{value, unit};
  }
};

// The benchmark's corpus: one fixed TemporalCorpusGenerator world (2
// drift events) from which --seed draws a sample. The first
// kTrainRecords positions are the training prefix, the same for every
// seed. Sample record j is position kTrainRecords + j * kStride +
// offset(seed), with offset(seed) in [1, kStride), so every sample spreads
// evenly over the whole time line (each drift era in the same proportion)
// and samples of different seeds are disjoint: seeds vary the records,
// not the world. Offset 0 is held back for the cascade data: kCascadeRecords
// labeled records spread evenly over the same time line, so the cascade's
// template and rule tiers know every era's schemas.
class Corpus {
 public:
  static constexpr size_t kTrainRecords = 300;  // scale-run's default prefix
  static constexpr size_t kStride = 64;
  static constexpr size_t kCascadeRecords = 300;
  Corpus(uint64_t seed, size_t records);
  whoiscrf::whois::LabeledRecord Record(size_t j) const;
  whoiscrf::whois::LabeledRecord CascadeRecord(size_t k) const;
  const whoiscrf::datagen::TemporalCorpusGenerator& generator() const {
    return generator_;
  }

 private:
  size_t records_;
  size_t offset_;
  whoiscrf::datagen::TemporalCorpusGenerator generator_;
};

// Runs fn(thread, i) for i in [0, n) on 4 threads (input preparation).
void ParallelFor(size_t n, const std::function<void(size_t, size_t)>& fn);

Report RunCensus(const Options& options, bool use_cascade);

// The serve layer and the router, measured inside a census workload's
// traced run: `whoiscrf shard-router` over two `whoiscrf serve` backends
// serving `model_path` (the model `parser` was loaded from), driven open
// loop over TCP. hot: Zipf requests over a pool both caches together
// hold (cache reads, routing); cold: every request a fresh record (parse,
// cache writes, eviction). Adds the serve.*, router.* and
// loadgen.late_p99_ms metrics, and its requests, to `report`.
void RunServePhases(const Options& options, bool hot,
                    const std::string& model_path,
                    const whoiscrf::whois::WhoisParser& parser, Report& report);

// Gold key fields of a generated record: the generator's own labels run
// through the shared field extractor (as bench_cascade scores accuracy).
whoiscrf::whois::ParsedWhois GoldParse(const whoiscrf::whois::LabeledRecord& r);
// How many of the 9 cascade::KeyFieldValues agree between two parses.
size_t AgreeingKeyFields(const whoiscrf::whois::ParsedWhois& a,
                         const whoiscrf::whois::ParsedWhois& b);

// The uncached per-layer decomposition over a sample of records (text,
// crf and whois extraction/JSON), reported as *_ns_per_record /
// *_ns_per_line metrics.
void MeasureParserLayers(const whoiscrf::whois::WhoisParser& parser,
                         const std::vector<std::string>& sample,
                         Report& report);

// In-process replays of the serve layer's pieces: ResultCache reads and
// writes, frame encode/decode over StringStream, and ParseService::Submit
// service time, over the given request sequence.
void MeasureServeLayers(const whoiscrf::whois::WhoisParser& parser,
                        const std::vector<std::string>& records,
                        const std::vector<uint32_t>& order,
                        size_t cache_entries, Report& report);

// Peak resident set of this process in MiB (VmHWM).
double SelfPeakRssMib();

}  // namespace perfbench
