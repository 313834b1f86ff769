// Per-layer timings measured by calling each module's public functions
// directly, from the benchmark's own code: the uncached text/crf/whois
// decomposition of a parse, and in-process replays of the serve layer's
// cache, framing and service queue.
#include <algorithm>
#include <fstream>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "cascade/cascade.h"
#include "common.h"
#include "crf/inference.h"
#include "crf/viterbi.h"
#include "crf/workspace.h"
#include "serve/cache.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "stats.h"
#include "text/line_splitter.h"
#include "text/tokenizer.h"
#include "trace.h"
#include "whois/json_export.h"
#include "whois/whois_parser.h"

namespace perfbench {

namespace wc = whoiscrf;

namespace {

// Counts attributes and declines the word-memo hook, so ExtractTo runs the
// full normalize/classify path a line-cache miss pays.
class CountingSink : public wc::text::AttrSink {
 public:
  void OnAttr(std::string_view, bool) override { ++count; }
  size_t count = 0;
};

wc::datagen::TemporalCorpusOptions WorldOptions(size_t records) {
  wc::datagen::TemporalCorpusOptions options;
  options.seed = 20151028;  // fixed: the seed picks a sample, not a world
  options.events = 2;
  options.size = Corpus::kTrainRecords + records * Corpus::kStride;
  return options;
}

}  // namespace

Corpus::Corpus(uint64_t seed, size_t records)
    : records_(records),
      offset_(1 + static_cast<size_t>((seed * 0x9E3779B97F4A7C15ULL) >> 58) %
                      (kStride - 1)),
      generator_(WorldOptions(records)) {}

wc::whois::LabeledRecord Corpus::Record(size_t j) const {
  return generator_.Generate(kTrainRecords + j * kStride + offset_).thick;
}

wc::whois::LabeledRecord Corpus::CascadeRecord(size_t k) const {
  return generator_.Generate(kTrainRecords + (k * records_ / kCascadeRecords) * kStride)
      .thick;
}

void ParallelFor(size_t n, const std::function<void(size_t, size_t)>& fn) {
  constexpr size_t kThreads = 4;
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (size_t i = t; i < n; i += kThreads) fn(t, i);
    });
  }
  for (std::thread& th : threads) th.join();
}

wc::whois::ParsedWhois GoldParse(const wc::whois::LabeledRecord& record) {
  const auto lines = wc::text::SplitRecord(record.text);
  std::vector<wc::whois::Level2Label> subs;
  for (size_t i = 0; i < record.labels.size(); ++i) {
    if (record.labels[i] == wc::whois::Level1Label::kRegistrant) {
      subs.push_back(record.sub_labels[i].value_or(wc::whois::Level2Label::kOther));
    }
  }
  wc::whois::ParsedWhois gold;
  gold.line_labels = record.labels;
  wc::whois::ExtractFields(lines, record.labels, subs, gold);
  return gold;
}

size_t AgreeingKeyFields(const wc::whois::ParsedWhois& a,
                         const wc::whois::ParsedWhois& b) {
  const auto va = wc::cascade::KeyFieldValues(a);
  const auto vb = wc::cascade::KeyFieldValues(b);
  size_t agree = 0;
  for (size_t i = 0; i < va.size() && i < vb.size(); ++i) {
    if (va[i] == vb[i]) ++agree;
  }
  return agree;
}

double SelfPeakRssMib() {
  std::ifstream is("/proc/self/status");
  std::string line;
  while (std::getline(is, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return static_cast<double>(std::stol(line.substr(6))) / 1024.0;
    }
  }
  return 0.0;
}

void MeasureParserLayers(const wc::whois::WhoisParser& parser,
                         const std::vector<std::string>& sample,
                         Report& report) {
  const wc::text::Tokenizer tokenizer(parser.options().tokenizer);
  const wc::crf::CrfModel& level1 = parser.level1_model();
  const wc::crf::CrfModel& level2 = parser.level2_model();
  wc::crf::Workspace ws;
  wc::text::TokenScratch scratch;
  std::vector<wc::text::Line> lines;
  std::vector<const wc::text::Line*> block;
  std::vector<wc::whois::Level1Label> labels;
  std::vector<wc::whois::Level2Label> subs;
  int64_t split = 0, tokenize = 0, compile = 0, scores = 0, viterbi = 0,
          logz = 0, extract = 0, json = 0;
  size_t total_lines = 0;
  double checksum = 0.0;

  // Both CRF levels: compile, score, decode, and log Z, each timed alone.
  const auto run_level = [&](const wc::crf::CrfModel& model, auto line_span) {
    int64_t t0 = NowNs();
    model.CompileInto(tokenizer, line_span, ws);
    int64_t t1 = NowNs();
    compile += t1 - t0;
    model.ComputeScores(ws.seq, ws.scores);
    t0 = NowNs();
    scores += t0 - t1;
    const wc::crf::ViterbiResult& path = wc::crf::Decode(ws.scores, ws);
    t1 = NowNs();
    viterbi += t1 - t0;
    checksum += wc::crf::LogPartition(ws.scores, ws);
    logz += NowNs() - t1;
    return path.labels;
  };

  for (const std::string& record : sample) {
    int64_t t0 = NowNs();
    wc::text::SplitRecordInto(record, lines);
    split += NowNs() - t0;
    if (lines.empty()) continue;
    total_lines += lines.size();

    CountingSink sink;
    t0 = NowNs();
    for (const wc::text::Line& line : lines) tokenizer.ExtractTo(line, sink, scratch);
    tokenize += NowNs() - t0;
    checksum += static_cast<double>(sink.count);

    const std::vector<int> l1 =
        run_level(level1, std::span<const wc::text::Line>(lines));
    labels.clear();
    block.clear();
    for (size_t i = 0; i < l1.size(); ++i) {
      labels.push_back(static_cast<wc::whois::Level1Label>(l1[i]));
      if (labels.back() == wc::whois::Level1Label::kRegistrant) {
        block.push_back(&lines[i]);
      }
    }
    subs.clear();
    if (!block.empty()) {
      const std::vector<int> l2 = run_level(
          level2, std::span<const wc::text::Line* const>(block.data(), block.size()));
      for (int label : l2) subs.push_back(static_cast<wc::whois::Level2Label>(label));
    }

    wc::whois::ParsedWhois parsed;
    parsed.line_labels = labels;
    t0 = NowNs();
    wc::whois::ExtractFields(lines, labels, subs, parsed);
    int64_t t1 = NowNs();
    extract += t1 - t0;
    const std::string body = wc::whois::ToJson(parsed);
    json += NowNs() - t1;
    checksum += static_cast<double>(body.size());
  }
  if (checksum < 0) std::fprintf(stderr, "impossible checksum\n");
  const double n = std::max<double>(1.0, static_cast<double>(sample.size()));
  report.Set("text.split_ns_per_record", static_cast<double>(split) / n, "ns");
  report.Set("text.tokenize_ns_per_line",
             static_cast<double>(tokenize) /
                 std::max<double>(1.0, static_cast<double>(total_lines)),
             "ns");
  report.Set("crf.compile_ns_per_record", static_cast<double>(compile) / n, "ns");
  report.Set("crf.scores_ns_per_record", static_cast<double>(scores) / n, "ns");
  report.Set("crf.viterbi_ns_per_record", static_cast<double>(viterbi) / n, "ns");
  report.Set("crf.logz_ns_per_record", static_cast<double>(logz) / n, "ns");
  report.Set("crf.sample_records", n, "count");
  report.Set("whois.extract_ns_per_record", static_cast<double>(extract) / n, "ns");
  if (report.metrics.count("whois.json_ns_per_record") == 0) {
    report.Set("whois.json_ns_per_record", static_cast<double>(json) / n, "ns");
  }
}

void MeasureServeLayers(const wc::whois::WhoisParser& parser,
                        const std::vector<std::string>& records,
                        const std::vector<uint32_t>& order,
                        size_t cache_entries, Report& report) {
  const size_t n = std::min<size_t>(order.size(), 20000);
  // ResultCache: the worker's probe-then-insert sequence.
  {
    wc::serve::ResultCache cache(cache_entries);
    std::vector<std::string> bodies(records.size());
    std::vector<double> get_ns, put_ns;
    std::string value;
    for (size_t i = 0; i < n; ++i) {
      const std::string& key = records[order[i]];
      const size_t hash = wc::serve::ResultCache::Hash(key);
      const int64_t t0 = NowNs();
      const bool hit = cache.Get(key, hash, &value);
      const int64_t t1 = NowNs();
      get_ns.push_back(static_cast<double>(t1 - t0));
      if (!hit) {
        std::string& body = bodies[order[i]];
        if (body.empty()) body = wc::whois::ToJson(parser.Parse(key));
        std::string copy = key;
        const int64_t t2 = NowNs();
        cache.Put(std::move(copy), hash, body);
        put_ns.push_back(static_cast<double>(NowNs() - t2));
      }
    }
    report.Set("serve.cache_get_ns", Median(get_ns), "ns");
    report.Set("serve.cache_put_ns", Median(put_ns), "ns");
  }
  // Framing: request encode/decode plus response encode/decode.
  {
    std::vector<double> frame_ns;
    std::string payload, body;
    wc::serve::Status status = wc::serve::Status::kOk;
    const std::string response_body(512, 'x');
    for (size_t i = 0; i < n; ++i) {
      const int64_t t0 = NowNs();
      wc::serve::StringStream out;
      wc::serve::WriteFrame(out, records[order[i]]);
      wc::serve::StringStream in(out.output());
      wc::serve::ReadFrame(in, payload, wc::serve::kDefaultMaxFrameBytes);
      wc::serve::StringStream rout;
      wc::serve::WriteResponse(rout, wc::serve::Status::kOk, response_body);
      wc::serve::StringStream rin(rout.output());
      wc::serve::ReadResponse(rin, status, body, wc::serve::kDefaultMaxFrameBytes);
      frame_ns.push_back(static_cast<double>(NowNs() - t0));
    }
    report.Set("serve.frame_ns", Median(frame_ns), "ns");
  }
  // ParseService::Submit until the result is ready, one request at a time
  // on a single worker with the serve workloads' cache size.
  {
    wc::serve::ParseServiceOptions options;
    options.threads = 1;
    options.cache_entries = cache_entries;
    wc::serve::ParseService service(parser, options);
    std::vector<double> us;
    const size_t m = std::min<size_t>(n, 5000);
    for (size_t i = 0; i < m; ++i) {
      const int64_t t0 = NowNs();
      const wc::serve::ServeResult r = service.Submit(records[order[i]]).get();
      us.push_back(static_cast<double>(NowNs() - t0) / 1e3);
      if (r.status != wc::serve::Status::kOk) report.Fail("in-process service replay failed");
    }
    const Summary s = Summarize(us);
    report.Set("serve.service_us_p50", s.p50, "us");
    report.Set("serve.service_us_p99", s.p99, "us");
  }
}

}  // namespace perfbench
