// Text hot-path microbenchmarks: bytes/sec of the scan-heavy kernels the
// parser runs as-is (record line splitting, separator detection, JSON
// escaping), one row per kernel. Tokenization is not timed here: the parser
// reaches it only through its word cache, so a bare tokenizer loop would
// time a path production does not take. Writes BENCH_micro_text.json
// (override the path with WHOISCRF_BENCH_OUT).
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <string_view>
#include <vector>

#include "bench_common.h"
#include "text/line_splitter.h"
#include "text/separator.h"
#include "util/env.h"
#include "util/json.h"

namespace whoiscrf::bench {
namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

int BenchPasses() {
  static const int passes = [] {
    const char* e = std::getenv("WHOISCRF_BENCH_PASSES");
    const int n = e != nullptr ? std::atoi(e) : 3;
    return n > 0 ? n : 1;
  }();
  return passes;
}

struct KernelResult {
  std::string kernel;
  double bytes_per_sec = 0.0;
  size_t checksum = 0;  // keeps the kernel's work observable
};

// Runs `fn` (which scans `bytes` bytes of input and returns a checksum)
// BenchPasses() times and keeps the fastest pass, like the throughput bench:
// the workload is deterministic, so the minimum is the pass least disturbed
// by other tenants of the machine.
template <typename Fn>
KernelResult MeasureKernel(const char* kernel, size_t bytes, Fn&& fn) {
  KernelResult r;
  r.kernel = kernel;
  double best = 0.0;
  for (int p = 0; p < BenchPasses(); ++p) {
    const auto start = Clock::now();
    r.checksum = fn();
    const double seconds = SecondsSince(start);
    if (p == 0 || seconds < best) best = seconds;
  }
  r.bytes_per_sec = best > 0.0 ? static_cast<double>(bytes) / best : 0.0;
  return r;
}

int Main() {
  const size_t record_count = util::Scaled(2000, 400);

  PrintHeader("micro_text", "bytes/sec per scan kernel");

  const auto generator = MakeEvalGenerator(record_count);
  std::vector<std::string> records;
  records.reserve(record_count);
  size_t record_bytes = 0;
  for (size_t i = 0; i < record_count; ++i) {
    records.push_back(generator.Generate(i).thick.text);
    record_bytes += records.back().size();
  }

  // The per-line kernels run over the labeled lines of the same records:
  // realistic input (titles, values, %% frames).
  std::vector<std::string> lines;
  size_t line_bytes = 0;
  for (const std::string& r : records) {
    for (const text::Line& line : text::SplitRecord(r)) {
      lines.push_back(line.text);
      line_bytes += line.text.size();
    }
  }

  std::vector<KernelResult> results;
  std::vector<text::Line> split_out;
  results.push_back(MeasureKernel("split_record", record_bytes, [&] {
    size_t n = 0;
    for (const std::string& r : records) {
      text::SplitRecordInto(r, split_out);
      n += split_out.size();
    }
    return n;
  }));

  results.push_back(MeasureKernel("find_separator", line_bytes, [&] {
    size_t n = 0;
    for (const std::string& line : lines) {
      if (const auto split = text::FindSeparator(line)) {
        n += split->title.size() + split->value.size();
      }
    }
    return n;
  }));

  results.push_back(MeasureKernel("json_escape", line_bytes, [&] {
    size_t n = 0;
    for (const std::string& line : lines) {
      n += util::JsonWriter::Escape(line).size();
    }
    return n;
  }));

  std::printf("records: %zu (%.1f MiB)   lines: %zu (%.1f MiB)\n\n",
              records.size(), static_cast<double>(record_bytes) / (1 << 20),
              lines.size(), static_cast<double>(line_bytes) / (1 << 20));
  std::printf("%-16s %14s %20s\n", "kernel", "MiB/s", "checksum");
  for (const KernelResult& r : results) {
    std::printf("%-16s %14.1f %20zu\n", r.kernel.c_str(),
                r.bytes_per_sec / (1 << 20), r.checksum);
  }

  const char* out_env = std::getenv("WHOISCRF_BENCH_OUT");
  const std::string out_path =
      out_env != nullptr ? out_env : "BENCH_micro_text.json";
  std::ofstream os(out_path);
  os << "{\n";
  os << "  \"bench\": \"micro_text\",\n";
  os << "  \"records\": " << records.size() << ",\n";
  os << "  \"record_bytes\": " << record_bytes << ",\n";
  os << "  \"lines\": " << lines.size() << ",\n";
  os << "  \"line_bytes\": " << line_bytes << ",\n";
  os << "  \"passes\": " << BenchPasses() << ",\n";
  os << "  \"kernels\": [\n";
  for (size_t i = 0; i < results.size(); ++i) {
    os << "    {\"kernel\": \"" << results[i].kernel
       << "\", \"bytes_per_sec\": " << results[i].bytes_per_sec
       << ", \"checksum\": " << results[i].checksum << "}"
       << (i + 1 < results.size() ? ",\n" : "\n");
  }
  os << "  ]\n";
  os << "}\n";
  std::printf("\nwrote %s\n", out_path.c_str());
  return 0;
}

}  // namespace
}  // namespace whoiscrf::bench

int main() { return whoiscrf::bench::Main(); }
