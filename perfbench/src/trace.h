// In-memory span tracer for the traced run. Spans are recorded only from
// the benchmark's own code, around its calls into each layer; the program
// itself is not instrumented. Each span carries a name ("<layer>.<what>"),
// start and end on the steady clock, the id of the span that caused it,
// and a request id shared by every span of one request or record. Spans
// stay in per-thread buffers until the run ends and are then written as
// Chrome trace JSON. Disabled tracing costs one relaxed load per span.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

int64_t NowNs();  // steady clock, nanoseconds
inline double Seconds(int64_t ns) { return static_cast<double>(ns) / 1e9; }

struct SpanRecord {
  const char* name = "";  // static string
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int64_t id = 0;
  int64_t parent = -1;  // -1 = root
  uint64_t request = 0;
  uint32_t tid = 0;
};

class Tracer {
 public:
  static Tracer& Get();

  void Enable(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  // Records a finished span; returns its id (or -1 when disabled).
  int64_t Record(const char* name, int64_t start_ns, int64_t end_ns,
                 int64_t parent, uint64_t request);
  // Reserves an id for a span whose end is not known yet (the parent of
  // spans on other threads); finish it with Close on the same thread.
  int64_t Open(const char* name, int64_t start_ns, int64_t parent,
               uint64_t request);
  void Close(int64_t id, int64_t end_ns);

  // Every recorded span, ordered by id. Call only when no thread records.
  std::vector<SpanRecord> Collect() const;
  void Reset();

 private:
  struct ThreadBuf {
    uint32_t tid = 0;
    std::vector<SpanRecord> spans;
  };
  ThreadBuf& Local();

  std::atomic<bool> enabled_{false};
  mutable std::mutex mu_;  // guards bufs_
  std::vector<std::unique_ptr<ThreadBuf>> bufs_;
};

// RAII span on the current thread. Parent defaults to the innermost open
// Span of this thread; pass one explicitly to link across threads.
class Span {
 public:
  explicit Span(const char* name, uint64_t request = 0, int64_t parent = -2);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  int64_t id() const { return id_; }

 private:
  int64_t id_ = -1;
  int64_t saved_current_ = -1;
};

// Self time of every span (its duration minus the part of it that its
// children cover), summed per span name, in nanoseconds.
std::map<std::string, int64_t> SelfTimeByName(
    const std::vector<SpanRecord>& spans);

// Chrome trace event JSON ("X" events; ids, parents and request ids in
// args). Returns false when the file cannot be written.
bool WriteChromeTrace(const std::string& path,
                      const std::vector<SpanRecord>& spans);

}  // namespace perfbench
