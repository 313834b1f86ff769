#include "trace.h"

#include <algorithm>
#include <chrono>
#include <fstream>
#include <memory>
#include <unordered_map>

namespace perfbench {

namespace {

constexpr int kLocalBits = 40;  // span id = tid << 40 | index in thread

thread_local int64_t t_current = -1;

}  // namespace

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

Tracer& Tracer::Get() {
  static Tracer tracer;
  return tracer;
}

Tracer::ThreadBuf& Tracer::Local() {
  thread_local ThreadBuf* local = nullptr;
  if (local == nullptr) {
    std::lock_guard<std::mutex> lock(mu_);
    bufs_.push_back(std::make_unique<ThreadBuf>());
    bufs_.back()->tid = static_cast<uint32_t>(bufs_.size());
    local = bufs_.back().get();
  }
  return *local;
}

int64_t Tracer::Open(const char* name, int64_t start_ns, int64_t parent,
                     uint64_t request) {
  if (!enabled()) return -1;
  ThreadBuf& buf = Local();
  SpanRecord span;
  span.name = name;
  span.start_ns = start_ns;
  span.end_ns = start_ns;
  span.parent = parent;
  span.request = request;
  span.tid = buf.tid;
  span.id = (static_cast<int64_t>(buf.tid) << kLocalBits) |
            static_cast<int64_t>(buf.spans.size());
  buf.spans.push_back(span);
  return span.id;
}

void Tracer::Close(int64_t id, int64_t end_ns) {
  if (id < 0) return;
  ThreadBuf& buf = Local();
  const auto index = static_cast<size_t>(id & ((int64_t{1} << kLocalBits) - 1));
  if (index < buf.spans.size() && buf.spans[index].id == id) {
    buf.spans[index].end_ns = end_ns;
  }
}

int64_t Tracer::Record(const char* name, int64_t start_ns, int64_t end_ns,
                       int64_t parent, uint64_t request) {
  const int64_t id = Open(name, start_ns, parent, request);
  Close(id, end_ns);
  return id;
}

std::vector<SpanRecord> Tracer::Collect() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<SpanRecord> out;
  for (const auto& buf : bufs_) {
    out.insert(out.end(), buf->spans.begin(), buf->spans.end());
  }
  std::sort(out.begin(), out.end(),
            [](const SpanRecord& a, const SpanRecord& b) { return a.id < b.id; });
  return out;
}

void Tracer::Reset() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& buf : bufs_) buf->spans.clear();
}

Span::Span(const char* name, uint64_t request, int64_t parent) {
  Tracer& tracer = Tracer::Get();
  if (!tracer.enabled()) return;
  id_ = tracer.Open(name, NowNs(), parent == -2 ? t_current : parent, request);
  saved_current_ = t_current;
  t_current = id_;
}

Span::~Span() {
  if (id_ < 0) return;
  Tracer::Get().Close(id_, NowNs());
  t_current = saved_current_;
}

std::map<std::string, int64_t> SelfTimeByName(
    const std::vector<SpanRecord>& spans) {
  std::unordered_map<int64_t, size_t> index;
  index.reserve(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) index[spans[i].id] = i;
  std::vector<std::vector<std::pair<int64_t, int64_t>>> children(spans.size());
  for (const SpanRecord& s : spans) {
    const auto it = index.find(s.parent);
    if (it != index.end()) children[it->second].emplace_back(s.start_ns, s.end_ns);
  }
  std::map<std::string, int64_t> out;
  for (size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& s = spans[i];
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    int64_t covered = 0;
    int64_t run_start = 0;
    int64_t run_end = -1;  // current merged interval, clipped to the span
    for (const auto& [b, e] : kids) {
      const int64_t cb = std::max(b, s.start_ns);
      const int64_t ce = std::min(e, s.end_ns);
      if (ce <= cb) continue;
      if (run_end < cb) {
        if (run_end > run_start) covered += run_end - run_start;
        run_start = cb;
        run_end = ce;
      } else {
        run_end = std::max(run_end, ce);
      }
    }
    if (run_end > run_start) covered += run_end - run_start;
    out[s.name] += (s.end_ns - s.start_ns) - covered;
  }
  return out;
}

bool WriteChromeTrace(const std::string& path,
                      const std::vector<SpanRecord>& spans) {
  std::ofstream os(path);
  if (!os) return false;
  int64_t origin = 0;
  for (const SpanRecord& s : spans) {
    if (origin == 0 || s.start_ns < origin) origin = s.start_ns;
  }
  os << "{\"traceEvents\":[";
  for (size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& s = spans[i];
    if (i > 0) os << ",\n";
    os << "{\"name\":\"" << s.name << "\",\"ph\":\"X\",\"pid\":1,\"tid\":"
       << s.tid << ",\"ts\":" << static_cast<double>(s.start_ns - origin) / 1e3
       << ",\"dur\":" << static_cast<double>(s.end_ns - s.start_ns) / 1e3
       << ",\"args\":{\"id\":" << s.id << ",\"parent\":" << s.parent
       << ",\"request\":" << s.request << "}}";
  }
  os << "]}\n";
  return os.good();
}

}  // namespace perfbench
