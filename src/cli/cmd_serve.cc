// whoiscrf serve — the parse service: answers raw WHOIS records with their
// parsed JSON over the length-prefixed framing protocol (docs/formats.md
// "Parse service framing"). SIGTERM/SIGINT triggers a graceful drain: stop
// accepting, finish every admitted request, then exit (so --metrics-out,
// handled by cli::RunCommand, still flushes a complete snapshot).
//
// --model-watch turns on the hot-swap path (docs/lifecycle.md "Hot
// swap"): the model file is polled for mtime/size changes (and SIGHUP
// forces a reload check), a changed file is loaded off the serving path,
// and the new model is published atomically through serve::ModelHost —
// in-flight requests finish on the model they started with and a load
// failure keeps the current model serving (fail-closed).
#include <sys/stat.h>

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <optional>
#include <thread>

#include "cascade/cascade.h"
#include "cli/commands.h"
#include "obs/metrics.h"
#include "serve/server.h"
#include "whois/whois_parser.h"

namespace whoiscrf::cli {

namespace {

volatile std::sig_atomic_t g_stop = 0;
volatile std::sig_atomic_t g_hup = 0;

void OnSignal(int /*signum*/) { g_stop = 1; }

void OnHup(int /*signum*/) { g_hup = 1; }

}  // namespace

int CmdServe(util::FlagParser& flags) {
  const std::string model_path = flags.GetString("model");
  const auto port = static_cast<uint16_t>(flags.GetInt("port", 0));
  const auto threads = static_cast<size_t>(flags.GetInt("threads", 0));
  const auto queue_capacity =
      static_cast<size_t>(flags.GetInt("queue-capacity", 128));
  const auto cache_entries =
      static_cast<size_t>(flags.GetInt("cache-entries", 4096));
  const auto deadline_ms =
      static_cast<uint64_t>(flags.GetInt("deadline-ms", 0));
  const auto max_record_bytes = static_cast<uint64_t>(flags.GetInt(
      "max-record-bytes",
      static_cast<int64_t>(serve::kDefaultMaxFrameBytes)));
  // Self-drain after N ms, for tests and demos that cannot send signals.
  const auto drain_after_ms =
      static_cast<uint64_t>(flags.GetInt("drain-after-ms", 0));
  const auto event_loops =
      static_cast<size_t>(flags.GetInt("event-loops", 1));
  const auto writeq_max_bytes = static_cast<size_t>(
      flags.GetInt("writeq-max-bytes", 4 * 1024 * 1024));
  const auto listen_backlog =
      static_cast<int>(flags.GetInt("listen-backlog", 1024));
  // --model-watch enables hot model reload; --model-watch-ms is the poll
  // cadence for mtime/size changes (SIGHUP is checked on the same tick).
  const bool model_watch = flags.GetBool("model-watch");
  const auto model_watch_ms = static_cast<uint64_t>(
      flags.GetInt("model-watch-ms", 1000));
  // --cascade-data enables the parser cascade (docs/cascade.md): requests
  // dispatch template -> rules -> CRF instead of always paying CRF cost.
  const std::string cascade_data = flags.GetString("cascade-data");
  cascade::CascadeOptions cascade_options;
  if (!cascade_data.empty()) {
    cascade_options.shadow_sample_rate = flags.GetDouble("shadow-rate", 0.0);
    cascade_options.rule_coverage_min =
        flags.GetDouble("rule-coverage-min", cascade_options.rule_coverage_min);
    cascade_options.rule_max_unknown_titles = static_cast<size_t>(
        flags.GetInt("rule-max-unknown",
                     static_cast<int64_t>(
                         cascade_options.rule_max_unknown_titles)));
    if (cascade_options.shadow_sample_rate < 0.0 ||
        cascade_options.shadow_sample_rate > 1.0) {
      std::fprintf(stderr, "serve: --shadow-rate must be in [0, 1]\n");
      return 2;
    }
  }
  if (model_path.empty()) {
    std::fprintf(stderr, "serve: --model is required\n");
    return 2;
  }
  if (model_watch && !cascade_data.empty()) {
    // The cascade binds a fixed parser via parse_override; the hot-swap
    // path replaces the parser under it. Pick one.
    std::fprintf(stderr,
                 "serve: --model-watch and --cascade-data are mutually "
                 "exclusive\n");
    return 2;
  }
  if (model_watch && model_watch_ms == 0) {
    std::fprintf(stderr, "serve: --model-watch-ms must be > 0\n");
    return 2;
  }

  // Held by shared_ptr so the hot-swap path can retire it only after the
  // last in-flight request drops its snapshot; without --model-watch the
  // server just borrows the object for its lifetime.
  const auto initial = std::make_shared<const whois::WhoisParser>(
      whois::WhoisParser::LoadFile(model_path));

  // Declared before the server so worker threads never outlive them.
  std::unique_ptr<serve::ModelHost> host;
  if (model_watch) host = std::make_unique<serve::ModelHost>(initial);
  std::unique_ptr<cascade::CascadeParser> cascade_parser;
  if (!cascade_data.empty()) {
    cascade_parser = std::make_unique<cascade::CascadeParser>(
        initial.get(), whois::ReadLabeledRecordsFile(cascade_data),
        cascade_options);
  }

  serve::ParseServerOptions options;
  options.port = port;
  options.max_frame_bytes = max_record_bytes;
  options.event_loops = event_loops;
  options.write_queue_max_bytes = writeq_max_bytes;
  options.listen_backlog = listen_backlog;
  options.service.threads = threads;
  options.service.queue_capacity = queue_capacity;
  options.service.cache_entries = cache_entries;
  options.service.deadline_ms = deadline_ms;
  options.service.max_record_bytes = max_record_bytes;
  if (cascade_parser) {
    options.service.parse_override = [&cascade = *cascade_parser](
                                         const std::string& record,
                                         whois::ParseWorkspace& ws) {
      return cascade.ParseRecord(record, ws);
    };
  }
  std::optional<serve::ParseServer> server;
  if (host) {
    server.emplace(host.get(), options);
  } else {
    server.emplace(*initial, options);
  }

  std::fprintf(stderr,
               "serve: listening on 127.0.0.1:%u (epoll frontend, %zu "
               "workers, queue %zu, cache %zu entries%s)\n",
               static_cast<unsigned>(server->port()),
               server->service().threads(), queue_capacity, cache_entries,
               host ? ", model-watch" : "");

  g_stop = 0;
  g_hup = 0;
  auto* previous_term = std::signal(SIGTERM, OnSignal);
  auto* previous_int = std::signal(SIGINT, OnSignal);
  auto* previous_hup = host ? std::signal(SIGHUP, OnHup) : nullptr;

  // Model watcher: polls the file and swaps through the host. Runs beside
  // the signal loop; a load failure logs and keeps the current model.
  std::atomic<bool> watch_stop{false};
  std::thread watcher;
  if (host) {
    watcher = std::thread([&] {
      struct stat st{};
      time_t last_mtime = 0;
      off_t last_size = -1;
      if (::stat(model_path.c_str(), &st) == 0) {
        last_mtime = st.st_mtime;
        last_size = st.st_size;
      }
      while (!watch_stop.load(std::memory_order_relaxed)) {
        std::this_thread::sleep_for(
            std::chrono::milliseconds(model_watch_ms));
        bool reload = g_hup != 0;
        if (::stat(model_path.c_str(), &st) == 0 &&
            (st.st_mtime != last_mtime || st.st_size != last_size)) {
          last_mtime = st.st_mtime;
          last_size = st.st_size;
          reload = true;
        }
        if (!reload || watch_stop.load(std::memory_order_relaxed)) continue;
        g_hup = 0;
        try {
          auto next = std::make_shared<const whois::WhoisParser>(
              whois::WhoisParser::LoadFile(model_path));
          const uint64_t version = host->Swap(std::move(next));
          std::fprintf(stderr,
                       "serve: hot-swapped model from %s (now version "
                       "%llu)\n",
                       model_path.c_str(),
                       static_cast<unsigned long long>(version));
        } catch (const std::exception& e) {
          std::fprintf(
              stderr,
              "serve: model reload failed, keeping version %llu: %s\n",
              static_cast<unsigned long long>(host->version()), e.what());
        }
      }
    });
  }

  uint64_t waited_ms = 0;
  while (g_stop == 0 &&
         (drain_after_ms == 0 || waited_ms < drain_after_ms)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    waited_ms += 50;
  }
  watch_stop.store(true, std::memory_order_relaxed);
  if (watcher.joinable()) watcher.join();
  std::signal(SIGTERM, previous_term);
  std::signal(SIGINT, previous_int);
  if (host) std::signal(SIGHUP, previous_hup);

  std::fprintf(stderr, "serve: draining (in-flight requests finish)...\n");
  server->Shutdown();

  const auto& registry = obs::Registry::Global();
  const auto by_status = [&](const char* status) {
    return static_cast<unsigned long long>(registry.CounterValue(
        "whoiscrf_serve_requests_total", {{"status", status}}));
  };
  std::fprintf(stderr,
               "serve: done — %llu ok (%llu cached), %llu busy, "
               "%llu deadline, %llu error\n",
               by_status("ok"),
               static_cast<unsigned long long>(
                   registry.CounterValue("whoiscrf_serve_cache_hits_total")),
               by_status("busy"), by_status("deadline"), by_status("error"));
  if (cascade_parser) {
    const auto by_tier = [&](const char* tier) {
      return static_cast<unsigned long long>(registry.CounterValue(
          "whoiscrf_cascade_dispatch_total", {{"tier", tier}}));
    };
    std::fprintf(stderr,
                 "serve: cascade dispatch — %llu template, %llu rule, "
                 "%llu crf\n",
                 by_tier("template"), by_tier("rule"), by_tier("crf"));
  }
  return 0;
}

}  // namespace whoiscrf::cli
