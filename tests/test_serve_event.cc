// Event-driven serving: the epoll front end's connection state machine
// under slow and hostile clients (one-byte trickle, mid-frame disconnect,
// write-queue overflow and backpressure, pipelined ordering with
// out-of-order completions), the consistent-hash ring, and the shard
// router (forwarding, affinity, shard death and recovery, drain).
//
// Like test_serve.cc, run these in the -DWHOISCRF_ASAN=ON and
// -DWHOISCRF_TSAN=ON trees: loop-thread hand-offs and the drain/watchdog
// paths are exactly what the sanitizers exist for.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "datagen/corpus_gen.h"
#include "obs/metrics.h"
#include "serve/event_loop.h"
#include "serve/protocol.h"
#include "serve/router.h"
#include "serve/server.h"
#include "whois/json_export.h"
#include "whois/whois_parser.h"

namespace whoiscrf::serve {
namespace {

// ---------------------------------------------------------------------------
// EventLoop

TEST(ServeEventLoopTest, PostedTasksRunInOrderOnTheLoopThread) {
  EventLoop loop;
  std::thread runner([&] { loop.Run(); });
  const std::thread::id runner_id = runner.get_id();
  std::vector<int> order;
  std::thread::id loop_thread;
  std::mutex mu;
  std::condition_variable cv;
  bool done = false;
  for (int i = 0; i < 5; ++i) {
    loop.Post([&, i] {
      std::lock_guard<std::mutex> lock(mu);
      order.push_back(i);
      loop_thread = std::this_thread::get_id();
      if (i == 4) {
        done = true;
        cv.notify_all();
      }
    });
  }
  {
    std::unique_lock<std::mutex> lock(mu);
    ASSERT_TRUE(cv.wait_for(lock, std::chrono::seconds(5),
                            [&] { return done; }));
  }
  loop.Stop();
  runner.join();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
  EXPECT_EQ(loop_thread, runner_id);
}

// ---------------------------------------------------------------------------
// Consistent-hash ring

TEST(ServeHashRingTest, OwnerIsDeterministicAndCoversAllShards) {
  const HashRing ring_a(4, 64);
  const HashRing ring_b(4, 64);
  std::set<int> seen;
  for (int i = 0; i < 2000; ++i) {
    const uint64_t hash = Fnv1a64("record-" + std::to_string(i));
    const int owner = ring_a.Owner(hash);
    ASSERT_GE(owner, 0);
    ASSERT_LT(owner, 4);
    EXPECT_EQ(owner, ring_b.Owner(hash));
    seen.insert(owner);
  }
  EXPECT_EQ(seen.size(), 4u);  // every shard owns some keyspace
}

TEST(ServeHashRingTest, AddingAShardOnlyRemapsToTheNewShard) {
  const HashRing before(4, 64);
  const HashRing after(5, 64);
  int moved = 0;
  for (int i = 0; i < 2000; ++i) {
    const uint64_t hash = Fnv1a64("record-" + std::to_string(i));
    const int owner_before = before.Owner(hash);
    const int owner_after = after.Owner(hash);
    if (owner_after != owner_before) {
      // The minimal-remap property: a key only ever moves TO the added
      // shard, never between the old ones.
      EXPECT_EQ(owner_after, 4);
      ++moved;
    }
  }
  EXPECT_GT(moved, 0);            // the new shard took some keyspace...
  EXPECT_LT(moved, 2000 * 2 / 4);  // ...but nowhere near a full reshuffle
}

TEST(ServeHashRingTest, PickSkipsUnhealthyShardsAndFailsWhenAllAre) {
  const HashRing ring(3, 32);
  const uint64_t hash = Fnv1a64("some record");
  const int owner = ring.Owner(hash);
  const int fallback =
      ring.Pick(hash, [owner](size_t s) { return static_cast<int>(s) != owner; });
  ASSERT_GE(fallback, 0);
  EXPECT_NE(fallback, owner);
  EXPECT_EQ(ring.Pick(hash, [](size_t) { return false; }), -1);
}

// ---------------------------------------------------------------------------
// Shared fixture: a trained parser + TCP helpers.

class ServeEventTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    datagen::CorpusOptions options;
    options.size = 200;
    options.seed = 42;
    generator_ = new datagen::CorpusGenerator(options);
    std::vector<whois::LabeledRecord> train;
    for (size_t i = 0; i < 120; ++i) {
      train.push_back(generator_->Generate(i).thick);
    }
    parser_ = new whois::WhoisParser(whois::WhoisParser::Train(train));
  }
  static void TearDownTestSuite() {
    delete parser_;
    delete generator_;
    parser_ = nullptr;
    generator_ = nullptr;
  }

  static std::string Record(size_t i) {
    return generator_->Generate(120 + i).thick.text;
  }
  static std::string OfflineJson(const std::string& record) {
    return whois::ToJson(parser_->Parse(record));
  }
  static uint64_t CounterNow(const char* name,
                             const obs::Labels& labels = {}) {
    return obs::Registry::Global().CounterValue(name, labels);
  }

  static int Connect(uint16_t port) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    EXPECT_GE(fd, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(port);
    EXPECT_EQ(
        ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
    return fd;
  }

  // True when `fd` has readable bytes within `timeout_ms`.
  static bool Readable(int fd, int timeout_ms) {
    pollfd pfd{fd, POLLIN, 0};
    return ::poll(&pfd, 1, timeout_ms) > 0;
  }

  static whois::WhoisParser* parser_;
  static datagen::CorpusGenerator* generator_;
};

whois::WhoisParser* ServeEventTest::parser_ = nullptr;
datagen::CorpusGenerator* ServeEventTest::generator_ = nullptr;

// ---------------------------------------------------------------------------
// Epoll front end

TEST_F(ServeEventTest, OneByteAtATimeTrickleStillParses) {
  ParseServerOptions options;
  options.service.threads = 1;
  ParseServer server(*parser_, options);

  const int fd = Connect(server.port());
  const std::string record = Record(0);
  std::string frame;
  {
    StringStream framed;
    ASSERT_TRUE(WriteFrame(framed, record));
    frame = framed.output();
  }
  // A frame dribbled one byte per write() must assemble incrementally
  // without blocking a thread or corrupting the stream.
  for (const char byte : frame) {
    ASSERT_EQ(::send(fd, &byte, 1, 0), 1);
  }
  FdStream stream(fd);
  Status status = Status::kError;
  std::string body;
  ASSERT_EQ(ReadResponse(stream, status, body, kDefaultMaxFrameBytes),
            FrameRead::kFrame);
  EXPECT_EQ(status, Status::kOk);
  EXPECT_EQ(body, OfflineJson(record));
  ::close(fd);
  server.Shutdown();
}

TEST_F(ServeEventTest, MidFrameDisconnectLeavesServerHealthy) {
  ParseServerOptions options;
  options.service.threads = 1;
  ParseServer server(*parser_, options);

  // A client that promises 100 bytes, delivers 10, and vanishes.
  const int torn = Connect(server.port());
  const std::string partial = std::string("\x64\x00\x00\x00", 4) + "0123456789";
  ASSERT_EQ(::send(torn, partial.data(), partial.size(), 0),
            static_cast<ssize_t>(partial.size()));
  ::close(torn);

  // The server must shrug it off: a fresh connection round-trips.
  const int fd = Connect(server.port());
  FdStream stream(fd);
  const std::string record = Record(1);
  ASSERT_TRUE(WriteFrame(stream, record));
  Status status = Status::kError;
  std::string body;
  ASSERT_EQ(ReadResponse(stream, status, body, kDefaultMaxFrameBytes),
            FrameRead::kFrame);
  EXPECT_EQ(status, Status::kOk);
  EXPECT_EQ(body, OfflineJson(record));
  ::close(fd);
  server.Shutdown();
}

TEST_F(ServeEventTest, PipelinedResponsesStayInRequestOrder) {
  // Two workers, request A blocked in parse, request B fails fast: B's
  // completion lands first, but the wire must still answer A then B.
  std::mutex mu;
  std::condition_variable cv;
  bool release = false;
  std::atomic<int> blocked{0};
  const std::string slow = "SLOW\n";
  ParseServerOptions options;
  options.service.threads = 2;
  options.service.cache_entries = 0;
  options.service.parse_override =
      [&](const std::string& record, whois::ParseWorkspace&) {
        if (record == slow) {
          std::unique_lock<std::mutex> lock(mu);
          blocked.fetch_add(1);
          cv.notify_all();
          cv.wait(lock, [&] { return release; });
          return whois::ParsedWhois{};
        }
        throw std::runtime_error("fast lane");
      };
  ParseServer server(*parser_, options);

  const int fd = Connect(server.port());
  FdStream stream(fd);
  ASSERT_TRUE(WriteFrame(stream, slow));
  ASSERT_TRUE(WriteFrame(stream, "FAST\n"));
  {
    std::unique_lock<std::mutex> lock(mu);
    ASSERT_TRUE(cv.wait_for(lock, std::chrono::seconds(5),
                            [&] { return blocked.load() >= 1; }));
  }
  // B has completed (kError) by now or shortly; either way nothing may be
  // written while A's slot is still open.
  EXPECT_FALSE(Readable(fd, 150));
  {
    std::lock_guard<std::mutex> lock(mu);
    release = true;
  }
  cv.notify_all();

  Status status = Status::kError;
  std::string body;
  ASSERT_EQ(ReadResponse(stream, status, body, kDefaultMaxFrameBytes),
            FrameRead::kFrame);
  EXPECT_EQ(status, Status::kOk);  // the slow request answers first
  ASSERT_EQ(ReadResponse(stream, status, body, kDefaultMaxFrameBytes),
            FrameRead::kFrame);
  EXPECT_EQ(status, Status::kError);
  EXPECT_EQ(body, "parse failed: fast lane");
  ::close(fd);
  server.Shutdown();
}

TEST_F(ServeEventTest, WriteQueueOverflowPausesReadingUntilDrained) {
  ParseServerOptions options;
  options.service.threads = 1;
  options.service.queue_capacity = 1 << 16;
  options.write_queue_max_bytes = 16 * 1024;
  // Pinned kernel buffers on both ends (the kernel doubles each, and
  // pinning turns autotuning off): a client that does not read backs
  // responses up into the server's write queue after a few tens of KiB.
  options.send_buffer_bytes = 4096;
  ParseServer server(*parser_, options);

  const uint64_t stalls_before =
      CounterNow("whoiscrf_serve_backpressure_stalls_total");

  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  const int rcvbuf = 4096;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &rcvbuf, sizeof(rcvbuf));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(server.port());
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);

  const std::string record = Record(2);
  const std::string expected = OfflineJson(record);
  // 1 MiB of responses: over ten times what the pinned buffers and the
  // 16 KiB write-queue bound hold, so the queue must cross its bound
  // while the client is not reading.
  const size_t kRequests = (1u << 20) / (expected.size() + 5) + 1;
  // The writer must be a separate thread: once the server pauses reading,
  // the client's own blocking send backs up too.
  std::thread writer([&] {
    FdStream stream(fd);
    for (size_t i = 0; i < kRequests; ++i) {
      if (!WriteFrame(stream, record)) break;
    }
  });

  // Nothing reads until the connection stalls, so the stall is certain;
  // wait for the counter itself. The guard only turns a hang (a broken
  // pause path) into a failure, and is far beyond any host's load.
  const auto guard =
      std::chrono::steady_clock::now() + std::chrono::seconds(300);
  while (CounterNow("whoiscrf_serve_backpressure_stalls_total") ==
         stalls_before) {
    if (std::chrono::steady_clock::now() > guard) {
      ADD_FAILURE() << "write queue never paused the connection";
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_GT(CounterNow("whoiscrf_serve_backpressure_stalls_total"),
            stalls_before);

  // Now drain: every response must arrive, in order, byte-identical.
  FdStream stream(fd);
  for (size_t i = 0; i < kRequests; ++i) {
    Status status = Status::kError;
    std::string body;
    ASSERT_EQ(ReadResponse(stream, status, body, kDefaultMaxFrameBytes),
              FrameRead::kFrame)
        << "response " << i;
    ASSERT_EQ(status, Status::kOk) << "response " << i;
    ASSERT_EQ(body, expected) << "response " << i;
  }
  writer.join();
  ::close(fd);
  server.Shutdown();
}

TEST_F(ServeEventTest, WriteQueueBoundHoldsWhenFramesArriveOneByOne) {
  // Cache hits complete inline while a read batch is dispatched. Once the
  // connection already waits for EPOLLOUT, those responses only grow the
  // write queue, and they must still count against its bound. Frames sent
  // one at a time reach the server in one-frame read batches, which takes
  // exactly that path as soon as the pinned kernel buffers are full.
  ParseServerOptions options;
  options.service.threads = 1;
  options.write_queue_max_bytes = 16 * 1024;
  options.send_buffer_bytes = 4096;
  ParseServer server(*parser_, options);

  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  const int rcvbuf = 4096;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &rcvbuf, sizeof(rcvbuf));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(server.port());
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  FdStream stream(fd);
  const std::string record = Record(3);
  const std::string expected = OfflineJson(record);
  Status status = Status::kError;
  std::string body;
  // Prime the response cache, so every later request completes inline.
  ASSERT_TRUE(WriteFrame(stream, record));
  ASSERT_EQ(ReadResponse(stream, status, body, kDefaultMaxFrameBytes),
            FrameRead::kFrame);

  const uint64_t stalls_before =
      CounterNow("whoiscrf_serve_backpressure_stalls_total");
  // 256 KiB of responses, far past buffers plus bound; stop sending as
  // soon as the connection pauses (the server then stops reading).
  const size_t max_requests = (256u << 10) / (expected.size() + 5) + 1;
  size_t sent = 0;
  while (sent < max_requests &&
         CounterNow("whoiscrf_serve_backpressure_stalls_total") ==
             stalls_before) {
    ASSERT_TRUE(WriteFrame(stream, record));
    ++sent;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_GT(CounterNow("whoiscrf_serve_backpressure_stalls_total"),
            stalls_before)
      << sent << " requests answered without a pause";

  for (size_t i = 0; i < sent; ++i) {
    ASSERT_EQ(ReadResponse(stream, status, body, kDefaultMaxFrameBytes),
              FrameRead::kFrame)
        << "response " << i;
    ASSERT_EQ(status, Status::kOk) << "response " << i;
    ASSERT_EQ(body, expected) << "response " << i;
  }
  ::close(fd);
  server.Shutdown();
}

TEST_F(ServeEventTest, MultipleEventLoopsServeConcurrentConnections) {
  ParseServerOptions options;
  options.service.threads = 2;
  options.event_loops = 2;
  ParseServer server(*parser_, options);

  std::vector<int> fds;
  for (size_t i = 0; i < 6; ++i) fds.push_back(Connect(server.port()));
  for (size_t i = 0; i < fds.size(); ++i) {
    FdStream stream(fds[i]);
    const std::string record = Record(i);
    ASSERT_TRUE(WriteFrame(stream, record));
    Status status = Status::kError;
    std::string body;
    ASSERT_EQ(ReadResponse(stream, status, body, kDefaultMaxFrameBytes),
              FrameRead::kFrame);
    EXPECT_EQ(status, Status::kOk);
    EXPECT_EQ(body, OfflineJson(record));
  }
  for (const int fd : fds) ::close(fd);
  server.Shutdown();
}

TEST_F(ServeEventTest, DrainCompletesAdmittedPipelinedRequests) {
  std::mutex mu;
  std::condition_variable cv;
  bool release = false;
  std::atomic<int> blocked{0};
  ParseServerOptions options;
  options.service.threads = 1;
  options.service.cache_entries = 0;
  options.service.parse_override =
      [&](const std::string&, whois::ParseWorkspace&) {
        std::unique_lock<std::mutex> lock(mu);
        blocked.fetch_add(1);
        cv.notify_all();
        cv.wait(lock, [&] { return release; });
        return whois::ParsedWhois{};
      };
  ParseServer server(*parser_, options);

  const int fd = Connect(server.port());
  FdStream stream(fd);
  for (size_t i = 0; i < 3; ++i) ASSERT_TRUE(WriteFrame(stream, Record(i)));
  {
    std::unique_lock<std::mutex> lock(mu);
    ASSERT_TRUE(cv.wait_for(lock, std::chrono::seconds(5),
                            [&] { return blocked.load() >= 1; }));
  }
  // Shutdown with one request mid-parse and two queued behind it: drain
  // must finish and deliver all three before the connection closes.
  std::thread shutdown([&] { server.Shutdown(); });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  {
    std::lock_guard<std::mutex> lock(mu);
    release = true;
  }
  cv.notify_all();

  const std::string expected = whois::ToJson(whois::ParsedWhois{});
  for (size_t i = 0; i < 3; ++i) {
    Status status = Status::kError;
    std::string body;
    ASSERT_EQ(ReadResponse(stream, status, body, kDefaultMaxFrameBytes),
              FrameRead::kFrame)
        << "response " << i;
    EXPECT_EQ(status, Status::kOk);
    EXPECT_EQ(body, expected);
  }
  Status status = Status::kOk;
  std::string body;
  EXPECT_EQ(ReadResponse(stream, status, body, kDefaultMaxFrameBytes),
            FrameRead::kEof);
  shutdown.join();
  ::close(fd);
}

// ---------------------------------------------------------------------------
// Shard router

class ServeRouterTest : public ServeEventTest {
 protected:
  static std::unique_ptr<ParseServer> Backend(uint16_t port = 0) {
    ParseServerOptions options;
    options.port = port;
    options.service.threads = 1;
    return std::make_unique<ParseServer>(*parser_, options);
  }

  static ShardRouterOptions RouterOptions(
      const std::vector<const ParseServer*>& backends) {
    ShardRouterOptions options;
    for (const ParseServer* backend : backends) {
      options.backends.push_back(std::to_string(backend->port()));
    }
    options.health_interval_ms = 0;  // deterministic: no prober
    return options;
  }

  static uint64_t Forwarded(size_t shard) {
    return CounterNow("whoiscrf_router_forwarded_total",
                      {{"shard", std::to_string(shard)}});
  }
};

TEST_F(ServeRouterTest, TwoShardsRoundTripWithCacheAffinity) {
  auto backend_a = Backend();
  auto backend_b = Backend();
  ShardRouter router(RouterOptions({backend_a.get(), backend_b.get()}));

  const uint64_t fwd_before = Forwarded(0) + Forwarded(1);
  const uint64_t hits_before = CounterNow("whoiscrf_serve_cache_hits_total");

  const int fd = Connect(router.port());
  FdStream stream(fd);
  constexpr size_t kRecords = 40;
  for (size_t pass = 0; pass < 2; ++pass) {
    for (size_t i = 0; i < kRecords; ++i) {
      const std::string record = Record(i);
      ASSERT_TRUE(WriteFrame(stream, record));
      Status status = Status::kError;
      std::string body;
      ASSERT_EQ(ReadResponse(stream, status, body, kDefaultMaxFrameBytes),
                FrameRead::kFrame);
      ASSERT_EQ(status, Status::kOk);
      EXPECT_EQ(body, OfflineJson(record)) << "record " << i;
    }
  }
  ::close(fd);

  // Both shards took traffic, and the second pass hit the caches — the
  // consistent hash sent every repeat to the shard that parsed it first.
  EXPECT_GT(Forwarded(0), 0u);
  EXPECT_GT(Forwarded(1), 0u);
  EXPECT_EQ(Forwarded(0) + Forwarded(1) - fwd_before, 2 * kRecords);
  EXPECT_EQ(CounterNow("whoiscrf_serve_cache_hits_total") - hits_before,
            kRecords);

  router.Shutdown();
  backend_a->Shutdown();
  backend_b->Shutdown();
}

TEST_F(ServeRouterTest, PipelinedOrderingHoldsAcrossShards) {
  auto backend_a = Backend();
  auto backend_b = Backend();
  ShardRouter router(RouterOptions({backend_a.get(), backend_b.get()}));

  const int fd = Connect(router.port());
  FdStream stream(fd);
  constexpr size_t kRecords = 24;
  // All requests on the wire before any response is read: replies
  // interleave across shards upstream but must come back in order.
  for (size_t i = 0; i < kRecords; ++i) {
    ASSERT_TRUE(WriteFrame(stream, Record(i)));
  }
  for (size_t i = 0; i < kRecords; ++i) {
    Status status = Status::kError;
    std::string body;
    ASSERT_EQ(ReadResponse(stream, status, body, kDefaultMaxFrameBytes),
              FrameRead::kFrame)
        << "response " << i;
    ASSERT_EQ(status, Status::kOk);
    EXPECT_EQ(body, OfflineJson(Record(i))) << "response " << i;
  }
  ::close(fd);
  router.Shutdown();
  backend_a->Shutdown();
  backend_b->Shutdown();
}

TEST_F(ServeRouterTest, ShardDeathRecoversAndProbeReadmits) {
  auto backend_a = Backend();
  auto backend_b = Backend();
  const uint16_t port_b = backend_b->port();
  ShardRouterOptions options =
      RouterOptions({backend_a.get(), backend_b.get()});
  options.health_interval_ms = 25;
  options.health_timeout_ms = 250;
  ShardRouter router(options);

  const int fd = Connect(router.port());
  FdStream stream(fd);
  constexpr size_t kRecords = 16;
  const auto round_trip_all = [&] {
    for (size_t i = 0; i < kRecords; ++i) {
      const std::string record = Record(i);
      ASSERT_TRUE(WriteFrame(stream, record));
      Status status = Status::kError;
      std::string body;
      ASSERT_EQ(ReadResponse(stream, status, body, kDefaultMaxFrameBytes),
                FrameRead::kFrame);
      ASSERT_EQ(status, Status::kOk) << body;
      EXPECT_EQ(body, OfflineJson(record));
    }
  };
  round_trip_all();

  // Kill shard 1. Requests it owned re-route to shard 0 — every request
  // still answers kOk — and the prober ejects it.
  backend_b->Shutdown();
  backend_b.reset();
  round_trip_all();
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (router.ShardHealthy(1) &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_FALSE(router.ShardHealthy(1));

  // Restart it on the same port (SO_REUSEADDR): the prober re-admits and
  // traffic flows to both shards again.
  backend_b = Backend(port_b);
  while (!router.ShardHealthy(1) &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_TRUE(router.ShardHealthy(1));
  const uint64_t fwd_b_before = Forwarded(1);
  round_trip_all();
  EXPECT_GT(Forwarded(1), fwd_b_before);

  ::close(fd);
  router.Shutdown();
  backend_a->Shutdown();
  backend_b->Shutdown();
}

TEST_F(ServeRouterTest, NoReachableShardAnswersError) {
  // Reserve an ephemeral port, then free it: nothing listens there.
  uint16_t dead_port = 0;
  const int placeholder = CreateListener(0, 1, &dead_port);
  ::close(placeholder);

  ShardRouterOptions options;
  options.backends = {std::to_string(dead_port)};
  options.health_interval_ms = 0;
  ShardRouter router(options);

  const int fd = Connect(router.port());
  FdStream stream(fd);
  ASSERT_TRUE(WriteFrame(stream, Record(0)));
  Status status = Status::kOk;
  std::string body;
  ASSERT_EQ(ReadResponse(stream, status, body, kDefaultMaxFrameBytes),
            FrameRead::kFrame);
  EXPECT_EQ(status, Status::kError);
  const uint64_t unrouted = CounterNow("whoiscrf_router_unrouted_total");
  EXPECT_GT(unrouted, 0u);
  ::close(fd);
  router.Shutdown();
}

}  // namespace
}  // namespace whoiscrf::serve
