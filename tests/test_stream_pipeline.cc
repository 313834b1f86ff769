// Streaming corpus pipeline: record framing across chunk boundaries,
// bounded-queue backpressure, sharded record store round-trips, and
// ParseStream vs sequential Parse equivalence (byte-identical output,
// exact input order, every thread count).
//
// Like test_parse_batch.cc, run these in a -DWHOISCRF_TSAN=ON build tree:
// the pipeline's reader/worker/sink handoffs are exactly the kind of code
// ThreadSanitizer exists for.
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "datagen/corpus_gen.h"
#include "util/bounded_queue.h"
#include "util/checkpoint.h"
#include "util/chunk_reader.h"
#include "whois/json_export.h"
#include "whois/record_store.h"
#include "whois/record_stream.h"
#include "whois/stream_checkpoint.h"
#include "whois/stream_pipeline.h"
#include "whois/whois_parser.h"

namespace whoiscrf::whois {
namespace {

// ---------------------------------------------------------------------------
// Record framing

std::vector<std::string> ScanAll(std::string_view text, size_t chunk_bytes) {
  util::MemoryByteSource source(text, chunk_bytes);
  return ReadAllRecords(source);
}

TEST(RecordStreamTest, FramingIsChunkSizeInvariant) {
  const std::string text =
      "Domain Name: A.COM\nRegistrar: One\n%%\n"
      "Domain Name: B.COM\r\nRegistrar: Two\r\n%%\r\n"
      "Domain Name: C.COM\rRegistrar: Three\r%%\n";
  const std::vector<std::string> expected = {
      "Domain Name: A.COM\nRegistrar: One\n",
      "Domain Name: B.COM\nRegistrar: Two\n",
      "Domain Name: C.COM\nRegistrar: Three\n",
  };
  // Chunk size 1 puts a boundary at every byte, so every straddle case —
  // including "\r|\n" — is exercised; larger sizes cover interior paths.
  for (size_t chunk : {size_t{1}, size_t{2}, size_t{3}, size_t{7},
                       size_t{64}, size_t{1} << 20}) {
    EXPECT_EQ(ScanAll(text, chunk), expected) << "chunk=" << chunk;
  }
}

TEST(RecordStreamTest, MissingTrailingSeparatorEmitsUnterminatedRecord) {
  const std::string text = "Domain Name: A.COM\n%%\nDomain Name: B.COM\n";
  for (size_t chunk : {size_t{1}, size_t{5}, size_t{1} << 20}) {
    util::MemoryByteSource source(text, chunk);
    RecordStreamReader reader(source);
    StreamedRecord record;
    ASSERT_TRUE(reader.Next(record)) << "chunk=" << chunk;
    EXPECT_EQ(record.text, "Domain Name: A.COM\n");
    EXPECT_TRUE(record.terminated);
    ASSERT_TRUE(reader.Next(record)) << "chunk=" << chunk;
    EXPECT_EQ(record.text, "Domain Name: B.COM\n");
    EXPECT_FALSE(record.terminated);
    EXPECT_EQ(record.index, 1u);
    EXPECT_FALSE(reader.Next(record));
  }
}

TEST(RecordStreamTest, UnterminatedFinalLineKeepsItsBytes) {
  // No newline at all after the last line: the line still belongs to the
  // trailing record.
  const auto records = ScanAll("Domain Name: A.COM\nRegistrar: One", 3);
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0], "Domain Name: A.COM\nRegistrar: One\n");
}

TEST(RecordStreamTest, EmptyBodiesAndTrailingBlanksProduceNoRecords) {
  // Consecutive separators, separators with surrounding whitespace, and
  // trailing blank lines must not produce ghost records.
  EXPECT_TRUE(ScanAll("", 4).empty());
  EXPECT_TRUE(ScanAll("%%\n%%\n  %% \n", 4).empty());
  EXPECT_TRUE(ScanAll("\n\n\n", 4).empty());
  const auto records = ScanAll("%%\nDomain Name: A.COM\n%%\n%%\n\n\n", 4);
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0], "Domain Name: A.COM\n");
}

TEST(RecordStreamTest, FirstLineNumbersArePhysical) {
  const std::string text =
      "Domain Name: A.COM\nRegistrar: One\n%%\nDomain Name: B.COM\n%%\n";
  util::MemoryByteSource source(text, 1 << 20);
  RecordStreamReader reader(source);
  StreamedRecord record;
  ASSERT_TRUE(reader.Next(record));
  EXPECT_EQ(record.first_line, 1u);
  ASSERT_TRUE(reader.Next(record));
  EXPECT_EQ(record.first_line, 4u);
}

TEST(RecordStreamTest, MatchesGeneratedCorpusAtHostileChunkSizes) {
  datagen::CorpusOptions options;
  options.size = 30;
  options.seed = 5;
  const datagen::CorpusGenerator generator(options);
  std::vector<std::string> expected;
  std::string text;
  for (size_t i = 0; i < 30; ++i) {
    expected.push_back(generator.Generate(i).thick.text);
    text += expected.back();
    text += "%%\n";
  }
  for (size_t chunk : {size_t{1}, size_t{13}, size_t{1} << 20}) {
    EXPECT_EQ(ScanAll(text, chunk), expected) << "chunk=" << chunk;
  }
}

// ---------------------------------------------------------------------------
// Bounded queue

TEST(BoundedQueueTest, PushBlocksAtCapacityUntilPopped) {
  util::BoundedQueue<int> queue(2);
  EXPECT_TRUE(queue.Push(1));
  EXPECT_TRUE(queue.Push(2));

  std::atomic<bool> third_pushed{false};
  double stalled = 0.0;
  std::thread producer([&] {
    EXPECT_TRUE(queue.Push(3, &stalled));
    third_pushed = true;
  });
  // The producer must stay blocked while the queue is full. (A sleep can
  // only give a false pass here, never a false failure.)
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(third_pushed.load());
  EXPECT_EQ(queue.Size(), 2u);

  EXPECT_EQ(queue.Pop(), std::optional<int>(1));
  producer.join();
  EXPECT_TRUE(third_pushed.load());
  EXPECT_GT(stalled, 0.0);
  EXPECT_EQ(queue.Pop(), std::optional<int>(2));
  EXPECT_EQ(queue.Pop(), std::optional<int>(3));
}

TEST(BoundedQueueTest, CancelWakesBlockedProducersAndDiscardsItems) {
  util::BoundedQueue<int> queue(1);
  EXPECT_TRUE(queue.Push(1));
  std::thread producer([&] { EXPECT_FALSE(queue.Push(2)); });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  queue.Cancel();
  producer.join();
  EXPECT_EQ(queue.Size(), 0u);
  EXPECT_EQ(queue.Pop(), std::nullopt);
  EXPECT_FALSE(queue.Push(3));
}

TEST(BoundedQueueTest, CloseDrainsQueuedItemsThenEndsConsumers) {
  util::BoundedQueue<int> queue(4);
  EXPECT_TRUE(queue.Push(1));
  EXPECT_TRUE(queue.Push(2));
  std::thread consumer([&] {
    EXPECT_EQ(queue.Pop(), std::optional<int>(1));
    EXPECT_EQ(queue.Pop(), std::optional<int>(2));
    EXPECT_EQ(queue.Pop(), std::nullopt);  // blocks until Close()
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  queue.Close();
  consumer.join();
  EXPECT_FALSE(queue.Push(3));
}

// ---------------------------------------------------------------------------
// Sharded record store

std::string TempPrefix(const char* tag) {
  return testing::TempDir() + "whoiscrf_" + tag + "_" +
         std::to_string(::getpid());
}

void RemoveStore(const std::string& prefix) {
  for (size_t s = 0;; ++s) {
    const bool had_final =
        std::remove(RecordStoreShardPath(prefix, s).c_str()) == 0;
    const bool had_tmp =
        std::remove((RecordStoreShardPath(prefix, s) + ".tmp").c_str()) == 0;
    if (!had_final && !had_tmp) break;
  }
}

// Removes everything a checkpointed parse can leave behind: the store, its
// quarantine companion, and the checkpoint file.
void RemoveCheckpointedStore(const std::string& prefix) {
  RemoveStore(prefix);
  RemoveStore(prefix + "-quarantine");
  std::remove(StreamCheckpointPath(prefix).c_str());
}

std::string ReadFileBytes(const std::string& path) {
  std::string out;
  EXPECT_TRUE(util::ReadFileToString(path, out)) << path;
  return out;
}

bool FileExists(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return false;
  std::fclose(f);
  return true;
}

// Asserts two stores (all shards) are byte-identical on disk.
void ExpectStoresIdentical(const std::string& a, const std::string& b) {
  for (size_t s = 0;; ++s) {
    const std::string path_a = RecordStoreShardPath(a, s);
    const std::string path_b = RecordStoreShardPath(b, s);
    const bool exists_a = FileExists(path_a);
    ASSERT_EQ(exists_a, FileExists(path_b)) << "shard " << s;
    if (!exists_a) break;
    EXPECT_EQ(ReadFileBytes(path_a), ReadFileBytes(path_b)) << "shard " << s;
  }
}

TEST(RecordStoreTest, MultiShardRoundTripWithRandomAccess) {
  const std::string prefix = TempPrefix("store");
  std::vector<std::string> records;
  for (int i = 0; i < 10; ++i) {
    records.push_back("Domain Name: R" + std::to_string(i) +
                      ".COM\nRegistrar: Reg\n");
  }
  {
    RecordStoreOptions options;
    options.records_per_shard = 3;  // force 4 shards for 10 records
    RecordStoreWriter writer(prefix, options);
    for (const auto& r : records) writer.Append(r);
    writer.Finish();
    EXPECT_EQ(writer.record_count(), 10u);
    EXPECT_EQ(writer.shard_count(), 4u);
  }
  const RecordStoreReader reader(prefix);
  EXPECT_EQ(reader.size(), 10u);
  EXPECT_EQ(reader.shard_count(), 4u);
  // Random access, deliberately out of order and crossing shards.
  for (uint64_t i : {9u, 0u, 5u, 2u, 8u, 3u}) {
    EXPECT_EQ(reader.Get(i), records[i]) << "record " << i;
  }
  EXPECT_THROW(reader.Get(10), std::out_of_range);
  // Sequential scan sees every record in order.
  StoreRecordSource source(reader);
  std::string record;
  for (size_t i = 0; i < records.size(); ++i) {
    ASSERT_TRUE(source.Next(record)) << i;
    EXPECT_EQ(record, records[i]) << i;
  }
  EXPECT_FALSE(source.Next(record));
  RemoveStore(prefix);
}

TEST(RecordStoreTest, EmptyStoreRoundTrips) {
  const std::string prefix = TempPrefix("store_empty");
  {
    RecordStoreWriter writer(prefix);
    writer.Finish();
  }
  const RecordStoreReader reader(prefix);
  EXPECT_EQ(reader.size(), 0u);
  StoreRecordSource source(reader);
  std::string record;
  EXPECT_FALSE(source.Next(record));
  RemoveStore(prefix);
}

TEST(RecordStoreTest, MissingStoreThrows) {
  EXPECT_THROW(RecordStoreReader(TempPrefix("store_missing")),
               std::runtime_error);
}

TEST(RecordStoreTest, ShardsAreInvisibleUntilSealed) {
  const std::string prefix = TempPrefix("store_atomic");
  RecordStoreOptions options;
  options.records_per_shard = 100;
  {
    RecordStoreWriter writer(prefix, options);
    writer.Append("Domain Name: A.COM\n");
    // Mid-write the shard exists only under its .tmp name, so a reader
    // scanning for `.wrs` files can never observe a torn shard.
    EXPECT_FALSE(FileExists(RecordStoreShardPath(prefix, 0)));
    EXPECT_TRUE(FileExists(RecordStoreShardPath(prefix, 0) + ".tmp"));
    writer.Finish();
    EXPECT_TRUE(FileExists(RecordStoreShardPath(prefix, 0)));
    EXPECT_FALSE(FileExists(RecordStoreShardPath(prefix, 0) + ".tmp"));
  }
  const RecordStoreReader reader(prefix);
  EXPECT_EQ(reader.size(), 1u);
  RemoveStore(prefix);
}

TEST(RecordStoreTest, ResumeFromCursorReproducesUninterruptedStore) {
  // Over 3 MiB of records of varied sizes, so every shard spans several
  // write buffers.
  std::vector<std::string> records;
  uint64_t total_bytes = 0;
  for (size_t i = 0; total_bytes < 3 * kRecordStoreBufferBytes + 4099; ++i) {
    std::string r = "Domain Name: R" + std::to_string(i) +
                    ".COM\nRegistrar: Reg\n";
    r.append(i * 7919 % 6007, static_cast<char>('a' + i % 26));
    total_bytes += r.size();
    records.push_back(std::move(r));
  }
  RecordStoreOptions options;
  options.records_per_shard = records.size() / 3 + 1;  // three shards

  // Reference: one uninterrupted writer.
  const std::string ref = TempPrefix("store_resume_ref");
  {
    RecordStoreWriter writer(ref, options);
    for (const auto& r : records) writer.Append(r);
    writer.Finish();
  }

  // Interrupted run: append into shard 1, sync, capture the cursor, then
  // keep appending junk the checkpoint never covered until one more full
  // buffer has reached the file, plus a partial one. A kill at that point
  // leaves exactly the bytes the kernel has, so snapshot the open shard's
  // file as the kill's leftover; the buffered tail never reaches it.
  const std::string prefix = TempPrefix("store_resume");
  const size_t resume_at = options.records_per_shard + 40;
  StoreCursor cursor;
  std::string killed_shard;
  {
    RecordStoreWriter writer(prefix, options);
    for (size_t i = 0; i < resume_at; ++i) writer.Append(records[i]);
    writer.Sync();
    cursor = writer.cursor();
    const std::string open_shard =
        RecordStoreShardPath(prefix, cursor.shard_index) + ".tmp";
    ASSERT_EQ(ReadFileBytes(open_shard).size(), cursor.shard_bytes);
    const std::string junk(40000, 'J');
    while (ReadFileBytes(open_shard).size() == cursor.shard_bytes) {
      writer.Append(junk);
    }
    writer.Append("JUNK RECORD PAST THE LAST FLUSH\n");
    killed_shard = ReadFileBytes(open_shard);
    EXPECT_EQ(killed_shard.size() - cursor.shard_bytes,
              kRecordStoreBufferBytes);  // whole buffers only
    EXPECT_LT(killed_shard.size(), writer.cursor().shard_bytes);
  }
  EXPECT_EQ(cursor.records, resume_at);
  EXPECT_EQ(cursor.shard_index, 1u);
  EXPECT_EQ(cursor.shard_records, 40u);
  // The writer's destructor sealed the shard; put the kill's leftover back.
  std::remove(RecordStoreShardPath(prefix, cursor.shard_index).c_str());
  util::AtomicWriteFile(
      RecordStoreShardPath(prefix, cursor.shard_index) + ".tmp", killed_shard);

  // Resume: truncate back to the cursor and append the rest for real.
  {
    RecordStoreWriter writer(prefix, options, cursor);
    EXPECT_EQ(writer.record_count(), resume_at);
    for (size_t i = resume_at; i < records.size(); ++i) {
      writer.Append(records[i]);
    }
    writer.Finish();
  }
  ExpectStoresIdentical(ref, prefix);
  EXPECT_EQ(RecordStoreReader(prefix).size(), records.size());

  // Resuming at a post-Finish cursor and finishing again is a no-op.
  {
    RecordStoreWriter writer(ref, options);
    for (const auto& r : records) writer.Append(r);
    writer.Finish();
    RecordStoreWriter again(prefix, options, writer.cursor());
    EXPECT_EQ(again.record_count(), records.size());
    again.Finish();
  }
  ExpectStoresIdentical(ref, prefix);

  RemoveStore(ref);
  RemoveStore(prefix);
}

// A `/proc/self/status` field in kB ("RssFile", "VmHWM"), -1 if absent.
long StatusKb(const std::string& field) {
  std::string status;
  if (!util::ReadFileToString("/proc/self/status", status)) return -1;
  const size_t at = status.find("\n" + field + ":");
  if (at == std::string::npos) return -1;
  return std::strtol(status.c_str() + at + field.size() + 2, nullptr, 10);
}

// Resident pages mapped from files: RssFile, plus RssShmem for files on
// tmpfs, whose mapped pages count there.
long MappedFileKb() { return StatusKb("RssFile") + StatusKb("RssShmem"); }

void WriteFileBytes(const std::string& path, const std::string& bytes) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr) << path;
  EXPECT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f), bytes.size());
  std::fclose(f);
}

// Overwrites the little-endian u32 at `offset` of an existing file.
void PatchU32(const std::string& path, uint64_t offset, uint32_t value) {
  std::FILE* f = std::fopen(path.c_str(), "r+b");
  ASSERT_NE(f, nullptr) << path;
  unsigned char b[4];
  for (int i = 0; i < 4; ++i) {
    b[i] = static_cast<unsigned char>(value >> (8 * i));
  }
  ASSERT_EQ(std::fseek(f, static_cast<long>(offset), SEEK_SET), 0);
  EXPECT_EQ(std::fwrite(b, 1, 4, f), 4u);
  std::fclose(f);
}

// Drains a source, returning how many records it produced.
size_t Drain(RecordSource& source) {
  std::string record;
  size_t n = 0;
  while (source.Next(record)) ++n;
  return n;
}

TEST(RecordStoreTest, SourceMatchesGetAcrossWindowsShardsAndSkips) {
  // Sizes chosen to put records across every window-refill case: empty
  // records, spans that straddle the 1 MiB window's end, a span exactly
  // the window's size, and records larger than the window.
  const size_t window = kRecordStoreBufferBytes;
  std::vector<std::string> records;
  for (size_t i = 0; i < 900; ++i) {
    std::string r;
    if (i % 17 != 3) {
      r.assign(i * 7919 % 9001, static_cast<char>('a' + i % 26));
    }
    if (i == 250) r.assign(window - 4, 'W');  // span == window
    if (i == 251) r.assign(window - 3, 'X');  // span == window + 1
    if (i == 600) r.assign(3 * window, 'Y');
    records.push_back(std::move(r));
  }
  RecordStoreOptions options;
  options.records_per_shard = 300;  // three shards
  const std::string prefix = TempPrefix("store_window");
  {
    RecordStoreWriter writer(prefix, options);
    for (const auto& r : records) writer.Append(r);
    writer.Finish();
  }
  const RecordStoreReader reader(prefix);
  ASSERT_EQ(reader.size(), records.size());
  ASSERT_EQ(reader.shard_count(), 3u);
  for (uint64_t i = 0; i < records.size(); ++i) {
    ASSERT_EQ(reader.Get(i), records[i]) << i;
  }

  StoreRecordSource source(reader);
  std::string record;
  for (size_t i = 0; i < records.size(); ++i) {
    ASSERT_TRUE(source.Next(record)) << i;
    ASSERT_EQ(record, reader.Get(i)) << i;
  }
  EXPECT_FALSE(source.Next(record));

  // Skips into the middle of a shard: from a cold source, within a filled
  // window, past its end, and across a shard boundary.
  StoreRecordSource skipping(reader);
  uint64_t pos = 0;
  for (uint64_t skip : {150u, 2u, 90u, 200u, 0u, 7u}) {
    ASSERT_EQ(skipping.Skip(skip), skip);
    pos += skip;
    for (int k = 0; k < 3; ++k, ++pos) {
      ASSERT_TRUE(skipping.Next(record)) << pos;
      ASSERT_EQ(record, records[pos]) << pos;
    }
  }
  EXPECT_EQ(skipping.Skip(records.size()), records.size() - pos);
  EXPECT_FALSE(skipping.Next(record));
  RemoveStore(prefix);
}

TEST(RecordStoreTest, TruncatedShardUnderOpenReaderThrows) {
  // Two windows of records, truncated to 100 kB after the source's first
  // window. Reads past the new end must throw: a reader that maps its
  // shards dies of SIGBUS here instead.
  const std::string prefix = TempPrefix("store_truncated");
  std::vector<std::string> records;
  {
    RecordStoreWriter writer(prefix);
    for (size_t i = 0; i < 3000; ++i) {
      records.push_back("Domain Name: R" + std::to_string(i) + ".COM\n" +
                        std::string(700, 'x'));
      writer.Append(records.back());
    }
    writer.Finish();
  }
  const RecordStoreReader reader(prefix);
  StoreRecordSource source(reader);
  std::string record;
  ASSERT_TRUE(source.Next(record));
  EXPECT_EQ(record, records[0]);
  ASSERT_EQ(::truncate(RecordStoreShardPath(prefix, 0).c_str(), 100000), 0);

  EXPECT_EQ(reader.Get(10), records[10]);
  EXPECT_THROW(reader.Get(1500), std::runtime_error);
  StoreRecordSource fresh(reader);
  EXPECT_THROW(Drain(fresh), std::runtime_error);
  // Records the first window already read may still be served; the first
  // one past it throws.
  EXPECT_THROW(Drain(source), std::runtime_error);
  RemoveStore(prefix);
}

TEST(RecordStoreTest, CorruptLengthWordThrowsBeforeAllocating) {
  std::vector<std::string> records;
  for (size_t i = 0; i < 10; ++i) {
    records.push_back("Domain Name: R" + std::to_string(i) + ".COM\n");
  }
  RecordStoreOptions options;
  options.records_per_shard = 5;
  // {record, value written over its length word}: too large (a reader
  // that sizes its buffer from the length word first zeroes ~2 GiB), too
  // small, and on each shard's last record, whose span ends at the index.
  struct Corruption {
    uint64_t record;
    uint32_t length;
  };
  const uint32_t real = static_cast<uint32_t>(records[0].size());
  const Corruption cases[] = {
      {2, 0x7FFFFFF0u}, {2, real - 1}, {4, 0x7FFFFFF0u}, {9, real + 1}};
  const long hwm_before = StatusKb("VmHWM");
  ASSERT_GT(hwm_before, 0);
  for (const Corruption& c : cases) {
    SCOPED_TRACE(c.record);
    const std::string prefix = TempPrefix("store_corrupt_len");
    {
      RecordStoreWriter writer(prefix, options);
      for (const auto& r : records) writer.Append(r);
      writer.Finish();
    }
    const size_t shard = c.record / options.records_per_shard;
    uint64_t offset = 8;
    for (uint64_t i = shard * options.records_per_shard; i < c.record; ++i) {
      offset += 4 + records[i].size();
    }
    PatchU32(RecordStoreShardPath(prefix, shard), offset, c.length);

    const RecordStoreReader reader(prefix);
    EXPECT_THROW(reader.Get(c.record), std::runtime_error);
    EXPECT_EQ(reader.Get(c.record ^ 1), records[c.record ^ 1]);
    StoreRecordSource source(reader);
    EXPECT_THROW(Drain(source), std::runtime_error);
    StoreRecordSource skipped(reader);
    ASSERT_EQ(skipped.Skip(c.record), c.record);
    std::string record;
    EXPECT_THROW(skipped.Next(record), std::runtime_error);
    RemoveStore(prefix);
  }
  EXPECT_LT(StatusKb("VmHWM") - hwm_before, 64 * 1024);
}

TEST(RecordStoreTest, StreamingLargeStoreKeepsMappedFileRssFlat) {
  const std::string prefix = TempPrefix("store_rss");
  const uint64_t kBytes = uint64_t{33} << 20;
  size_t count = 0;
  {
    RecordStoreWriter writer(prefix);
    std::string r(4000, 'r');
    for (uint64_t bytes = 0; bytes < kBytes; bytes += r.size()) {
      r[count % r.size()] = 'R';
      writer.Append(r);
      ++count;
    }
    writer.Finish();
  }
  const long mapped_before = MappedFileKb();
  ASSERT_GE(mapped_before, 0);
  {
    const RecordStoreReader reader(prefix);
    StoreRecordSource source(reader);
    EXPECT_EQ(Drain(source), count);
    EXPECT_LT(MappedFileKb() - mapped_before, 2 * 1024);
  }
  RemoveStore(prefix);
}

TEST(RecordStreamTest, StreamingLargeTextFileKeepsMappedFileRssFlat) {
  const std::string path = TempPrefix("text_rss") + ".txt";
  std::string text;
  size_t count = 0;
  while (text.size() < (size_t{33} << 20)) {
    text += "Domain Name: R" + std::to_string(count++) + ".COM\n";
    text.append(2000, 'x');
    text += "\n%%\n";
  }
  WriteFileBytes(path, text);
  text.clear();
  text.shrink_to_fit();
  const long mapped_before = MappedFileKb();
  ASSERT_GE(mapped_before, 0);
  {
    util::FileByteSource bytes(path);
    TextRecordSource source(bytes);
    EXPECT_EQ(Drain(source), count);
    EXPECT_LT(MappedFileKb() - mapped_before, 2 * 1024);
  }
  std::remove(path.c_str());
}

TEST(RecordStreamTest, TextFileTruncatedWhileReadingEndsEarly) {
  const std::string path = TempPrefix("text_truncated") + ".txt";
  std::string text;
  size_t count = 0;
  while (text.size() < 3 * util::kDefaultChunkBytes) {
    text += "Domain Name: R" + std::to_string(count++) + ".COM\n";
    text.append(500, 'x');
    text += "\n%%\n";
  }
  WriteFileBytes(path, text);
  util::FileByteSource bytes(path);
  TextRecordSource source(bytes);
  std::string record;
  ASSERT_TRUE(source.Next(record));  // the first chunk is read
  ASSERT_EQ(::truncate(path.c_str(), 100000), 0);
  size_t read = 1;
  try {
    read += Drain(source);
  } catch (const std::runtime_error&) {
  }
  EXPECT_LT(read, count);
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Streaming parse pipeline

class StreamPipelineTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    datagen::CorpusOptions options;
    options.size = 200;
    options.seed = 42;
    generator_ = new datagen::CorpusGenerator(options);
    std::vector<LabeledRecord> train;
    for (size_t i = 0; i < 120; ++i) {
      train.push_back(generator_->Generate(i).thick);
    }
    parser_ = new WhoisParser(WhoisParser::Train(train));
  }
  static void TearDownTestSuite() {
    delete parser_;
    delete generator_;
    parser_ = nullptr;
    generator_ = nullptr;
  }

  static std::vector<std::string> CorpusTexts(size_t begin, size_t count) {
    std::vector<std::string> out;
    out.reserve(count);
    for (size_t i = begin; i < begin + count; ++i) {
      out.push_back(generator_->Generate(i).thick.text);
    }
    return out;
  }

  static WhoisParser* parser_;
  static datagen::CorpusGenerator* generator_;
};

WhoisParser* StreamPipelineTest::parser_ = nullptr;
datagen::CorpusGenerator* StreamPipelineTest::generator_ = nullptr;

TEST_F(StreamPipelineTest, StreamingMatchesInMemoryBatchByteForByte) {
  const std::vector<std::string> records = CorpusTexts(120, 60);
  std::string text;
  for (const auto& r : records) {
    text += r;
    text += "%%\n";
  }

  // The in-memory reference: every record parsed in order on one thread.
  std::vector<ParsedWhois> batch;
  ParseWorkspace ws;
  for (const std::string& r : records) batch.push_back(parser_->Parse(r, ws));

  // Tiny chunks, batches, and queues: maximum pressure on the framing and
  // the reorder logic. Output must still be the sequential parses, byte
  // for byte, in exact input order.
  for (size_t threads : {size_t{1}, size_t{4}}) {
    util::MemoryByteSource bytes(text, 37);
    TextRecordSource source(bytes);
    StreamPipelineOptions options;
    options.threads = threads;
    options.batch_records = 3;
    options.queue_capacity = 2;
    std::vector<std::string> seen_records;
    std::vector<std::string> seen_json;
    std::vector<uint64_t> seen_indices;
    const StreamPipelineStats stats = ParseStream(
        *parser_, source, options,
        [&](uint64_t index, const std::string& record,
            const ParsedWhois& parsed) {
          seen_indices.push_back(index);
          seen_records.push_back(record);
          seen_json.push_back(ToJson(parsed));
        });
    EXPECT_EQ(stats.records, records.size()) << threads << " threads";
    ASSERT_EQ(seen_records.size(), records.size()) << threads << " threads";
    for (size_t i = 0; i < records.size(); ++i) {
      EXPECT_EQ(seen_indices[i], i) << threads << " threads";
      EXPECT_EQ(seen_records[i], records[i]) << threads << " threads";
      EXPECT_EQ(seen_json[i], ToJson(batch[i]))
          << threads << " threads, record " << i;
    }
  }
}

TEST_F(StreamPipelineTest, EmptySourceProducesNoSinkCalls) {
  util::MemoryByteSource bytes("", 8);
  TextRecordSource source(bytes);
  size_t calls = 0;
  const StreamPipelineStats stats =
      ParseStream(*parser_, source, {},
                  [&](uint64_t, const std::string&, const ParsedWhois&) {
                    ++calls;
                  });
  EXPECT_EQ(stats.records, 0u);
  EXPECT_EQ(calls, 0u);
}

TEST_F(StreamPipelineTest, SinkExceptionCancelsPipelineAndPropagates) {
  const std::vector<std::string> records = CorpusTexts(120, 40);
  std::string text;
  for (const auto& r : records) {
    text += r;
    text += "%%\n";
  }
  util::MemoryByteSource bytes(text, 1 << 20);
  TextRecordSource source(bytes);
  StreamPipelineOptions options;
  options.threads = 2;
  options.batch_records = 2;
  options.queue_capacity = 2;
  EXPECT_THROW(
      ParseStream(*parser_, source, options,
                  [&](uint64_t index, const std::string&, const ParsedWhois&) {
                    if (index >= 4) throw std::runtime_error("sink failed");
                  }),
      std::runtime_error);
}

TEST_F(StreamPipelineTest, StoreSourceParsesIdenticallyToTextSource) {
  const std::vector<std::string> records = CorpusTexts(150, 30);
  const std::string prefix = TempPrefix("pipeline_store");
  {
    RecordStoreWriter writer(prefix);
    for (const auto& r : records) writer.Append(r);
  }  // destructor seals
  const RecordStoreReader reader(prefix);
  StoreRecordSource source(reader);
  std::vector<std::string> json;
  ParseStream(*parser_, source, {},
              [&](uint64_t, const std::string&, const ParsedWhois& parsed) {
                json.push_back(ToJson(parsed));
              });
  ASSERT_EQ(json.size(), records.size());
  ParseWorkspace ws;
  for (size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(json[i], ToJson(parser_->Parse(records[i], ws))) << i;
  }
  RemoveStore(prefix);
}

// ---------------------------------------------------------------------------
// Crash safety: quarantine, watchdog, checkpoint/resume

constexpr char kPoisonMarker[] = "!!POISON!!";

// A RecordSource over an in-memory vector; cheap to rebuild for the
// replay-from-scratch half of resume tests.
class VectorRecordSource : public RecordSource {
 public:
  explicit VectorRecordSource(const std::vector<std::string>& records)
      : records_(records) {}
  bool Next(std::string& record) override {
    if (pos_ >= records_.size()) return false;
    record = records_[pos_++];
    return true;
  }

 private:
  const std::vector<std::string>& records_;
  size_t pos_ = 0;
};

// Parse hook that throws on marked records and otherwise defers to the
// real parser — the "hostile input" chaos monkey.
StreamPipelineOptions PoisonOptions(const WhoisParser& parser) {
  StreamPipelineOptions options;
  options.parse_override = [&parser](const std::string& record,
                                     ParseWorkspace& ws) {
    if (record.find(kPoisonMarker) != std::string::npos) {
      throw std::runtime_error("poisoned record");
    }
    return parser.Parse(record, ws);
  };
  return options;
}

TEST(QuarantineEntryTest, RoundTripsIndexReasonAndRawBytes) {
  const std::string record = "Domain Name: X.COM\n\x01\x02 binary \t bytes\n";
  const std::string entry =
      FormatQuarantineEntry(42, "segfault in featurizer\nline2", record);
  uint64_t index = 0;
  std::string reason;
  std::string raw;
  ParseQuarantineEntry(entry, index, reason, raw);
  EXPECT_EQ(index, 42u);
  EXPECT_EQ(reason, "segfault in featurizer line2");  // newline sanitized
  EXPECT_EQ(raw, record);                             // bytes untouched
  EXPECT_THROW(ParseQuarantineEntry("not a quarantine entry", index, reason,
                                    raw),
               std::runtime_error);
}

TEST(StreamCheckpointTest, FormatRoundTrips) {
  StreamCheckpoint cp;
  cp.complete = true;
  cp.consumed = 12345;
  cp.quarantined = 7;
  cp.input_id = "file:/data/corpus with spaces.txt";
  cp.store = {12338, 2, 50, 4096};
  cp.quarantine = {7, 0, 7, 900};
  const StreamCheckpoint back = ParseStreamCheckpoint(FormatStreamCheckpoint(cp));
  EXPECT_EQ(back.complete, cp.complete);
  EXPECT_EQ(back.consumed, cp.consumed);
  EXPECT_EQ(back.quarantined, cp.quarantined);
  EXPECT_EQ(back.input_id, cp.input_id);
  EXPECT_EQ(back.store.records, cp.store.records);
  EXPECT_EQ(back.store.shard_bytes, cp.store.shard_bytes);
  EXPECT_EQ(back.quarantine.records, cp.quarantine.records);
  EXPECT_THROW(ParseStreamCheckpoint("garbage\n"), std::runtime_error);
}

TEST_F(StreamPipelineTest, PoisonedRecordsAreQuarantinedNotFatal) {
  std::vector<std::string> records = CorpusTexts(120, 30);
  const std::vector<size_t> poison_at = {0, 7, 8, 19, 29};
  for (size_t i : poison_at) {
    records[i] = std::string(kPoisonMarker) + "\nDomain Name: BAD" +
                 std::to_string(i) + ".COM\n";
  }

  StreamPipelineOptions options = PoisonOptions(*parser_);
  options.threads = 4;
  options.batch_records = 3;
  options.queue_capacity = 2;
  std::vector<std::pair<uint64_t, std::string>> quarantined;
  options.on_quarantine = [&](uint64_t index, const std::string& record,
                              const std::string& reason) {
    quarantined.emplace_back(index, record);
    EXPECT_EQ(reason, "poisoned record");
  };

  std::vector<uint64_t> sink_indices;
  std::vector<std::string> sink_json;
  VectorRecordSource source(records);
  const StreamPipelineStats stats = ParseStream(
      *parser_, source, options,
      [&](uint64_t index, const std::string& record, const ParsedWhois& parsed) {
        EXPECT_EQ(record, records[index]);
        sink_indices.push_back(index);
        sink_json.push_back(ToJson(parsed));
      });

  // The run completed; exactly the poison records were diverted, in input
  // order, and every clean record reached the sink at its global index.
  EXPECT_EQ(stats.records, records.size() - poison_at.size());
  EXPECT_EQ(stats.quarantined, poison_at.size());
  ASSERT_EQ(quarantined.size(), poison_at.size());
  for (size_t q = 0; q < poison_at.size(); ++q) {
    EXPECT_EQ(quarantined[q].first, poison_at[q]);
    EXPECT_EQ(quarantined[q].second, records[poison_at[q]]);
  }
  ASSERT_EQ(sink_indices.size(), records.size() - poison_at.size());
  ParseWorkspace ws;
  size_t s = 0;
  for (size_t i = 0; i < records.size(); ++i) {
    if (std::find(poison_at.begin(), poison_at.end(), i) != poison_at.end()) {
      continue;
    }
    ASSERT_LT(s, sink_indices.size());
    EXPECT_EQ(sink_indices[s], i);
    EXPECT_EQ(sink_json[s], ToJson(parser_->Parse(records[i], ws))) << i;
    ++s;
  }
}

TEST_F(StreamPipelineTest, WorkerExceptionWithoutQuarantineStillAborts) {
  std::vector<std::string> records = CorpusTexts(120, 10);
  records[4] = std::string(kPoisonMarker) + "\n";
  StreamPipelineOptions options = PoisonOptions(*parser_);
  options.threads = 2;
  options.batch_records = 2;
  VectorRecordSource source(records);
  EXPECT_THROW(
      ParseStream(*parser_, source, options,
                  [](uint64_t, const std::string&, const ParsedWhois&) {}),
      std::runtime_error);
}

TEST_F(StreamPipelineTest, OversizedRecordsAreQuarantinedWithoutParsing) {
  std::vector<std::string> records = CorpusTexts(120, 6);
  records[3] = "Domain Name: HUGE.COM\n" + std::string(10000, 'x') + "\n";
  StreamPipelineOptions options;
  options.threads = 2;
  options.max_record_bytes = 4096;
  std::vector<uint64_t> quarantined;
  options.on_quarantine = [&](uint64_t index, const std::string&,
                              const std::string& reason) {
    quarantined.push_back(index);
    EXPECT_NE(reason.find("exceeds limit"), std::string::npos) << reason;
  };
  size_t sunk = 0;
  VectorRecordSource source(records);
  const StreamPipelineStats stats =
      ParseStream(*parser_, source, options,
                  [&](uint64_t, const std::string&, const ParsedWhois&) {
                    ++sunk;
                  });
  EXPECT_EQ(stats.quarantined, 1u);
  EXPECT_EQ(sunk, records.size() - 1);
  ASSERT_EQ(quarantined.size(), 1u);
  EXPECT_EQ(quarantined[0], 3u);
}

// A source that delivers a few records promptly, then wedges long enough
// for the watchdog to fire. The sleep is finite so thread joins always
// complete even on slow machines.
class StallingSource : public RecordSource {
 public:
  bool Next(std::string& record) override {
    if (served_ >= 3) {
      std::this_thread::sleep_for(std::chrono::milliseconds(500));
      return false;
    }
    record = "Domain Name: S" + std::to_string(served_++) + ".COM\n";
    return true;
  }

 private:
  size_t served_ = 0;
};

TEST_F(StreamPipelineTest, WatchdogFailsFastOnStalledStage) {
  StallingSource source;
  StreamPipelineOptions options;
  options.threads = 2;
  options.batch_records = 1;
  options.watchdog_timeout_ms = 60;
  try {
    ParseStream(*parser_, source, options,
                [](uint64_t, const std::string&, const ParsedWhois&) {});
    FAIL() << "expected StreamStallError";
  } catch (const StreamStallError& e) {
    // The diagnostic names the wedged stage and the queue depths.
    EXPECT_NE(std::string(e.what()).find("suspect stage"), std::string::npos)
        << e.what();
  }
}

TEST_F(StreamPipelineTest, WatchdogStaysQuietOnHealthyRun) {
  const std::vector<std::string> records = CorpusTexts(120, 20);
  VectorRecordSource source(records);
  StreamPipelineOptions options;
  options.threads = 2;
  options.watchdog_timeout_ms = 60'000;
  const StreamPipelineStats stats =
      ParseStream(*parser_, source, options,
                  [](uint64_t, const std::string&, const ParsedWhois&) {});
  EXPECT_EQ(stats.records, records.size());
}

TEST_F(StreamPipelineTest, KillResumeRoundTripIsByteIdentical) {
  std::vector<std::string> records = CorpusTexts(120, 40);
  const std::vector<size_t> poison_at = {5, 17, 29};
  for (size_t i : poison_at) {
    records[i] = std::string(kPoisonMarker) + "\nDomain Name: BAD" +
                 std::to_string(i) + ".COM\n";
  }

  CheckpointedParseOptions options;
  options.pipeline = PoisonOptions(*parser_);
  options.pipeline.threads = 2;
  options.pipeline.batch_records = 3;
  options.store.records_per_shard = 7;
  options.checkpoint_interval = 10;
  options.input_id = "test:kill_resume";

  // Reference: an uninterrupted run.
  const std::string ref = TempPrefix("ckpt_ref");
  {
    VectorRecordSource source(records);
    const CheckpointedParseResult result =
        ParseStreamToStore(*parser_, source, ref, options);
    EXPECT_EQ(result.records_stored, records.size() - poison_at.size());
    EXPECT_EQ(result.quarantined, poison_at.size());
    EXPECT_EQ(result.skipped, 0u);
  }

  // Interrupted run: the sink dies after 23 stored records (mid-corpus,
  // past several checkpoints), taking the process with it — modeled by
  // the exception unwinding through ParseStreamToStore.
  const std::string prefix = TempPrefix("ckpt_killed");
  {
    VectorRecordSource source(records);
    size_t stored = 0;
    EXPECT_THROW(
        ParseStreamToStore(*parser_, source, prefix, options,
                           [&](uint64_t, const std::string&,
                               const ParsedWhois&) {
                             if (++stored > 23) {
                               throw std::runtime_error("killed");
                             }
                           }),
        std::runtime_error);
  }

  // Resume: replay the same input with --resume semantics.
  {
    CheckpointedParseOptions resume_options = options;
    resume_options.resume = true;
    VectorRecordSource source(records);
    const CheckpointedParseResult result =
        ParseStreamToStore(*parser_, source, prefix, resume_options);
    EXPECT_GT(result.skipped, 0u);
    EXPECT_EQ(result.records_stored, records.size() - poison_at.size());
    EXPECT_EQ(result.quarantined, poison_at.size());
  }

  // Byte-identical to the uninterrupted run: main store AND quarantine.
  ExpectStoresIdentical(ref, prefix);
  ExpectStoresIdentical(ref + "-quarantine", prefix + "-quarantine");

  // The quarantine store holds exactly the poison records with reasons.
  {
    const RecordStoreReader reader(prefix + "-quarantine");
    ASSERT_EQ(reader.size(), poison_at.size());
    for (size_t q = 0; q < poison_at.size(); ++q) {
      uint64_t index = 0;
      std::string reason;
      std::string raw;
      ParseQuarantineEntry(reader.Get(q), index, reason, raw);
      EXPECT_EQ(index, poison_at[q]);
      EXPECT_EQ(reason, "poisoned record");
      EXPECT_EQ(raw, records[poison_at[q]]);
    }
  }

  // Resuming a complete run is an idempotent no-op: everything skips.
  {
    CheckpointedParseOptions resume_options = options;
    resume_options.resume = true;
    VectorRecordSource source(records);
    const CheckpointedParseResult result =
        ParseStreamToStore(*parser_, source, prefix, resume_options);
    EXPECT_EQ(result.skipped, records.size());
    EXPECT_EQ(result.stats.records, 0u);
    EXPECT_EQ(result.records_stored, records.size() - poison_at.size());
  }
  ExpectStoresIdentical(ref, prefix);

  // A checkpoint refuses to resume against a different input.
  {
    CheckpointedParseOptions resume_options = options;
    resume_options.resume = true;
    resume_options.input_id = "test:other_corpus";
    VectorRecordSource source(records);
    EXPECT_THROW(
        ParseStreamToStore(*parser_, source, prefix, resume_options),
        std::runtime_error);
  }

  RemoveCheckpointedStore(ref);
  RemoveCheckpointedStore(prefix);
}

TEST(StreamCheckpointTest, AuxPayloadRoundTripsArbitraryBytes) {
  StreamCheckpoint cp;
  cp.consumed = 99;
  cp.input_id = "test:aux";
  // The payload is length-prefixed, so newlines, checkpoint-keyword lines,
  // and binary bytes must all survive verbatim.
  cp.aux = "line one\nconsumed 7\nend\n\x01\x02 binary\n";
  const std::string text = FormatStreamCheckpoint(cp);
  const StreamCheckpoint back = ParseStreamCheckpoint(text);
  EXPECT_EQ(back.aux, cp.aux);
  EXPECT_EQ(back.consumed, cp.consumed);

  // Empty aux writes no aux section and reads back empty.
  cp.aux.clear();
  const std::string bare = FormatStreamCheckpoint(cp);
  EXPECT_EQ(bare.find("\naux "), std::string::npos);
  EXPECT_TRUE(ParseStreamCheckpoint(bare).aux.empty());

  // A truncated aux section (declared length past the end) is malformed,
  // not silently shortened.
  const size_t aux_at = text.find("aux ");
  ASSERT_NE(aux_at, std::string::npos);
  EXPECT_THROW(ParseStreamCheckpoint(text.substr(0, aux_at + 8)),
               std::runtime_error);
}

TEST(RecordStreamTest, SkipAdvancesPastRecordsWithoutParsing) {
  const std::vector<std::string> records = {"a\n", "b\n", "c\n", "d\n",
                                            "e\n"};
  VectorRecordSource source(records);
  EXPECT_EQ(source.Skip(3), 3u);
  std::string record;
  ASSERT_TRUE(source.Next(record));
  EXPECT_EQ(record, "d\n");
  // Skipping past the end reports how many records actually remained.
  EXPECT_EQ(source.Skip(10), 1u);
  EXPECT_FALSE(source.Next(record));
  EXPECT_EQ(source.Skip(1), 0u);
}

// Aux state (a sink-side record count here; the survey accumulator in
// production) rides inside the checkpoint, so a killed run restores it
// atomically with the cursor: no double-counting of skipped records, no
// lost tail.
TEST_F(StreamPipelineTest, AuxStateSurvivesKillAndResume) {
  const std::vector<std::string> records = CorpusTexts(120, 30);

  CheckpointedParseOptions options;
  options.pipeline.threads = 2;
  options.pipeline.batch_records = 3;
  options.checkpoint_interval = 8;
  options.input_id = "test:aux_resume";

  uint64_t count = 0;
  options.save_aux = [&count] { return std::to_string(count); };
  options.load_aux = [&count](const std::string& aux) {
    count = aux.empty() ? 0 : std::stoull(aux);
  };
  const auto counting_sink = [&count](uint64_t, const std::string&,
                                      const ParsedWhois&) { ++count; };

  // Reference: the uninterrupted count.
  const std::string ref = TempPrefix("aux_ref");
  {
    VectorRecordSource source(records);
    const CheckpointedParseResult result =
        ParseStreamToStore(*parser_, source, ref, options, counting_sink);
    EXPECT_EQ(count, records.size());
    EXPECT_GT(result.checkpoints, 0u);
    EXPECT_GE(result.checkpoint_seconds, 0.0);
  }
  const uint64_t ref_count = count;

  // Killed run: the sink dies mid-corpus, past several checkpoints.
  const std::string prefix = TempPrefix("aux_killed");
  count = 0;
  {
    VectorRecordSource source(records);
    uint64_t stored = 0;
    EXPECT_THROW(
        ParseStreamToStore(*parser_, source, prefix, options,
                           [&](uint64_t index, const std::string& record,
                               const ParsedWhois& parsed) {
                             if (++stored > 19) {
                               throw std::runtime_error("killed");
                             }
                             counting_sink(index, record, parsed);
                           }),
        std::runtime_error);
  }

  // Resume with a poisoned in-memory count: load_aux must overwrite it
  // with the durable snapshot, then the tail adds exactly the unskipped
  // records.
  count = 999999;
  {
    CheckpointedParseOptions resume_options = options;
    resume_options.resume = true;
    VectorRecordSource source(records);
    const CheckpointedParseResult result = ParseStreamToStore(
        *parser_, source, prefix, resume_options, counting_sink);
    EXPECT_GT(result.skipped, 0u);
  }
  EXPECT_EQ(count, ref_count);
  ExpectStoresIdentical(ref, prefix);

  RemoveCheckpointedStore(ref);
  RemoveCheckpointedStore(prefix);
}

// The checkpoint observer sees every durable checkpoint (cursor already
// saved), and a throwing observer aborts the run exactly like a sink
// throw — the seam the scale-run bench uses to inject mid-run kills.
TEST_F(StreamPipelineTest, CheckpointObserverSeesEveryDurableCheckpoint) {
  const std::vector<std::string> records = CorpusTexts(120, 20);

  CheckpointedParseOptions options;
  options.pipeline.threads = 2;
  options.checkpoint_interval = 6;
  options.input_id = "test:observer";

  const std::string prefix = TempPrefix("ckpt_observer");
  std::vector<uint64_t> seen;
  options.on_checkpoint = [&seen](const StreamCheckpoint& cp) {
    seen.push_back(cp.consumed);
  };
  {
    VectorRecordSource source(records);
    const CheckpointedParseResult result =
        ParseStreamToStore(*parser_, source, prefix, options);
    EXPECT_EQ(seen.size(), result.checkpoints);
    ASSERT_FALSE(seen.empty());
    EXPECT_EQ(seen.back(), records.size());  // the final complete snapshot
  }
  RemoveCheckpointedStore(prefix);

  const std::string kill_prefix = TempPrefix("ckpt_observer_kill");
  options.on_checkpoint = [](const StreamCheckpoint& cp) {
    if (cp.consumed >= 12) throw std::runtime_error("observer kill");
  };
  {
    VectorRecordSource source(records);
    EXPECT_THROW(
        ParseStreamToStore(*parser_, source, kill_prefix, options),
        std::runtime_error);
  }
  RemoveCheckpointedStore(kill_prefix);
}

}  // namespace
}  // namespace whoiscrf::whois
