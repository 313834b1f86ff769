// Compact sharded binary record store: the on-disk shape of a crawled
// corpus once it leaves the %%-delimited text world. The paper's survey
// parses 102M records; at that scale the store must support (a) streaming
// scans with bounded memory and (b) random access by record index without
// reading anything but the target record — both fall out of a per-shard
// offset index.
//
// Layout (docs/formats.md "Sharded record store" is the authoritative
// spec): records are split across shard files `<prefix>-NNNNN.wrs`, each
// holding up to `records_per_shard` records:
//
//   u32  magic   0x31535257 ("WRS1")
//   u32  version 1
//   ...  records: u32 length + raw bytes, back to back
//   ...  index:   u64 file offset of each record's length word
//   u64  record count
//   u64  index offset (file offset of the first index entry)
//   u32  magic   0x31535257   (footer magic — detects truncation)
//
// Integers are little-endian. A reader loads the index (8 bytes per
// record) with one pread per shard, and can then serve Get(i) with one
// pread of the record's span: its length word and bytes. The span comes
// from the index (the next record's offset, or the index offset for a
// shard's last record). Buffers are sized from the index, which open
// checks against the file size, never from a length word; a length word
// that disagrees with its span throws.
// Files are only ever read with pread into owned memory, never mapped: a
// shard truncated under an open reader makes a read throw, not fault.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "whois/record_stream.h"

namespace whoiscrf::whois {

inline constexpr uint32_t kRecordStoreMagic = 0x31535257;  // "WRS1"
inline constexpr uint32_t kRecordStoreVersion = 1;

// Bytes a writer buffers before handing them to the kernel with one
// write(2). Each full buffer is followed by a SYNC_FILE_RANGE_WRITE hint
// that starts writeback of exactly that range, so the fsync at the next
// Sync()/Finish() finds little dirty data left to flush.
inline constexpr size_t kRecordStoreBufferBytes = size_t{1} << 20;

struct RecordStoreOptions {
  // Shard roll-over threshold. 1<<20 records * ~1KB records ≈ 1GB shards
  // at census scale; tests use tiny values to exercise multi-shard paths.
  uint64_t records_per_shard = uint64_t{1} << 20;
};

// A writer's durable position: everything a crashed run needs to reopen
// its store and continue producing byte-identical shards. Serialized into
// the stream checkpoint (docs/formats.md "Stream checkpoint").
struct StoreCursor {
  uint64_t records = 0;       // records appended across all shards
  uint64_t shard_index = 0;   // shard the cursor points into
  uint64_t shard_records = 0; // records already in that shard
  uint64_t shard_bytes = 0;   // bytes written to that shard (incl. header)
};

// Appends records into `<prefix>-NNNNN.wrs` shards. Not thread-safe; one
// writer per prefix. Finish() (or the destructor) seals the last shard.
//
// Crash safety: a shard is written as `<path>.tmp` and renamed to its
// final `.wrs` name only after the index + footer are written and
// fsync'd, so a final shard file is always complete — a crash mid-write
// or mid-finalize leaves only a `.tmp`, which readers never discover.
//
// The writeback hint after each full buffer only starts I/O early; fsync
// in Sync() and Finish() stays the only durability point. Kernels or
// filesystems that reject the hint (EINVAL, ENOSYS, ESPIPE) switch it off
// for this writer; any other hint error throws, as a failed write does.
class RecordStoreWriter {
 public:
  explicit RecordStoreWriter(std::string prefix,
                             RecordStoreOptions options = {});
  // Resumes a previous writer at `resume_from` (a cursor captured after
  // Sync()): re-opens that shard (un-sealing it if a crash-raced seal
  // already renamed it), truncates it to the cursor's byte offset,
  // rebuilds the in-memory index by scanning the length prefixes, and
  // removes any later shards left by work past the cursor. Appending the
  // same records afterwards reproduces the uninterrupted store byte for
  // byte. Throws std::runtime_error when the on-disk state cannot be
  // reconciled with the cursor.
  RecordStoreWriter(std::string prefix, RecordStoreOptions options,
                    const StoreCursor& resume_from);
  ~RecordStoreWriter();

  RecordStoreWriter(const RecordStoreWriter&) = delete;
  RecordStoreWriter& operator=(const RecordStoreWriter&) = delete;

  void Append(std::string_view record);
  // Writes the current shard's index + footer, fsyncs, and renames it to
  // its final name. Idempotent.
  void Finish();

  // Writes out the buffer and fsyncs the open shard so every record
  // appended so far is durable at cursor(). No-op when no shard is open.
  void Sync();

  // The current durable-resume position. Capture only after Sync() (or
  // Finish()): the cursor is meaningful iff the bytes behind it are on
  // disk.
  StoreCursor cursor() const;

  uint64_t record_count() const { return total_records_; }
  size_t shard_count() const { return shard_index_; }

 private:
  void OpenShard();
  void SealShard();
  void ResumeShard(const StoreCursor& resume_from);
  // Appends to the buffer; a full buffer goes to the kernel, then gets the
  // writeback hint.
  void Put(const char* data, size_t n);
  void PutU32(uint32_t v);
  void PutU64(uint64_t v);
  // Hands the buffered bytes to the kernel at file_bytes_.
  void WriteBuffer();
  void StartWriteback(uint64_t offset, uint64_t length);

  std::string prefix_;
  RecordStoreOptions options_;
  int fd_ = -1;                  // open shard, -1 between shards
  std::unique_ptr<char[]> buf_;  // kRecordStoreBufferBytes, on first open
  size_t buf_len_ = 0;           // bytes buffered, not yet written
  uint64_t file_bytes_ = 0;      // bytes of the open shard in the kernel
  bool writeback_hint_ = true;
  size_t shard_index_ = 0;       // shards opened so far
  uint64_t total_records_ = 0;
  std::vector<uint64_t> offsets_;  // current shard's index
  uint64_t shard_bytes_ = 0;     // logical shard size, buffered bytes included
};

// Random-access reader over a sharded store. Opening loads every shard's
// offset index, which stays resident: 8 bytes per record (8 MiB per
// default 2^20-record shard) is the reader's one O(records) memory term.
// Get reads only the requested record. Thread-safe for concurrent Get
// calls. Throws std::runtime_error when a shard is corrupt, or shrinks
// under the reader.
class RecordStoreReader {
 public:
  // Discovers `<prefix>-00000.wrs`, `<prefix>-00001.wrs`, ... until the
  // first missing shard. Throws std::runtime_error on missing/corrupt
  // stores.
  explicit RecordStoreReader(const std::string& prefix);
  ~RecordStoreReader();

  RecordStoreReader(const RecordStoreReader&) = delete;
  RecordStoreReader& operator=(const RecordStoreReader&) = delete;

  uint64_t size() const { return total_records_; }
  size_t shard_count() const { return shards_.size(); }

  // Fetches record `index` (global, 0-based). Throws std::out_of_range.
  std::string Get(uint64_t index) const;
  // Same, into `out`, reusing its capacity.
  void GetInto(uint64_t index, std::string& out) const;

 private:
  friend class StoreRecordSource;

  struct Shard {
    int fd = -1;
    uint64_t index_offset = 0;  // end of the record bytes
    uint64_t first_record = 0;  // global index of this shard's record 0
    std::vector<uint64_t> offsets;

    // File offset one past record `local`'s last byte.
    uint64_t SpanEnd(uint64_t local) const {
      return local + 1 < offsets.size() ? offsets[local + 1] : index_offset;
    }
    // Validates the header and footer and loads `offsets` and
    // `index_offset`.
    void LoadIndex(const std::string& path);
    // Record `local` into `out` with one pread of its span.
    void ReadInto(uint64_t local, std::string& out) const;
  };

  // The shard holding global record `index` (< size()).
  const Shard& ShardOf(uint64_t index) const;

  std::vector<Shard> shards_;
  uint64_t total_records_ = 0;
};

// Sequential RecordSource over a store. Each shard is read in order
// through one kRecordStoreBufferBytes window, refilled by one pread when
// the next record's span leaves it; a record larger than the window is
// read straight into the caller's string. Memory is the window plus one
// record, whatever the store's size. Not thread-safe.
class StoreRecordSource : public RecordSource {
 public:
  explicit StoreRecordSource(const RecordStoreReader& reader)
      : reader_(reader) {}
  bool Next(std::string& record) override;
  // Stores are indexed, so a resume skip is a cursor move, not a scan.
  uint64_t Skip(uint64_t n) override {
    const uint64_t skip = std::min(n, reader_.size() - pos_);
    pos_ += skip;
    return skip;
  }

 private:
  const RecordStoreReader& reader_;
  uint64_t pos_ = 0;
  std::unique_ptr<char[]> window_;  // kRecordStoreBufferBytes, on first fill
  const RecordStoreReader::Shard* window_shard_ = nullptr;
  uint64_t window_start_ = 0;  // file offset of window_[0]
  size_t window_len_ = 0;      // valid bytes in window_
};

// Shard file name for `prefix` and a shard index: `<prefix>-NNNNN.wrs`.
std::string RecordStoreShardPath(const std::string& prefix, size_t shard);

}  // namespace whoiscrf::whois
