#include "whois/record_store.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <stdexcept>

#include "util/checkpoint.h"
#include "util/little_endian.h"
#include "util/string_util.h"

namespace whoiscrf::whois {

namespace {

std::runtime_error SysError(const char* what) {
  return std::runtime_error(std::string("record store: ") + what + ": " +
                            std::strerror(errno));
}

// Reads up to `n` bytes at `offset`, stopping early only at end of file.
size_t PreadFull(int fd, char* out, size_t n, uint64_t offset) {
  size_t done = 0;
  while (done < n) {
    const ssize_t r = ::pread(fd, out + done, n - done,
                              static_cast<off_t>(offset + done));
    if (r < 0) {
      if (errno == EINTR) continue;
      throw SysError("pread failed");
    }
    if (r == 0) break;
    done += static_cast<size_t>(r);
  }
  return done;
}

// Reads exactly `n` bytes at `offset`; a file that ends first (a shard
// truncated under its reader) throws.
void PreadExact(int fd, char* out, size_t n, uint64_t offset) {
  if (PreadFull(fd, out, n, offset) != n) {
    throw std::runtime_error("record store: unexpected EOF");
  }
}

// A record's span is its length word and bytes, bounded by the index; the
// length word must fill it exactly.
void CheckLengthWord(const char* span, uint64_t span_bytes) {
  if (util::le::GetU32(span) != span_bytes - 4) {
    throw std::runtime_error("record store: length word disagrees with index");
  }
}

// In-progress shards live beside their final name until sealed.
std::string ShardTmpPath(const std::string& prefix, size_t shard) {
  return RecordStoreShardPath(prefix, shard) + ".tmp";
}

// Deletes both the sealed and in-progress form of every shard >= `first`,
// stopping at the first index where neither exists. Used by resume to drop
// work past the checkpoint cursor.
void RemoveShardsFrom(const std::string& prefix, size_t first) {
  for (size_t s = first;; ++s) {
    const bool had_final =
        std::remove(RecordStoreShardPath(prefix, s).c_str()) == 0;
    const bool had_tmp = std::remove(ShardTmpPath(prefix, s).c_str()) == 0;
    if (!had_final && !had_tmp) break;
  }
}

}  // namespace

std::string RecordStoreShardPath(const std::string& prefix, size_t shard) {
  return util::Format("%s-%05zu.wrs", prefix.c_str(), shard);
}

// --- Writer --------------------------------------------------------------

RecordStoreWriter::RecordStoreWriter(std::string prefix,
                                     RecordStoreOptions options)
    : prefix_(std::move(prefix)), options_(options) {
  if (options_.records_per_shard == 0) options_.records_per_shard = 1;
}

RecordStoreWriter::RecordStoreWriter(std::string prefix,
                                     RecordStoreOptions options,
                                     const StoreCursor& resume_from)
    : prefix_(std::move(prefix)), options_(options) {
  if (options_.records_per_shard == 0) options_.records_per_shard = 1;
  try {
    ResumeShard(resume_from);
  } catch (...) {
    if (fd_ >= 0) ::close(fd_);
    throw;
  }
}

RecordStoreWriter::~RecordStoreWriter() {
  try {
    Finish();
  } catch (...) {
    // Destructors must not throw; an incomplete shard fails footer
    // validation on read, which is the detectable outcome we want.
  }
}

void RecordStoreWriter::Put(const char* data, size_t n) {
  while (n > 0) {
    const size_t take = std::min(n, kRecordStoreBufferBytes - buf_len_);
    std::memcpy(buf_.get() + buf_len_, data, take);
    buf_len_ += take;
    data += take;
    n -= take;
    if (buf_len_ == kRecordStoreBufferBytes) {
      const uint64_t offset = file_bytes_;
      WriteBuffer();
      StartWriteback(offset, kRecordStoreBufferBytes);
    }
  }
}

void RecordStoreWriter::PutU32(uint32_t v) {
  char b[4];
  util::le::PutU32(b, v);
  Put(b, 4);
}

void RecordStoreWriter::PutU64(uint64_t v) {
  char b[8];
  util::le::PutU64(b, v);
  Put(b, 8);
}

void RecordStoreWriter::WriteBuffer() {
  size_t done = 0;
  while (done < buf_len_) {
    const ssize_t n = ::pwrite(fd_, buf_.get() + done, buf_len_ - done,
                               static_cast<off_t>(file_bytes_ + done));
    if (n < 0) {
      if (errno == EINTR) continue;
      throw SysError("write failed");
    }
    done += static_cast<size_t>(n);
  }
  file_bytes_ += buf_len_;
  buf_len_ = 0;
}

void RecordStoreWriter::StartWriteback(uint64_t offset, uint64_t length) {
  if (!writeback_hint_) return;
  if (::sync_file_range(fd_, static_cast<off_t>(offset),
                        static_cast<off_t>(length),
                        SYNC_FILE_RANGE_WRITE) == 0) {
    return;
  }
  if (errno == EINVAL || errno == ENOSYS || errno == ESPIPE) {
    writeback_hint_ = false;  // unsupported here; fsync still does it all
    return;
  }
  throw SysError("sync_file_range failed");
}

void RecordStoreWriter::OpenShard() {
  const std::string path = ShardTmpPath(prefix_, shard_index_);
  fd_ = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0666);
  if (fd_ < 0) {
    throw std::runtime_error("cannot open for write: " + path);
  }
  if (!buf_) buf_.reset(new char[kRecordStoreBufferBytes]);
  buf_len_ = 0;
  file_bytes_ = 0;
  ++shard_index_;
  offsets_.clear();
  PutU32(kRecordStoreMagic);
  PutU32(kRecordStoreVersion);
  shard_bytes_ = 8;
}

void RecordStoreWriter::SealShard() {
  if (fd_ < 0) return;
  const uint64_t index_offset = shard_bytes_;
  for (uint64_t off : offsets_) PutU64(off);
  PutU64(offsets_.size());
  PutU64(index_offset);
  PutU32(kRecordStoreMagic);
  // Make the shard durable *before* it appears under its final name:
  // readers discover `.wrs` files, so a sealed shard must never be torn.
  try {
    WriteBuffer();
    if (::fsync(fd_) != 0) throw SysError("fsync failed");
  } catch (...) {
    ::close(fd_);
    fd_ = -1;
    buf_len_ = 0;
    throw;
  }
  const int rc = ::close(fd_);
  fd_ = -1;
  if (rc != 0) throw SysError("close failed");
  const size_t sealed = shard_index_ - 1;
  const std::string tmp = ShardTmpPath(prefix_, sealed);
  const std::string final_path = RecordStoreShardPath(prefix_, sealed);
  if (std::rename(tmp.c_str(), final_path.c_str()) != 0) {
    throw std::runtime_error("record store: cannot finalize " + final_path);
  }
  util::FsyncParentDir(final_path);
}

void RecordStoreWriter::Sync() {
  if (fd_ < 0) return;
  WriteBuffer();
  if (::fsync(fd_) != 0) throw SysError("sync failed");
}

StoreCursor RecordStoreWriter::cursor() const {
  StoreCursor c;
  c.records = total_records_;
  if (fd_ >= 0) {
    c.shard_index = shard_index_ - 1;
    c.shard_records = offsets_.size();
    c.shard_bytes = shard_bytes_;
  } else {
    // Between shards (or before the first Append): the cursor points at
    // the next shard to be opened, with nothing in it yet.
    c.shard_index = shard_index_;
    c.shard_records = 0;
    c.shard_bytes = 0;
  }
  return c;
}

void RecordStoreWriter::ResumeShard(const StoreCursor& resume_from) {
  total_records_ = resume_from.records;
  if (resume_from.shard_records == 0) {
    // Nothing durable in the cursor shard: drop it (and anything later)
    // and let OpenShard recreate it lazily on the next Append.
    shard_index_ = resume_from.shard_index;
    RemoveShardsFrom(prefix_, resume_from.shard_index);
    return;
  }
  const std::string tmp = ShardTmpPath(prefix_, resume_from.shard_index);
  const std::string final_path =
      RecordStoreShardPath(prefix_, resume_from.shard_index);
  // A crash after SealShard's rename leaves the shard under its final
  // name; un-seal it so the truncate-and-continue path below applies
  // uniformly. rename() fails harmlessly when only the .tmp exists.
  std::rename(final_path.c_str(), tmp.c_str());
  fd_ = ::open(tmp.c_str(), O_RDWR | O_CLOEXEC);
  if (fd_ < 0) {
    throw std::runtime_error("record store resume: missing shard " + tmp);
  }
  const uint64_t end = resume_from.shard_bytes;
  if (::ftruncate(fd_, static_cast<off_t>(end)) != 0) {
    throw std::runtime_error("record store resume: cannot truncate " + tmp);
  }
  if (!buf_) buf_.reset(new char[kRecordStoreBufferBytes]);
  // Rebuild the in-memory index by walking the length prefixes up to the
  // cursor; any mismatch means the checkpoint and the shard disagree. The
  // (still empty) write buffer doubles as the read window, so the walk
  // costs one pread per buffer of shard bytes, not one per record.
  uint64_t window_start = 0;
  size_t window_len = 0;
  auto read_at = [&](uint64_t off, char* out, size_t n) {
    if (off < window_start || off + n > window_start + window_len) {
      window_start = off;
      window_len = PreadFull(
          fd_, buf_.get(),
          static_cast<size_t>(std::min<uint64_t>(kRecordStoreBufferBytes,
                                                 end - off)),
          off);
      if (window_len < n) return false;
    }
    std::memcpy(out, buf_.get() + (off - window_start), n);
    return true;
  };
  char header[8];
  if (end < 8 || !read_at(0, header, 8) ||
      util::le::GetU32(header) != kRecordStoreMagic ||
      util::le::GetU32(header + 4) != kRecordStoreVersion) {
    throw std::runtime_error("record store resume: bad header in " + tmp);
  }
  offsets_.clear();
  uint64_t off = 8;
  for (uint64_t i = 0; i < resume_from.shard_records; ++i) {
    char len_bytes[4];
    if (off + 4 > end || !read_at(off, len_bytes, 4)) {
      throw std::runtime_error("record store resume: truncated shard " + tmp);
    }
    const uint32_t len = util::le::GetU32(len_bytes);
    if (off + 4 + len > end) {
      throw std::runtime_error("record store resume: record overruns cursor " +
                               tmp);
    }
    offsets_.push_back(off);
    off += 4 + len;
  }
  if (off != end) {
    throw std::runtime_error(
        "record store resume: cursor does not land on a record boundary in " +
        tmp);
  }
  buf_len_ = 0;
  file_bytes_ = end;
  shard_bytes_ = end;
  shard_index_ = resume_from.shard_index + 1;  // this shard counts as opened
  RemoveShardsFrom(prefix_, shard_index_);
}

void RecordStoreWriter::Append(std::string_view record) {
  if (fd_ >= 0 && offsets_.size() >= options_.records_per_shard) {
    SealShard();
  }
  if (fd_ < 0) OpenShard();
  offsets_.push_back(shard_bytes_);
  PutU32(static_cast<uint32_t>(record.size()));
  Put(record.data(), record.size());
  shard_bytes_ += 4 + record.size();
  ++total_records_;
}

void RecordStoreWriter::Finish() {
  if (fd_ < 0 && total_records_ == 0 && shard_index_ == 0) {
    // An empty store still gets one (empty) shard so readers can open it.
    OpenShard();
  }
  SealShard();
}

// --- Reader --------------------------------------------------------------

RecordStoreReader::RecordStoreReader(const std::string& prefix) {
  try {
    for (size_t s = 0;; ++s) {
      const std::string path = RecordStoreShardPath(prefix, s);
      const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
      if (fd < 0) {
        if (s == 0) {
          throw std::runtime_error("cannot open record store " + path);
        }
        break;
      }
      Shard& shard = shards_.emplace_back();
      shard.fd = fd;
      shard.LoadIndex(path);
      shard.first_record = total_records_;
      total_records_ += shard.offsets.size();
    }
  } catch (...) {
    for (const Shard& shard : shards_) ::close(shard.fd);
    throw;
  }
}

RecordStoreReader::~RecordStoreReader() {
  for (const Shard& shard : shards_) ::close(shard.fd);
}

void RecordStoreReader::Shard::LoadIndex(const std::string& path) {
  struct stat st {};
  if (::fstat(fd, &st) != 0 || st.st_size < 28) {
    throw std::runtime_error("record store: truncated shard " + path);
  }
  const uint64_t file_size = static_cast<uint64_t>(st.st_size);
  char header[8];
  PreadExact(fd, header, 8, 0);
  char footer[20];
  PreadExact(fd, footer, 20, file_size - 20);
  if (util::le::GetU32(header) != kRecordStoreMagic ||
      util::le::GetU32(header + 4) != kRecordStoreVersion ||
      util::le::GetU32(footer + 16) != kRecordStoreMagic) {
    throw std::runtime_error("record store: bad magic in " + path);
  }
  const uint64_t count = util::le::GetU64(footer);
  index_offset = util::le::GetU64(footer + 8);
  if (count > (file_size - 28) / 8 ||
      index_offset != file_size - 20 - count * 8) {
    throw std::runtime_error("record store: inconsistent index in " + path);
  }
  // One pread for the whole index, decoded in place. Every offset must
  // leave room for a length word before the index and follow the previous
  // record's, so every span SpanEnd gives is at least 4 bytes long.
  offsets.resize(count);
  char* raw = reinterpret_cast<char*>(offsets.data());
  PreadExact(fd, raw, count * 8, index_offset);
  uint64_t next = 8;
  for (uint64_t i = 0; i < count; ++i) {
    const uint64_t offset = util::le::GetU64(raw + i * 8);
    if (offset < next || offset > index_offset - 4) {
      throw std::runtime_error("record store: inconsistent index in " + path);
    }
    offsets[i] = offset;
    next = offset + 4;
  }
}

void RecordStoreReader::Shard::ReadInto(uint64_t local,
                                        std::string& out) const {
  const uint64_t begin = offsets[local];
  const size_t span = static_cast<size_t>(SpanEnd(local) - begin);
  out.resize(span);
  PreadExact(fd, out.data(), span, begin);
  CheckLengthWord(out.data(), span);
  out.erase(0, 4);
}

const RecordStoreReader::Shard& RecordStoreReader::ShardOf(
    uint64_t index) const {
  // Shards are equally sized except the last, so a reverse linear probe
  // finds the owner in O(1) expected; shard counts are tiny anyway.
  size_t s = shards_.size();
  while (s > 0 && shards_[s - 1].first_record > index) --s;
  return shards_[s - 1];
}

std::string RecordStoreReader::Get(uint64_t index) const {
  std::string record;
  GetInto(index, record);
  return record;
}

void RecordStoreReader::GetInto(uint64_t index, std::string& out) const {
  if (index >= total_records_) {
    throw std::out_of_range("record store index out of range");
  }
  const Shard& shard = ShardOf(index);
  shard.ReadInto(index - shard.first_record, out);
}

// --- Sequential source ---------------------------------------------------

bool StoreRecordSource::Next(std::string& record) {
  if (pos_ >= reader_.size()) return false;
  const RecordStoreReader::Shard& shard = reader_.ShardOf(pos_);
  const uint64_t local = pos_ - shard.first_record;
  const uint64_t begin = shard.offsets[local];
  const uint64_t span = shard.SpanEnd(local) - begin;
  if (span > kRecordStoreBufferBytes) {
    shard.ReadInto(local, record);
  } else {
    if (&shard != window_shard_ || begin < window_start_ ||
        begin + span > window_start_ + window_len_) {
      if (!window_) window_.reset(new char[kRecordStoreBufferBytes]);
      // Invalidate first: a short read below leaves no stale window.
      window_shard_ = nullptr;
      window_len_ = PreadFull(
          shard.fd, window_.get(),
          static_cast<size_t>(std::min<uint64_t>(kRecordStoreBufferBytes,
                                                 shard.index_offset - begin)),
          begin);
      if (window_len_ < span) {
        throw std::runtime_error("record store: unexpected EOF");
      }
      window_shard_ = &shard;
      window_start_ = begin;
    }
    const char* bytes = window_.get() + (begin - window_start_);
    CheckLengthWord(bytes, span);
    record.assign(bytes + 4, static_cast<size_t>(span - 4));
  }
  ++pos_;
  return true;
}

}  // namespace whoiscrf::whois
