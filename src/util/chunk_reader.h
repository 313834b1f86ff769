// Chunked byte input for the streaming record pipeline: a minimal
// ByteSource interface plus file, istream, and in-memory implementations.
//
// A ByteSource hands out fixed-size chunks (views valid until the next
// call), so a scanner can process a corpus far larger than memory while
// touching at most one chunk at a time. FileByteSource reads any file,
// pipe or device with read(2) into one chunk buffer, so its resident set
// is that buffer whatever the file's size, and a file that shrinks under
// the reader ends the input early instead of faulting.
#pragma once

#include <cstddef>
#include <iosfwd>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace whoiscrf::util {

// Default chunk size for streaming readers: large enough that per-chunk
// bookkeeping vanishes against parse cost, small enough that a pipeline's
// resident set stays a few MiB regardless of corpus size.
inline constexpr size_t kDefaultChunkBytes = size_t{1} << 20;

class ByteSource {
 public:
  virtual ~ByteSource() = default;

  // Returns the next chunk of input. The view stays valid until the next
  // Next() call (or destruction). An empty view means end of input.
  virtual std::string_view Next() = 0;
};

// A file read through one chunk_bytes buffer with read(2). Throws
// std::runtime_error when the file cannot be opened or a read fails.
class FileByteSource : public ByteSource {
 public:
  explicit FileByteSource(const std::string& path,
                          size_t chunk_bytes = kDefaultChunkBytes);
  ~FileByteSource() override;

  FileByteSource(const FileByteSource&) = delete;
  FileByteSource& operator=(const FileByteSource&) = delete;

  std::string_view Next() override;

 private:
  int fd_ = -1;
  std::vector<char> buffer_;
};

// Wraps any std::istream (stdin, stringstream). The stream must outlive
// the source.
class StreamByteSource : public ByteSource {
 public:
  explicit StreamByteSource(std::istream& is,
                            size_t chunk_bytes = kDefaultChunkBytes);
  std::string_view Next() override;

 private:
  std::istream& is_;
  std::vector<char> buffer_;
};

// A string_view chopped into chunks (tests exercise chunk-boundary
// handling by making chunks pathologically small). The data must outlive
// the source.
class MemoryByteSource : public ByteSource {
 public:
  explicit MemoryByteSource(std::string_view data,
                            size_t chunk_bytes = kDefaultChunkBytes);
  std::string_view Next() override;

 private:
  std::string_view data_;
  size_t chunk_bytes_;
  size_t pos_ = 0;
};

}  // namespace whoiscrf::util
