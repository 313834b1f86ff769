#include "util/chunk_reader.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <istream>
#include <stdexcept>

namespace whoiscrf::util {

FileByteSource::FileByteSource(const std::string& path, size_t chunk_bytes)
    : buffer_(std::max<size_t>(1, chunk_bytes)) {
  fd_ = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd_ < 0) throw std::runtime_error("cannot open " + path);
}

FileByteSource::~FileByteSource() { ::close(fd_); }

std::string_view FileByteSource::Next() {
  size_t filled = 0;
  while (filled < buffer_.size()) {
    const ssize_t n =
        ::read(fd_, buffer_.data() + filled, buffer_.size() - filled);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw std::runtime_error(std::string("read failed: ") +
                               std::strerror(errno));
    }
    if (n == 0) break;
    filled += static_cast<size_t>(n);
  }
  return {buffer_.data(), filled};
}

StreamByteSource::StreamByteSource(std::istream& is, size_t chunk_bytes)
    : is_(is), buffer_(std::max<size_t>(1, chunk_bytes)) {}

std::string_view StreamByteSource::Next() {
  is_.read(buffer_.data(), static_cast<std::streamsize>(buffer_.size()));
  return {buffer_.data(), static_cast<size_t>(is_.gcount())};
}

MemoryByteSource::MemoryByteSource(std::string_view data, size_t chunk_bytes)
    : data_(data), chunk_bytes_(std::max<size_t>(1, chunk_bytes)) {}

std::string_view MemoryByteSource::Next() {
  const size_t n = std::min(chunk_bytes_, data_.size() - pos_);
  const std::string_view chunk = data_.substr(pos_, n);
  pos_ += n;
  return chunk;
}

}  // namespace whoiscrf::util
