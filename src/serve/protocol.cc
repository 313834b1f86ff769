#include "serve/protocol.h"

#include <unistd.h>

#include <cstring>

#include "util/little_endian.h"

namespace whoiscrf::serve {

namespace {

// Reads a frame whose payload is (prefix bytes + body): the request path
// passes prefix 0, the response path peels one status byte first.
FrameRead ReadPayload(FrameStream& in, std::string& body, size_t max_bytes,
                      char* prefix, size_t prefix_len) {
  char len_bytes[4];
  // Distinguish clean EOF from a torn frame: probe the first length byte
  // alone, then require the rest.
  if (!in.ReadExact(len_bytes, 1)) return FrameRead::kEof;
  if (!in.ReadExact(len_bytes + 1, 3)) return FrameRead::kTruncated;
  const uint32_t len = util::le::GetU32(len_bytes);
  if (len < prefix_len) return FrameRead::kTruncated;
  if (len > max_bytes) return FrameRead::kTooLarge;
  if (prefix_len > 0 && !in.ReadExact(prefix, prefix_len)) {
    return FrameRead::kTruncated;
  }
  body.resize(len - prefix_len);
  if (len > prefix_len && !in.ReadExact(body.data(), body.size())) {
    return FrameRead::kTruncated;
  }
  return FrameRead::kFrame;
}

}  // namespace

const char* StatusName(Status status) {
  switch (status) {
    case Status::kOk:
      return "ok";
    case Status::kBusy:
      return "busy";
    case Status::kDeadline:
      return "deadline";
    case Status::kError:
      return "error";
  }
  return "unknown";
}

bool FdStream::ReadExact(void* buf, size_t n) {
  char* p = static_cast<char*>(buf);
  size_t got = 0;
  while (got < n) {
    const ssize_t r = ::read(fd_, p + got, n - got);
    if (r <= 0) return false;
    got += static_cast<size_t>(r);
  }
  return true;
}

bool FdStream::WriteAll(const void* buf, size_t n) {
  const char* p = static_cast<const char*>(buf);
  size_t sent = 0;
  while (sent < n) {
    const ssize_t w = ::write(fd_, p + sent, n - sent);
    if (w <= 0) return false;
    sent += static_cast<size_t>(w);
  }
  return true;
}

bool StringStream::ReadExact(void* buf, size_t n) {
  if (input_.size() - pos_ < n) {
    pos_ = input_.size();
    return false;
  }
  std::memcpy(buf, input_.data() + pos_, n);
  pos_ += n;
  return true;
}

bool StringStream::WriteAll(const void* buf, size_t n) {
  output_.append(static_cast<const char*>(buf), n);
  return true;
}

FrameRead ReadFrame(FrameStream& in, std::string& payload, size_t max_bytes) {
  return ReadPayload(in, payload, max_bytes, nullptr, 0);
}

bool WriteFrame(FrameStream& out, std::string_view payload) {
  char len_bytes[4];
  util::le::PutU32(len_bytes, static_cast<uint32_t>(payload.size()));
  return out.WriteAll(len_bytes, 4) &&
         (payload.empty() || out.WriteAll(payload.data(), payload.size()));
}

bool WriteResponse(FrameStream& out, Status status, std::string_view body) {
  char head[5];
  util::le::PutU32(head, static_cast<uint32_t>(body.size() + 1));
  head[4] = static_cast<char>(status);
  return out.WriteAll(head, 5) &&
         (body.empty() || out.WriteAll(body.data(), body.size()));
}

FrameRead ReadResponse(FrameStream& in, Status& status, std::string& body,
                       size_t max_bytes) {
  char status_byte = 0;
  const FrameRead r = ReadPayload(in, body, max_bytes, &status_byte, 1);
  if (r == FrameRead::kFrame) status = static_cast<Status>(status_byte);
  return r;
}

}  // namespace whoiscrf::serve
