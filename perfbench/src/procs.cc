#include "procs.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <signal.h>
#include <spawn.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

extern char** environ;

#include <chrono>
#include <cstring>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "trace.h"

namespace perfbench {

namespace {

bool Reap(pid_t pid, int* status, bool block) {
  const pid_t r = ::waitpid(pid, status, block ? 0 : WNOHANG);
  return r == pid;
}

std::string ReadFile(const std::string& path) {
  std::ifstream is(path);
  std::stringstream ss;
  ss << is.rdbuf();
  return ss.str();
}

}  // namespace

Child::Child(const std::vector<std::string>& argv, std::string log_path)
    : log_path_(std::move(log_path)) {
  if (argv.empty()) throw std::invalid_argument("Child: empty argv");
  std::vector<char*> args;
  for (const std::string& a : argv) args.push_back(const_cast<char*>(a.c_str()));
  args.push_back(nullptr);
  // posix_spawn, not fork: the benchmark holds its inputs in memory, and
  // copying its page tables would show up in setup_s.
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_addopen(&actions, 1, log_path_.c_str(),
                                   O_WRONLY | O_CREAT | O_TRUNC, 0644);
  posix_spawn_file_actions_adddup2(&actions, 1, 2);
  const int rc = posix_spawn(&pid_, args[0], &actions, nullptr, args.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  if (rc != 0) {
    pid_ = -1;
    throw std::runtime_error("Child: cannot start " + argv[0]);
  }
}

Child::~Child() {
  if (pid_ > 0) Stop(0.0);
}

uint16_t Child::WaitForPort(double timeout_s) {
  const int64_t deadline = NowNs() + static_cast<int64_t>(timeout_s * 1e9);
  static const char kNeedle[] = "listening on 127.0.0.1:";
  while (true) {
    const std::string log = ReadFile(log_path_);
    const size_t at = log.find(kNeedle);
    if (at != std::string::npos) {
      const size_t start = at + sizeof(kNeedle) - 1;
      size_t end = start;
      while (end < log.size() && log[end] >= '0' && log[end] <= '9') ++end;
      if (end > start && end < log.size()) {
        return static_cast<uint16_t>(std::stoul(log.substr(start, end - start)));
      }
    }
    if (pid_ > 0 && Reap(pid_, &status_, false)) {
      pid_ = -1;
      throw std::runtime_error("child exited before listening; log " +
                               log_path_ + ":\n" + log);
    }
    if (NowNs() > deadline) {
      throw std::runtime_error("child did not start listening; log " +
                               log_path_);
    }
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
}

int Child::Stop(double timeout_s) {
  if (pid_ <= 0) return status_;
  ::kill(pid_, SIGTERM);
  const int64_t deadline = NowNs() + static_cast<int64_t>(timeout_s * 1e9);
  int status = 0;
  bool reaped = false;
  while (!(reaped = Reap(pid_, &status, false)) && NowNs() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  if (!reaped) {
    ::kill(pid_, SIGKILL);
    Reap(pid_, &status, true);
    status_ = -1;
  } else {
    status_ = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  }
  pid_ = -1;
  return status_;
}

bool ProbeOnce(uint16_t port, double timeout_s) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return false;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  const auto ms = static_cast<int>(timeout_s * 1000);
  timeval tv{ms / 1000, (ms % 1000) * 1000};
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
  bool ok = false;
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0) {
    const unsigned char frame[4] = {0, 0, 0, 0};
    if (::send(fd, frame, sizeof(frame), MSG_NOSIGNAL) == 4) {
      unsigned char len_bytes[4];
      size_t got = 0;
      while (got < 4) {
        const ssize_t n = ::recv(fd, len_bytes + got, 4 - got, 0);
        if (n <= 0) break;
        got += static_cast<size_t>(n);
      }
      if (got == 4) {
        uint32_t len = 0;
        std::memcpy(&len, len_bytes, 4);  // little-endian host
        std::string body(len, '\0');
        size_t read = 0;
        while (read < len) {
          const ssize_t n = ::recv(fd, body.data() + read, len - read, 0);
          if (n <= 0) break;
          read += static_cast<size_t>(n);
        }
        ok = len >= 1 && read == len;
      }
    }
  }
  ::close(fd);
  return ok;
}

}  // namespace perfbench
