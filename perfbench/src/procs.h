// Child processes of the serve workloads: `whoiscrf serve` backends and
// the `whoiscrf shard-router` in front of them. Each child's stdout and
// stderr go to a log file in the work directory, which is how the
// benchmark learns the ephemeral port the child bound. A Child that goes
// out of scope is stopped and reaped, so no process outlives a run.
#pragma once

#include <sys/types.h>

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

class Child {
 public:
  // Starts argv[0] with the given arguments. Throws std::runtime_error
  // when the process cannot be started.
  Child(const std::vector<std::string>& argv, std::string log_path);
  ~Child();
  Child(const Child&) = delete;
  Child& operator=(const Child&) = delete;

  // Waits until the log shows "listening on 127.0.0.1:<port>" and returns
  // the port; throws on timeout or if the child exits first.
  uint16_t WaitForPort(double timeout_s);

  // SIGTERM, then waits up to `timeout_s` for a graceful exit (SIGKILL
  // after that). Returns the exit status (-1 if killed). Idempotent.
  int Stop(double timeout_s);

 private:
  pid_t pid_ = -1;
  std::string log_path_;
  int status_ = -1;
};

// Health probe: connect to 127.0.0.1:port, send one empty request frame,
// and require a complete response frame within `timeout_s`.
bool ProbeOnce(uint16_t port, double timeout_s);

}  // namespace perfbench
