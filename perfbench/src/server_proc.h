// The serving process as seen from the runner: started with fork/exec so
// its CPU time and resident set are its own, steered over its stdin, and
// always reaped (a destructor kills and waits for a server still running;
// PR_SET_PDEATHSIG covers a runner that dies without unwinding).

#ifndef PERFBENCH_SERVER_PROC_H_
#define PERFBENCH_SERVER_PROC_H_

#include <sys/types.h>

#include <cstdint>
#include <string>
#include <vector>

#include "util/status.h"

namespace perfbench {

class ServerProcess {
 public:
  ServerProcess() = default;
  ~ServerProcess();
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  /// Runs `binary args...` and waits for its ready line (port plus the
  /// CLOCK_MONOTONIC bounds of its engine open).
  wcsd::Status Start(const std::string& binary,
                     const std::vector<std::string>& args);

  /// Writes one command line.
  wcsd::Status Send(const std::string& line);

  /// Reads one reply line (without the newline), failing after
  /// `timeout_ms`.
  wcsd::Result<std::string> ReadLine(int timeout_ms = 30000);

  /// Send + ReadLine.
  wcsd::Result<std::string> Command(const std::string& line);

  /// Sends quit, returns the `bye ...` line, and reaps the process.
  wcsd::Result<std::string> Quit();

  uint16_t port() const { return port_; }
  int64_t open_start_ns() const { return open_start_ns_; }
  int64_t open_end_ns() const { return open_end_ns_; }

 private:
  void Reap(bool kill_first);

  pid_t pid_ = -1;
  int to_child_ = -1;
  int from_child_ = -1;
  std::string buffered_;
  uint16_t port_ = 0;
  int64_t open_start_ns_ = 0;
  int64_t open_end_ns_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_SERVER_PROC_H_
