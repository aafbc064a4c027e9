#include "server_proc.h"

#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstdlib>
#include <cstring>

#include "common.h"

namespace perfbench {

ServerProcess::~ServerProcess() { Reap(/*kill_first=*/true); }

void ServerProcess::Reap(bool kill_first) {
  if (to_child_ >= 0) close(to_child_);
  if (from_child_ >= 0) close(from_child_);
  to_child_ = from_child_ = -1;
  if (pid_ > 0) {
    if (kill_first) kill(pid_, SIGKILL);
    int status = 0;
    while (waitpid(pid_, &status, 0) < 0 && errno == EINTR) {
    }
    pid_ = -1;
  }
}

wcsd::Status ServerProcess::Start(const std::string& binary,
                                  const std::vector<std::string>& args) {
  int in_pipe[2];
  int out_pipe[2];
  if (pipe(in_pipe) != 0) return wcsd::Status::IoError("pipe failed");
  if (pipe(out_pipe) != 0) {
    close(in_pipe[0]);
    close(in_pipe[1]);
    return wcsd::Status::IoError("pipe failed");
  }
  std::vector<std::string> storage;
  storage.push_back(binary);
  storage.insert(storage.end(), args.begin(), args.end());
  std::vector<char*> argv;
  for (std::string& arg : storage) argv.push_back(arg.data());
  argv.push_back(nullptr);

  const pid_t parent = getpid();
  pid_ = fork();
  if (pid_ < 0) return wcsd::Status::IoError("fork failed");
  if (pid_ == 0) {
    // Child: only async-signal-safe calls until exec.
    prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (getppid() != parent) _exit(127);
    dup2(in_pipe[0], STDIN_FILENO);
    dup2(out_pipe[1], STDOUT_FILENO);
    close(in_pipe[0]);
    close(in_pipe[1]);
    close(out_pipe[0]);
    close(out_pipe[1]);
    execv(argv[0], argv.data());
    _exit(127);
  }
  close(in_pipe[0]);
  close(out_pipe[1]);
  to_child_ = in_pipe[1];
  from_child_ = out_pipe[0];

  auto ready = ReadLine(120000);
  if (!ready.ok()) {
    Reap(true);
    return ready.status();
  }
  std::vector<std::string> words = Split(ready.value(), ' ');
  if (words.size() != 4 || words[0] != "ready") {
    Reap(true);
    return wcsd::Status::IoError("server did not start: " + ready.value());
  }
  port_ = static_cast<uint16_t>(std::atoi(words[1].c_str()));
  open_start_ns_ = std::atoll(words[2].c_str());
  open_end_ns_ = std::atoll(words[3].c_str());
  return wcsd::Status();
}

wcsd::Status ServerProcess::Send(const std::string& line) {
  std::string data = line + "\n";
  size_t done = 0;
  while (done < data.size()) {
    ssize_t n = write(to_child_, data.data() + done, data.size() - done);
    if (n < 0) {
      if (errno == EINTR) continue;
      return wcsd::Status::IoError("server control write failed");
    }
    done += static_cast<size_t>(n);
  }
  return wcsd::Status();
}

wcsd::Result<std::string> ServerProcess::ReadLine(int timeout_ms) {
  const int64_t deadline = NowNs() + int64_t{timeout_ms} * 1000000;
  for (;;) {
    const size_t newline = buffered_.find('\n');
    if (newline != std::string::npos) {
      std::string line = buffered_.substr(0, newline);
      buffered_.erase(0, newline + 1);
      return line;
    }
    const int64_t left_ms = (deadline - NowNs()) / 1000000;
    if (left_ms <= 0) {
      return wcsd::Status::IoError("timed out waiting for the server");
    }
    pollfd pfd{from_child_, POLLIN, 0};
    int ready = poll(&pfd, 1, static_cast<int>(left_ms));
    if (ready < 0 && errno == EINTR) continue;
    if (ready <= 0) continue;
    char chunk[4096];
    ssize_t n = read(from_child_, chunk, sizeof(chunk));
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return wcsd::Status::IoError("server exited unexpectedly");
    buffered_.append(chunk, static_cast<size_t>(n));
  }
}

wcsd::Result<std::string> ServerProcess::Command(const std::string& line) {
  wcsd::Status st = Send(line);
  if (!st.ok()) return st;
  return ReadLine();
}

wcsd::Result<std::string> ServerProcess::Quit() {
  auto bye = Command("quit");
  Reap(/*kill_first=*/!bye.ok());
  return bye;
}

}  // namespace perfbench
