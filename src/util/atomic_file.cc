#include "util/atomic_file.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>

#include "util/failpoint.h"

namespace wcsd {

namespace {

Status ErrnoStatus(const std::string& what) {
  return Status::IoError(what + ": " + std::strerror(errno));
}

/// Applies a failpoint verdict to an IO step. kError surfaces the injected
/// errno; kShort is handled by the write loops (via *short_budget); crash
/// never returns; delay already slept inside Eval.
Status CheckFailpoint(const char* name, const std::string& what,
                      uint64_t* short_budget = nullptr) {
  FailpointResult fp = failpoints::Eval(name);
  if (fp.action == FailpointAction::kError) {
    errno = fp.error_errno;
    return ErrnoStatus(what + " (injected)");
  }
  if (fp.action == FailpointAction::kShort && short_budget != nullptr) {
    *short_budget = fp.arg;
  }
  return Status::OK();
}

Status WriteFully(int fd, const std::string& what, uint64_t offset,
                  bool positional, const void* data, size_t size) {
  uint64_t short_budget = UINT64_MAX;
  WCSD_RETURN_NOT_OK(CheckFailpoint("atomic_file.write",
                                    "write " + what, &short_budget));
  const char* bytes = static_cast<const char*>(data);
  size_t done = 0;
  while (done < size) {
    size_t want = size - done;
    // An injected short write truncates what the file will ever hold: the
    // remainder is dropped, as if the process died after `short_budget`
    // bytes. Commit-side sync/rename still run unless also failed, which
    // is exactly the torn-write scenario the snapshot tests probe.
    if (short_budget < want) want = static_cast<size_t>(short_budget);
    if (want == 0) return Status::OK();
    ssize_t n = positional
                    ? pwrite(fd, bytes + done, want,
                             static_cast<off_t>(offset + done))
                    : write(fd, bytes + done, want);
    if (n < 0) {
      if (errno == EINTR) continue;
      return ErrnoStatus("write " + what);
    }
    done += static_cast<size_t>(n);
    if (short_budget != UINT64_MAX) {
      short_budget -= static_cast<uint64_t>(n);
    }
  }
  return Status::OK();
}

}  // namespace

Result<AtomicFileWriter> AtomicFileWriter::Open(const std::string& path) {
  WCSD_RETURN_NOT_OK(CheckFailpoint("atomic_file.open", "open " + path));
  std::string tmp = path + ".tmp." + std::to_string(getpid());
  int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC,
                  0644);
  if (fd < 0) return ErrnoStatus("open " + tmp + " for writing");
  return AtomicFileWriter(fd, path, std::move(tmp));
}

AtomicFileWriter::AtomicFileWriter(AtomicFileWriter&& other) noexcept
    : fd_(std::exchange(other.fd_, -1)),
      path_(std::move(other.path_)),
      tmp_path_(std::move(other.tmp_path_)) {}

AtomicFileWriter& AtomicFileWriter::operator=(
    AtomicFileWriter&& other) noexcept {
  if (this != &other) {
    Discard();
    fd_ = std::exchange(other.fd_, -1);
    path_ = std::move(other.path_);
    tmp_path_ = std::move(other.tmp_path_);
  }
  return *this;
}

AtomicFileWriter::~AtomicFileWriter() { Discard(); }

void AtomicFileWriter::Discard() {
  if (fd_ < 0) return;
  close(fd_);
  fd_ = -1;
  unlink(tmp_path_.c_str());
}

Status AtomicFileWriter::Write(const void* data, size_t size) {
  if (fd_ < 0) return Status::InvalidArgument("writer is closed");
  Status st = WriteFully(fd_, tmp_path_, 0, /*positional=*/false, data,
                         size);
  if (!st.ok()) Discard();
  return st;
}

Status AtomicFileWriter::WriteAt(uint64_t offset, const void* data,
                                 size_t size) {
  if (fd_ < 0) return Status::InvalidArgument("writer is closed");
  Status st = WriteFully(fd_, tmp_path_, offset, /*positional=*/true, data,
                         size);
  if (!st.ok()) Discard();
  return st;
}

Status AtomicFileWriter::Commit() {
  if (fd_ < 0) return Status::InvalidArgument("writer is closed");
  Status st = CheckFailpoint("atomic_file.sync", "fsync " + tmp_path_);
  if (st.ok() && fsync(fd_) < 0) st = ErrnoStatus("fsync " + tmp_path_);
  if (!st.ok()) {
    Discard();
    return st;
  }
  close(fd_);
  fd_ = -1;

  st = CheckFailpoint("atomic_file.rename", "rename " + tmp_path_);
  if (st.ok() && rename(tmp_path_.c_str(), path_.c_str()) < 0) {
    st = ErrnoStatus("rename " + tmp_path_ + " -> " + path_);
  }
  if (!st.ok()) {
    unlink(tmp_path_.c_str());
    return st;
  }

  // The rename is durable only once the directory entry is. A crash after
  // this point loses nothing; a crash before it may resurface the old
  // file — which is still a complete file, never a torn one.
  WCSD_RETURN_NOT_OK(
      CheckFailpoint("atomic_file.dirsync", "fsync parent of " + path_));
  const size_t slash = path_.rfind('/');
  // A file directly under the root keeps the root itself ("/" for "/f").
  const std::string dir = slash == std::string::npos
                              ? std::string(".")
                              : path_.substr(0, slash == 0 ? 1 : slash);
  int dir_fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (dir_fd >= 0) {
    // Directory fsync is best-effort: some filesystems refuse it, and the
    // rename itself already happened.
    fsync(dir_fd);
    close(dir_fd);
  }
  return Status::OK();
}

}  // namespace wcsd
