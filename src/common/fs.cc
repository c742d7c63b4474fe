#include "common/fs.h"

#include <cerrno>
#include <chrono>
#include <system_error>
#include <thread>

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include "common/failpoint.h"
#include "common/metrics.h"

namespace mrcc {
namespace {

/// Backoff before transient-retry `attempt` (1-based): 200us, 400us,
/// 800us. Long enough to ride out scheduler-tick-scale hiccups, short
/// enough that a failing read costs ~1.4ms before surfacing.
void BackoffSleep(int attempt) {
  std::this_thread::sleep_for(std::chrono::microseconds(200) * (1 << attempt));
}

std::string ErrnoMessage(const std::string& what, const std::string& path,
                         int err) {
  return what + " " + path + ": " + std::system_category().message(err);
}

}  // namespace

UniqueFd::~UniqueFd() {
  if (fd_ >= 0) ::close(fd_);
}

UniqueFd& UniqueFd::operator=(UniqueFd&& other) noexcept {
  if (this != &other) {
    if (fd_ >= 0) ::close(fd_);
    fd_ = other.fd_;
    other.fd_ = -1;
  }
  return *this;
}

Result<UniqueFd> OpenForRead(const std::string& path) {
  MRCC_RETURN_IF_ERROR(fp::Maybe("source.open"));
  int fd = -1;
  do {
    fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  } while (fd < 0 && errno == EINTR);
  if (fd < 0) {
    // ENOENT included: every loader in this repo reports a missing file
    // as IOError (see dataset_io), and callers match on that.
    return Status::IOError(ErrnoMessage("cannot open", path, errno));
  }
  return UniqueFd(fd);
}

Result<uint64_t> FileSize(int fd, const std::string& path) {
  struct stat st;
  if (::fstat(fd, &st) != 0) {
    return Status::IOError(ErrnoMessage("cannot stat", path, errno));
  }
  return static_cast<uint64_t>(st.st_size);
}

Status ReadExactAt(int fd, void* buf, size_t n, uint64_t offset,
                   const std::string& path) {
  char* out = static_cast<char*>(buf);
  size_t done = 0;
  int retries = 0;
  while (done < n) {
    // Injected truncation: pretend the file ends here.
    ssize_t got;
    if (fp::MaybeTrue("source.read.truncate")) {
      got = 0;
    } else if (fp::MaybeTrue("source.read.transient")) {
      got = -1;
      errno = EAGAIN;
    } else {
      got = ::pread(fd, out + done, n - done,
                    static_cast<off_t>(offset + done));
    }
    if (got > 0) {
      done += static_cast<size_t>(got);
      continue;  // Partial read: keep going from where it stopped.
    }
    if (got == 0) {
      return Status::IOError(
          "truncated file " + path + ": data ends at byte " +
          std::to_string(offset + done) + " (needed " + std::to_string(n) +
          " bytes at offset " + std::to_string(offset) + ")");
    }
    if (errno == EINTR) {
      // A delivered signal, not a failure: retry without limit or delay.
      MetricsRegistry::Global().counter("io.eintr_retries").Increment();
      continue;
    }
    if (errno == EAGAIN && retries < kMaxReadRetries) {
      ++retries;
      MetricsRegistry::Global().counter("io.read_retries").Increment();
      BackoffSleep(retries);
      continue;
    }
    return Status::IOError(
        ErrnoMessage("read failed", path, errno) + " at byte " +
        std::to_string(offset + done) +
        (retries > 0 ? " after " + std::to_string(retries) + " retries"
                     : ""));
  }
  return Status::OK();
}

uint64_t Fnv1a(const void* data, size_t n, uint64_t seed) {
  const unsigned char* p = static_cast<const unsigned char*>(data);
  uint64_t h = seed;
  for (size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 1099511628211ull;
  }
  return h;
}

namespace {

/// Writes all of `contents` to `fd`, riding out EINTR and partial writes.
Status WriteAll(int fd, const std::string& contents,
                const std::string& path) {
  size_t done = 0;
  while (done < contents.size()) {
    const ssize_t wrote =
        ::write(fd, contents.data() + done, contents.size() - done);
    if (wrote < 0) {
      if (errno == EINTR) continue;
      return Status::IOError(ErrnoMessage("write failed", path, errno));
    }
    done += static_cast<size_t>(wrote);
  }
  return Status::OK();
}

}  // namespace

Status WriteFileAtomic(const std::string& path, const std::string& contents) {
  // The temp file lives in the same directory so the rename cannot cross
  // a filesystem boundary (rename is only atomic within one). The pid
  // suffix keeps concurrent writers of different targets from colliding;
  // concurrent writers of the *same* target race benignly — rename is
  // last-writer-wins with each side complete.
  const std::string tmp = path + ".tmp." + std::to_string(::getpid());
  int raw = -1;
  do {
    raw = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  } while (raw < 0 && errno == EINTR);
  if (raw < 0) {
    return Status::IOError(ErrnoMessage("cannot open", tmp, errno));
  }
  UniqueFd fd(raw);
  Status status = WriteAll(fd.get(), contents, tmp);
  // Durability order matters: the data must be on disk before the rename
  // publishes it, or a crash could publish a name pointing at zeroes.
  if (status.ok() && ::fsync(fd.get()) != 0) {
    status = Status::IOError(ErrnoMessage("fsync failed", tmp, errno));
  }
  if (status.ok() && ::rename(tmp.c_str(), path.c_str()) != 0) {
    status = Status::IOError(ErrnoMessage("cannot rename", tmp, errno) +
                             " over " + path);
  }
  if (!status.ok()) {
    (void)::unlink(tmp.c_str());  // Best effort; a leftover tmp is benign.
    return status;
  }
  // fsync the directory so the rename entry itself survives a crash.
  // Failure here is reported: the caller was promised durability.
  const size_t slash = path.find_last_of('/');
  const std::string dir = slash == std::string::npos
                              ? std::string(".")
                              : path.substr(0, slash == 0 ? 1 : slash);
  Result<UniqueFd> dir_fd = OpenForRead(dir);
  if (!dir_fd.ok()) return dir_fd.status();
  if (::fsync(dir_fd->get()) != 0 && errno != EINVAL) {
    // EINVAL: the filesystem does not support directory fsync (some
    // network mounts); the rename is still atomic, just not yet durable.
    return Status::IOError(ErrnoMessage("fsync failed", dir, errno));
  }
  return Status::OK();
}

Result<std::string> ReadFileToString(const std::string& path) {
  Result<UniqueFd> fd = OpenForRead(path);
  if (!fd.ok()) return fd.status();
  Result<uint64_t> size = FileSize(fd->get(), path);
  if (!size.ok()) return size.status();
  std::string contents(static_cast<size_t>(*size), '\0');
  if (*size > 0) {
    MRCC_RETURN_IF_ERROR(
        ReadExactAt(fd->get(), contents.data(), contents.size(), 0, path));
  }
  return contents;
}

Status MakeDirs(const std::string& path) {
  if (path.empty()) return Status::OK();
  // Walk the components left to right, creating each prefix. EEXIST is
  // checked against the actual file type: a plain file squatting on a
  // component must fail, not pass as "already there".
  size_t pos = 0;
  while (pos != std::string::npos) {
    pos = path.find('/', pos + 1);
    const std::string prefix =
        pos == std::string::npos ? path : path.substr(0, pos);
    if (prefix.empty() || prefix == "." || prefix == "/") continue;
    if (::mkdir(prefix.c_str(), 0777) == 0) continue;
    const int err = errno;
    struct stat st;
    if (err == EEXIST && ::stat(prefix.c_str(), &st) == 0 &&
        S_ISDIR(st.st_mode)) {
      continue;
    }
    return Status::IOError(ErrnoMessage("cannot create directory", prefix,
                                        err));
  }
  return Status::OK();
}

Status DropFileCache(const std::string& path) {
  Result<UniqueFd> fd = OpenForRead(path);
  if (!fd.ok()) return fd.status();
  // Dirty pages are not dropped; flush them first so the advice bites.
  (void)::fsync(fd->get());
  const int err = ::posix_fadvise(fd->get(), 0, 0, POSIX_FADV_DONTNEED);
  // EINVAL/ENOSYS mean the filesystem does not support the advice (tmpfs,
  // some network mounts) — the cache simply stays warm, which is not a
  // failure of the caller's scan.
  if (err != 0 && err != EINVAL && err != ENOSYS) {
    return Status::IOError(ErrnoMessage("fadvise failed", path, err));
  }
  return Status::OK();
}

}  // namespace mrcc
