#include "store/appendio.hpp"

#include <fcntl.h>
#include <sys/file.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "store/result_store.hpp"

namespace araxl::store {

namespace {

std::string errno_text() { return std::strerror(errno); }

/// Writes all of `data`, looping over partial write(2) returns. Throws on
/// a real I/O error.
void write_all(int fd, const char* data, std::size_t len,
               const std::string& path) {
  std::size_t off = 0;
  while (off < len) {
    const ssize_t n = ::write(fd, data + off, len - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw StoreIoError("failed appending to " + path + ": " + errno_text());
    }
    off += static_cast<std::size_t>(n);
  }
}

}  // namespace

AppendOutcome append_lines(const std::string& path, std::string_view payload,
                           const AppendFaults& faults, bool fsync_file) {
  AppendOutcome out;
  if (payload.empty()) return out;
  if (faults.open_fails && faults.open_fails()) {
    throw StoreIoError("injected open failure on " + path);
  }
  // O_RDWR, not O_WRONLY: the tail probe below preads the last byte, and
  // pread on a write-only descriptor fails with EBADF. O_APPEND still
  // makes every write land atomically at the (current) end of file.
  int fd = -1;
  do {
    fd = ::open(path.c_str(), O_RDWR | O_CREAT | O_APPEND | O_CLOEXEC, 0644);
  } while (fd < 0 && errno == EINTR);
  if (fd < 0) {
    throw StoreIoError("cannot open " + path + " for appending: " +
                       errno_text());
  }
  // A crashed (or fault-injected) writer can leave the file ending in a
  // torn, newline-less tail. Appending straight after it would merge our
  // first record into that garbage line and lose it — heal by starting on
  // a fresh line. Probing and appending are separate syscalls, so both run
  // under an exclusive advisory lock: otherwise another appender could
  // tear the tail between our probe and our write, and our record would
  // be glued onto its fragment while we report success. The lock is
  // released by close(), including when the process dies. Where the
  // filesystem refuses locks the append goes ahead unlocked; two healers
  // racing then only yield an extra blank line, which the loaders skip.
  while (::flock(fd, LOCK_EX) != 0 && errno == EINTR) {
  }
  struct stat st{};
  if (::fstat(fd, &st) == 0 && st.st_size > 0) {
    char last = '\n';
    if (::pread(fd, &last, 1, st.st_size - 1) == 1 && last != '\n') {
      out.healed_tail = true;
    }
  }
  std::string buf;
  std::string_view body = payload;
  if (out.healed_tail) {
    buf.reserve(payload.size() + 1);
    buf.push_back('\n');
    buf.append(payload);
    body = buf;
  }
  bool torn = false;
  if (faults.short_write) {
    if (const auto cut = faults.short_write(payload.size())) {
      body = body.substr(0, (out.healed_tail ? 1 : 0) + *cut);
      torn = true;
    }
  }
  try {
    write_all(fd, body.data(), body.size(), path);
  } catch (...) {
    ::close(fd);
    throw;
  }
  if (fsync_file && ::fsync(fd) != 0) {
    const std::string why = errno_text();
    ::close(fd);
    throw StoreIoError("fsync failed on " + path + ": " + why);
  }
  ::close(fd);
  if (torn) {
    // Callers must retain the payload: a later append re-writes every
    // record as whole lines, and the loaders skip the torn line and dedupe
    // the rest.
    throw StoreIoError("injected short write to " + path);
  }
  out.bytes = payload.size();
  return out;
}

void fsync_parent_dir(const std::string& path) {
  const std::size_t slash = path.find_last_of('/');
  const std::string dir = slash == std::string::npos
                              ? std::string(".")
                              : (slash == 0 ? "/" : path.substr(0, slash));
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (fd < 0) return;
  ::fsync(fd);  // best effort: some filesystems refuse directory fsync
  ::close(fd);
}

}  // namespace araxl::store
