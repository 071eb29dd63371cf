#include "serve/lease.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <fstream>

#include "common/contracts.hpp"
#include "common/faults.hpp"
#include "store/fingerprint.hpp"
#include "store/json.hpp"

namespace araxl::serve {

namespace {

using store::with_check;

std::uint64_t field_u64(const store::JsonValue& obj, std::string_view key) {
  const store::JsonValue* v = obj.get(key);
  check(v != nullptr, "lease is missing field '" + std::string(key) + "'");
  return v->as_u64();
}

/// Writes `content` to `path` in one shot; false on any I/O error.
bool write_file(const std::string& path, const std::string& content) {
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  if (!f.good()) return false;
  f.write(content.data(), static_cast<std::streamsize>(content.size()));
  f.flush();
  return f.good();
}

/// Rewrites a lease file via unique-temp + atomic rename. Last rename
/// wins; the caller must read back to learn whether it did.
bool rewrite(const std::string& dir, const Lease& lease) {
  const std::string target = lease_path(dir, lease.job);
  // Temp name unique per (worker, generation): two concurrent rewriters
  // must not clobber each other's temp files.
  const std::string tmp = target + "." + lease.worker + "." +
                          std::to_string(lease.generation) + ".tmp";
  if (!write_file(tmp, serialize_lease(lease) + "\n")) {
    std::remove(tmp.c_str());
    return false;
  }
  if (std::rename(tmp.c_str(), target.c_str()) != 0) {
    std::remove(tmp.c_str());
    return false;
  }
  return true;
}

/// Did our rewrite survive the race? Owner and generation must both match:
/// a concurrent takeover writes a foreign worker id and a bumped
/// generation, and last-rename-wins means the file is the single truth.
bool read_back_owns(const std::string& dir, const Lease& mine) {
  const std::optional<Lease> now = read_lease(dir, mine.job);
  return now.has_value() && now->worker == mine.worker &&
         now->generation == mine.generation;
}

}  // namespace

std::string lease_dir_for(const std::string& ledger_path) {
  return ledger_path + ".leases";
}

void ensure_lease_dir(const std::string& dir) {
  if (::mkdir(dir.c_str(), 0755) == 0 || errno == EEXIST) return;
  fail("cannot create lease directory: " + dir);
}

std::string lease_path(const std::string& dir, std::uint64_t job) {
  return dir + "/job-" + std::to_string(job) + ".lease";
}

std::string serialize_lease(const Lease& lease) {
  std::string out = "{";
  out += "\"job\":" + store::json_u64(lease.job) + ",";
  out += "\"worker\":\"" + store::json_escape(lease.worker) + "\",";
  out += "\"gen\":" + store::json_u64(lease.generation) + ",";
  out += "\"claimed_ms\":" + store::json_u64(lease.claimed_ms) + ",";
  out += "\"expires_ms\":" + store::json_u64(lease.expires_ms);
  out += "}";
  return with_check(std::move(out));
}

Lease parse_lease(std::string_view line) {
  const store::JsonValue doc = store::parse_json(line);
  const std::optional<std::string> computed = store::expected_check(line);
  check(computed.has_value(), "lease has no checksum");
  const store::JsonValue* stored = doc.get("check");
  check(stored != nullptr, "lease has no checksum");
  check(stored->as_string() == *computed, "lease checksum mismatch");
  Lease lease;
  lease.job = field_u64(doc, "job");
  const store::JsonValue* worker = doc.get("worker");
  check(worker != nullptr, "lease is missing field 'worker'");
  lease.worker = worker->as_string();
  lease.generation = field_u64(doc, "gen");
  lease.claimed_ms = field_u64(doc, "claimed_ms");
  lease.expires_ms = field_u64(doc, "expires_ms");
  return lease;
}

std::optional<Lease> read_lease(const std::string& dir, std::uint64_t job) {
  std::ifstream f(lease_path(dir, job), std::ios::binary);
  if (!f.good()) return std::nullopt;
  std::string line;
  if (!std::getline(f, line) || line.empty()) return std::nullopt;
  try {
    return parse_lease(line);
  } catch (const ContractViolation&) {
    return std::nullopt;  // torn by a crashed writer: reads as claimable
  }
}

std::optional<Lease> try_claim(const std::string& dir, std::uint64_t job,
                               const std::string& worker,
                               std::uint64_t now_ms, std::uint64_t ttl_ms,
                               FaultInjector* faults) {
  if (faults != nullptr && faults->lease_claim_fails()) return std::nullopt;
  Lease lease;
  lease.job = job;
  lease.worker = worker;
  lease.generation = 1;
  lease.claimed_ms = now_ms;
  lease.expires_ms = now_ms + ttl_ms;
  const std::string path = lease_path(dir, job);
  int fd = -1;
  do {
    fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_EXCL | O_CLOEXEC, 0644);
  } while (fd < 0 && errno == EINTR);
  if (fd < 0) return std::nullopt;  // EEXIST: someone else holds it
  const std::string line = serialize_lease(lease) + "\n";
  std::size_t off = 0;
  while (off < line.size()) {
    const ssize_t n = ::write(fd, line.data() + off, line.size() - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      break;
    }
    off += static_cast<std::size_t>(n);
  }
  ::close(fd);
  if (off != line.size()) {
    // A torn claim file parses as corrupt and reads as claimable; drop it
    // so the next scan can claim cleanly.
    std::remove(path.c_str());
    return std::nullopt;
  }
  return lease;
}

std::optional<Lease> take_over(const std::string& dir, const Lease& prev,
                               const std::string& worker,
                               std::uint64_t now_ms, std::uint64_t ttl_ms,
                               FaultInjector* faults) {
  if (faults != nullptr && faults->lease_claim_fails()) return std::nullopt;
  Lease lease;
  lease.job = prev.job;
  lease.worker = worker;
  lease.generation = prev.generation + 1;
  lease.claimed_ms = now_ms;
  lease.expires_ms = now_ms + ttl_ms;
  if (!rewrite(dir, lease)) return std::nullopt;
  if (!read_back_owns(dir, lease)) return std::nullopt;  // lost the race
  return lease;
}

std::optional<Lease> renew(const std::string& dir, const Lease& mine,
                           std::uint64_t now_ms, std::uint64_t ttl_ms,
                           FaultInjector* faults) {
  if (faults != nullptr && faults->lease_renew_fails()) return std::nullopt;
  // Before rewriting, confirm we still own the file: blindly renewing
  // after a takeover would displace the new owner's lease with a stale
  // generation.
  if (!read_back_owns(dir, mine)) return std::nullopt;
  Lease lease = mine;
  lease.expires_ms = now_ms + ttl_ms;
  if (!rewrite(dir, lease)) return std::nullopt;
  if (!read_back_owns(dir, lease)) return std::nullopt;
  return lease;
}

void release(const std::string& dir, const Lease& mine) {
  if (!read_back_owns(dir, mine)) return;  // taken over: not ours to drop
  std::remove(lease_path(dir, mine.job).c_str());
}

}  // namespace araxl::serve
