// Shared append-only JSONL file discipline.
//
// The result store (store/result_store.cpp) and the serve layer's job
// ledger (serve/ledger.cpp) persist the same way: whole checksummed lines
// appended to one file that many processes may share. This helper owns the
// mechanics both need so the durability rules have a single definition:
//   * torn-tail healing — a crashed (or fault-injected) writer can leave
//     the file ending in a newline-less fragment; appending straight after
//     it would merge the next record into that garbage line, so an append
//     that finds a torn tail starts with a fresh newline. The probe and
//     the write hold an exclusive flock() so no other appender can tear
//     the tail in between;
//   * one O_APPEND write per batch — concurrent writers interleave at line
//     granularity and a crash mid-write loses at most one torn line, which
//     the corruption-tolerant loaders skip;
//   * optional fsync-on-append — without it an acked record can sit in the
//     page cache across a power loss; with it the append is durable before
//     the call returns (and directory fsync makes a freshly created file's
//     name durable too).
#ifndef ARAXL_STORE_APPENDIO_HPP
#define ARAXL_STORE_APPENDIO_HPP

#include <cstddef>
#include <functional>
#include <optional>
#include <string>
#include <string_view>

namespace araxl::store {

/// Injectable failure decisions for one append site. Each JSONL file class
/// keys its own FaultInjector sites (store.open/store.write vs
/// ledger.open/ledger.write) so chaos specs can target them independently.
struct AppendFaults {
  /// True when this append's open should fail.
  std::function<bool()> open_fails;
  /// Bytes to actually write before failing (a torn tail), or nullopt.
  std::function<std::optional<std::size_t>(std::size_t len)> short_write;
};

/// What one append did (for metrics).
struct AppendOutcome {
  std::size_t bytes = 0;    ///< payload bytes written
  bool healed_tail = false; ///< a torn tail was terminated first
};

/// Appends `payload` (one or more whole '\n'-terminated lines) to `path`,
/// healing a torn tail, honouring injected faults, and optionally
/// fsync()ing the file before returning. Throws StoreIoError (declared in
/// store/result_store.hpp) on open/write/sync failure — injected or real.
/// On a short (torn) write the payload must be retried in full later; the
/// loaders skip the torn line and dedupe re-appended records.
AppendOutcome append_lines(const std::string& path, std::string_view payload,
                           const AppendFaults& faults, bool fsync_file);

/// fsync()s the directory containing `path`, making a rename or file
/// creation in it durable. Errors are swallowed: directory fsync is a
/// best-effort hardening step and some filesystems refuse it.
void fsync_parent_dir(const std::string& path);

}  // namespace araxl::store

#endif  // ARAXL_STORE_APPENDIO_HPP
