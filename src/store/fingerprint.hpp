// Canonical job fingerprints — the result store's cache key.
//
// A job is identified by *what it computes*: the machine configuration,
// the kernel, the weak-scaling point, the input seed, and the build
// version that produced the simulator. The configuration is serialized
// canonically (fixed field order, derived values instead of raw
// spellings), so semantically identical configs — an explicit VLEN equal
// to the paper's rule, the event-driven engine vs its bit-identical
// cycle-stepped oracle, different CLI labels — hash to the same key.
#ifndef ARAXL_STORE_FINGERPRINT_HPP
#define ARAXL_STORE_FINGERPRINT_HPP

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "machine/config.hpp"

namespace araxl::store {

/// Canonical, versioned serialization of every MachineConfig field that
/// can influence simulation results. Stable across labels and across
/// spellings of the same semantics: `vlen_bits` is folded to
/// `effective_vlen()`, and `timing_mode` is omitted because the two
/// engines are bit-identical by contract (enforced by EngineEquivalence*).
[[nodiscard]] std::string canonical_config(const MachineConfig& cfg);

/// Everything that identifies one unit of simulation work.
struct JobKey {
  std::string config;  ///< canonical_config() of the machine
  std::string kernel;
  std::uint64_t bytes_per_lane = 0;
  std::uint64_t seed = 0;
  std::string version;  ///< build salt (store::build_version())
};

/// 64-bit FNV-1a with a tweakable basis (exposed for the store's record
/// checksums).
[[nodiscard]] std::uint64_t hash64(std::string_view data,
                                   std::uint64_t basis_tweak = 0);

// Checked lines (store records, ledger lines, leases) end in
// `,"check":"<16 hex>"}`: the hash64 of the line with that field spliced
// out, so a flipped byte anywhere in the line invalidates it.
inline constexpr std::string_view kCheckMarker = ",\"check\":\"";

/// Appends the check field to a one-line `{...}` object.
[[nodiscard]] std::string with_check(std::string line);

/// The check field `line` should carry, hashed over the line up to its
/// last check marker followed by "}" (no spliced copy); nullopt when the
/// line has no marker.
[[nodiscard]] std::optional<std::string> expected_check(std::string_view line);

/// Stable 128-bit fingerprint of a JobKey as 32 lowercase hex characters.
[[nodiscard]] std::string fingerprint(const JobKey& key);

}  // namespace araxl::store

#endif  // ARAXL_STORE_FINGERPRINT_HPP
