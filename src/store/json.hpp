// Minimal JSON reader for the result store and report merger.
//
// The store's JSONL records and the driver's reports are machine-written
// flat documents, but the loader must survive hand edits, truncation, and
// interleaved garbage — so this is a full (if small) recursive-descent
// parser rather than a regex scan. Numbers keep their raw source text:
// RunStats counters are 64-bit and must round-trip exactly, which a
// double-typed value cannot guarantee past 2^53.
#ifndef ARAXL_STORE_JSON_HPP
#define ARAXL_STORE_JSON_HPP

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "sim/stats.hpp"

namespace araxl::store {

/// One parsed JSON value. Numbers are kept as raw text and converted on
/// access so integer counters survive unscathed.
struct JsonValue {
  enum class Kind : std::uint8_t { kNull, kBool, kNumber, kString, kArray, kObject };

  Kind kind = Kind::kNull;
  bool boolean = false;
  std::string text;  ///< string payload, or raw number spelling
  std::vector<JsonValue> items;                           ///< array elements
  std::vector<std::pair<std::string, JsonValue>> fields;  ///< object members

  /// Member lookup; nullptr when absent or not an object.
  [[nodiscard]] const JsonValue* get(std::string_view key) const;

  // Typed accessors; throw ContractViolation on kind/format mismatch.
  [[nodiscard]] std::uint64_t as_u64() const;
  [[nodiscard]] double as_double() const;
  [[nodiscard]] const std::string& as_string() const;
  [[nodiscard]] bool as_bool() const;
};

/// Parses one complete JSON document (no trailing junk allowed); throws
/// ContractViolation with a position on any syntax error.
[[nodiscard]] JsonValue parse_json(std::string_view text);

/// Escapes `s` for embedding in a JSON string literal (quotes, backslash,
/// control characters).
[[nodiscard]] std::string json_escape(std::string_view s);

// Canonical number spellings, shared by the driver's reporters and the
// store's records. The warm-replay/merge byte-identity contract depends
// on a single definition: a replayed RunStats must serialize exactly as
// the simulated one did.
/// Decimal unsigned integer.
[[nodiscard]] std::string json_u64(std::uint64_t v);
/// %.17g — deterministic for a given double, exact on re-parse.
[[nodiscard]] std::string json_double(double v);

/// The two spellings of a RunStats object, both one loop over
/// kRunStatsFields (sim/stats.hpp).
enum class StatsForm : std::uint8_t {
  kStore,   ///< every field; arrays as [v,...] lists
  kReport,  ///< all but store-only fields; arrays as {"name":v,...} objects
};

/// Appends the fields of `s` as comma-joined `"key":value` pairs (no
/// braces). `zero_opt_in` writes 0 for the opt-in fields (default reports).
void append_stats_fields(std::string& out, const RunStats& s, StatsForm form,
                         bool zero_opt_in = false);

/// Reads what append_stats_fields wrote from the object `obj`. A missing
/// tolerant field (or report array element) reads as 0; a missing required
/// field or a malformed store array throws ContractViolation. Store-only
/// fields stay 0 in kReport.
[[nodiscard]] RunStats read_stats_fields(const JsonValue& obj, StatsForm form);

}  // namespace araxl::store

#endif  // ARAXL_STORE_JSON_HPP
