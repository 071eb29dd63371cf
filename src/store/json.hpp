// Minimal JSON reader for the result store and report merger, and the
// number/string writers every report, store line and artifact uses.
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

/// `obj[key]`, or ContractViolation "<what> is missing field '<key>'". The
/// message is built only on failure: readers call this for every field of
/// every store, ledger and lease line.
[[nodiscard]] const JsonValue& require_field(const JsonValue& obj,
                                             std::string_view key,
                                             std::string_view what);

// ---- writing ---------------------------------------------------------------
// Every report, store line and analysis artifact spells its numbers and
// strings through the three appenders below. The warm-replay and merge
// byte-identity contracts depend on this single definition: a replayed
// RunStats must serialize exactly as the simulated one did.

/// Appends `v` in decimal (printf "%llu").
void append_u64(std::string& out, std::uint64_t v);
/// Appends `v` as printf "%.17g" spells it in the C locale: deterministic
/// for a given double and exact on re-parse. std::to_chars in general
/// format with precision 17 is specified to produce exactly those bytes.
void append_double(std::string& out, double v);
/// Appends `s` escaped for the inside of a JSON string literal (quotes,
/// backslash, control characters); the surrounding quotes are the
/// caller's.
void append_escaped(std::string& out, std::string_view s);

/// Writes one JSON document into a caller's string, a member or element at
/// a time, placing the commas itself. Keys are written verbatim (they are
/// identifiers from the code); string values are escaped.
///
///   JsonWriter w(out);
///   w.open().key("n").u64(3).key("xs").open_array().num(0.5).close_array()
///       .close();                                   // {"n":3,"xs":[0.5]}
class JsonWriter {
 public:
  explicit JsonWriter(std::string& out) : out_(out) {}

  JsonWriter& open() { return begin('{'); }
  JsonWriter& close() { return end('}'); }
  JsonWriter& open_array() { return begin('['); }
  JsonWriter& close_array() { return end(']'); }

  JsonWriter& key(std::string_view k) {
    separate();
    out_ += '"';
    out_ += k;
    out_ += "\":";
    return *this;
  }

  JsonWriter& u64(std::uint64_t v) {
    separate();
    append_u64(out_, v);
    return value_done();
  }
  JsonWriter& num(double v) {
    separate();
    append_double(out_, v);
    return value_done();
  }
  JsonWriter& str(std::string_view s) {
    separate();
    out_ += '"';
    append_escaped(out_, s);
    out_ += '"';
    return value_done();
  }
  JsonWriter& boolean(bool b) {
    separate();
    out_ += b ? "true" : "false";
    return value_done();
  }
  JsonWriter& null() {
    separate();
    out_ += "null";
    return value_done();
  }

 private:
  void separate() {
    if (comma_) out_ += ',';
    comma_ = false;
  }
  JsonWriter& value_done() {
    comma_ = true;
    return *this;
  }
  JsonWriter& begin(char c) {
    separate();
    out_ += c;
    return *this;
  }
  JsonWriter& end(char c) {
    out_ += c;
    return value_done();
  }

  std::string& out_;
  bool comma_ = false;  ///< a value was just written: the next one needs ','
};

/// Writes CSV rows into a caller's string: fields are comma-separated and
/// numbers use the appenders above. text() writes its field verbatim;
/// quoted() wraps it in quotes and doubles the quotes inside.
class CsvWriter {
 public:
  explicit CsvWriter(std::string& out) : out_(out) {}

  CsvWriter& text(std::string_view s) {
    separate();
    out_ += s;
    return *this;
  }
  CsvWriter& quoted(std::string_view s) {
    separate();
    out_ += '"';
    for (const char c : s) {
      out_ += c;
      if (c == '"') out_ += '"';
    }
    out_ += '"';
    return *this;
  }
  CsvWriter& u64(std::uint64_t v) {
    separate();
    append_u64(out_, v);
    return *this;
  }
  CsvWriter& num(double v) {
    separate();
    append_double(out_, v);
    return *this;
  }
  /// Ends the row with '\n'; the next field starts a new row.
  void end_row() {
    out_ += '\n';
    first_ = true;
  }

 private:
  void separate() {
    if (!first_) out_ += ',';
    first_ = false;
  }

  std::string& out_;
  bool first_ = true;
};

/// The two spellings of a RunStats object, both one loop over
/// kRunStatsFields (sim/stats.hpp).
enum class StatsForm : std::uint8_t {
  kStore,   ///< every field; arrays as [v,...] lists
  kReport,  ///< all but store-only fields; arrays as {"name":v,...} objects
};

/// Writes the fields of `s` as members of the object `w` is inside.
/// `zero_opt_in` writes 0 for the opt-in fields (default reports).
void append_stats_fields(JsonWriter& w, const RunStats& s, StatsForm form,
                         bool zero_opt_in = false);

/// Reads what append_stats_fields wrote from the object `obj`. A missing
/// tolerant field (or report array element) reads as 0; a missing required
/// field or a malformed store array throws ContractViolation. Store-only
/// fields stay 0 in kReport.
[[nodiscard]] RunStats read_stats_fields(const JsonValue& obj, StatsForm form);

}  // namespace araxl::store

#endif  // ARAXL_STORE_JSON_HPP
