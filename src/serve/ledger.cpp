#include "serve/ledger.hpp"

#include <fstream>

#include "common/contracts.hpp"
#include "common/faults.hpp"
#include "common/fmt.hpp"
#include "driver/report.hpp"
#include "store/appendio.hpp"
#include "store/fingerprint.hpp"
#include "store/json.hpp"
#include "store/result_store.hpp"

namespace araxl::serve {

namespace {

using store::JsonValue;
using store::JsonWriter;
using store::parse_json;
using store::require_field;

// Same checksummed-line discipline as the result store
// (store::with_check / store::expected_check).
using store::with_check;

/// Verifies the trailing checksum; throws ContractViolation on mismatch.
void verify_check(std::string_view line, const JsonValue& doc) {
  const std::optional<std::string> computed = store::expected_check(line);
  check(computed.has_value(), "ledger line has no checksum");
  const JsonValue* stored = doc.get("check");
  check(stored != nullptr, "ledger line has no checksum");
  check(stored->as_string() == *computed, "ledger line checksum mismatch");
}

constexpr std::string_view kLine = "ledger line";

std::vector<std::string> field_strings(const JsonValue& obj,
                                       std::string_view key) {
  const JsonValue* v = obj.get(key);
  if (v == nullptr || v->kind != JsonValue::Kind::kArray) {
    fail("ledger header is missing array field '" + std::string(key) + "'");
  }
  std::vector<std::string> out;
  out.reserve(v->items.size());
  for (const JsonValue& item : v->items) out.push_back(item.as_string());
  return out;
}

/// At-least-once dedupe: does `next` supersede `prev` for the same job?
/// An "ok" verdict is never displaced by a failure (a speculative re-run
/// that lost the race and then failed must not regress the report);
/// between equal classes the later line wins (append-only: later = newer).
bool supersedes(const DoneRecord& prev, const DoneRecord& next) {
  if (prev.status == "ok" && next.status != "ok") return false;
  return true;
}

void append_line(const std::string& path, std::string line,
                 FaultInjector* faults, bool fsync) {
  line += '\n';
  store::AppendFaults af;
  if (faults != nullptr) {
    af.open_fails = [faults] { return faults->ledger_open_fails(); };
    af.short_write = [faults](std::size_t len) {
      return faults->ledger_short_write(len);
    };
  }
  (void)store::append_lines(path, line, af, fsync);
}

}  // namespace

std::string serialize_header(const LedgerSpec& spec) {
  std::string out;
  JsonWriter w(out);
  w.open();
  w.key("type").str("sweep");
  w.key("version").str(spec.version);
  w.key("configs").open_array();
  for (const std::string& c : spec.configs) w.str(c);
  w.close_array();
  w.key("kernels").open_array();
  for (const std::string& k : spec.kernels) w.str(k);
  w.close_array();
  w.key("bpl").open_array();
  for (const std::uint64_t b : spec.bytes_per_lane) w.u64(b);
  w.close_array();
  w.key("base_seed").u64(spec.base_seed);
  w.key("verify").boolean(spec.verify);
  w.key("jobs").u64(spec.jobs);
  w.close();
  return with_check(std::move(out));
}

LedgerSpec parse_header(std::string_view line) {
  const JsonValue doc = parse_json(line);
  verify_check(line, doc);
  check(require_field(doc, "type", kLine).as_string() == "sweep",
        "ledger header has the wrong type");
  LedgerSpec spec;
  spec.version = require_field(doc, "version", kLine).as_string();
  spec.configs = field_strings(doc, "configs");
  spec.kernels = field_strings(doc, "kernels");
  const JsonValue* bpl = doc.get("bpl");
  check(bpl != nullptr && bpl->kind == JsonValue::Kind::kArray,
        "ledger header is missing array field 'bpl'");
  for (const JsonValue& item : bpl->items) {
    spec.bytes_per_lane.push_back(item.as_u64());
  }
  spec.base_seed = require_field(doc, "base_seed", kLine).as_u64();
  const JsonValue* verify = doc.get("verify");
  check(verify != nullptr, "ledger header is missing 'verify'");
  spec.verify = verify->as_bool();
  spec.jobs = require_field(doc, "jobs", kLine).as_u64();
  check(!spec.configs.empty() && !spec.kernels.empty() &&
            !spec.bytes_per_lane.empty(),
        "ledger header has an empty sweep axis");
  check(spec.jobs == spec.configs.size() * spec.kernels.size() *
                         spec.bytes_per_lane.size(),
        "ledger header job count does not match its axes");
  return spec;
}

std::string serialize_done(const DoneRecord& rec) {
  std::string out;
  JsonWriter w(out);
  w.open();
  w.key("type").str("done");
  w.key("job").u64(rec.job);
  w.key("fp").str(rec.fingerprint);
  w.key("worker").str(rec.worker);
  w.key("status").str(rec.status);
  w.key("attempts").u64(rec.attempts);
  w.key("duration_ms").u64(rec.duration_ms);
  w.key("json").str(rec.json_record);
  w.key("csv").str(rec.csv_row);
  w.close();
  return with_check(std::move(out));
}

DoneRecord parse_done(std::string_view line) {
  const JsonValue doc = parse_json(line);
  verify_check(line, doc);
  check(require_field(doc, "type", kLine).as_string() == "done",
        "ledger line has the wrong type");
  DoneRecord rec;
  rec.job = require_field(doc, "job", kLine).as_u64();
  rec.fingerprint = require_field(doc, "fp", kLine).as_string();
  rec.worker = require_field(doc, "worker", kLine).as_string();
  rec.status = require_field(doc, "status", kLine).as_string();
  rec.attempts = require_field(doc, "attempts", kLine).as_u64();
  rec.duration_ms = require_field(doc, "duration_ms", kLine).as_u64();
  rec.json_record = require_field(doc, "json", kLine).as_string();
  rec.csv_row = require_field(doc, "csv", kLine).as_string();
  check(!rec.json_record.empty() && !rec.csv_row.empty(),
        "ledger done record has empty report texts");
  return rec;
}

void ledger_create(const std::string& path, const LedgerSpec& spec,
                   FaultInjector* faults, bool fsync) {
  check(!spec.configs.empty() && !spec.kernels.empty() &&
            !spec.bytes_per_lane.empty(),
        "cannot enqueue a sweep with an empty axis");
  check(spec.jobs == spec.configs.size() * spec.kernels.size() *
                         spec.bytes_per_lane.size(),
        "ledger spec job count does not match its axes");
  {
    std::ifstream probe(path, std::ios::binary);
    check(!probe.good(), "ledger already exists (refusing to truncate a live "
                         "fleet's history): " + path);
  }
  append_line(path, serialize_header(spec), faults, fsync);
  if (fsync) store::fsync_parent_dir(path);  // make the new name durable
}

LedgerLoad ledger_load(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  check(f.good(), "cannot open ledger: " + path);
  LedgerLoad led;
  bool have_header = false;
  std::string line;
  while (std::getline(f, line)) {
    if (line.empty()) continue;
    if (!have_header) {
      // The header must be the first intact line; a torn first line means
      // the enqueue itself crashed and the ledger is unusable.
      led.spec = parse_header(line);
      led.done.assign(static_cast<std::size_t>(led.spec.jobs), std::nullopt);
      have_header = true;
      continue;
    }
    DoneRecord rec;
    try {
      rec = parse_done(line);
    } catch (const ContractViolation&) {
      ++led.bad_lines;  // torn or corrupt — the job stays pending
      continue;
    }
    if (rec.job >= led.spec.jobs) {
      ++led.bad_lines;  // out-of-range index: treat like corruption
      continue;
    }
    std::optional<DoneRecord>& slot = led.done[static_cast<std::size_t>(rec.job)];
    if (!slot.has_value()) {
      slot = std::move(rec);
      ++led.done_count;
    } else {
      ++led.duplicates;
      if (supersedes(*slot, rec)) slot = std::move(rec);
    }
  }
  check(have_header, "ledger has no valid header line: " + path);
  return led;
}

void ledger_append_done(const std::string& path, const DoneRecord& rec,
                        FaultInjector* faults, bool fsync) {
  append_line(path, serialize_done(rec), faults, fsync);
}

std::string ledger_report_json(const LedgerLoad& led) {
  check(led.complete(),
        strprintf("ledger is incomplete: %zu of %zu jobs done",
                  led.done_count, static_cast<std::size_t>(led.spec.jobs)));
  // Identical framing to driver::to_json — the record texts were produced
  // by driver::json_record as each job finished, so the assembled document
  // is the single-process report byte for byte.
  std::string out = "{\"results\":[\n";
  for (std::size_t i = 0; i < led.done.size(); ++i) {
    out += led.done[i]->json_record;
    if (i + 1 != led.done.size()) out += ",";
    out += "\n";
  }
  out += "]}\n";
  return out;
}

std::string ledger_report_csv(const LedgerLoad& led) {
  check(led.complete(),
        strprintf("ledger is incomplete: %zu of %zu jobs done",
                  led.done_count, static_cast<std::size_t>(led.spec.jobs)));
  std::string out = driver::csv_header();
  for (const std::optional<DoneRecord>& rec : led.done) out += rec->csv_row;
  return out;
}

}  // namespace araxl::serve
