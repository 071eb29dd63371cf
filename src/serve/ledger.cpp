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

using store::json_escape;
using store::JsonValue;
using store::parse_json;

// Same checksummed-line discipline as the result store: the line ends in
// `,"check":"<16-hex hash64>"` over the text with the check spliced out.
constexpr std::string_view kCheckMarker = ",\"check\":\"";

std::string with_check(std::string line) {
  const std::string check = strprintf(
      "%016llx", static_cast<unsigned long long>(store::hash64(line)));
  line.insert(line.size() - 1, std::string(kCheckMarker) + check + "\"");
  return line;
}

/// Verifies the trailing checksum; throws ContractViolation on mismatch.
void verify_check(std::string_view line, const JsonValue& doc) {
  const std::size_t marker = line.rfind(kCheckMarker);
  check(marker != std::string_view::npos, "ledger line has no checksum");
  std::string body(line.substr(0, marker));
  body += "}";
  const JsonValue* stored = doc.get("check");
  check(stored != nullptr, "ledger line has no checksum");
  const std::string computed = strprintf(
      "%016llx", static_cast<unsigned long long>(store::hash64(body)));
  check(stored->as_string() == computed, "ledger line checksum mismatch");
}

std::uint64_t field_u64(const JsonValue& obj, std::string_view key) {
  const JsonValue* v = obj.get(key);
  check(v != nullptr, "ledger line is missing field '" + std::string(key) + "'");
  return v->as_u64();
}

std::string field_string(const JsonValue& obj, std::string_view key) {
  const JsonValue* v = obj.get(key);
  check(v != nullptr, "ledger line is missing field '" + std::string(key) + "'");
  return v->as_string();
}

std::vector<std::string> field_strings(const JsonValue& obj,
                                       std::string_view key) {
  const JsonValue* v = obj.get(key);
  check(v != nullptr && v->kind == JsonValue::Kind::kArray,
        "ledger header is missing array field '" + std::string(key) + "'");
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
  std::string out = "{\"type\":\"sweep\",";
  out += "\"version\":\"" + json_escape(spec.version) + "\",";
  out += "\"configs\":[";
  for (std::size_t i = 0; i < spec.configs.size(); ++i) {
    if (i != 0) out += ",";
    out += '"';
    out += json_escape(spec.configs[i]);
    out += '"';
  }
  out += "],";
  out += "\"kernels\":[";
  for (std::size_t i = 0; i < spec.kernels.size(); ++i) {
    if (i != 0) out += ",";
    out += '"';
    out += json_escape(spec.kernels[i]);
    out += '"';
  }
  out += "],";
  out += "\"bpl\":[";
  for (std::size_t i = 0; i < spec.bytes_per_lane.size(); ++i) {
    if (i != 0) out += ",";
    out += store::json_u64(spec.bytes_per_lane[i]);
  }
  out += "],";
  out += "\"base_seed\":" + store::json_u64(spec.base_seed) + ",";
  out += std::string("\"verify\":") + (spec.verify ? "true" : "false") + ",";
  out += "\"jobs\":" + store::json_u64(spec.jobs);
  out += "}";
  return with_check(std::move(out));
}

LedgerSpec parse_header(std::string_view line) {
  const JsonValue doc = parse_json(line);
  verify_check(line, doc);
  check(field_string(doc, "type") == "sweep",
        "ledger header has the wrong type");
  LedgerSpec spec;
  spec.version = field_string(doc, "version");
  spec.configs = field_strings(doc, "configs");
  spec.kernels = field_strings(doc, "kernels");
  const JsonValue* bpl = doc.get("bpl");
  check(bpl != nullptr && bpl->kind == JsonValue::Kind::kArray,
        "ledger header is missing array field 'bpl'");
  for (const JsonValue& item : bpl->items) {
    spec.bytes_per_lane.push_back(item.as_u64());
  }
  spec.base_seed = field_u64(doc, "base_seed");
  const JsonValue* verify = doc.get("verify");
  check(verify != nullptr, "ledger header is missing 'verify'");
  spec.verify = verify->as_bool();
  spec.jobs = field_u64(doc, "jobs");
  check(!spec.configs.empty() && !spec.kernels.empty() &&
            !spec.bytes_per_lane.empty(),
        "ledger header has an empty sweep axis");
  check(spec.jobs == spec.configs.size() * spec.kernels.size() *
                         spec.bytes_per_lane.size(),
        "ledger header job count does not match its axes");
  return spec;
}

std::string serialize_done(const DoneRecord& rec) {
  std::string out = "{\"type\":\"done\",";
  out += "\"job\":" + store::json_u64(rec.job) + ",";
  out += "\"fp\":\"" + json_escape(rec.fingerprint) + "\",";
  out += "\"worker\":\"" + json_escape(rec.worker) + "\",";
  out += "\"status\":\"" + json_escape(rec.status) + "\",";
  out += "\"attempts\":" + store::json_u64(rec.attempts) + ",";
  out += "\"duration_ms\":" + store::json_u64(rec.duration_ms) + ",";
  out += "\"json\":\"" + json_escape(rec.json_record) + "\",";
  out += "\"csv\":\"" + json_escape(rec.csv_row) + "\"";
  out += "}";
  return with_check(std::move(out));
}

DoneRecord parse_done(std::string_view line) {
  const JsonValue doc = parse_json(line);
  verify_check(line, doc);
  check(field_string(doc, "type") == "done", "ledger line has the wrong type");
  DoneRecord rec;
  rec.job = field_u64(doc, "job");
  rec.fingerprint = field_string(doc, "fp");
  rec.worker = field_string(doc, "worker");
  rec.status = field_string(doc, "status");
  rec.attempts = field_u64(doc, "attempts");
  rec.duration_ms = field_u64(doc, "duration_ms");
  rec.json_record = field_string(doc, "json");
  rec.csv_row = field_string(doc, "csv");
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
