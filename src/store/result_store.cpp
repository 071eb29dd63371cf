#include "store/result_store.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "common/contracts.hpp"
#include "common/faults.hpp"
#include "obs/metrics.hpp"
#include "store/appendio.hpp"
#include "store/json.hpp"

namespace araxl::store {

namespace {

// One shared definition with the reporters (store/json.hpp): the
// byte-identity contract allows no drift between the two serializers.
std::string fnum(double v) { return json_double(v); }
std::string unum(std::uint64_t v) { return json_u64(v); }

const JsonValue& field(const JsonValue& obj, std::string_view key) {
  const JsonValue* v = obj.get(key);
  if (v == nullptr) fail("store record is missing field '" + std::string(key) + "'");
  return *v;
}

/// deserialize() up to, not including, the provenance check: throws
/// ContractViolation on syntax, checksum or schema errors.
StoredResult decode(std::string_view line) {
  // Verify the checksum against the literal text first: the checked
  // content is the line with the trailing `,"check":"..."` spliced out.
  const std::optional<std::string> computed = expected_check(line);
  check(computed.has_value(), "store record has no checksum");
  const JsonValue doc = parse_json(line);
  const std::string& stored_check = field(doc, "check").as_string();
  check(stored_check == *computed, "store record checksum mismatch");

  StoredResult r;
  r.fingerprint = field(doc, "fp").as_string();
  r.version = field(doc, "version").as_string();
  r.config = field(doc, "config").as_string();
  r.label = field(doc, "label").as_string();
  r.kernel = field(doc, "kernel").as_string();
  r.bytes_per_lane = field(doc, "bpl").as_u64();
  r.seed = field(doc, "seed").as_u64();

  // Fields newer than the seed schema read as 0 from older records (no
  // schema bump: the fingerprint already embeds the build version).
  r.stats = read_stats_fields(field(doc, "stats"), StatsForm::kStore);
  r.verified = field(doc, "verified").as_bool();
  r.tolerance = field(doc, "tolerance").as_double();
  r.verify.checked = field(doc, "checked").as_u64();
  r.verify.max_rel_err = field(doc, "max_rel_err").as_double();
  return r;
}

/// The stored fingerprint must match one recomputed from the record's own
/// provenance — a tampered key field (or a record written under a
/// different fingerprint scheme) is recomputed, never served.
bool provenance_matches(const StoredResult& r) {
  return r.fingerprint ==
         fingerprint(
             JobKey{r.config, r.kernel, r.bytes_per_lane, r.seed, r.version});
}

}  // namespace

std::string ResultStore::serialize(const StoredResult& r) {
  std::string out = "{";
  out += "\"fp\":\"" + json_escape(r.fingerprint) + "\",";
  out += "\"version\":\"" + json_escape(r.version) + "\",";
  out += "\"config\":\"" + json_escape(r.config) + "\",";
  out += "\"label\":\"" + json_escape(r.label) + "\",";
  out += "\"kernel\":\"" + json_escape(r.kernel) + "\",";
  out += "\"bpl\":" + unum(r.bytes_per_lane) + ",";
  out += "\"seed\":" + unum(r.seed) + ",";
  // Every RunStats word, provenance and stall taxonomy included: default
  // reports zero those, but `araxl stats` and `araxl report` read them back
  // from here without re-simulating.
  out += "\"stats\":{";
  append_stats_fields(out, r.stats, StatsForm::kStore);
  out += "},";
  out += std::string("\"verified\":") + (r.verified ? "true" : "false") + ",";
  out += "\"tolerance\":" + fnum(r.tolerance) + ",";
  out += "\"checked\":" + unum(r.verify.checked) + ",";
  out += "\"max_rel_err\":" + fnum(r.verify.max_rel_err);
  out += "}";
  // Payload checksum over the exact line text: flipped bits anywhere in
  // the record (including the stats) invalidate it.
  return with_check(std::move(out));
}

StoredResult ResultStore::deserialize(std::string_view line) {
  StoredResult r = decode(line);
  check(provenance_matches(r), "store record provenance fingerprint mismatch");
  return r;
}

ResultStore::ResultStore(std::string path) : path_(std::move(path)) { load(); }

void ResultStore::load() {
  std::ifstream f(path_, std::ios::binary);
  if (!f.good()) return;  // missing store: start empty, create on flush
  std::string line;
  while (std::getline(f, line)) {
    if (line.empty()) continue;
    ++load_report_.lines;
    StoredResult r;
    try {
      r = decode(line);
    } catch (const ContractViolation&) {
      ++load_report_.bad_lines;
      continue;
    }
    if (!provenance_matches(r)) {
      ++load_report_.fp_mismatches;
      continue;
    }
    const auto [it, inserted] = index_.try_emplace(r.fingerprint, records_.size());
    if (inserted) {
      records_.push_back(std::move(r));
    } else {
      records_[it->second] = std::move(r);  // later line supersedes
      ++load_report_.superseded;
    }
  }
  load_report_.loaded = records_.size();
}

std::size_t ResultStore::size() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return records_.size();
}

std::optional<StoredResult> ResultStore::find(const std::string& fp) const {
  const std::lock_guard<std::mutex> lock(mu_);
  const auto it = index_.find(fp);
  if (it == index_.end()) return std::nullopt;
  return records_[it->second];
}

void ResultStore::put(StoredResult r) {
  check(!r.fingerprint.empty(), "stored result needs a fingerprint");
  const std::lock_guard<std::mutex> lock(mu_);
  // Serialize now: an overwrite simply appends a later line, which
  // supersedes the earlier one on the next load.
  pending_ += serialize(r);
  pending_ += '\n';
  const auto [it, inserted] = index_.try_emplace(r.fingerprint, records_.size());
  if (inserted) {
    records_.push_back(std::move(r));
  } else {
    records_[it->second] = std::move(r);
  }
}

void ResultStore::flush() {
  const std::lock_guard<std::mutex> lock(mu_);
  if (pending_.empty()) return;
  // One append-mode write per flush (torn-tail healing, fault injection,
  // and optional fsync live in append_lines, shared with the serve-layer
  // job ledger): concurrent writers interleave at line granularity
  // (O_APPEND), and a torn line from a crash is skipped by the
  // corruption-tolerant loader. On failure pending_ is retained: a later
  // flush re-appends every record as whole lines, and the loader skips
  // the torn line and dedups the rest.
  AppendFaults faults;
  if (faults_ != nullptr) {
    faults.open_fails = [this] { return faults_->store_open_fails(); };
    faults.short_write = [this](std::size_t len) {
      return faults_->store_short_write(len);
    };
  }
  const AppendOutcome out = append_lines(path_, pending_, faults, fsync_);
  if (metrics_ != nullptr) {
    metrics_->counter("store.flushes")->inc();
    metrics_->counter("store.flush_bytes")->add(out.bytes);
    if (out.healed_tail) metrics_->counter("store.tail_heals")->inc();
  }
  pending_.clear();
}

std::size_t ResultStore::gc(const std::string& current_version) {
  const std::lock_guard<std::mutex> lock(mu_);
  std::vector<StoredResult> kept;
  kept.reserve(records_.size());
  for (StoredResult& r : records_) {
    if (r.version == current_version) kept.push_back(std::move(r));
  }
  const std::size_t removed = records_.size() - kept.size();
  records_ = std::move(kept);
  index_.clear();
  for (std::size_t i = 0; i < records_.size(); ++i) {
    index_.emplace(records_[i].fingerprint, i);
  }
  // Compact: atomic temp-file + rename of the full surviving snapshot
  // (this is the one mutation that must not be an append).
  const std::string tmp = path_ + ".tmp";
  {
    std::ofstream f(tmp, std::ios::binary | std::ios::trunc);
    if (!f.good()) {
      throw StoreIoError("cannot open store temp file for writing: " + tmp);
    }
    for (const StoredResult& r : records_) {
      const std::string line = serialize(r);
      f.write(line.data(), static_cast<std::streamsize>(line.size()));
      f.put('\n');
    }
    f.flush();
    if (!f.good()) {
      throw StoreIoError("failed writing store temp file: " + tmp);
    }
  }
  if (fsync_) {
    // The rename below only atomically replaces *names*; without syncing
    // the temp file's data first, a power loss can leave the new name
    // pointing at a truncated file.
    const int fd = ::open(tmp.c_str(), O_RDONLY | O_CLOEXEC);
    if (fd >= 0) {
      ::fsync(fd);
      ::close(fd);
    }
  }
  if (faults_ != nullptr && faults_->store_rename_fails()) {
    std::remove(tmp.c_str());  // a failed rename leaves the original intact
    throw StoreIoError("injected rename failure on store temp file: " + tmp);
  }
  if (std::rename(tmp.c_str(), path_.c_str()) != 0) {
    throw StoreIoError("cannot rename store temp file over " + path_);
  }
  if (fsync_) fsync_parent_dir(path_);  // make the rename itself durable
  pending_.clear();
  return removed;
}

std::vector<StoredResult> ResultStore::entries() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return records_;
}

}  // namespace araxl::store
