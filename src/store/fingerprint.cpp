#include "store/fingerprint.hpp"

#include "common/fmt.hpp"
#include "store/version.hpp"

namespace araxl::store {

std::string canonical_config(const MachineConfig& cfg) {
  // Fixed order, fixed spellings, `;`-separated `key=value`. Every field
  // of MachineConfig that can change simulation results must appear here;
  // adding one requires bumping kConfigSchemaVersion (store/version.hpp).
  std::string out = "cfg-v" + std::to_string(kConfigSchemaVersion) + ";";
  out += "kind=";
  out += cfg.kind == MachineKind::kAraXL ? "araxl" : "ara2";
  const auto field = [&out](const char* key, std::uint64_t v) {
    out += ";";
    out += key;
    out += "=";
    out += std::to_string(v);
  };
  field("clusters", cfg.topo.clusters);
  field("lanes", cfg.topo.lanes);
  field("groups", cfg.topo.groups);
  // Derived value, not the raw spelling: vlen_bits=0 and an explicit VLEN
  // equal to the configuration rule are the same machine.
  field("vlen", cfg.effective_vlen());
  field("mem", cfg.mem_size_bytes);
  field("reqi", cfg.reqi_regs);
  field("glsu", cfg.glsu_regs);
  field("ring", cfg.ring_regs);
  field("fpu_lat", cfg.fpu_latency);
  field("alu_lat", cfg.alu_latency);
  field("sldu_lat", cfg.sldu_latency);
  field("load_lag", cfg.load_chain_lag);
  field("div", cfg.div_cycles_per_elem);
  field("start", cfg.unit_start_latency);
  field("uq", cfg.unit_queue_depth);
  field("sq", cfg.seq_queue_depth);
  field("dcache", cfg.dcache_load_latency);
  field("l2", cfg.l2_latency);
  field("red_step", cfg.red_step_latency);
  field("red_add", cfg.red_add_latency);
  field("wb", cfg.writeback_latency);
  // timing_mode deliberately omitted: kEventDriven and kCycleStepped are
  // bit-identical by contract, so either engine's result serves both.
  return out;
}

namespace {

std::uint64_t fnv1a(std::uint64_t h, std::string_view data) {
  for (const char c : data) {
    h ^= static_cast<std::uint8_t>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::string hex16(std::uint64_t h) {
  return strprintf("%016llx", static_cast<unsigned long long>(h));
}

}  // namespace

std::uint64_t hash64(std::string_view data, std::uint64_t basis_tweak) {
  return fnv1a(0xcbf29ce484222325ULL ^ basis_tweak, data);
}

std::string with_check(std::string line) {
  const std::string check = hex16(hash64(line));
  line.insert(line.size() - 1, std::string(kCheckMarker) + check + "\"");
  return line;
}

std::optional<std::string> expected_check(std::string_view line) {
  const std::size_t marker = line.rfind(kCheckMarker);
  if (marker == std::string_view::npos) return std::nullopt;
  return hex16(fnv1a(hash64(line.substr(0, marker)), "}"));
}

std::string fingerprint(const JobKey& key) {
  // One flat serialization; '\x1f' separators keep fields from bleeding
  // into each other (a kernel name cannot alias part of a config string).
  std::string flat = key.config;
  flat += '\x1f';
  flat += key.kernel;
  flat += '\x1f';
  flat += std::to_string(key.bytes_per_lane);
  flat += '\x1f';
  flat += std::to_string(key.seed);
  flat += '\x1f';
  flat += key.version;
  // Two independently-seeded 64-bit FNV passes give a 128-bit key; at the
  // sweep scales this repo runs (thousands of jobs) collisions are
  // negligible, and the store additionally verifies provenance on load.
  const std::uint64_t lo = hash64(flat, 0);
  const std::uint64_t hi = hash64(flat, 0x9e3779b97f4a7c15ULL);
  return strprintf("%016llx%016llx", static_cast<unsigned long long>(hi),
                   static_cast<unsigned long long>(lo));
}

}  // namespace araxl::store
