#include "driver/report.hpp"

#include <cstdio>
#include <fstream>

#include "common/contracts.hpp"
#include "common/fmt.hpp"
#include "ppa/area_model.hpp"
#include "ppa/freq_model.hpp"
#include "ppa/power_model.hpp"
#include "store/json.hpp"

namespace araxl::driver {

namespace {

// Serialization helpers shared with the result store (store/json.hpp):
// the warm-replay byte-identity contract allows no drift between the
// reporters and the store.
using store::json_escape;
std::string fnum(double v) { return store::json_double(v); }
std::string unum(std::uint64_t v) { return store::json_u64(v); }

std::string_view kind_name(MachineKind k) {
  return k == MachineKind::kAraXL ? "araxl" : "ara2";
}

std::string_view mode_name(TimingMode m) {
  return m == TimingMode::kEventDriven ? "event-driven" : "cycle-stepped";
}

/// PPA-model outputs for one finished job.
struct Ppa {
  double freq_ghz, area_mm2, power_w, gflops, gflops_per_w;
};

Ppa ppa_for(const MachineConfig& cfg, const RunStats& stats) {
  const FreqModel freq_model;
  const AreaModel area_model;
  const PowerModel power_model;
  Ppa p{};
  p.freq_ghz = freq_model.freq_ghz(cfg);
  p.area_mm2 = area_model.total_mm2(cfg);
  const double util = stats.fpu_util();
  p.power_w = power_model.power_w(cfg, p.freq_ghz, util);
  p.gflops = stats.gflops(p.freq_ghz);
  p.gflops_per_w =
      power_model.gflops_per_w(cfg, p.freq_ghz, stats.flop_per_cycle(), util);
  return p;
}

std::string config_json(const Job& job) {
  const MachineConfig& c = job.cfg;
  std::string out = "{";
  out += "\"label\":\"" + json_escape(job.config_label) + "\",";
  out += "\"name\":\"" + json_escape(c.name()) + "\",";
  out += "\"kind\":\"" + std::string(kind_name(c.kind)) + "\",";
  // Global cluster count: a hierarchical machine's groups partition the
  // clusters physically, and the three-level shape is recoverable from the
  // config label (flat configs serialize byte-identically to before).
  out += "\"clusters\":" + unum(c.topo.total_clusters()) + ",";
  out += "\"lanes_per_cluster\":" + unum(c.topo.lanes) + ",";
  out += "\"total_lanes\":" + unum(c.total_lanes()) + ",";
  out += "\"vlen_bits\":" + unum(c.effective_vlen()) + ",";
  out += "\"timing_mode\":\"" + std::string(mode_name(c.timing_mode)) + "\",";
  out += "\"reqi_regs\":" + unum(c.reqi_regs) + ",";
  out += "\"glsu_regs\":" + unum(c.glsu_regs) + ",";
  out += "\"ring_regs\":" + unum(c.ring_regs) + ",";
  out += "\"l2_latency\":" + unum(c.l2_latency);
  out += "}";
  return out;
}

// The opt-in fields (engine provenance, and the stall taxonomy, which is an
// exact measurement but kept out of the default report's stable surface)
// are zeroed unless live_provenance; the store persists the live values.
std::string stats_json(const RunStats& s, const ReportOptions& opts) {
  std::string out = "{";
  store::append_stats_fields(out, s, store::StatsForm::kReport,
                             !opts.live_provenance);
  out += ",\"fpu_util\":" + fnum(s.fpu_util()) + ",";
  out += "\"flop_per_cycle\":" + fnum(s.flop_per_cycle());
  out += "}";
  return out;
}

std::string result_json(const JobResult& r, const ReportOptions& opts) {
  std::string out = "{";
  out += "\"index\":" + unum(r.job.index) + ",";
  out += "\"kernel\":\"" + json_escape(r.job.kernel) + "\",";
  out += "\"bytes_per_lane\":" + unum(r.job.bytes_per_lane) + ",";
  out += "\"seed\":" + unum(r.job.seed) + ",";
  out += std::string("\"cache_hit\":") +
         (opts.live_cache_flags && r.cache_hit ? "true" : "false") + ",";
  // Attempts are provenance like cache_hit: a job that needed a retry must
  // still report byte-identically to a clean first-try run.
  out += "\"attempts\":" + unum(opts.live_provenance ? r.attempts : 0) + ",";
  out += "\"config\":" + config_json(r.job) + ",";
  out += std::string("\"ok\":") + (r.ok ? "true" : "false") + ",";
  // Failure classification; "ok" for successful jobs (driver/errors.hpp).
  out += "\"status\":\"" + std::string(error_kind_name(r.error_kind)) + "\",";
  if (!r.ok) {
    out += "\"error\":\"" + json_escape(r.error) + "\"";
    out += "}";
    return out;
  }
  out += "\"stats\":" + stats_json(r.stats, opts) + ",";
  const Ppa p = ppa_for(r.job.cfg, r.stats);
  out += "\"ppa\":{";
  out += "\"freq_ghz\":" + fnum(p.freq_ghz) + ",";
  out += "\"area_mm2\":" + fnum(p.area_mm2) + ",";
  out += "\"power_w\":" + fnum(p.power_w) + ",";
  out += "\"gflops\":" + fnum(p.gflops) + ",";
  out += "\"gflops_per_w\":" + fnum(p.gflops_per_w);
  out += "},";
  if (r.verified) {
    out += "\"verify\":{";
    out += "\"checked\":" + unum(r.verify.checked) + ",";
    out += "\"max_rel_err\":" + fnum(r.verify.max_rel_err) + ",";
    out += "\"tolerance\":" + fnum(r.tolerance);
    out += "}";
  } else {
    out += "\"verify\":null";
  }
  out += "}";
  return out;
}

}  // namespace

std::string json_record(const JobResult& r, const ReportOptions& opts) {
  return result_json(r, opts);
}

std::string to_json(const std::vector<JobResult>& results,
                    const ReportOptions& opts) {
  std::string out = "{\"results\":[\n";
  for (std::size_t i = 0; i < results.size(); ++i) {
    out += result_json(results[i], opts);
    if (i + 1 != results.size()) out += ",";
    out += "\n";
  }
  out += "]}\n";
  return out;
}

std::string csv_header() {
  std::string out = "index,config,kernel,bytes_per_lane,seed,cache_hit,attempts,";
  for (const StatField& f : kRunStatsFields) {
    if (!f.opt_in()) continue;
    for (std::size_t i = 0; i < f.count; ++i) {
      out += f.csv_prefix;
      out += f.word_name(i);
      out += ',';
    }
  }
  out +=
      "kind,clusters,lanes_per_cluster,total_lanes,vlen_bits,ok,status,cycles,"
      "flops,fpu_util,flop_per_cycle,freq_ghz,area_mm2,power_w,gflops,"
      "gflops_per_w,max_rel_err,error\n";
  return out;
}

std::string csv_row(const JobResult& r, const ReportOptions& opts) {
  std::string out;
  {
    const MachineConfig& c = r.job.cfg;
    out += unum(r.job.index) + ",";
    out += r.job.config_label + ",";
    out += r.job.kernel + ",";
    out += unum(r.job.bytes_per_lane) + ",";
    out += unum(r.job.seed) + ",";
    out += (opts.live_cache_flags && r.cache_hit) ? "1," : "0,";
    out += unum(opts.live_provenance ? r.attempts : 0) + ",";
    for (const StatField& f : kRunStatsFields) {
      if (!f.opt_in()) continue;
      for (const std::uint64_t v : f.words(r.stats)) {
        out += unum(opts.live_provenance ? v : 0);
        out += ',';
      }
    }
    out += std::string(kind_name(c.kind)) + ",";
    out += unum(c.topo.total_clusters()) + ",";
    out += unum(c.topo.lanes) + ",";
    out += unum(c.total_lanes()) + ",";
    out += unum(c.effective_vlen()) + ",";
    out += r.ok ? "1," : "0,";
    out += std::string(error_kind_name(r.error_kind)) + ",";
    if (r.ok) {
      const Ppa p = ppa_for(c, r.stats);
      out += unum(r.stats.cycles) + ",";
      out += unum(r.stats.flops) + ",";
      out += fnum(r.stats.fpu_util()) + ",";
      out += fnum(r.stats.flop_per_cycle()) + ",";
      out += fnum(p.freq_ghz) + ",";
      out += fnum(p.area_mm2) + ",";
      out += fnum(p.power_w) + ",";
      out += fnum(p.gflops) + ",";
      out += fnum(p.gflops_per_w) + ",";
      // Empty when verification was skipped — 0 would read as "verified
      // perfectly".
      out += (r.verified ? fnum(r.verify.max_rel_err) : "") + ",";
    } else {
      out += ",,,,,,,,,,";
    }
    // Errors can contain commas (source locations); quote the field.
    std::string err = r.error;
    for (std::size_t pos = 0; (pos = err.find('"', pos)) != std::string::npos;
         pos += 2) {
      err.replace(pos, 1, "\"\"");
    }
    out += "\"" + err + "\"\n";
  }
  return out;
}

std::string to_csv(const std::vector<JobResult>& results,
                   const ReportOptions& opts) {
  std::string out = csv_header();
  for (const JobResult& r : results) out += csv_row(r, opts);
  return out;
}

void write_report(const std::string& path, const std::string& content) {
  if (path == "-") {
    std::fwrite(content.data(), 1, content.size(), stdout);
    return;
  }
  std::ofstream f(path, std::ios::binary);
  check(f.good(), "cannot open report file for writing: " + path);
  f.write(content.data(), static_cast<std::streamsize>(content.size()));
  check(f.good(), "failed writing report file: " + path);
}

}  // namespace araxl::driver
