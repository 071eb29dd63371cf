#include "driver/report.hpp"

#include <cstdio>
#include <fstream>
#include <optional>

#include "common/contracts.hpp"
#include "ppa/projection.hpp"
#include "store/json.hpp"

namespace araxl::driver {

namespace {

using store::JsonWriter;

std::string_view kind_name(MachineKind k) {
  return k == MachineKind::kAraXL ? "araxl" : "ara2";
}

std::string_view mode_name(TimingMode m) {
  return m == TimingMode::kEventDriven ? "event-driven" : "cycle-stepped";
}

void append_config_json(JsonWriter& w, const Job& job) {
  const MachineConfig& c = job.cfg;
  w.open();
  w.key("label").str(job.config_label);
  w.key("name").str(c.name());
  w.key("kind").str(kind_name(c.kind));
  // Global cluster count: a hierarchical machine's groups partition the
  // clusters physically, and the three-level shape is recoverable from the
  // config label (flat configs serialize byte-identically to before).
  w.key("clusters").u64(c.topo.total_clusters());
  w.key("lanes_per_cluster").u64(c.topo.lanes);
  w.key("total_lanes").u64(c.total_lanes());
  w.key("vlen_bits").u64(c.effective_vlen());
  w.key("timing_mode").str(mode_name(c.timing_mode));
  w.key("reqi_regs").u64(c.reqi_regs);
  w.key("glsu_regs").u64(c.glsu_regs);
  w.key("ring_regs").u64(c.ring_regs);
  w.key("l2_latency").u64(c.l2_latency);
  w.close();
}

/// The projector of the last config seen. Building one evaluates the area
/// and frequency models, and a sweep lists its records config-major, so a
/// render builds one per config instead of one per record.
class ProjectorCache {
 public:
  const PpaProjector& at(const MachineConfig& cfg) {
    if (!proj_ || !(proj_->config() == cfg)) proj_.emplace(cfg);
    return *proj_;
  }

 private:
  std::optional<PpaProjector> proj_;
};

void append_result_json(std::string& out, const JobResult& r,
                        const ReportOptions& opts, ProjectorCache& ppa) {
  JsonWriter w(out);
  w.open();
  w.key("index").u64(r.job.index);
  w.key("kernel").str(r.job.kernel);
  w.key("bytes_per_lane").u64(r.job.bytes_per_lane);
  w.key("seed").u64(r.job.seed);
  w.key("cache_hit").boolean(opts.live_cache_flags && r.cache_hit);
  // Attempts are provenance like cache_hit: a job that needed a retry must
  // still report byte-identically to a clean first-try run.
  w.key("attempts").u64(opts.live_provenance ? r.attempts : 0);
  w.key("config");
  append_config_json(w, r.job);
  w.key("ok").boolean(r.ok);
  // Failure classification; "ok" for successful jobs (driver/errors.hpp).
  w.key("status").str(error_kind_name(r.error_kind));
  if (!r.ok) {
    w.key("error").str(r.error);
    w.close();
    return;
  }
  // The opt-in fields (engine provenance, and the stall taxonomy, which is
  // an exact measurement but kept out of the default report's stable
  // surface) are zeroed unless live_provenance; the store persists the
  // live values.
  w.key("stats").open();
  store::append_stats_fields(w, r.stats, store::StatsForm::kReport,
                             !opts.live_provenance);
  w.key("fpu_util").num(r.stats.fpu_util());
  w.key("flop_per_cycle").num(r.stats.flop_per_cycle());
  w.close();
  const Ppa p = ppa.at(r.job.cfg)(r.stats);
  w.key("ppa").open();
  w.key("freq_ghz").num(p.freq_ghz);
  w.key("area_mm2").num(p.area_mm2);
  w.key("power_w").num(p.power_w);
  w.key("gflops").num(p.gflops);
  w.key("gflops_per_w").num(p.gflops_per_w);
  w.close();
  w.key("verify");
  if (r.verified) {
    w.open();
    w.key("checked").u64(r.verify.checked);
    w.key("max_rel_err").num(r.verify.max_rel_err);
    w.key("tolerance").num(r.tolerance);
    w.close();
  } else {
    w.null();
  }
  w.close();
}

void append_csv_row(std::string& out, const JobResult& r,
                    const ReportOptions& opts, ProjectorCache& ppa) {
  const MachineConfig& c = r.job.cfg;
  store::CsvWriter w(out);
  w.u64(r.job.index).text(r.job.config_label).text(r.job.kernel);
  w.u64(r.job.bytes_per_lane).u64(r.job.seed);
  w.text(opts.live_cache_flags && r.cache_hit ? "1" : "0");
  w.u64(opts.live_provenance ? r.attempts : 0);
  for (const StatField& f : kRunStatsFields) {
    if (!f.opt_in()) continue;
    for (const std::uint64_t v : f.words(r.stats)) {
      w.u64(opts.live_provenance ? v : 0);
    }
  }
  w.text(kind_name(c.kind)).u64(c.topo.total_clusters()).u64(c.topo.lanes);
  w.u64(c.total_lanes()).u64(c.effective_vlen());
  w.text(r.ok ? "1" : "0").text(error_kind_name(r.error_kind));
  if (r.ok) {
    const Ppa p = ppa.at(c)(r.stats);
    w.u64(r.stats.cycles).u64(r.stats.flops);
    w.num(r.stats.fpu_util()).num(r.stats.flop_per_cycle());
    w.num(p.freq_ghz).num(p.area_mm2).num(p.power_w).num(p.gflops);
    w.num(p.gflops_per_w);
    // Empty when verification was skipped — 0 would read as "verified
    // perfectly".
    if (r.verified) {
      w.num(r.verify.max_rel_err);
    } else {
      w.text("");
    }
  } else {
    for (int i = 0; i < 10; ++i) w.text("");  // cycles .. max_rel_err
  }
  // Errors can contain commas (source locations); quote the field.
  w.quoted(r.error);
  w.end_row();
}

}  // namespace

std::string json_record(const JobResult& r, const ReportOptions& opts) {
  std::string out;
  ProjectorCache ppa;
  append_result_json(out, r, opts, ppa);
  return out;
}

std::string to_json(const std::vector<JobResult>& results,
                    const ReportOptions& opts) {
  std::string out = "{\"results\":[\n";
  ProjectorCache ppa;
  for (std::size_t i = 0; i < results.size(); ++i) {
    append_result_json(out, results[i], opts, ppa);
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
  ProjectorCache ppa;
  append_csv_row(out, r, opts, ppa);
  return out;
}

std::string to_csv(const std::vector<JobResult>& results,
                   const ReportOptions& opts) {
  std::string out = csv_header();
  ProjectorCache ppa;
  for (const JobResult& r : results) append_csv_row(out, r, opts, ppa);
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
