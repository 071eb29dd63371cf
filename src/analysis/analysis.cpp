#include "analysis/analysis.hpp"

#include <algorithm>
#include <cmath>

#include "common/contracts.hpp"
#include "common/fmt.hpp"
#include "common/table.hpp"
#include "analysis/svg.hpp"
#include "machine/config.hpp"
#include "ppa/area_model.hpp"
#include "ppa/freq_model.hpp"
#include "ppa/power_model.hpp"
#include "ppa/soa.hpp"
#include "store/json.hpp"

namespace araxl::analysis {

namespace {

// Number spellings shared with the driver reporters: CSV artifacts must be
// byte-stable and re-parse exactly.
std::string fnum(double v) { return store::json_double(v); }
std::string unum(std::uint64_t v) { return store::json_u64(v); }

/// Reconstructs a MachineConfig from its store::canonical_config()
/// serialization ("cfg-vN;kind=araxl;clusters=16;..."). The canonical
/// string intentionally covers every result-affecting field, which is
/// exactly what the PPA models need; unknown keys (from a newer schema)
/// are ignored — the caller already filtered records to one build version.
MachineConfig config_from_canonical(std::string_view text) {
  MachineConfig cfg;
  std::size_t pos = text.find(';');
  check(pos != std::string_view::npos && text.substr(0, 4) == "cfg-",
        "not a canonical config string: " + std::string(text));
  while (pos != std::string_view::npos) {
    std::string_view rest = text.substr(pos + 1);
    const std::size_t end = rest.find(';');
    const std::string_view item = rest.substr(0, end);
    pos = end == std::string_view::npos ? std::string_view::npos
                                        : pos + 1 + end;
    const std::size_t eq = item.find('=');
    check(eq != std::string_view::npos,
          "malformed canonical config item: " + std::string(item));
    const std::string_view key = item.substr(0, eq);
    const std::string_view val = item.substr(eq + 1);
    if (key == "kind") {
      cfg.kind = val == "ara2" ? MachineKind::kAra2 : MachineKind::kAraXL;
      continue;
    }
    std::uint64_t n = 0;
    for (const char c : val) {
      check(c >= '0' && c <= '9',
            "malformed canonical config value: " + std::string(item));
      n = n * 10 + static_cast<std::uint64_t>(c - '0');
    }
    const auto u = static_cast<unsigned>(n);
    if (key == "clusters") cfg.topo.clusters = u;
    else if (key == "lanes") cfg.topo.lanes = u;
    else if (key == "groups") cfg.topo.groups = u;
    else if (key == "vlen") cfg.vlen_bits = n;
    else if (key == "mem") cfg.mem_size_bytes = n;
    else if (key == "reqi") cfg.reqi_regs = u;
    else if (key == "glsu") cfg.glsu_regs = u;
    else if (key == "ring") cfg.ring_regs = u;
    else if (key == "fpu_lat") cfg.fpu_latency = u;
    else if (key == "alu_lat") cfg.alu_latency = u;
    else if (key == "sldu_lat") cfg.sldu_latency = u;
    else if (key == "load_lag") cfg.load_chain_lag = u;
    else if (key == "div") cfg.div_cycles_per_elem = u;
    else if (key == "start") cfg.unit_start_latency = u;
    else if (key == "uq") cfg.unit_queue_depth = u;
    else if (key == "sq") cfg.seq_queue_depth = u;
    else if (key == "dcache") cfg.dcache_load_latency = u;
    else if (key == "l2") cfg.l2_latency = u;
    else if (key == "red_step") cfg.red_step_latency = u;
    else if (key == "red_add") cfg.red_add_latency = u;
    else if (key == "wb") cfg.writeback_latency = u;
  }
  return cfg;
}

void fill_ppa(Row& row, const MachineConfig& cfg) {
  const FreqModel freq_model;
  const AreaModel area_model;
  const PowerModel power_model;
  row.freq_ghz = freq_model.freq_ghz(cfg);
  row.area_mm2 = area_model.total_mm2(cfg);
  const double util = row.stats.fpu_util();
  row.power_w = power_model.power_w(cfg, row.freq_ghz, util);
  row.gflops = row.stats.gflops(row.freq_ghz);
  row.gflops_per_w = power_model.gflops_per_w(
      cfg, row.freq_ghz, row.stats.flop_per_cycle(), util);
  row.gflops_per_mm2 = row.area_mm2 > 0.0 ? row.gflops / row.area_mm2 : 0.0;
}

bool filter_accepts(const RowFilter& filter, const Row& row) {
  if (!filter.kernels.empty() &&
      std::find(filter.kernels.begin(), filter.kernels.end(), row.kernel) ==
          filter.kernels.end()) {
    return false;
  }
  if (!filter.configs.empty()) {
    bool hit = false;
    for (const std::string& sub : filter.configs) {
      if (row.label.find(sub) != std::string::npos) {
        hit = true;
        break;
      }
    }
    if (!hit) return false;
  }
  return true;
}

void sort_rows(std::vector<Row>& rows) {
  std::sort(rows.begin(), rows.end(), [](const Row& a, const Row& b) {
    if (a.stats.total_lanes != b.stats.total_lanes) {
      return a.stats.total_lanes < b.stats.total_lanes;
    }
    if (a.label != b.label) return a.label < b.label;
    if (a.kernel != b.kernel) return a.kernel < b.kernel;
    if (a.bytes_per_lane != b.bytes_per_lane) {
      return a.bytes_per_lane < b.bytes_per_lane;
    }
    return a.seed < b.seed;
  });
}

/// Byte-slot universe of one run — the denominator of every stall/busy
/// fraction (see RunStats::stall_cycles).
std::uint64_t slot_universe(const RunStats& s) {
  return s.cycles * s.total_lanes * 8;
}

/// Index of the largest stall bucket, or kNumStallReasons when no slot was
/// charged (fully busy or no attribution data in the source).
std::size_t dominant_stall(const RunStats& s) {
  std::size_t best = kNumStallReasons;
  std::uint64_t best_v = 0;
  for (std::size_t r = 0; r < kNumStallReasons; ++r) {
    if (s.stall_cycles[r] > best_v) {
      best_v = s.stall_cycles[r];
      best = r;
    }
  }
  return best;
}

// Fixed palette: busy first, then one color per StallReason in enum order.
constexpr std::string_view kBusyColor = "#2d5d8e";
constexpr std::array<std::string_view, kNumStallReasons> kStallColors = {
    "#9e9e9e",  // issue_pressure
    "#4c72b0",  // raw_dependency
    "#dd8452",  // structural_unit
    "#55a868",  // mem_latency
    "#c44e52",  // mem_bandwidth
    "#8172b3",  // reduction_slide_latency
    "#bcbd22",  // drain_tail
};

// ---- aggregations ----------------------------------------------------------

/// Best-GFLOPS row per (label, kernel) — the operating points the pareto
/// views plot. Input order is the dataset's total order, so ties resolve
/// deterministically to the first (lowest bpl/seed) row.
std::vector<const Row*> best_points(const Dataset& ds) {
  std::vector<const Row*> out;
  for (const Row& r : ds.rows) {
    if (!out.empty() && out.back()->label == r.label &&
        out.back()->kernel == r.kernel) {
      if (r.gflops > out.back()->gflops) out.back() = &r;
    } else {
      out.push_back(&r);
    }
  }
  return out;
}

/// Marks pareto-optimal points: cost (x) to minimize, perf (y) to
/// maximize. Quadratic, but the point sets here are tens of entries.
std::vector<bool> pareto_mask(const std::vector<const Row*>& pts,
                              double (*cost)(const Row&)) {
  std::vector<bool> on(pts.size(), true);
  for (std::size_t i = 0; i < pts.size(); ++i) {
    for (std::size_t j = 0; j < pts.size(); ++j) {
      if (i == j) continue;
      const bool better_cost = cost(*pts[j]) <= cost(*pts[i]);
      const bool better_perf = pts[j]->gflops >= pts[i]->gflops;
      const bool strictly = cost(*pts[j]) < cost(*pts[i]) ||
                            pts[j]->gflops > pts[i]->gflops;
      if (better_cost && better_perf && strictly) {
        on[i] = false;
        break;
      }
    }
  }
  return on;
}

/// One distinct machine configuration with its per-config aggregates.
struct ConfigPoint {
  std::string label;
  std::string family;
  std::uint64_t lanes = 0;
  std::uint64_t vlen_bits = 0;
  double freq_ghz = 0.0;
  double area_mm2 = 0.0;
  double peak_gflops = 0.0;
  double peak_gflops_per_w = 0.0;
  double peak_gflops_per_mm2 = 0.0;
  std::string peak_kernel;
};

std::vector<ConfigPoint> config_points(const Dataset& ds) {
  std::vector<ConfigPoint> out;
  for (const Row& r : ds.rows) {
    if (out.empty() || out.back().label != r.label) {
      ConfigPoint p;
      p.label = r.label;
      p.family = r.family;
      p.lanes = r.stats.total_lanes;
      p.vlen_bits = r.vlen_bits;
      p.freq_ghz = r.freq_ghz;
      p.area_mm2 = r.area_mm2;
      out.push_back(p);
    }
    ConfigPoint& p = out.back();
    if (r.gflops > p.peak_gflops) {
      p.peak_gflops = r.gflops;
      p.peak_kernel = r.kernel;
    }
    p.peak_gflops_per_w = std::max(p.peak_gflops_per_w, r.gflops_per_w);
    p.peak_gflops_per_mm2 = std::max(p.peak_gflops_per_mm2, r.gflops_per_mm2);
  }
  return out;
}

/// Slot-fraction aggregate per (label, kernel), summed over bpl and seed.
/// The partition identity survives summation: busy + all stalls == 1.
struct StallGroup {
  std::string label;
  std::string kernel;
  std::uint64_t universe = 0;
  std::uint64_t busy = 0;
  std::array<std::uint64_t, kNumStallReasons> stalls{};
};

std::vector<StallGroup> stall_groups(const Dataset& ds) {
  std::vector<StallGroup> out;
  for (const Row& r : ds.rows) {
    if (out.empty() || out.back().label != r.label ||
        out.back().kernel != r.kernel) {
      out.push_back({r.label, r.kernel, 0, 0, {}});
    }
    StallGroup& g = out.back();
    g.universe += slot_universe(r.stats);
    g.busy += r.stats.fpu_busy_slots;
    for (std::size_t i = 0; i < kNumStallReasons; ++i) {
      g.stalls[i] += r.stats.stall_cycles[i];
    }
  }
  return out;
}

// ---- artifacts -------------------------------------------------------------

std::string render_summary(const Dataset& ds) {
  std::string out = "araxl report\n============\n\n";
  out += "results (" + std::to_string(ds.rows.size()) + " rows)\n";
  {
    TextTable table({"config", "kernel", "B/lane", "cycles", "DP-FLOP/cycle",
                     "FPU util", "GFLOPS", "GFLOPS/W", "GFLOPS/mm2",
                     "dominant stall"});
    for (std::size_t c = 2; c < 9; ++c) table.align_right(c);
    for (const Row& r : ds.rows) {
      const std::size_t dom = dominant_stall(r.stats);
      table.add_row(
          {r.label, r.kernel, std::to_string(r.bytes_per_lane),
           fmt_group(r.stats.cycles), fmt_f(r.stats.flop_per_cycle(), 2),
           fmt_pct(r.stats.fpu_util(), 1), fmt_f(r.gflops, 1),
           fmt_f(r.gflops_per_w, 1), fmt_f(r.gflops_per_mm2, 2),
           dom == kNumStallReasons
               ? "-"
               : std::string(
                     stall_reason_name(static_cast<StallReason>(dom)))});
    }
    out += table.render();
  }

  out += "\nstall taxonomy (% of lane byte-slots; busy + stalls = 100%)\n";
  {
    std::vector<std::string> header = {"config", "kernel", "busy"};
    for (std::size_t i = 0; i < kNumStallReasons; ++i) {
      header.emplace_back(stall_reason_name(static_cast<StallReason>(i)));
    }
    TextTable table(header);
    for (std::size_t c = 2; c < header.size(); ++c) table.align_right(c);
    for (const StallGroup& g : stall_groups(ds)) {
      const double u = g.universe > 0 ? static_cast<double>(g.universe) : 1.0;
      std::vector<std::string> row = {
          g.label, g.kernel, fmt_pct(static_cast<double>(g.busy) / u, 1)};
      for (std::size_t i = 0; i < kNumStallReasons; ++i) {
        row.push_back(fmt_pct(static_cast<double>(g.stalls[i]) / u, 1));
      }
      table.add_row(row);
    }
    out += table.render();
  }

  out += "\nstate of the art (Table III)\n";
  {
    TextTable table({"design", "lanes", "fmax GHz", "peak GFLOPS", "GFLOPS/W",
                     "GFLOPS/mm2", "note"});
    for (std::size_t c = 1; c < 6; ++c) table.align_right(c);
    for (const ConfigPoint& p : config_points(ds)) {
      table.add_row({p.label, std::to_string(p.lanes), fmt_f(p.freq_ghz, 2),
                     fmt_f(p.peak_gflops, 1), fmt_f(p.peak_gflops_per_w, 1),
                     fmt_f(p.peak_gflops_per_mm2, 2),
                     "peak kernel: " + p.peak_kernel});
    }
    const SoaPpaRow v = vitruvius_row();
    table.add_rule();
    table.add_row({v.name, std::to_string(v.lanes), fmt_f(v.freq_ghz, 2),
                   fmt_f(v.max_perf_gflops, 1),
                   fmt_f(v.energy_eff_gflops_w, 1),
                   fmt_f(v.area_eff_gflops_mm2, 2), v.note});
    table.add_row({"NEC VE (prev. gen)", "-", "-", "-", "-",
                   fmt_f(nec_ve_area_eff_gflops_mm2(), 2),
                   "area efficiency quoted in paper SIV-E"});
    out += table.render();
  }
  return out;
}

std::string render_rows_csv(const Dataset& ds) {
  std::string out =
      "config,kernel,bytes_per_lane,seed,total_lanes,vlen_bits,cycles,flops,"
      "fpu_util,flop_per_cycle,freq_ghz,area_mm2,power_w,gflops,gflops_per_w,"
      "gflops_per_mm2,fpu_busy_slots";
  for (std::size_t i = 0; i < kNumStallReasons; ++i) {
    out += ",stall_";
    out += stall_reason_name(static_cast<StallReason>(i));
  }
  out += ",batched_iterations,batch_clamps,warmup_projected\n";
  for (const Row& r : ds.rows) {
    out += r.label + "," + r.kernel + "," + unum(r.bytes_per_lane) + "," +
           unum(r.seed) + "," + unum(r.stats.total_lanes) + "," +
           unum(r.vlen_bits) + "," + unum(r.stats.cycles) + "," +
           unum(r.stats.flops) + "," + fnum(r.stats.fpu_util()) + "," +
           fnum(r.stats.flop_per_cycle()) + "," + fnum(r.freq_ghz) + "," +
           fnum(r.area_mm2) + "," + fnum(r.power_w) + "," + fnum(r.gflops) +
           "," + fnum(r.gflops_per_w) + "," + fnum(r.gflops_per_mm2) + "," +
           unum(r.stats.fpu_busy_slots);
    for (std::size_t i = 0; i < kNumStallReasons; ++i) {
      out += "," + unum(r.stats.stall_cycles[i]);
    }
    out += "," + unum(r.stats.batched_iterations) + "," +
           unum(r.stats.batch_clamps) + "," + unum(r.stats.warmup_projected);
    out += "\n";
  }
  return out;
}

double cost_power(const Row& r) { return r.power_w; }
double cost_area(const Row& r) { return r.area_mm2; }

void pareto_artifacts(const Dataset& ds, std::vector<Artifact>& arts,
                      const std::string& stem, const std::string& cost_name,
                      double (*cost)(const Row&)) {
  const std::vector<const Row*> pts = best_points(ds);
  const std::vector<bool> on = pareto_mask(pts, cost);

  std::string csv = "config,kernel," + cost_name + ",gflops,frontier\n";
  for (std::size_t i = 0; i < pts.size(); ++i) {
    csv += pts[i]->label + "," + pts[i]->kernel + "," + fnum(cost(*pts[i])) +
           "," + fnum(pts[i]->gflops) + "," + (on[i] ? "1" : "0") + "\n";
  }
  arts.push_back({stem + ".csv", std::move(csv)});

  double x_hi = 0.0, y_hi = 0.0;
  for (const Row* p : pts) {
    x_hi = std::max(x_hi, cost(*p));
    y_hi = std::max(y_hi, p->gflops);
  }
  SvgPlot plot(640, 480, "Performance vs " + cost_name, cost_name,
               "DP-GFLOPS");
  plot.set_x_range(0.0, x_hi * 1.05 + 1e-9);
  plot.set_y_range(0.0, y_hi * 1.05 + 1e-9);
  // Frontier polyline first (under the points), sorted by cost.
  std::vector<std::pair<double, double>> frontier;
  for (std::size_t i = 0; i < pts.size(); ++i) {
    if (on[i]) frontier.emplace_back(cost(*pts[i]), pts[i]->gflops);
  }
  std::sort(frontier.begin(), frontier.end());
  plot.polyline(frontier, "#c44e52", 1.5, /*dashed=*/true);
  for (std::size_t i = 0; i < pts.size(); ++i) {
    plot.circle(cost(*pts[i]), pts[i]->gflops, on[i] ? 4.0 : 3.0,
                on[i] ? "#c44e52" : "#4c72b0", /*filled=*/on[i]);
    if (on[i]) {
      plot.label(cost(*pts[i]), pts[i]->gflops,
                 " " + pts[i]->label + " " + pts[i]->kernel, 9);
    }
  }
  arts.push_back({stem + ".svg", plot.render()});
}

void scaling_artifacts(const Dataset& ds, std::vector<Artifact>& arts) {
  const std::vector<ConfigPoint> pts = config_points(ds);
  std::string csv = "config,family,total_lanes,freq_ghz,peak_gflops,"
                    "peak_kernel\n";
  for (const ConfigPoint& p : pts) {
    csv += p.label + "," + p.family + "," + unum(p.lanes) + "," +
           fnum(p.freq_ghz) + "," + fnum(p.peak_gflops) + "," + p.peak_kernel +
           "\n";
  }
  arts.push_back({"scaling.csv", std::move(csv)});

  std::uint64_t lanes_lo = UINT64_MAX, lanes_hi = 1;
  for (const ConfigPoint& p : pts) {
    lanes_lo = std::min(lanes_lo, p.lanes);
    lanes_hi = std::max(lanes_hi, p.lanes);
  }
  if (pts.empty()) lanes_lo = 1;
  SvgPlot plot(640, 480, "Max frequency vs lane count", "total lanes",
               "fmax (GHz)");
  plot.set_x_log2(true);
  plot.set_x_range(static_cast<double>(lanes_lo) / 1.3,
                   static_cast<double>(lanes_hi) * 1.3);
  plot.set_y_range(0.0, 1.6);
  // One curve per machine family, points in lane order (the dataset sort).
  std::vector<std::string> families;
  for (const ConfigPoint& p : pts) {
    if (std::find(families.begin(), families.end(), p.family) ==
        families.end()) {
      families.push_back(p.family);
    }
  }
  std::sort(families.begin(), families.end());
  const std::array<std::string_view, 2> fam_colors = {"#4c72b0", "#dd8452"};
  std::vector<std::pair<std::string, std::string>> legend;
  for (std::size_t f = 0; f < families.size(); ++f) {
    const std::string_view color = fam_colors[f % fam_colors.size()];
    std::vector<std::pair<double, double>> curve;
    for (const ConfigPoint& p : pts) {
      if (p.family != families[f]) continue;
      curve.emplace_back(static_cast<double>(p.lanes), p.freq_ghz);
      plot.circle(static_cast<double>(p.lanes), p.freq_ghz, 3.5, color);
    }
    std::sort(curve.begin(), curve.end());
    plot.polyline(curve, color, 1.5);
    legend.emplace_back(families[f], std::string(color));
  }
  plot.legend(legend);
  arts.push_back({"scaling.svg", plot.render()});
}

void stalls_artifacts(const Dataset& ds, std::vector<Artifact>& arts) {
  const std::vector<StallGroup> groups = stall_groups(ds);
  std::string csv = "config,kernel,busy_frac";
  for (std::size_t i = 0; i < kNumStallReasons; ++i) {
    csv += ",";
    csv += stall_reason_name(static_cast<StallReason>(i));
    csv += "_frac";
  }
  csv += "\n";
  for (const StallGroup& g : groups) {
    const double u = g.universe > 0 ? static_cast<double>(g.universe) : 1.0;
    csv += g.label + "," + g.kernel + "," +
           fnum(static_cast<double>(g.busy) / u);
    for (std::size_t i = 0; i < kNumStallReasons; ++i) {
      csv += ',';
      csv += fnum(static_cast<double>(g.stalls[i]) / u);
    }
    csv += "\n";
  }
  arts.push_back({"stalls.csv", std::move(csv)});

  // Stacked horizontal bars, one row per (config, kernel); the busy
  // segment leads, then the stall reasons in enum order. Segments tile
  // [0, 1] exactly — the attribution partition identity, visually.
  const double row_pitch = 30.0, bar_h = 12.0;
  const unsigned height =
      static_cast<unsigned>(32 + 48 + 30 + row_pitch * groups.size());
  SvgPlot plot(860, height, "FPU byte-slot breakdown", "fraction of slots",
               "");
  plot.set_x_range(0.0, 1.0);
  double y = plot.plot_top() + 24.0;
  for (const StallGroup& g : groups) {
    const double u = g.universe > 0 ? static_cast<double>(g.universe) : 1.0;
    plot.text_px(plot.plot_left(), y - 3.0, g.label + " " + g.kernel, 10);
    double x = 0.0;
    const double busy = static_cast<double>(g.busy) / u;
    plot.bar(x, x + busy, y, bar_h, kBusyColor);
    x += busy;
    for (std::size_t i = 0; i < kNumStallReasons; ++i) {
      const double frac = static_cast<double>(g.stalls[i]) / u;
      if (frac > 0.0) plot.bar(x, x + frac, y, bar_h, kStallColors[i]);
      x += frac;
    }
    y += row_pitch;
  }
  std::vector<std::pair<std::string, std::string>> legend;
  legend.emplace_back("busy", std::string(kBusyColor));
  for (std::size_t i = 0; i < kNumStallReasons; ++i) {
    legend.emplace_back(
        std::string(stall_reason_name(static_cast<StallReason>(i))),
        std::string(kStallColors[i]));
  }
  plot.legend(legend);
  arts.push_back({"stalls.svg", plot.render()});
}

void soa_artifacts(const Dataset& ds, std::vector<Artifact>& arts) {
  const std::vector<SoaProcessor> soa = fig1_landscape();
  const std::vector<ConfigPoint> ours = config_points(ds);

  std::string csv = "name,vlen_bits,fpus,riscv,source\n";
  for (const SoaProcessor& p : soa) {
    csv += p.name + "," + unum(p.vlen_bits) + "," + unum(p.fpus) + "," +
           (p.riscv ? "1" : "0") + ",soa\n";
  }
  for (const ConfigPoint& p : ours) {
    csv += p.label + "," + unum(p.vlen_bits) + "," + unum(p.lanes) +
           ",1,this-run\n";
  }
  arts.push_back({"soa_landscape.csv", std::move(csv)});

  std::uint64_t v_lo = UINT64_MAX, v_hi = 1, f_lo = UINT64_MAX, f_hi = 1;
  const auto widen = [&](std::uint64_t vlen, std::uint64_t fpus) {
    v_lo = std::min(v_lo, vlen);
    v_hi = std::max(v_hi, vlen);
    f_lo = std::min(f_lo, fpus);
    f_hi = std::max(f_hi, fpus);
  };
  for (const SoaProcessor& p : soa) widen(p.vlen_bits, p.fpus);
  for (const ConfigPoint& p : ours) widen(p.vlen_bits, p.lanes);

  SvgPlot plot(720, 520, "Vector-processor landscape (paper Fig. 1)",
               "VLEN (bits)", "FPUs per vector instruction");
  plot.set_x_log2(true);
  plot.set_y_log2(true);
  plot.set_x_range(static_cast<double>(v_lo) / 2.0,
                   static_cast<double>(v_hi) * 2.0);
  plot.set_y_range(static_cast<double>(f_lo) / 2.0,
                   static_cast<double>(f_hi) * 2.0);
  for (const SoaProcessor& p : soa) {
    plot.circle(static_cast<double>(p.vlen_bits), static_cast<double>(p.fpus),
                4.0, p.riscv ? "#4c72b0" : "#9e9e9e", /*filled=*/p.riscv);
    plot.label(static_cast<double>(p.vlen_bits), static_cast<double>(p.fpus),
               " " + p.name, 9);
  }
  for (const ConfigPoint& p : ours) {
    plot.circle(static_cast<double>(p.vlen_bits), static_cast<double>(p.lanes),
                5.0, "#c44e52");
    plot.label(static_cast<double>(p.vlen_bits), static_cast<double>(p.lanes),
               " " + p.label, 10, "start", "#c44e52");
  }
  plot.legend({{"RISC-V", "#4c72b0"},
               {"other ISA", "#9e9e9e"},
               {"this run", "#c44e52"}});
  arts.push_back({"soa_landscape.svg", plot.render()});
}

/// `obj[key]`, or a ContractViolation naming the missing `parent.key`.
const store::JsonValue& member(const store::JsonValue& obj,
                               std::string_view parent, std::string_view key) {
  const store::JsonValue* v = obj.get(key);
  if (v == nullptr) {
    std::string path(parent);
    if (!path.empty()) path += '.';
    path += key;
    fail("report record is missing '" + path + "'");
  }
  return *v;
}

}  // namespace

Dataset dataset_from_store(const std::vector<store::StoredResult>& entries,
                           const std::string& version,
                           const RowFilter& filter) {
  Dataset ds;
  for (const store::StoredResult& e : entries) {
    if (!version.empty() && e.version != version) continue;
    Row row;
    row.label = e.label.empty() ? e.config : e.label;
    row.kernel = e.kernel;
    row.bytes_per_lane = e.bytes_per_lane;
    row.seed = e.seed;
    row.stats = e.stats;
    const MachineConfig cfg = config_from_canonical(e.config);
    row.family = cfg.kind == MachineKind::kAra2 ? "ara2" : "araxl";
    row.vlen_bits = cfg.effective_vlen();
    if (!filter_accepts(filter, row)) continue;
    fill_ppa(row, cfg);
    ds.rows.push_back(std::move(row));
  }
  sort_rows(ds.rows);
  return ds;
}

Dataset dataset_from_json_report(std::string_view doc,
                                 const RowFilter& filter) {
  const store::JsonValue root = store::parse_json(doc);
  const store::JsonValue* results = root.get("results");
  check(results != nullptr &&
            results->kind == store::JsonValue::Kind::kArray,
        "not a driver JSON report ({\"results\":[...]})");
  Dataset ds;
  for (const store::JsonValue& rec : results->items) {
    const store::JsonValue* ok = rec.get("ok");
    if (ok == nullptr || !ok->as_bool()) continue;
    const store::JsonValue* cfg = rec.get("config");
    const store::JsonValue* stats = rec.get("stats");
    const store::JsonValue* ppa = rec.get("ppa");
    check(cfg != nullptr && stats != nullptr && ppa != nullptr,
          "report record is missing config/stats/ppa");
    Row row;
    row.label = member(*cfg, "config", "label").as_string();
    row.family = member(*cfg, "config", "kind").as_string();
    row.kernel = member(rec, "", "kernel").as_string();
    row.bytes_per_lane = member(rec, "", "bytes_per_lane").as_u64();
    row.seed = member(rec, "", "seed").as_u64();
    row.vlen_bits = member(*cfg, "config", "vlen_bits").as_u64();
    // Default reports carry deterministic zeros for the opt-in fields;
    // --provenance reports carry the live values.
    row.stats = store::read_stats_fields(*stats, store::StatsForm::kReport);
    row.stats.total_lanes = member(*cfg, "config", "total_lanes").as_u64();
    row.freq_ghz = member(*ppa, "ppa", "freq_ghz").as_double();
    row.area_mm2 = member(*ppa, "ppa", "area_mm2").as_double();
    row.power_w = member(*ppa, "ppa", "power_w").as_double();
    row.gflops = member(*ppa, "ppa", "gflops").as_double();
    row.gflops_per_w = member(*ppa, "ppa", "gflops_per_w").as_double();
    row.gflops_per_mm2 =
        row.area_mm2 > 0.0 ? row.gflops / row.area_mm2 : 0.0;
    if (!filter_accepts(filter, row)) continue;
    ds.rows.push_back(std::move(row));
  }
  sort_rows(ds.rows);
  return ds;
}

std::vector<Artifact> build_report(const Dataset& ds) {
  std::vector<Artifact> arts;
  arts.push_back({"summary.txt", render_summary(ds)});
  arts.push_back({"report.csv", render_rows_csv(ds)});
  pareto_artifacts(ds, arts, "pareto_perf_w", "power_w", cost_power);
  pareto_artifacts(ds, arts, "pareto_perf_mm2", "area_mm2", cost_area);
  scaling_artifacts(ds, arts);
  stalls_artifacts(ds, arts);
  soa_artifacts(ds, arts);
  return arts;
}

}  // namespace araxl::analysis
