// google-benchmark microbenchmarks of the simulator itself: how fast each
// engine retires simulated cycles and instructions. Not a paper figure — a
// development aid for keeping the reproduction usable, and the measurement
// behind the event-driven engine's speedup claims (see README.md).
//
// BM_AxpyCycles runs the default (event-driven) engine; the *Oracle
// variants pin the cycle-stepped reference so the sim_cycles/s counters of
// the two can be compared directly.
//
// `bench_sim_speed --emit-json <path>` skips google-benchmark and writes
// the sim-speed trajectory file instead: sim_cycles/s for a fixed kernel x
// B/lane grid under both engines, stamped with the build's git revision.
// CI regenerates it on every push, uploads it as an artifact, and
// tools/diff_sim_speed.py gates the event/oracle speedup ratios against
// the committed baseline (BENCH_sim_speed.json) with a +-20% tolerance —
// ratios, because absolute rates track the host, while the ratio tracks
// the engine. Each ratio (and metrics_overhead_ratio) is the median over
// pairs of interleaved windows, so host drift between samples stays out
// of it.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <fstream>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "kernels/common.hpp"
#include "machine/machine.hpp"
#include "obs/metrics.hpp"
#include "store/version.hpp"

namespace araxl {
namespace {

Program build_axpy(const MachineConfig& cfg, std::uint64_t n) {
  MemLayout layout;
  const std::uint64_t x_addr = layout.alloc(n * 8);
  const std::uint64_t y_addr = layout.alloc(n * 8);
  ProgramBuilder pb(cfg.effective_vlen(), "axpy");
  std::uint64_t done = 0;
  while (done < n) {
    const std::uint64_t vl = pb.vsetvli(n - done, Sew::k64, kLmul4);
    pb.vle(8, x_addr + done * 8);
    pb.vle(16, y_addr + done * 8);
    pb.vfmacc_vf(16, 1.5, 8);
    pb.vse(16, y_addr + done * 8);
    done += vl;
  }
  return pb.take();
}

void axpy_cycles(benchmark::State& state, TimingMode mode) {
  MachineConfig cfg = MachineConfig::araxl(static_cast<unsigned>(state.range(0)));
  cfg.timing_mode = mode;
  Machine m(cfg);
  const Program prog = build_axpy(cfg, 16384);

  std::uint64_t cycles = 0;
  for (auto _ : state) {
    const RunStats stats = m.run(prog);
    cycles += stats.cycles;
    benchmark::DoNotOptimize(stats.cycles);
  }
  state.counters["sim_cycles/s"] = benchmark::Counter(
      static_cast<double>(cycles), benchmark::Counter::kIsRate);
}

void BM_AxpyCycles(benchmark::State& state) {
  axpy_cycles(state, TimingMode::kEventDriven);
}
BENCHMARK(BM_AxpyCycles)->Arg(8)->Arg(64)->Unit(benchmark::kMillisecond);

void BM_AxpyCyclesOracle(benchmark::State& state) {
  axpy_cycles(state, TimingMode::kCycleStepped);
}
BENCHMARK(BM_AxpyCyclesOracle)->Arg(8)->Arg(64)->Unit(benchmark::kMillisecond);

void BM_KernelBuild(benchmark::State& state) {
  const MachineConfig cfg = MachineConfig::araxl(16);
  for (auto _ : state) {
    Machine m(cfg);
    auto kernel = make_kernel("fmatmul");
    const Program prog = kernel->build(m, 128);
    benchmark::DoNotOptimize(prog.ops.size());
  }
}
BENCHMARK(BM_KernelBuild)->Unit(benchmark::kMillisecond);

void fmatmul_sim(benchmark::State& state, TimingMode mode) {
  MachineConfig cfg = MachineConfig::araxl(16);
  cfg.timing_mode = mode;
  Machine m(cfg);
  auto kernel = make_kernel("fmatmul");
  const Program prog = kernel->build(m, 64);
  std::uint64_t cycles = 0;
  for (auto _ : state) {
    const RunStats stats = m.run(prog);
    cycles += stats.cycles;
    benchmark::DoNotOptimize(stats.cycles);
  }
  state.counters["sim_cycles/s"] = benchmark::Counter(
      static_cast<double>(cycles), benchmark::Counter::kIsRate);
}

void BM_FmatmulSim(benchmark::State& state) {
  fmatmul_sim(state, TimingMode::kEventDriven);
}
BENCHMARK(BM_FmatmulSim)->Unit(benchmark::kMillisecond);

void BM_FmatmulSimOracle(benchmark::State& state) {
  fmatmul_sim(state, TimingMode::kCycleStepped);
}
BENCHMARK(BM_FmatmulSimOracle)->Unit(benchmark::kMillisecond);

// ---- sim-speed trajectory (--emit-json) -------------------------------------

/// Simulated cycles per wall second over one window of back-to-back runs of
/// `prog` on `m` (at least 0.06 s, and at least one run).
double window_cycles_per_s(Machine& m, const Program& prog,
                           obs::MetricsRegistry* metrics = nullptr) {
  const auto t0 = std::chrono::steady_clock::now();
  std::uint64_t total = 0;
  double elapsed = 0.0;
  do {
    total += m.run(prog, nullptr, nullptr, metrics).cycles;
    elapsed =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
  } while (elapsed < 0.06);
  return static_cast<double>(total) / elapsed;
}

/// Two rates measured in interleaved windows. `best_*` is each side's
/// fastest window: the hosts this runs on (CI runners, shared containers)
/// suffer multi-x interference spikes, and interference only ever slows a
/// run down, so the fastest window is the closest to the true rate.
/// `ratio` is the median over the pairs of (a window / the b window next to
/// it): host drift between pairs cancels inside each pair instead of
/// landing in the ratio, and the median drops a pair that a spike split.
struct PairedRates {
  double best_a = 0.0;
  double best_b = 0.0;
  double ratio = 0.0;
};

/// Runs kPairs pairs of windows, `a` first in even pairs and `b` first in
/// odd ones, after one warmup call of each (page faults, allocator steady
/// state).
PairedRates measure_pairs(const std::function<double()>& a,
                          const std::function<double()>& b) {
  constexpr int kPairs = 9;
  (void)a();
  (void)b();
  PairedRates out;
  std::vector<double> ratios;
  for (int p = 0; p < kPairs; ++p) {
    double ra = 0.0;
    double rb = 0.0;
    if (p % 2 == 0) {
      ra = a();
      rb = b();
    } else {
      rb = b();
      ra = a();
    }
    out.best_a = std::max(out.best_a, ra);
    out.best_b = std::max(out.best_b, rb);
    ratios.push_back(ra / rb);
  }
  std::nth_element(ratios.begin(), ratios.begin() + kPairs / 2, ratios.end());
  out.ratio = ratios[kPairs / 2];
  return out;
}

/// Cost of carrying a live metrics registry, as (rate without) / (rate
/// with) on the event-driven AXPY point — 1.0 means free, 1.10 means
/// attaching metrics costs 10%. The metrics-off path itself is gated
/// implicitly: its null-pointer checks are part of every other entry's
/// event_sim_cycles_per_s, so a regression there moves the speedup ratios
/// this file already gates.
double measure_metrics_overhead_ratio() {
  MachineConfig cfg = MachineConfig::araxl(8);
  Machine m(cfg);
  const Program prog = build_axpy(cfg, 16384);
  obs::MetricsRegistry metrics;
  return measure_pairs([&] { return window_cycles_per_s(m, prog); },
                       [&] { return window_cycles_per_s(m, prog, &metrics); })
      .ratio;
}

struct TrajectoryEntry {
  std::string name;
  unsigned lanes;
  std::uint64_t bpl;
  double event_cycles_per_s;
  double oracle_cycles_per_s;
  double speedup;  ///< median per-pair event/oracle ratio
  std::uint64_t batched_iterations;
  double stall_frac;  ///< attributed stall slots / slot universe
};

/// Measures one trajectory point under both engines, in interleaved
/// windows. `bpl == 0` selects the hand-built AXPY program; otherwise
/// `name` is a registry kernel built at that B/lane.
TrajectoryEntry measure_entry(const char* name, unsigned lanes,
                              std::uint64_t bpl) {
  TrajectoryEntry e;
  e.name = name;
  e.lanes = lanes;
  e.bpl = bpl;
  std::unique_ptr<Machine> machines[2];
  Program progs[2];
  const TimingMode modes[2] = {TimingMode::kEventDriven,
                               TimingMode::kCycleStepped};
  for (int i = 0; i < 2; ++i) {
    MachineConfig cfg = MachineConfig::araxl(lanes);
    cfg.timing_mode = modes[i];
    machines[i] = std::make_unique<Machine>(cfg);
    if (bpl == 0) {
      progs[i] = build_axpy(cfg, 16384);
    } else {
      progs[i] = make_kernel(name)->build(*machines[i], bpl);
    }
  }
  const PairedRates rates = measure_pairs(
      [&] { return window_cycles_per_s(*machines[0], progs[0]); },
      [&] { return window_cycles_per_s(*machines[1], progs[1]); });
  e.event_cycles_per_s = rates.best_a;
  e.oracle_cycles_per_s = rates.best_b;
  e.speedup = rates.ratio;

  const RunStats s = machines[0]->run(progs[0]);
  e.batched_iterations = s.batched_iterations;
  // Unlike the rates, the stall attribution is a pure simulation
  // invariant — deterministic and host-independent — so the committed
  // trajectory can gate it exactly.
  std::uint64_t stalls = 0;
  for (const std::uint64_t v : s.stall_cycles) stalls += v;
  e.stall_frac = static_cast<double>(stalls) /
                 static_cast<double>(s.cycles * s.total_lanes * 8);
  return e;
}

int emit_trajectory(const char* path) {
  std::vector<TrajectoryEntry> entries;
  entries.push_back(measure_entry("axpy", 8, 0));
  // Registry axpy at a long AVL: 64-lane batching only engages once the
  // run is deep enough for warmup projection, which the hand-built bpl=0
  // program (16384 elements = 2 strips at 64 lanes) never reaches. Deep
  // enough (bpl=16384 is 128 strips) that the batched steady state, not
  // the warmup, dominates the measured rate.
  entries.push_back(measure_entry("axpy", 64, 16384));
  entries.push_back(measure_entry("fdotproduct", 8, 16384));
  entries.push_back(measure_entry("stream_triad", 8, 32768));
  entries.push_back(measure_entry("jacobi2d", 16, 256));
  entries.push_back(measure_entry("jacobi2d", 64, 256));
  entries.push_back(measure_entry("fmatmul", 16, 64));
  // The two kernels that dominate a cold Fig. 6 sweep, each batching whole
  // rows: fconv2d in bus-phase super-periods, softmax at its row period.
  entries.push_back(measure_entry("fconv2d", 16, 256));
  entries.push_back(measure_entry("softmax", 64, 512));

  std::string out = "{\n";
  out += "  \"revision\": \"" + std::string(store::git_revision()) + "\",\n";
  out += "  \"entries\": [\n";
  for (std::size_t i = 0; i < entries.size(); ++i) {
    const TrajectoryEntry& e = entries[i];
    char buf[256];
    std::snprintf(buf, sizeof buf,
                  "    {\"name\": \"%s\", \"lanes\": %u, \"bpl\": %llu, "
                  "\"event_sim_cycles_per_s\": %.0f, "
                  "\"oracle_sim_cycles_per_s\": %.0f, "
                  "\"speedup\": %.3f, \"batched_iterations\": %llu, "
                  "\"stall_frac\": %.6f}%s\n",
                  e.name.c_str(), e.lanes,
                  static_cast<unsigned long long>(e.bpl), e.event_cycles_per_s,
                  e.oracle_cycles_per_s, e.speedup,
                  static_cast<unsigned long long>(e.batched_iterations),
                  e.stall_frac, i + 1 == entries.size() ? "" : ",");
    out += buf;
  }
  out += "  ],\n";
  char ratio_buf[64];
  std::snprintf(ratio_buf, sizeof ratio_buf,
                "  \"metrics_overhead_ratio\": %.3f\n",
                measure_metrics_overhead_ratio());
  out += ratio_buf;
  out += "}\n";
  std::ofstream f(path, std::ios::binary);
  if (!f.good()) return 1;
  f.write(out.data(), static_cast<std::streamsize>(out.size()));
  return f.good() ? 0 : 1;
}

}  // namespace
}  // namespace araxl

int main(int argc, char** argv) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], "--emit-json") == 0) {
      return araxl::emit_trajectory(argv[i + 1]);
    }
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
