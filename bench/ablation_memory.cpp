// Ablation: memory-latency tolerance of long vectors.
//
// The paper's scalability argument rests on long-vector workloads
// tolerating interconnect/memory latency ("we prioritize relaxing the
// timing of all top-level interconnects over their latency"). This
// ablation sweeps the L2 latency far beyond the +8 cycles of Fig. 7a and
// reports the utilization surface per kernel, at both a medium and a long
// vector length.
#include <algorithm>
#include <cstdio>

#include "bench_util.hpp"
#include "common/fmt.hpp"
#include "common/table.hpp"

using namespace araxl;

int main(int argc, char** argv) {
  const bool quick = bench::has_flag(argc, argv, "--quick");
  bench::print_header("Ablation: L2 latency tolerance vs vector length",
                      "design-choice study (README, Modeling notes); "
                      "extends paper Fig. 7a");

  const std::vector<unsigned> latencies =
      quick ? std::vector<unsigned>{12, 96} : std::vector<unsigned>{12, 24, 48, 96};

  driver::SweepSpec spec;
  for (const unsigned lat : latencies) {
    MachineConfig cfg = MachineConfig::araxl(64);
    cfg.l2_latency = lat;
    spec.configs.push_back({"L2=" + std::to_string(lat), cfg});
  }
  spec.kernels = {"fmatmul", "fdotproduct", "stream_triad"};
  spec.bytes_per_lane = {128, 512};
  const bench::SweepResults results = bench::run_sweep(spec);

  for (const std::uint64_t bpl : spec.bytes_per_lane) {
    TextTable table({"kernel", "L2=12", "L2=24", "L2=48", "L2=96"});
    for (std::size_t c = 1; c < 5; ++c) table.align_right(c);
    for (const std::string& kname : spec.kernels) {
      std::vector<std::string> row{kname};
      for (const unsigned lat : {12u, 24u, 48u, 96u}) {
        if (std::find(latencies.begin(), latencies.end(), lat) == latencies.end()) {
          row.push_back("-");
          continue;
        }
        const RunStats& s =
            results.stats("L2=" + std::to_string(lat), kname, bpl);
        row.push_back(fmt_pct(s.fpu_util(), 1));
      }
      table.add_row(std::move(row));
    }
    std::printf("--- FPU utilization at %llu B/lane ---\n%s\n",
                static_cast<unsigned long long>(bpl), table.render().c_str());
  }
  std::printf("expected shape: the 512 B/lane column degrades far less than "
              "128 B/lane — longer vectors hide more memory latency.\n");
  return 0;
}
