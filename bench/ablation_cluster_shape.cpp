// Ablation: cluster shape at a fixed 64-lane machine.
//
// The paper chooses the 4-lane Ara2 cluster as AraXL's building block
// because it is the most energy-efficient Ara2 configuration (§III-A).
// This ablation holds the total datapath at 64 lanes and varies the split:
// 32 clusters x 2 lanes (expressed hierarchically as 2 groups x 16 — a
// single flat ring caps at the paper's 16 stops), 16 x 4 (the paper),
// 8 x 8. Fewer, fatter clusters shorten the ring (faster reductions) but
// grow the per-cluster A2A units the design is trying to avoid; more,
// thinner clusters do the opposite.
// The timing model captures the ring-length effects; the area argument for
// 4-lane clusters comes from the Ara2 paper's efficiency data.
#include <cstdio>

#include "bench_util.hpp"
#include "common/fmt.hpp"
#include "common/table.hpp"

using namespace araxl;

int main(int argc, char** argv) {
  const bool quick = bench::has_flag(argc, argv, "--quick");
  bench::print_header("Ablation: cluster shape (clusters x lanes) at 64 lanes",
                      "design-choice study (README, Modeling notes); "
                      "paper fixes 4-lane clusters");

  const std::uint64_t bpl = quick ? 128 : 512;

  driver::SweepSpec spec;
  spec.configs = {
      {"2g x 16c x 2L", MachineConfig::araxl_hier(2, 16, 2)},
      {"16c x 4L (paper)", MachineConfig::araxl_shaped(16, 4)},
      {"8c x 8L", MachineConfig::araxl_shaped(8, 8)},
  };
  spec.kernels = {"fmatmul", "fdotproduct", "softmax", "fconv2d"};
  spec.bytes_per_lane = {bpl};
  const bench::SweepResults results = bench::run_sweep(spec);

  TextTable table({"kernel", "2g x 16c x 2L", "16c x 4L (paper)", "8c x 8L"});
  table.align_right(1);
  table.align_right(2);
  table.align_right(3);
  for (const std::string& kname : spec.kernels) {
    std::vector<std::string> row{kname};
    for (const driver::ConfigPoint& c : spec.configs) {
      const RunStats& s = results.stats(c.label, kname, bpl);
      row.push_back(fmt_f(s.flop_per_cycle(), 1) + " F/c, " +
                    fmt_pct(s.fpu_util(), 0));
    }
    table.add_row(std::move(row));
  }
  std::printf("%s\n", table.render().c_str());
  std::printf("expected shape: compute-bound kernels are shape-insensitive; "
              "reduction kernels (fdotproduct, softmax) prefer fewer, fatter "
              "clusters because the ring log-tree shortens.\n");
  return 0;
}
