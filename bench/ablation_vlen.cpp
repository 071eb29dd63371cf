// Ablation: the value of long vector registers.
//
// The paper's central design premise is that a larger VRF (up to the RVV
// ceiling of 64 Kibit/register) buys latency tolerance and lower issue
// pressure. This ablation fixes the 64-lane AraXL datapath and the problem
// size, and sweeps only VLEN: shorter registers force more strip-mining
// iterations and more vector-instruction setups for the same work.
#include <cstdio>

#include "bench_util.hpp"
#include "common/fmt.hpp"
#include "common/table.hpp"

using namespace araxl;

int main(int, char**) {
  bench::print_header("Ablation: VLEN (register length) at fixed datapath",
                      "design-choice study (README, Modeling notes); "
                      "extends paper SIV-B");

  const std::vector<std::uint64_t> vlens = {65536, 32768, 16384, 8192, 4096};

  driver::SweepSpec spec;
  for (const std::uint64_t vlen : vlens) {
    MachineConfig cfg = MachineConfig::araxl(64);
    cfg.vlen_bits = vlen;
    cfg.validate();
    spec.configs.push_back({"vlen=" + std::to_string(vlen), cfg});
  }
  spec.kernels = {"fmatmul", "fdotproduct"};
  // Fixed problem: the paper's 512 B/lane point, independent of VLEN.
  spec.bytes_per_lane = {512};
  const bench::SweepResults results = bench::run_sweep(spec);

  for (const std::string& kname : spec.kernels) {
    TextTable table({"VLEN [bits]", "bits/lane", "cycles", "FPU util",
                     "vs 64Kibit"});
    for (std::size_t c = 0; c < 5; ++c) table.align_right(c);

    const Cycle best =
        results.stats("vlen=65536", kname, 512).cycles;
    for (const std::uint64_t vlen : vlens) {
      const RunStats& s =
          results.stats("vlen=" + std::to_string(vlen), kname, 512);
      table.add_row({std::to_string(vlen), std::to_string(vlen / 64),
                     fmt_group(s.cycles), fmt_pct(s.fpu_util(), 1),
                     fmt_f(static_cast<double>(s.cycles) / best, 2) + "x"});
    }
    std::printf("--- %s (64L AraXL, fixed problem size) ---\n%s\n",
                kname.c_str(), table.render().c_str());
  }
  std::printf("expected shape: cycles grow and utilization falls as VLEN "
              "shrinks — the motivation for reaching the RVV 64 Kibit "
              "ceiling.\n");
  return 0;
}
