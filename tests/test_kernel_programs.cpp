// Structural tests of the generated kernel programs: the Table-I
// instruction-mix accounting (FPU slots and DP-FLOP per element) is a
// property of the emitted instruction stream, so pin it there — if a
// kernel's structure drifts, the Max-Perf column of table1 and the Fig. 6
// utilization interpretation drift with it.
#include <gtest/gtest.h>

#include "kernels/common.hpp"
#include "kernels/exp_core.hpp"
#include "machine/machine.hpp"

namespace araxl {
namespace {

struct OpCounts {
  std::uint64_t fpu = 0;
  std::uint64_t fma = 0;
  std::uint64_t sldu = 0;
  std::uint64_t loads = 0;
  std::uint64_t stores = 0;
  std::uint64_t reductions = 0;
  std::uint64_t vsetvli = 0;
  std::uint64_t total_v = 0;
};

OpCounts count_ops(const Program& p) {
  OpCounts c;
  for (const ProgOp& op : p.ops) {
    const auto* v = std::get_if<VInstr>(&op);
    if (v == nullptr) continue;
    ++c.total_v;
    const OpSpec& spec = op_spec(v->op);
    if (v->op == Op::kVsetvli) ++c.vsetvli;
    if (spec.unit == Unit::kFpu) ++c.fpu;
    if (spec.flops_per_elem == 2) ++c.fma;
    if (spec.unit == Unit::kSldu) ++c.sldu;
    if (spec.reads_mem) ++c.loads;
    if (spec.writes_mem) ++c.stores;
    if (spec.is_reduction) ++c.reductions;
  }
  return c;
}

TEST(KernelPrograms, FmatmulIsPureFmaStream) {
  Machine m(MachineConfig::araxl(16));
  auto k = make_kernel("fmatmul");
  const OpCounts c = count_ops(k->build(m, 512));
  // 1 strip x (64/4 row blocks) x 256 k-steps x 4 FMAs.
  EXPECT_EQ(c.fma, 16u * 256 * 4);
  EXPECT_EQ(c.fpu, c.fma);                  // no non-FMA FPU work
  EXPECT_EQ(c.loads, 16u * 256);            // one B-row load per k per block
  EXPECT_EQ(c.stores, 64u);                 // one store per C row
  EXPECT_EQ(c.sldu, 0u);
  EXPECT_EQ(c.reductions, 0u);
}

TEST(KernelPrograms, Fconv2dMixPerOutputRow) {
  Machine m(MachineConfig::araxl(16));
  auto k = make_kernel("fconv2d");
  const OpCounts c = count_ops(k->build(m, 512));
  // Paper structure: per output row, 7x7 FMAs and 7x6 slides; 2 strips at
  // 512 B/lane with LMUL=2.
  const std::uint64_t rows = 256 * 2;
  EXPECT_EQ(c.fma, rows * 49);
  EXPECT_EQ(c.sldu, rows * 42);
  EXPECT_EQ(c.loads, rows * 7);
  EXPECT_EQ(c.stores, rows);
}

TEST(KernelPrograms, Jacobi2dFiveFpuSlotsPerElement) {
  Machine m(MachineConfig::araxl(16));
  auto k = make_kernel("jacobi2d");
  const OpCounts c = count_ops(k->build(m, 512));
  const std::uint64_t rows = 256;  // single strip at LMUL=4
  EXPECT_EQ(c.fpu, rows * 5);      // 4 adds + 1 mul
  EXPECT_EQ(c.fma, 0u);
  EXPECT_EQ(c.sldu, rows * 2);
  EXPECT_EQ(c.stores, rows);
}

TEST(KernelPrograms, FdotproductStripCount) {
  // At 16384 B/lane on the 64-lane machine the paper's "strip-mined over
  // 16 loop iterations" case must emit exactly 16 vfmacc strips.
  Machine m(MachineConfig::araxl(64));
  auto k = make_kernel("fdotproduct");
  const OpCounts c = count_ops(k->build(m, 16384));
  EXPECT_EQ(c.fma, 16u);
  EXPECT_EQ(c.loads, 32u);
  EXPECT_EQ(c.reductions, 1u);  // single final vfredusum
}

TEST(KernelPrograms, ExpMixMatchesDocumentedAccounting) {
  Machine m(MachineConfig::araxl(16));
  auto k = make_kernel("exp");
  const Program p = k->build(m, 128);  // single strip per vlmax at LMUL=1
  const OpCounts c = count_ops(p);
  const std::uint64_t strips = c.vsetvli;  // one vsetvli per strip
  ASSERT_GT(strips, 0u);
  // kExpFpuSlots FPU-busy instructions per strip (README, "Modeling
  // notes": ours is 20 slots / 30 FLOP vs the paper's 21/28).
  EXPECT_EQ(c.fpu, strips * kExpFpuSlots);
  // FLOP accounting: kExpFlops per element.
  const double factor = k->max_perf_factor();
  EXPECT_DOUBLE_EQ(factor, static_cast<double>(kExpFlops) / kExpFpuSlots);
}

TEST(KernelPrograms, SoftmaxHasTwoReductionsPerStrip) {
  Machine m(MachineConfig::araxl(16));
  auto k = make_kernel("softmax");
  const OpCounts c = count_ops(k->build(m, 512));
  // Per row: strips x (redmax + redsum); 64 rows, 4 strips at 512 B/lane.
  EXPECT_EQ(c.reductions, 64u * 4 * 2);
}

TEST(KernelPrograms, SimulatedFlopsMatchAccounting) {
  // For the FMA-exact kernels the simulator's FLOP counter must equal the
  // kernel's useful-FLOP accounting exactly.
  for (const char* name : {"fmatmul", "fconv2d", "jacobi2d", "stream_triad"}) {
    Machine m(MachineConfig::araxl(8));
    auto k = make_kernel(name);
    const Program p = k->build(m, 128);
    const RunStats s = m.run(p);
    EXPECT_EQ(s.flops, k->useful_flops()) << name;
  }
}

TEST(KernelPrograms, AllKernelFactoriesAgreeWithNames) {
  for (const auto& k : make_all_kernels()) {
    EXPECT_EQ(make_kernel(k->name())->name(), k->name());
  }
  for (const auto& k : make_extension_kernels()) {
    EXPECT_EQ(make_kernel(k->name())->name(), k->name());
  }
  EXPECT_THROW(make_kernel("nope"), ContractViolation);
}

TEST(KernelPrograms, WeakScalingSizesProblems) {
  // N = bytes_per_lane x lanes / 8, so the per-lane stream is constant.
  const MachineConfig small = MachineConfig::araxl(8);
  const MachineConfig big = MachineConfig::araxl(64);
  EXPECT_EQ(elems_for_bytes_per_lane(small, 512), 512u);
  EXPECT_EQ(elems_for_bytes_per_lane(big, 512), 4096u);
  EXPECT_THROW(elems_for_bytes_per_lane(small, 13), ContractViolation);
}

}  // namespace
}  // namespace araxl
