// Golden cycle-count regression tests.
//
// The figure benches under bench/ depend on the calibrated timing model;
// these tests pin exact cycle counts of representative programs so that
// any change to the issue path, chaining, memory pipeline, or reduction
// schedule is a *conscious* recalibration (update the constants here and
// re-run the figure benches), never an accident.
#include <gtest/gtest.h>

#include "kernels/common.hpp"
#include "machine/machine.hpp"

namespace araxl {
namespace {

TEST(GoldenTiming, StripMinedAxpy16L) {
  const MachineConfig cfg = MachineConfig::araxl(16);
  Machine m(cfg);
  ProgramBuilder pb(cfg.effective_vlen(), "axpy");
  for (std::uint64_t done = 0; done < 8192;) {
    const std::uint64_t vl = pb.vsetvli(8192 - done, Sew::k64, kLmul4);
    pb.vle(8, 0x100000 + done * 8);
    pb.vle(16, 0x200000 + done * 8);
    pb.vfmacc_vf(16, 1.5, 8);
    pb.vse(16, 0x200000 + done * 8);
    pb.scalar_cycles(2);
    done += vl;
  }
  // Read-bandwidth bound: 2 x 8192 doubles over 128 B/cycle = 1024 cycles
  // of data, plus pipeline fill/drain and 8 strip overheads.
  EXPECT_EQ(m.run(pb.take()).cycles, 1764u);
}

TEST(GoldenTiming, SingleUnitStrideLoad16L) {
  const MachineConfig cfg = MachineConfig::araxl(16);
  Machine m(cfg);
  ProgramBuilder pb(cfg.effective_vlen(), "ld");
  pb.vsetvli(256, Sew::k64, kLmul1);
  pb.vle(8, 0x100000);
  // vsetvli round trip + issue + GLSU pipe (5) + L2 (12) + 16 data beats +
  // retire lag.
  EXPECT_EQ(m.run(pb.take()).cycles, 45u);
}

TEST(GoldenTiming, Reduction64LPaysRingTree) {
  const MachineConfig cfg = MachineConfig::araxl(64);
  Machine m(cfg);
  ProgramBuilder pb(cfg.effective_vlen(), "red");
  pb.vsetvli(1024, Sew::k64, kLmul1);
  pb.vfredusum(12, 8, 4);
  // Intra-lane 16 + inter-lane 2x4 + ring tree (15 hops + 4x8 adds) + SIMD 0
  // + writeback 2 + issue/dispatch overhead.
  EXPECT_EQ(m.run(pb.take()).cycles, 86u);
}

TEST(GoldenTiming, ReductionAra2HasNoRingTree) {
  const MachineConfig cfg = MachineConfig::ara2(16);
  Machine m(cfg);
  ProgramBuilder pb(cfg.effective_vlen(), "red");
  pb.vsetvli(256, Sew::k64, kLmul1);
  pb.vfredusum(12, 8, 4);
  EXPECT_EQ(m.run(pb.take()).cycles, 44u);
}

TEST(GoldenTiming, ChainedSlides32L) {
  const MachineConfig cfg = MachineConfig::araxl(32);
  Machine m(cfg);
  ProgramBuilder pb(cfg.effective_vlen(), "slides");
  pb.vsetvli(2048, Sew::k64, kLmul4);
  pb.vfslide1down(8, 4, 0.0);
  pb.vfslide1down(12, 8, 0.0);
  pb.vfadd_vv(16, 12, 8);
  EXPECT_EQ(m.run(pb.take()).cycles, 150u);
}

TEST(GoldenTiming, Jacobi2dKernel8L) {
  Machine m(MachineConfig::araxl(8));
  auto k = make_kernel("jacobi2d");
  const Program p = k->build(m, 64);
  EXPECT_EQ(m.run(p).cycles, 14625u);
}

TEST(GoldenTiming, Fdotproduct64LLongVector) {
  Machine m(MachineConfig::araxl(64));
  auto k = make_kernel("fdotproduct");
  const Program p = k->build(m, 512);
  EXPECT_EQ(m.run(p).cycles, 303u);
}

}  // namespace
}  // namespace araxl
