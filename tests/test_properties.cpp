// Property-based tests.
//
// 1. Cross-topology equivalence: a random (but valid) vector program must
//    produce bit-identical architectural state (all registers + memory) on
//    machines with different cluster topologies and mask layouts but the
//    same VLEN — the mapping/layout machinery must be functionally
//    invisible.
// 2. Paper-claim properties over parameter sweeps: weak scaling, long-
//    vector utilization floors, latency-tolerance bounds, medium-vector
//    setup-time ordering, and alignment robustness.
#include <gtest/gtest.h>

#include <memory>

#include "common/rng.hpp"
#include "driver/registry.hpp"
#include "driver/runner.hpp"
#include "driver/spec.hpp"
#include "kernels/common.hpp"
#include "machine/machine.hpp"

namespace araxl {
namespace {

constexpr std::uint64_t kBase = 0x10000;
constexpr std::uint64_t kRegionBytes = 64 * 1024;

// ---- 1. cross-topology equivalence fuzzer -----------------------------------

/// Generates a random valid program using even registers v4..v28, v0 as a
/// mask (written only by compares), and memory traffic inside the region.
Program random_program(std::uint64_t vlen_bits, std::uint64_t seed) {
  Rng rng(seed);
  ProgramBuilder pb(vlen_bits, "fuzz" + std::to_string(seed));
  const auto reg = [&]() { return 4 + 2 * static_cast<unsigned>(rng.next_below(13)); };
  const auto addr = [&]() { return kBase + 8 * rng.next_below(kRegionBytes / 16); };
  const auto fs = [&]() { return rng.next_double(-2.0, 2.0); };

  const Lmul lmul = rng.next_below(2) == 0 ? kLmul1 : kLmul2;
  std::uint64_t vl =
      pb.vsetvli(1 + rng.next_below(pb.vlmax(Sew::k64, lmul)), Sew::k64, lmul);
  bool mask_valid = false;

  const auto distinct = [&](unsigned avoid) {
    unsigned r = reg();
    while (r == avoid) r = reg();
    return r;
  };

  const unsigned ops = 50 + static_cast<unsigned>(rng.next_below(50));
  for (unsigned i = 0; i < ops; ++i) {
    switch (rng.next_below(26)) {
      case 0: pb.vle(reg(), addr()); break;
      case 1: pb.vse(reg(), addr()); break;
      case 2: pb.vfadd_vv(reg(), reg(), reg()); break;
      case 3: pb.vfsub_vf(reg(), reg(), fs()); break;
      case 4: pb.vfmul_vv(reg(), reg(), reg()); break;
      case 5: pb.vfmacc_vf(reg(), fs(), reg()); break;
      case 6: pb.vfmax_vf(reg(), reg(), fs()); break;
      case 7: pb.vfslide1down(reg(), reg(), fs()); break;
      case 8: {
        const unsigned vd = reg();
        pb.vfslide1up(vd, distinct(vd), fs());
        break;
      }
      case 9: pb.vmfgt_vf(0, reg(), fs()); mask_valid = true; break;
      case 10:
        if (mask_valid) pb.vfmerge_vfm(reg(), reg(), fs());
        break;
      case 11:
        if (mask_valid) pb.vfadd_vf(reg(), reg(), fs(), /*masked=*/true);
        break;
      case 12: pb.vfredusum(30, reg(), 31); break;
      case 13: pb.vid_v(reg()); break;
      case 14: {
        // Strided load within bounds: stride 16, vl elements.
        pb.vlse(reg(), kBase + 8 * rng.next_below(64), 16);
        break;
      }
      case 15: {
        const Lmul ml = rng.next_below(2) == 0 ? kLmul1 : kLmul2;
        vl = pb.vsetvli(1 + rng.next_below(pb.vlmax(Sew::k64, ml)), Sew::k64, ml);
        mask_valid = false;  // layout of v0 under new vtype is unchanged, but
                             // keep the generator conservative
        break;
      }
      // --- extension coverage -------------------------------------------
      case 16: pb.vmul_vx(reg(), reg(), static_cast<std::int64_t>(rng.next_below(7))); break;
      case 17: pb.vmax_vv(reg(), reg(), reg()); break;
      case 18: pb.vrsub_vx(reg(), reg(), 13); break;
      case 19: {
        // Gather with in-range indices derived from vid & mask.
        const unsigned idx = reg();
        pb.vid_v(idx);
        pb.vand_vx(idx, idx, 0xF);
        const unsigned vd = reg();
        unsigned vs2 = distinct(vd);
        while (vs2 == idx) vs2 = distinct(vd);
        if (idx != vd) pb.vrgather_vv(vd, vs2, idx);
        break;
      }
      case 20: {
        pb.vmfgt_vf(2, reg(), fs());  // mask into v2
        const unsigned vd = reg();
        unsigned vs2 = distinct(vd);
        pb.vcompress_vm(vd, vs2, 2);
        break;
      }
      case 21: {
        pb.vmflt_vf(2, reg(), fs());
        const unsigned vd = reg();
        pb.viota_m(vd, 2);
        break;
      }
      case 22: pb.vfredmax(30, reg(), 31); break;
      case 23: pb.vfsqrt_v(reg(), reg()); break;
      case 24: {
        // Strided store into the upper half of the region (stride 24 x the
        // largest vl stays in bounds; exercises the bulk scatter path).
        pb.vsse(reg(), kBase + kRegionBytes / 2 + 8 * rng.next_below(64), 24);
        break;
      }
      case 25: {
        // Descending strided load ending exactly at the region base.
        pb.vlse(reg(), kBase + 8 * (vl - 1), -8);
        break;
      }
    }
  }
  (void)vl;
  return pb.take();
}

void init_machine(Machine& m, std::uint64_t seed) {
  m.mem().store_doubles(kBase,
                        random_doubles(kRegionBytes / 8, -2.0, 2.0, seed + 1000));
  // Registers start at deterministic values so reads-before-writes agree.
  const std::uint64_t epr = m.config().effective_vlen() / 64;
  for (unsigned v = 0; v < kNumVregs; ++v) {
    for (std::uint64_t i = 0; i < epr; ++i) {
      m.vrf().write_f64(v, i, static_cast<double>(v) + 0.001 * static_cast<double>(i));
    }
  }
}

class CrossTopology : public testing::TestWithParam<std::uint64_t> {};

TEST_P(CrossTopology, SameArchitecturalState) {
  const std::uint64_t seed = GetParam();
  // Four machines, same VLEN (8192), different topologies/mask layouts:
  // 2x4 AraXL, lumped 8-lane Ara2, a 16-lane AraXL with reduced VLEN, and
  // a 4x2-lane-cluster AraXL.
  MachineConfig a = MachineConfig::araxl(8);
  MachineConfig b = MachineConfig::ara2(8);
  MachineConfig c = MachineConfig::araxl(16);
  c.vlen_bits = 8192;
  c.validate();
  MachineConfig d = MachineConfig::araxl_shaped(4, 2);  // 2-lane clusters
  d.vlen_bits = 8192;
  d.validate();
  // Hierarchical: the group level must be architecturally invisible (the
  // mapping flattens it), so a 2x4x4 machine agrees bit-for-bit too.
  MachineConfig e = MachineConfig::araxl_hier(2, 4, 4);
  e.vlen_bits = 8192;
  e.validate();

  const Program prog = random_program(8192, seed);
  // Machines are non-movable (self-referencing engines): heap-allocate.
  std::vector<std::unique_ptr<Machine>> machine_ptrs;
  machine_ptrs.push_back(std::make_unique<Machine>(a));
  machine_ptrs.push_back(std::make_unique<Machine>(b));
  machine_ptrs.push_back(std::make_unique<Machine>(c));
  machine_ptrs.push_back(std::make_unique<Machine>(d));
  machine_ptrs.push_back(std::make_unique<Machine>(e));
  const auto machines = [&](std::size_t i) -> Machine& { return *machine_ptrs[i]; };
  for (auto& m : machine_ptrs) {
    init_machine(*m, seed);
    m->run(prog);
  }

  // v0 and v2 hold masks: their *physical* bytes legitimately differ
  // between the lane-local (AraXL) and standard (Ara2) layouts — the
  // paper's §III-B.5 point. Their logical effect is compared through the
  // results of merges, masked ops, viota and vcompress in regular
  // registers, so the raw comparison skips the mask registers.
  const std::uint64_t epr = 8192 / 64;
  for (unsigned v = 1; v < kNumVregs; ++v) {
    if (v == 2) continue;  // mask register (see above)
    for (std::uint64_t i = 0; i < epr; ++i) {
      const std::uint64_t ref = machines(0).vrf().read_elem(v, i, 8);
      EXPECT_EQ(machines(1).vrf().read_elem(v, i, 8), ref)
          << "v" << v << "[" << i << "] differs on " << b.name();
      EXPECT_EQ(machines(2).vrf().read_elem(v, i, 8), ref)
          << "v" << v << "[" << i << "] differs on 16L/8Kib";
      EXPECT_EQ(machines(3).vrf().read_elem(v, i, 8), ref)
          << "v" << v << "[" << i << "] differs on 4x2L/8Kib";
      EXPECT_EQ(machines(4).vrf().read_elem(v, i, 8), ref)
          << "v" << v << "[" << i << "] differs on 2x4x4L/8Kib";
    }
  }
  for (std::uint64_t off = 0; off < kRegionBytes; off += 8) {
    const auto ref = machines(0).mem().load<std::uint64_t>(kBase + off);
    ASSERT_EQ(machines(1).mem().load<std::uint64_t>(kBase + off), ref)
        << "memory differs at offset " << off;
    ASSERT_EQ(machines(2).mem().load<std::uint64_t>(kBase + off), ref)
        << "memory differs at offset " << off;
    ASSERT_EQ(machines(3).mem().load<std::uint64_t>(kBase + off), ref)
        << "memory differs at offset " << off;
    ASSERT_EQ(machines(4).mem().load<std::uint64_t>(kBase + off), ref)
        << "memory differs at offset " << off;
  }
}

INSTANTIATE_TEST_SUITE_P(Fuzz, CrossTopology, testing::Range<std::uint64_t>(0, 12));

// ---- 2. paper-claim properties -----------------------------------------------

RunStats run_kernel_on(const MachineConfig& cfg, const char* name,
                       std::uint64_t bpl) {
  Machine m(cfg);
  auto k = make_kernel(name);
  const Program p = k->build(m, bpl);
  return m.run(p);
}

TEST(PaperClaims, FmatmulLongVectorUtilization) {
  // "reaching more than 99% utilization on sufficiently large matrix
  // multiplications even with 64 lanes".
  for (unsigned lanes : {8u, 16u, 32u, 64u}) {
    const RunStats s = run_kernel_on(MachineConfig::araxl(lanes), "fmatmul", 512);
    EXPECT_GT(s.fpu_util(), 0.985) << lanes << " lanes";
  }
}

TEST(PaperClaims, Fconv2dUtilization97) {
  const RunStats s = run_kernel_on(MachineConfig::araxl(64), "fconv2d", 512);
  EXPECT_GT(s.fpu_util(), 0.95);
  EXPECT_LT(s.fpu_util(), 0.99);
}

TEST(PaperClaims, WeakScalingIsFlatForComputeKernels) {
  // Under weak scaling, cycles should stay ~constant as lanes grow for the
  // compute-bound kernels (that IS linear performance scaling).
  for (const char* k : {"fmatmul", "fconv2d", "jacobi2d", "exp"}) {
    const Cycle c8 = run_kernel_on(MachineConfig::araxl(8), k, 256).cycles;
    const Cycle c64 = run_kernel_on(MachineConfig::araxl(64), k, 256).cycles;
    EXPECT_LT(static_cast<double>(c64) / static_cast<double>(c8), 1.10) << k;
  }
}

TEST(PaperClaims, ReductionKernelsScaleSublinearly) {
  // fdotproduct and softmax lose ground at 64 lanes (paper: 6.1x / 7.3x).
  for (const char* k : {"fdotproduct", "softmax"}) {
    const RunStats s8 = run_kernel_on(MachineConfig::ara2(8), k, 512);
    const RunStats s64 = run_kernel_on(MachineConfig::araxl(64), k, 512);
    const double scaling = s64.flop_per_cycle() / s8.flop_per_cycle();
    EXPECT_GT(scaling, 5.5) << k;
    EXPECT_LT(scaling, 7.9) << k;
  }
}

TEST(PaperClaims, LongerVectorsRecoverDotproductScaling) {
  // §IV-B: 16384 B/lane strip-mined dotproduct reaches ~7.6x.
  const RunStats s8 = run_kernel_on(MachineConfig::ara2(8), "fdotproduct", 16384);
  const RunStats s64 =
      run_kernel_on(MachineConfig::araxl(64), "fdotproduct", 16384);
  const double scaling = s64.flop_per_cycle() / s8.flop_per_cycle();
  EXPECT_GT(scaling, 7.3);
  EXPECT_LE(scaling, 8.0);
}

TEST(PaperClaims, UtilizationGrowsWithVectorLength) {
  for (const char* k : {"fmatmul", "fconv2d", "jacobi2d", "exp"}) {
    double prev = 0.0;
    for (std::uint64_t bpl : {64ull, 128ull, 256ull, 512ull}) {
      const double util = run_kernel_on(MachineConfig::araxl(64), k, bpl).fpu_util();
      EXPECT_GE(util, prev - 0.01) << k << " at " << bpl;
      prev = util;
    }
  }
}

TEST(PaperClaims, AraXLSetupTimeWorseThanAra2AtMediumVectors) {
  // §IV-B: at 64 B/lane the effect "is worse in AraXL since the newly
  // designed interfaces increase the vector instruction setup time".
  for (const char* k : {"fmatmul", "fconv2d", "jacobi2d"}) {
    const double a2 = run_kernel_on(MachineConfig::ara2(8), k, 64).fpu_util();
    const double xl = run_kernel_on(MachineConfig::araxl(8), k, 64).fpu_util();
    EXPECT_LT(xl, a2) << k;
  }
}

TEST(PaperClaims, LatencyToleranceInLongVectorRegime) {
  // Fig. 7: each interface cut costs < 3 utilization points at 512 B/lane.
  const MachineConfig base = MachineConfig::araxl(64);
  for (const char* k : {"fmatmul", "fconv2d", "jacobi2d", "fdotproduct", "exp",
                        "softmax"}) {
    const double u0 = run_kernel_on(base, k, 512).fpu_util();
    for (int which = 0; which < 3; ++which) {
      MachineConfig mod = base;
      mod.glsu_regs = which == 0 ? 4 : 0;
      mod.reqi_regs = which == 1 ? 1 : 0;
      mod.ring_regs = which == 2 ? 1 : 0;
      const double u1 = run_kernel_on(mod, k, 512).fpu_util();
      EXPECT_LT(u0 - u1, 0.03) << k << " variant " << which;
    }
  }
}

TEST(PaperClaims, FlopAccountingMatchesKernelMath) {
  // Simulated FLOP >= the kernel's useful FLOP, and for the pure-FMA
  // fmatmul they agree exactly.
  Machine m(MachineConfig::araxl(16));
  auto k = make_kernel("fmatmul");
  const Program p = k->build(m, 128);
  const RunStats s = m.run(p);
  EXPECT_EQ(s.flops, k->useful_flops());
}

class AlignmentSweep : public testing::TestWithParam<unsigned> {};

TEST_P(AlignmentSweep, LoadStoreRoundTripAtAnyOffset) {
  const unsigned skew = GetParam();
  Machine m(MachineConfig::araxl(16));
  const std::uint64_t vl = 300;
  const auto a = random_doubles(vl, -1, 1, skew);
  const std::uint64_t src = kBase + skew * 8 + 8;
  const std::uint64_t dst = kBase + 32768 + skew * 8;
  m.mem().store_doubles(src, a);
  ProgramBuilder pb(m.config().effective_vlen(), "align");
  pb.vsetvli(vl, Sew::k64, kLmul2);
  pb.vle(8, src);
  pb.vse(8, dst);
  m.run(pb.take());
  EXPECT_EQ(m.mem().load_doubles(dst, vl), a);
}

INSTANTIATE_TEST_SUITE_P(AllLaneOffsets, AlignmentSweep,
                         testing::Values(0u, 1u, 2u, 3u, 5u, 7u, 9u, 15u));

// ---- 3. engine equivalence: event-driven vs cycle-stepped oracle ------------
//
// The event-driven kernel fast-forwards simulated time between wakeups;
// its contract is that every RunStats counter — cycles, flops, stall
// breakdowns, per-unit busy elements — is bit-for-bit identical to the
// per-cycle oracle's. Randomized programs across topologies exercise
// chaining, slides, gathers, reductions, divides (fractional rates), and
// misaligned memory traffic through both kernels.

void expect_same_stats(const RunStats& ev, const RunStats& oracle,
                       const std::string& label) {
  EXPECT_EQ(ev.cycles, oracle.cycles) << label;
  EXPECT_EQ(ev.vinstrs, oracle.vinstrs) << label;
  EXPECT_EQ(ev.scalar_ops, oracle.scalar_ops) << label;
  EXPECT_EQ(ev.flops, oracle.flops) << label;
  EXPECT_EQ(ev.fpu_result_elems, oracle.fpu_result_elems) << label;
  EXPECT_EQ(ev.mem_read_bytes, oracle.mem_read_bytes) << label;
  EXPECT_EQ(ev.mem_write_bytes, oracle.mem_write_bytes) << label;
  EXPECT_EQ(ev.issue_stall_cycles, oracle.issue_stall_cycles) << label;
  EXPECT_EQ(ev.scalar_wait_cycles, oracle.scalar_wait_cycles) << label;
  for (std::size_t u = 0; u < kNumUnits; ++u) {
    EXPECT_EQ(ev.unit_busy_elems[u], oracle.unit_busy_elems[u])
        << label << " unit " << unit_name(static_cast<Unit>(u));
  }
  EXPECT_TRUE(ev == oracle) << label;
}

RunStats run_fuzz_with_mode(MachineConfig cfg, TimingMode mode,
                            const Program& prog, std::uint64_t seed) {
  cfg.timing_mode = mode;
  Machine m(cfg);
  init_machine(m, seed);
  return m.run(prog);
}

class EngineEquivalence : public testing::TestWithParam<std::uint64_t> {};

TEST_P(EngineEquivalence, RandomProgramsBitIdenticalStats) {
  const std::uint64_t seed = GetParam();
  MachineConfig shaped = MachineConfig::araxl_shaped(4, 2);
  shaped.vlen_bits = 8192;
  shaped.validate();
  MachineConfig laggy = MachineConfig::araxl(16);
  laggy.glsu_regs = 4;
  laggy.reqi_regs = 1;
  laggy.ring_regs = 1;
  laggy.validate();
  // Hierarchical machine (2 groups x 4 clusters x 4 lanes): group-hop
  // slides, group reduction stages and the deeper REQI/GLSU pipes all ride
  // the same differential gate. Reduced VLEN keeps the oracle cheap.
  MachineConfig hier = MachineConfig::araxl_hier(2, 4, 4);
  hier.vlen_bits = 8192;
  hier.validate();
  const MachineConfig configs[] = {
      MachineConfig::araxl(8),
      MachineConfig::ara2(8),
      MachineConfig::araxl(64),
      shaped,
      laggy,
      hier,
  };
  for (const MachineConfig& cfg : configs) {
    const Program prog = random_program(cfg.effective_vlen(), seed);
    const RunStats ev =
        run_fuzz_with_mode(cfg, TimingMode::kEventDriven, prog, seed);
    const RunStats oracle =
        run_fuzz_with_mode(cfg, TimingMode::kCycleStepped, prog, seed);
    expect_same_stats(ev, oracle, cfg.name() + " seed " + std::to_string(seed));
  }
}

INSTANTIATE_TEST_SUITE_P(Fuzz, EngineEquivalence,
                         testing::Range<std::uint64_t>(0, 16));

TEST(EngineEquivalence, KernelsBitIdenticalStats) {
  for (const char* k : {"fmatmul", "fconv2d", "jacobi2d", "fdotproduct", "exp",
                        "softmax"}) {
    for (unsigned lanes : {8u, 64u}) {
      MachineConfig cfg = MachineConfig::araxl(lanes);
      cfg.timing_mode = TimingMode::kEventDriven;
      Machine ev(cfg);
      auto kernel = make_kernel(k);
      const Program prog = kernel->build(ev, 256);
      const RunStats s_ev = ev.run(prog);

      cfg.timing_mode = TimingMode::kCycleStepped;
      Machine oracle(cfg);
      auto kernel2 = make_kernel(k);
      const Program prog2 = kernel2->build(oracle, 256);
      const RunStats s_or = oracle.run(prog2);
      expect_same_stats(s_ev, s_or,
                        std::string(k) + " " + std::to_string(lanes) + "L");
    }
  }
}

TEST(EngineEquivalence, Hierarchical128LaneKernelsBitIdentical) {
  // The acceptance bar for the topology layer: a >64-lane hierarchical
  // machine (4 groups x 8 clusters x 4 lanes) runs real kernels end to end
  // with the event and oracle kernels bit-identical — including the
  // reduction tree's group stages (fdotproduct) and group-hop slides.
  for (const char* k : {"fdotproduct", "stream_triad", "fmatmul"}) {
    MachineConfig cfg = MachineConfig::araxl(128);
    cfg.timing_mode = TimingMode::kEventDriven;
    Machine ev(cfg);
    auto kernel = make_kernel(k);
    const Program prog = kernel->build(ev, 64);
    const RunStats s_ev = ev.run(prog);

    cfg.timing_mode = TimingMode::kCycleStepped;
    Machine oracle(cfg);
    auto kernel2 = make_kernel(k);
    const Program prog2 = kernel2->build(oracle, 64);
    const RunStats s_or = oracle.run(prog2);
    expect_same_stats(s_ev, s_or, std::string(k) + " 128L hierarchical");
  }
}

TEST(EngineEquivalence, ManyLiveChainingDepsBitIdentical) {
  // Regression: a consumer can legitimately depend on six or more live
  // producers (LMUL groups fan each source across several registers, each
  // with its own in-flight writer). The event engine's cap combiner must
  // handle an unbounded dep count, not a fixed-size line array.
  MachineConfig cfg = MachineConfig::araxl(8);
  ProgramBuilder pb(cfg.effective_vlen(), "manydeps");
  const std::uint64_t vlmax1 = pb.vlmax(Sew::k64, kLmul1);
  pb.vsetvli(vlmax1, Sew::k64, kLmul1);
  pb.vfadd_vf(8, 4, 1.0);   // FPU writer of v8
  pb.vfadd_vf(9, 5, 2.0);   // FPU writer of v9
  pb.vle(0, kBase);          // load writers of v0..v3
  pb.vle(1, kBase + 8 * vlmax1);
  pb.vle(2, kBase + 16 * vlmax1);
  pb.vle(3, kBase + 24 * vlmax1);
  pb.vsetvli(2 * vlmax1, Sew::k64, kLmul2);
  pb.vfmacc_vv(8, 0, 2);     // deps on v0,v1 (vs1), v2,v3 (vs2), v8,v9 (vd)
  const Program prog = pb.take();

  const RunStats ev = run_fuzz_with_mode(cfg, TimingMode::kEventDriven, prog, 1);
  const RunStats oracle =
      run_fuzz_with_mode(cfg, TimingMode::kCycleStepped, prog, 1);
  expect_same_stats(ev, oracle, "many live chaining deps");
}

TEST(EngineEquivalence, DriverSweepRegistryKernelsMatchOracle) {
  // Differential fuzz at sweep scale: sample topologies and programs via
  // the driver's kernel registry (every kernel in src/kernels/, including
  // the extension set the KernelsBitIdenticalStats test does not cover)
  // with freshly seeded inputs, and let the runner's oracle-check re-run
  // every driver-generated job under TimingMode::kCycleStepped and demand
  // bit-identical RunStats.
  driver::SweepSpec spec;
  spec.configs = {
      driver::parse_config_spec("araxl:8"),
      driver::parse_config_spec("ara2:8"),
      driver::parse_config_spec("araxl:4x2:vlen=8192"),
      driver::parse_config_spec("araxl:16:glsu=4:reqi=1:ring=1"),
      driver::parse_config_spec("araxl:2x4x4:vlen=8192"),  // hierarchical
  };
  spec.kernels = driver::KernelRegistry::instance().names();
  spec.bytes_per_lane = {64};
  spec.base_seed = 0xA5A5;  // new input streams, not the legacy fixed data

  driver::RunnerOptions opts;
  opts.workers = 4;
  opts.check_oracle = true;
  for (const driver::JobResult& r : driver::run_sweep(spec, opts)) {
    EXPECT_TRUE(r.ok) << r.job.config_label << "/" << r.job.kernel << ": "
                      << r.error;
  }
}

// ---- 4. loop batching: steady-state fast-forward vs the oracle --------------
//
// The event engine batches whole strip-mined iterations once two
// consecutive loop-period boundaries snapshot identically. These programs
// are built to stress exactly the edges of that detector: long steady
// loops (must batch, must stay exact through the vl tail), mid-loop vl
// changes (must fall out of batch mode), and adversarial signature
// collisions — bodies whose op signatures repeat perfectly while the
// address pattern silently changes (progression breaks, per-op deltas
// diverge, or deltas misalign with the bus), which MUST either be rejected
// by the address checks or still simulate bit-identically. Two variants
// aim at bus-phase super-periods: a drift whose phase repeats every few
// bodies (promoted where the region is long enough) and a drift whose
// phase never repeats (must not be).
Program loop_program(std::uint64_t vlen_bits, std::uint64_t seed) {
  Rng rng(seed);
  ProgramBuilder pb(vlen_bits, "loopfuzz" + std::to_string(seed));
  const Lmul lmul = rng.next_below(2) == 0 ? kLmul1 : kLmul2;
  const std::uint64_t vlmax_b = pb.vlmax(Sew::k64, lmul);
  // Long enough that the batchable variants actually reach steady state
  // (queue backpressure takes ~a dozen iterations to saturate), short
  // enough that the per-cycle oracle stays cheap.
  const std::uint64_t iters = 14 + rng.next_below(22);
  // Half the programs end on a partial (tail) strip.
  const std::uint64_t total =
      vlmax_b * iters + (rng.next_below(2) == 0 ? 1 + rng.next_below(vlmax_b - 1) : 0);
  const std::uint64_t variant = seed % 7;  // every variant, three seeds each
  const std::uint64_t stride_bytes = vlmax_b * 8;

  std::uint64_t a = kBase;
  std::uint64_t b = kBase + kRegionBytes / 4;
  std::uint64_t c = kBase + kRegionBytes / 2;
  std::uint64_t done = 0;
  std::uint64_t iter = 0;
  while (done < total) {
    const std::uint64_t vl = pb.vsetvli(total - done, Sew::k64, lmul);
    switch (variant) {
      case 0:  // plain strip-mined triad: the must-batch case
        pb.vle(8, a);
        pb.vle(16, b);
        pb.vfmacc_vv(24, 8, 16);
        pb.vse(24, c);
        pb.scalar_cycles(2);
        a += stride_bytes;
        b += stride_bytes;
        c += stride_bytes;
        break;
      case 1: {  // mid-loop vsetvli with an iteration-dependent grant
        pb.vle(8, a);
        pb.vsetvli(1 + (iter % 7), Sew::k64, kLmul1);
        pb.vfadd_vf(16, 8, 1.5);
        pb.vsetvli(total - done, Sew::k64, lmul);
        pb.vfmul_vv(24, 8, 8);
        a += stride_bytes;
        break;
      }
      case 2:  // signature collision: identical keys, diverging per-op deltas
        pb.vle(8, a);
        pb.vle(16, b);
        pb.vfadd_vv(24, 8, 16);
        pb.vse(24, c);
        a += stride_bytes;
        b += stride_bytes / 2;  // not the common delta
        c += 8 * (iter % 3);    // not even a progression
        break;
      case 3:  // bus-misaligned deltas + store/load overlap churn
        pb.vle(8, a);
        pb.vfadd_vf(16, 8, 0.25);
        pb.vse(16, a + 8);  // overlaps the next iteration's load
        a += 24;            // not a multiple of any bus width
        break;
      case 5:  // bus-phase drift: strip + 3/4 of a flat machine's bus per
               // body, so the phase repeats only every 4 bodies there
        pb.vle(8, a);
        pb.vfmacc_vf(16, 0.5, 8);
        pb.vse(16, c);
        a += stride_bytes + 3 * (vlen_bits / 512);
        c += stride_bytes;
        break;
      case 6:  // aperiodic bus phase: pseudo-random 8 B multiples per body
        pb.vle(8, a);
        pb.vfadd_vf(16, 8, 0.75);
        pb.vse(16, c);
        a += stride_bytes + 8 * rng.next_below(16);
        c += stride_bytes;
        break;
      default:  // batchable body with slides, reductions and scalar work
        pb.vle(8, a);
        pb.vfslide1down(16, 8, 3.25);
        pb.vfmacc_vv(24, 8, 16);
        pb.vfredusum(30, 24, 31);
        pb.scalar_cycles(1 + seed % 3);
        a += stride_bytes;
        break;
    }
    done += vl;
    ++iter;
  }
  return pb.take();
}

struct LoopRun {
  RunStats stats;
  InstrTrace trace;
  std::unique_ptr<Machine> machine;
};

/// Retirement order and per-instruction timestamps: a batched trace replay
/// must be indistinguishable from the oracle's per-cycle trace.
void expect_same_trace(const InstrTrace& ev, const InstrTrace& oracle,
                       const std::string& label) {
  ASSERT_EQ(ev.records().size(), oracle.records().size()) << label;
  for (std::size_t i = 0; i < ev.records().size(); ++i) {
    const TraceRecord& x = ev.records()[i];
    const TraceRecord& y = oracle.records()[i];
    EXPECT_EQ(x.id, y.id) << label << " #" << i;
    EXPECT_EQ(x.prog_index, y.prog_index) << label << " #" << i;
    EXPECT_EQ(x.text, y.text) << label << " #" << i;
    EXPECT_EQ(x.issued, y.issued) << label << " #" << i << " " << x.text;
    EXPECT_EQ(x.dispatched, y.dispatched) << label << " #" << i << " " << x.text;
    EXPECT_EQ(x.first_result, y.first_result) << label << " #" << i << " " << x.text;
    EXPECT_EQ(x.completed, y.completed) << label << " #" << i << " " << x.text;
  }
}

LoopRun run_loop_with_mode(MachineConfig cfg, TimingMode mode,
                           const Program& prog, std::uint64_t seed) {
  cfg.timing_mode = mode;
  LoopRun out;
  out.machine = std::make_unique<Machine>(cfg);
  init_machine(*out.machine, seed);
  out.stats = out.machine->run(prog, &out.trace);
  return out;
}

class LoopEquivalence : public testing::TestWithParam<std::uint64_t> {};

TEST_P(LoopEquivalence, BatchedLoopsBitIdenticalToOracle) {
  const std::uint64_t seed = GetParam();
  MachineConfig shaped = MachineConfig::araxl_shaped(4, 2);
  shaped.vlen_bits = 8192;
  shaped.validate();
  MachineConfig laggy = MachineConfig::araxl(16);
  laggy.glsu_regs = 4;
  laggy.reqi_regs = 1;
  laggy.ring_regs = 1;
  laggy.validate();
  // Hierarchical topology: loop batching must stay gated on the group-hop
  // latencies and deeper pipes too (snapshots taken on a machine whose
  // descriptor differs from every flat config).
  MachineConfig hier = MachineConfig::araxl_hier(2, 4, 4);
  hier.vlen_bits = 8192;
  hier.validate();
  const MachineConfig configs[] = {
      MachineConfig::araxl(8),
      MachineConfig::ara2(8),
      MachineConfig::araxl(64),
      shaped,
      laggy,
      hier,
  };
  for (const MachineConfig& cfg : configs) {
    const Program prog = loop_program(cfg.effective_vlen(), seed);
    const LoopRun ev =
        run_loop_with_mode(cfg, TimingMode::kEventDriven, prog, seed);
    const LoopRun oracle =
        run_loop_with_mode(cfg, TimingMode::kCycleStepped, prog, seed);
    const std::string label = cfg.name() + " loopseed " + std::to_string(seed);
    expect_same_stats(ev.stats, oracle.stats, label);

    expect_same_trace(ev.trace, oracle.trace, label);

    // Architectural state: the batch path re-executes every op through the
    // functional engine; registers and memory must match the oracle's.
    const std::uint64_t epr = cfg.effective_vlen() / 64;
    for (unsigned v = 1; v < kNumVregs; ++v) {
      for (std::uint64_t i = 0; i < epr; ++i) {
        ASSERT_EQ(ev.machine->vrf().read_elem(v, i, 8),
                  oracle.machine->vrf().read_elem(v, i, 8))
            << label << " v" << v << "[" << i << "]";
      }
    }
    for (std::uint64_t off = 0; off < kRegionBytes; off += 8) {
      ASSERT_EQ(ev.machine->mem().load<std::uint64_t>(kBase + off),
                oracle.machine->mem().load<std::uint64_t>(kBase + off))
          << label << " mem offset " << off;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Fuzz, LoopEquivalence,
                         testing::Range<std::uint64_t>(0, 21));

TEST(EngineEquivalence, TracesBitIdentical) {
  // Retirement order and per-instruction trace timestamps must match too,
  // not just the aggregate counters.
  MachineConfig cfg = MachineConfig::araxl(16);
  const Program prog = random_program(cfg.effective_vlen(), 7);

  const auto traced = [&](TimingMode mode) {
    MachineConfig c = cfg;
    c.timing_mode = mode;
    Machine m(c);
    init_machine(m, 7);
    InstrTrace trace;
    m.run(prog, &trace);
    return trace;
  };
  const InstrTrace ev = traced(TimingMode::kEventDriven);
  const InstrTrace oracle = traced(TimingMode::kCycleStepped);
  expect_same_trace(ev, oracle, "random seed 7");
}

TEST(EngineEquivalence, SuperPeriodKernelsBitIdentical) {
  // Whole-row loop bodies: fconv2d (115-op rows batched in bus-phase
  // super-periods, its input pitch drifting the load phase by 48 B per row)
  // and softmax (rows of up to 215 ops), on flat and hierarchical machines.
  // Stats and every trace record must match the oracle, and the event
  // engine must have batched.
  MachineConfig hier = MachineConfig::araxl_hier(2, 4, 4);
  hier.vlen_bits = 8192;
  hier.validate();
  const struct {
    const char* kernel;
    MachineConfig cfg;
    std::uint64_t bpl;
  } cases[] = {
      {"fconv2d", MachineConfig::araxl(16), 256},
      {"fconv2d", hier, 64},
      {"softmax", MachineConfig::araxl(64), 512},
  };
  for (const auto& c : cases) {
    const std::string label = std::string(c.kernel) + " " + c.cfg.name();
    const auto traced = [&](TimingMode mode) {
      MachineConfig cfg = c.cfg;
      cfg.timing_mode = mode;
      LoopRun out;
      out.machine = std::make_unique<Machine>(cfg);
      auto kernel = make_kernel(c.kernel);
      out.stats = out.machine->run(kernel->build(*out.machine, c.bpl), &out.trace);
      return out;
    };
    const LoopRun ev = traced(TimingMode::kEventDriven);
    const LoopRun oracle = traced(TimingMode::kCycleStepped);
    EXPECT_GT(ev.stats.batched_iterations, 0u) << label;
    expect_same_stats(ev.stats, oracle.stats, label);
    expect_same_trace(ev.trace, oracle.trace, label);
  }
}

}  // namespace
}  // namespace araxl
