// Timing-model tests: chaining, hazards, issue serialization, interface
// latency knobs, reduction scheduling, bandwidth and misalignment — each
// checked through observable cycle counts of small programs.
#include <gtest/gtest.h>

#include "kernels/common.hpp"
#include "machine/machine.hpp"
#include "machine/timing.hpp"

namespace araxl {
namespace {

constexpr std::uint64_t kA = 0x10000;
constexpr std::uint64_t kB = 0x40000;
constexpr std::uint64_t kC = 0x80000;

RunStats run_prog(const MachineConfig& cfg, const std::function<void(ProgramBuilder&)>& body) {
  Machine m(cfg);
  m.mem().store_doubles(kA, random_doubles(8192, -1, 1, 1));
  m.mem().store_doubles(kB, random_doubles(8192, -1, 1, 2));
  ProgramBuilder pb(cfg.effective_vlen(), "t");
  body(pb);
  return m.run(pb.take());
}

TEST(Timing, ChainingOverlapsLoadAndCompute) {
  // A dependent vfmul chained onto a vle must finish far earlier than the
  // sum of both operations run back-to-back (two independent programs).
  const MachineConfig cfg = MachineConfig::araxl(16);
  const std::uint64_t vl = 1024;
  const RunStats both = run_prog(cfg, [&](ProgramBuilder& pb) {
    pb.vsetvli(vl, Sew::k64, kLmul4);
    pb.vle(8, kA);
    pb.vfmul_vv(16, 8, 8);
  });
  const RunStats load_only = run_prog(cfg, [&](ProgramBuilder& pb) {
    pb.vsetvli(vl, Sew::k64, kLmul4);
    pb.vle(8, kA);
  });
  const RunStats mul_only = run_prog(cfg, [&](ProgramBuilder& pb) {
    pb.vsetvli(vl, Sew::k64, kLmul4);
    pb.vfmul_vv(16, 8, 8);
  });
  // Chaining: total < load + mul (minus the shared setup, conservatively).
  EXPECT_LT(both.cycles, load_only.cycles + mul_only.cycles - 20);
}

TEST(Timing, SameUnitOpsSerialize) {
  // Two independent FPU ops occupy the same unit: their element slots
  // cannot overlap, so time grows by ~vl/lanes. (vl = VLMAX at m4.)
  const MachineConfig cfg = MachineConfig::araxl(16);
  const std::uint64_t vl = 1024;
  const RunStats one = run_prog(cfg, [&](ProgramBuilder& pb) {
    pb.vsetvli(vl, Sew::k64, kLmul4);
    pb.vfadd_vv(8, 4, 4);
  });
  const RunStats two = run_prog(cfg, [&](ProgramBuilder& pb) {
    pb.vsetvli(vl, Sew::k64, kLmul4);
    pb.vfadd_vv(8, 4, 4);
    pb.vfadd_vv(16, 12, 12);
  });
  EXPECT_GE(two.cycles, one.cycles + vl / cfg.total_lanes() - 5);
}

TEST(Timing, DifferentUnitsOverlap) {
  // An FPU op and an ALU op run concurrently: two ops cost barely more
  // than one.
  const MachineConfig cfg = MachineConfig::araxl(16);
  const std::uint64_t vl = 1024;
  const RunStats fpu_only = run_prog(cfg, [&](ProgramBuilder& pb) {
    pb.vsetvli(vl, Sew::k64, kLmul4);
    pb.vfadd_vv(8, 4, 4);
  });
  const RunStats fpu_alu = run_prog(cfg, [&](ProgramBuilder& pb) {
    pb.vsetvli(vl, Sew::k64, kLmul4);
    pb.vfadd_vv(8, 4, 4);
    pb.vadd_vv(16, 12, 12);
  });
  EXPECT_LT(fpu_alu.cycles, fpu_only.cycles + 32);
}

TEST(Timing, WarHazardStallsCrossUnitWriter) {
  // vse reads v8 while a later vle wants to overwrite it: the load must
  // wait, and the stored values must be the OLD contents.
  const MachineConfig cfg = MachineConfig::araxl(16);
  Machine m(cfg);
  const std::uint64_t vl = 512;
  const auto a = random_doubles(vl, -1, 1, 3);
  const auto b = random_doubles(vl, -1, 1, 4);
  m.mem().store_doubles(kA, a);
  m.mem().store_doubles(kB, b);
  ProgramBuilder pb(cfg.effective_vlen(), "war");
  pb.vsetvli(vl, Sew::k64, kLmul2);
  pb.vle(8, kA);
  pb.vse(8, kC);   // store old v8 = A
  pb.vle(8, kB);   // overwrite v8 with B
  const Program prog = pb.take();
  m.run(prog);
  EXPECT_EQ(m.mem().load_doubles(kC, vl), a);
  for (std::uint64_t i = 0; i < vl; ++i) {
    EXPECT_DOUBLE_EQ(m.vrf().read_f64(8, i), b[i]);
  }
}

TEST(Timing, MemoryRawConflictOrdersLoadAfterStore) {
  // vse to a range followed by vle from the same range must return the
  // stored data (the dispatcher holds the load until the store retires).
  const MachineConfig cfg = MachineConfig::araxl(16);
  Machine m(cfg);
  const std::uint64_t vl = 256;
  const auto a = random_doubles(vl, -1, 1, 5);
  m.mem().store_doubles(kA, a);
  ProgramBuilder pb(cfg.effective_vlen(), "raw");
  pb.vsetvli(vl, Sew::k64, kLmul1);
  pb.vle(8, kA);
  pb.vfadd_vf(12, 8, 1.0);
  pb.vse(12, kC);
  pb.vle(16, kC);  // must see a[i] + 1
  const Program prog = pb.take();
  m.run(prog);
  for (std::uint64_t i = 0; i < vl; ++i) {
    EXPECT_DOUBLE_EQ(m.vrf().read_f64(16, i), a[i] + 1.0) << i;
  }
}

TEST(Timing, ReqiRegistersDelayIssue) {
  // A back-to-back issue-bound instruction stream slows by ~2 cycles per
  // instruction with +1 REQI register.
  MachineConfig base = MachineConfig::araxl(16);
  MachineConfig mod = base;
  mod.reqi_regs = 1;
  const auto body = [&](ProgramBuilder& pb) {
    pb.vsetvli(16, Sew::k64, kLmul1);  // one element per lane: issue-bound
    for (int i = 0; i < 50; ++i) pb.vfadd_vv(8, 4, 4);
  };
  const RunStats s0 = run_prog(base, body);
  const RunStats s1 = run_prog(mod, body);
  EXPECT_GE(s1.cycles, s0.cycles + 2 * 50 - 10);
}

TEST(Timing, GlsuRegistersDelayLoadsEndToEnd) {
  MachineConfig base = MachineConfig::araxl(16);
  MachineConfig mod = base;
  mod.glsu_regs = 4;
  const auto body = [&](ProgramBuilder& pb) {
    pb.vsetvli(64, Sew::k64, kLmul1);
    pb.vle(8, kA);
  };
  const RunStats s0 = run_prog(base, body);
  const RunStats s1 = run_prog(mod, body);
  EXPECT_EQ(s1.cycles, s0.cycles + 8);  // paper: +4 registers => +8 cycles
}

TEST(Timing, RingRegistersDelayReductions) {
  MachineConfig base = MachineConfig::araxl(64);  // C=16
  MachineConfig mod = base;
  mod.ring_regs = 1;
  const auto body = [&](ProgramBuilder& pb) {
    pb.vsetvli(1024, Sew::k64, kLmul1);
    pb.vfredusum(12, 8, 4);
  };
  const RunStats s0 = run_prog(base, body);
  const RunStats s1 = run_prog(mod, body);
  EXPECT_EQ(s1.cycles, s0.cycles + 15);  // (C-1) extra hop cycles
}

TEST(Timing, ReductionCostGrowsWithClusters) {
  // Same per-lane work, more clusters: the inter-cluster log-tree adds
  // latency (the mechanism behind fdotproduct's 6.1x scaling).
  const auto red_cycles = [&](unsigned lanes) {
    const MachineConfig cfg = MachineConfig::araxl(lanes);
    return run_prog(cfg, [&](ProgramBuilder& pb) {
      pb.vsetvli(16ull * lanes, Sew::k64, kLmul1);  // fixed work per lane
      pb.vfredusum(12, 8, 4);
    }).cycles;
  };
  EXPECT_GT(red_cycles(64), red_cycles(16));
  EXPECT_GT(red_cycles(16), red_cycles(8));
}

TEST(Timing, Ara2ReductionHasNoClusterTree) {
  const RunStats a2 = run_prog(MachineConfig::ara2(16), [&](ProgramBuilder& pb) {
    pb.vsetvli(256, Sew::k64, kLmul1);
    pb.vfredusum(12, 8, 4);
  });
  const RunStats xl = run_prog(MachineConfig::araxl(16), [&](ProgramBuilder& pb) {
    pb.vsetvli(256, Sew::k64, kLmul1);
    pb.vfredusum(12, 8, 4);
  });
  EXPECT_LT(a2.cycles, xl.cycles);
}

TEST(Timing, DividerMuchSlowerThanMultiplier) {
  const MachineConfig cfg = MachineConfig::araxl(16);
  const std::uint64_t vl = 1024;
  const RunStats mul = run_prog(cfg, [&](ProgramBuilder& pb) {
    pb.vsetvli(vl, Sew::k64, kLmul4);
    pb.vfmul_vv(8, 4, 4);
  });
  const RunStats div = run_prog(cfg, [&](ProgramBuilder& pb) {
    pb.vsetvli(vl, Sew::k64, kLmul4);
    pb.vfdiv_vv(8, 4, 4);
  });
  EXPECT_GT(div.cycles, mul.cycles * 5);
}

TEST(Timing, StridedSlowerThanUnitStride) {
  const MachineConfig cfg = MachineConfig::araxl(16);
  const std::uint64_t vl = 512;
  const RunStats unit = run_prog(cfg, [&](ProgramBuilder& pb) {
    pb.vsetvli(vl, Sew::k64, kLmul2);
    pb.vle(8, kA);
  });
  const RunStats strided = run_prog(cfg, [&](ProgramBuilder& pb) {
    pb.vsetvli(vl, Sew::k64, kLmul2);
    pb.vlse(8, kA, 16);
  });
  EXPECT_GT(strided.cycles, unit.cycles * 2);
}

TEST(Timing, MisalignedLoadCostsExtra) {
  const MachineConfig cfg = MachineConfig::araxl(16);
  const std::uint64_t vl = 1024;
  const RunStats aligned = run_prog(cfg, [&](ProgramBuilder& pb) {
    pb.vsetvli(vl, Sew::k64, kLmul4);
    pb.vle(8, kA);
  });
  const RunStats misaligned = run_prog(cfg, [&](ProgramBuilder& pb) {
    pb.vsetvli(vl, Sew::k64, kLmul4);
    pb.vle(8, kA + 8);
  });
  EXPECT_GT(misaligned.cycles, aligned.cycles);
  EXPECT_LE(misaligned.cycles, aligned.cycles + 4);
}

TEST(Timing, LoadBandwidthIsEightBytesPerLane) {
  // A long unit-stride load streams at 8 B/lane/cycle: doubling vl adds
  // vl/lanes cycles.
  const MachineConfig cfg = MachineConfig::araxl(16);
  const RunStats short_load = run_prog(cfg, [&](ProgramBuilder& pb) {
    pb.vsetvli(1024, Sew::k64, kLmul4);
    pb.vle(8, kA);
  });
  const RunStats long_load = run_prog(cfg, [&](ProgramBuilder& pb) {
    pb.vsetvli(2048, Sew::k64, kLmul8);
    pb.vle(8, kA);
  });
  EXPECT_NEAR(static_cast<double>(long_load.cycles - short_load.cycles),
              1024.0 / 16, 8.0);
}

TEST(Timing, BusyAccountingMatchesWork) {
  const MachineConfig cfg = MachineConfig::araxl(16);
  const std::uint64_t vl = 777;
  const RunStats s = run_prog(cfg, [&](ProgramBuilder& pb) {
    pb.vsetvli(vl, Sew::k64, kLmul4);
    pb.vfmacc_vv(16, 8, 12);
    pb.vfadd_vv(20, 8, 12);
    pb.vadd_vv(24, 8, 12);
    pb.vle(28, kA);
  });
  EXPECT_EQ(s.unit_busy_elems[static_cast<std::size_t>(Unit::kFpu)], 2 * vl);
  EXPECT_EQ(s.unit_busy_elems[static_cast<std::size_t>(Unit::kAlu)], vl);
  EXPECT_EQ(s.unit_busy_elems[static_cast<std::size_t>(Unit::kLoad)], vl);
  EXPECT_EQ(s.fpu_result_elems, 2 * vl);
  EXPECT_EQ(s.flops, 3 * vl);  // FMA(2) + add(1)
  EXPECT_EQ(s.mem_read_bytes, vl * 8);
}

TEST(Timing, ScalarReadBlocksOnProducer) {
  // vfmv.f.s after a reduction stalls CVA6 until the result exists.
  const MachineConfig cfg = MachineConfig::araxl(64);
  const RunStats s = run_prog(cfg, [&](ProgramBuilder& pb) {
    pb.vsetvli(4096, Sew::k64, kLmul8);
    pb.vle(8, kA);
    pb.vfredusum(24, 8, 25);
    pb.vfmv_f_s(24);
  });
  EXPECT_GT(s.scalar_wait_cycles, 50u);  // waited out the reduction
}

TEST(Timing, Vl0InstructionsCostOnlyIssue) {
  const MachineConfig cfg = MachineConfig::araxl(16);
  const RunStats s = run_prog(cfg, [&](ProgramBuilder& pb) {
    pb.vsetvli(0, Sew::k64, kLmul1);
    for (int i = 0; i < 10; ++i) pb.vfadd_vv(8, 4, 4);
  });
  EXPECT_LT(s.cycles, 120u);
  EXPECT_EQ(s.fpu_result_elems, 0u);
}

TEST(MemRange, ZeroVlYieldsEmptyRange) {
  // Regression: strided ops with vl == 0 used to report [addr, addr + ew),
  // so a zero-element vlse/vsse could spuriously conflict with (and stall)
  // an overlapping access of the other kind at dispatch.
  for (const Op op : {Op::kVle, Op::kVse, Op::kVlse, Op::kVsse}) {
    VInstr in;
    in.op = op;
    in.addr = 0x1000;
    in.stride = -64;  // negative stride must not underflow the range either
    std::uint64_t lo = 1;
    std::uint64_t hi = 2;
    ASSERT_TRUE(mem_range(in, 0, 8, &lo, &hi)) << static_cast<int>(op);
    EXPECT_EQ(lo, hi) << "vl==0 must touch no bytes, op "
                      << static_cast<int>(op);
  }
}

TEST(MemRange, StridedCoversNegativeStrides) {
  VInstr in;
  in.op = Op::kVlse;
  in.addr = 0x2000;
  in.stride = -16;
  std::uint64_t lo = 0;
  std::uint64_t hi = 0;
  ASSERT_TRUE(mem_range(in, 4, 8, &lo, &hi));
  EXPECT_EQ(lo, 0x2000u - 48);
  EXPECT_EQ(hi, 0x2000u + 8);
}

TEST(MemRange, IndexedIsUnbounded) {
  VInstr in;
  in.op = Op::kVluxei;
  std::uint64_t lo = 0;
  std::uint64_t hi = 0;
  EXPECT_FALSE(mem_range(in, 16, 8, &lo, &hi));
}

TEST(Timing, DeterministicAcrossRuns) {
  const MachineConfig cfg = MachineConfig::araxl(16);
  auto kernel = make_kernel("jacobi2d");
  Machine m(cfg);
  const Program prog = kernel->build(m, 64);
  const RunStats s1 = m.run(prog);
  const RunStats s2 = m.run(prog);
  EXPECT_EQ(s1.cycles, s2.cycles);
  EXPECT_EQ(s1.fpu_result_elems, s2.fpu_result_elems);
}

TEST(Timing, LongSlideSlowerThanSlide1) {
  const MachineConfig cfg = MachineConfig::araxl(64);
  const std::uint64_t vl = 4096;
  const RunStats s1 = run_prog(cfg, [&](ProgramBuilder& pb) {
    pb.vsetvli(vl, Sew::k64, kLmul4);
    pb.vfslide1down(16, 8, 0.0);
  });
  const RunStats sk = run_prog(cfg, [&](ProgramBuilder& pb) {
    pb.vsetvli(vl, Sew::k64, kLmul4);
    pb.vslidedown_vx(16, 8, 37);
  });
  // The long slide funnels through the ring at one element per cluster per
  // cycle (paper §III-B.4).
  EXPECT_GT(sk.cycles, s1.cycles * 2);
}

TEST(Timing, Ara2LongSlideNotPenalized) {
  const MachineConfig cfg = MachineConfig::ara2(16);
  const std::uint64_t vl = 1024;
  const RunStats s1 = run_prog(cfg, [&](ProgramBuilder& pb) {
    pb.vsetvli(vl, Sew::k64, kLmul4);
    pb.vfslide1down(16, 8, 0.0);
  });
  const RunStats sk = run_prog(cfg, [&](ProgramBuilder& pb) {
    pb.vsetvli(vl, Sew::k64, kLmul4);
    pb.vslidedown_vx(16, 8, 37);
  });
  EXPECT_LT(sk.cycles, s1.cycles + 16);  // lumped SLDU crossbar
}

// ---- steady-state loop batching ---------------------------------------------

/// Runs `kernel_name` under both engines on fresh machines and returns the
/// (event, oracle) stats pair.
std::pair<RunStats, RunStats> run_both_engines(const char* kernel_name,
                                               unsigned lanes,
                                               std::uint64_t bpl) {
  MachineConfig cfg = MachineConfig::araxl(lanes);
  cfg.timing_mode = TimingMode::kEventDriven;
  Machine ev(cfg);
  auto k1 = make_kernel(kernel_name);
  const RunStats s_ev = ev.run(k1->build(ev, bpl));

  cfg.timing_mode = TimingMode::kCycleStepped;
  Machine oracle(cfg);
  auto k2 = make_kernel(kernel_name);
  const RunStats s_or = oracle.run(k2->build(oracle, bpl));
  return {s_ev, s_or};
}

TEST(LoopBatching, EngagesOnFdotproductSteadyState) {
  // fdotproduct strip-mines vfmacc chains over LMUL=8 groups; at 16384
  // B/lane the event engine must detect the steady state, fast-forward
  // whole iterations, and still match the oracle on every counter.
  const auto [ev, oracle] = run_both_engines("fdotproduct", 8, 16384);
  EXPECT_GT(ev.batched_iterations, 0u);
  EXPECT_LT(ev.wakeups_total, oracle.wakeups_total / 4);
  EXPECT_TRUE(ev == oracle);
}

TEST(LoopBatching, EngagesOnStreamTriadSteadyState) {
  // stream_triad double-buffers its LMUL=8 groups, so its steady-state
  // period is TWO strips; give it enough strips for several periods.
  const auto [ev, oracle] = run_both_engines("stream_triad", 8, 32768);
  EXPECT_GT(ev.batched_iterations, 0u);
  EXPECT_TRUE(ev == oracle);
}

TEST(LoopBatching, DisengagesOnVlTail) {
  // A strip total that is NOT a multiple of VLMAX ends on a smaller
  // vsetvli grant: the batcher must stop before the tail iteration and the
  // run must stay bit-identical to the oracle through it.
  MachineConfig cfg = MachineConfig::araxl(16);
  const std::uint64_t vlmax_m4 = 4 * cfg.effective_vlen() / 64;
  const std::uint64_t total = 12 * vlmax_m4 + vlmax_m4 / 3;  // partial tail
  const auto body = [&](ProgramBuilder& pb) {
    std::uint64_t done = 0;
    std::uint64_t a = kA;
    while (done < total) {
      const std::uint64_t vl = pb.vsetvli(total - done, Sew::k64, kLmul4);
      pb.vle(8, a);
      pb.vfmacc_vf(16, 1.5, 8);
      pb.vse(16, a + 0x100000);
      a += vl * 8;
      done += vl;
    }
  };
  const RunStats ev = run_prog(cfg, body);
  MachineConfig oracle_cfg = cfg;
  oracle_cfg.timing_mode = TimingMode::kCycleStepped;
  const RunStats oracle = run_prog(oracle_cfg, body);
  EXPECT_GT(ev.batched_iterations, 0u);
  EXPECT_TRUE(ev == oracle);
  EXPECT_EQ(oracle.batched_iterations, 0u);  // the oracle never batches
}

TEST(LoopBatching, DisengagesOnMidLoopVsetvli) {
  // A mid-loop vsetvli whose grant changes every iteration breaks the
  // period signature: no batching, identical RunStats either way.
  MachineConfig cfg = MachineConfig::araxl(16);
  const std::uint64_t vlmax_m2 = 2 * cfg.effective_vlen() / 64;
  const auto body = [&](ProgramBuilder& pb) {
    std::uint64_t a = kA;
    for (std::uint64_t i = 0; i < 14; ++i) {
      pb.vsetvli(vlmax_m2, Sew::k64, kLmul2);
      pb.vle(8, a);
      pb.vsetvli(1 + (i % 5), Sew::k64, kLmul1);  // vl changes mid-loop
      pb.vfadd_vf(16, 8, 1.0);
      a += vlmax_m2 * 8;
    }
  };
  const RunStats ev = run_prog(cfg, body);
  MachineConfig oracle_cfg = cfg;
  oracle_cfg.timing_mode = TimingMode::kCycleStepped;
  const RunStats oracle = run_prog(oracle_cfg, body);
  EXPECT_EQ(ev.batched_iterations, 0u);
  EXPECT_TRUE(ev == oracle);
}

TEST(LoopBatching, WatchdogCountsBatchedIterationsAsProgress) {
  // Regression: a long batched fast-forward must feed the liveness
  // watchdog one progress note per iteration, so a tiny wakeup budget —
  // far smaller than the number of iterations fast-forwarded — cannot trip
  // the stuck detector mid-batch.
  MachineConfig cfg = MachineConfig::araxl(8);
  cfg.watchdog_budget = 48;  // << iterations below; default is 2^20
  Machine m(cfg);
  const std::uint64_t vlmax_m4 = 4 * cfg.effective_vlen() / 64;
  ProgramBuilder pb(cfg.effective_vlen(), "wd");
  std::uint64_t a = kA;
  for (std::uint64_t i = 0; i < 200; ++i) {
    pb.vsetvli(vlmax_m4, Sew::k64, kLmul4);
    pb.vle(8, a);
    pb.vfmacc_vf(16, 1.5, 8);
    a += vlmax_m4 * 8;
  }
  const RunStats s = m.run(pb.take());
  EXPECT_GT(s.batched_iterations, 150u);
  EXPECT_LT(s.wakeups_total, 2000u);
}

// ---- batching-decision telemetry: one test per rejection-reason counter -----

std::uint64_t rejects(const RunStats& s, BatchReject r) {
  return s.batch_rejects[static_cast<std::size_t>(r)];
}

TEST(LoopBatching, EngagesOnJacobi2dStencil) {
  // The jacobi2d row loop carries TWO different per-position progressions —
  // the loads step by the (padded) input row pitch, the stores by the
  // output row pitch. The per-position barrier gate admits that shape, so
  // the stencil batches at both bench lane counts, bit-identically.
  const auto [ev, oracle] = run_both_engines("jacobi2d", 16, 256);
  EXPECT_GT(ev.batched_iterations, 0u);
  EXPECT_EQ(rejects(ev, BatchReject::kAddrProgression), 0u);
  EXPECT_TRUE(ev == oracle);

  const auto [ev64, oracle64] = run_both_engines("jacobi2d", 64, 256);
  EXPECT_GT(ev64.batched_iterations, 0u);
  EXPECT_TRUE(ev64 == oracle64);
}

TEST(LoopBatching, RejectCounterAddrProgression) {
  // Bus-phase breaks at irregular spacing (iterations 5, 9, 16): neither a
  // per-position progression nor a two-level nest explains them, so the
  // static pass files the region under addr_progression — while the run
  // itself stays bit-identical (the barrier gate batches the clean
  // stretches and stops at each break instead of lying).
  MachineConfig cfg = MachineConfig::araxl(16);
  const std::uint64_t vlmax_m2 = 2 * cfg.effective_vlen() / 64;
  const std::uint64_t stride = vlmax_m2 * 8;
  const auto body = [&](ProgramBuilder& pb) {
    for (std::uint64_t i = 0; i < 18; ++i) {
      pb.vsetvli(vlmax_m2, Sew::k64, kLmul2);
      const std::uint64_t wobble = (i == 5 || i == 9 || i == 16) ? 8 : 0;
      pb.vle(8, kA + i * stride + wobble);
      pb.vfadd_vf(16, 8, 1.0);
    }
  };
  const RunStats ev = run_prog(cfg, body);
  MachineConfig oracle_cfg = cfg;
  oracle_cfg.timing_mode = TimingMode::kCycleStepped;
  const RunStats oracle = run_prog(oracle_cfg, body);
  EXPECT_GE(rejects(ev, BatchReject::kAddrProgression), 1u);
  EXPECT_TRUE(ev == oracle);
  // The oracle never attempts batching, so it never rejects either.
  for (std::size_t i = 0; i < kNumBatchRejects; ++i) {
    EXPECT_EQ(oracle.batch_rejects[i], 0u);
  }
}

TEST(LoopBatching, NestedLoopClampsAtRowBoundaries) {
  // A two-level tiled loop: twelve strips per row, then the load jumps to
  // the next row with a bus-phase-breaking pitch. The nest detector
  // recognises the constant row spacing, so the region is NOT filed under
  // addr_progression; batching engages inside rows (once the sequencer
  // backlog has drained past the previous row boundary), clamps at each
  // row boundary, re-arms in the next row, and stays bit-identical.
  MachineConfig cfg = MachineConfig::araxl(16);
  const std::uint64_t vlmax_m2 = 2 * cfg.effective_vlen() / 64;
  const std::uint64_t stride = vlmax_m2 * 8;
  const std::uint64_t row_pitch = 12 * stride + 8;  // +8 breaks bus phase
  const auto body = [&](ProgramBuilder& pb) {
    for (std::uint64_t row = 0; row < 4; ++row) {
      for (std::uint64_t s = 0; s < 12; ++s) {
        pb.vsetvli(vlmax_m2, Sew::k64, kLmul2);
        pb.vle(8, kA + row * row_pitch + s * stride);
        pb.vfadd_vf(16, 8, 1.0);
      }
    }
  };
  const RunStats ev = run_prog(cfg, body);
  MachineConfig oracle_cfg = cfg;
  oracle_cfg.timing_mode = TimingMode::kCycleStepped;
  const RunStats oracle = run_prog(oracle_cfg, body);
  EXPECT_GT(ev.batched_iterations, 0u);
  EXPECT_GE(ev.batch_clamps, 1u);
  EXPECT_EQ(rejects(ev, BatchReject::kAddrProgression), 0u);
  EXPECT_TRUE(ev == oracle);
}

TEST(LoopBatching, WarmupProjectionEngagesShortDeepRun) {
  // fdotproduct at 64 lanes / 8192 B-per-lane: a handful of strip-mine
  // iterations on a deep machine. The boundary snapshots keep differing in
  // warmup residue — issue stamps of drained ops and long-passed ready
  // times — none of which can affect future timing. Projecting that
  // residue away engages batching on a run this short, and the provenance
  // records it.
  const auto [ev, oracle] = run_both_engines("fdotproduct", 64, 8192);
  EXPECT_GT(ev.batched_iterations, 0u);
  EXPECT_GE(ev.warmup_projected, 1u);
  EXPECT_TRUE(ev == oracle);
  EXPECT_EQ(oracle.warmup_projected, 0u);
}

TEST(LoopBatching, RejectCounterSnapshotMismatch) {
  // The earliest boundaries of that same 64-lane run genuinely differ —
  // the fill transient is still reshaping queue timing — so the mismatch
  // counter fires before projection takes over and batching engages.
  const auto [ev, oracle] = run_both_engines("axpy", 64, 8192);
  EXPECT_GE(rejects(ev, BatchReject::kSnapshotMismatch), 1u);
  EXPECT_GT(ev.batched_iterations, 0u);
  EXPECT_TRUE(ev == oracle);
}

TEST(LoopBatching, RejectCounterVlTail) {
  // Same shape as DisengagesOnVlTail: the region ends on a smaller vsetvli
  // grant at unchanged vtype. The static classifier must file that under
  // vl_tail, not grant_change.
  MachineConfig cfg = MachineConfig::araxl(16);
  const std::uint64_t vlmax_m4 = 4 * cfg.effective_vlen() / 64;
  const std::uint64_t total = 12 * vlmax_m4 + vlmax_m4 / 3;
  const RunStats ev = run_prog(cfg, [&](ProgramBuilder& pb) {
    std::uint64_t done = 0;
    std::uint64_t a = kA;
    while (done < total) {
      const std::uint64_t vl = pb.vsetvli(total - done, Sew::k64, kLmul4);
      pb.vle(8, a);
      pb.vfmacc_vf(16, 1.5, 8);
      pb.vse(16, a + 0x100000);
      a += vl * 8;
      done += vl;
    }
  });
  EXPECT_GT(ev.batched_iterations, 0u);  // batches up to the tail...
  EXPECT_GE(rejects(ev, BatchReject::kVlTail), 1u);  // ...and names the stop
  EXPECT_EQ(rejects(ev, BatchReject::kGrantChange), 0u);
}

TEST(LoopBatching, RejectCounterGrantChange) {
  // A steady loop whose region ends on a vsetvli with a *different vtype*
  // (SEW narrows): not a strip-mine tail, a different loop shape. Must be
  // filed under grant_change, not vl_tail.
  MachineConfig cfg = MachineConfig::araxl(16);
  const std::uint64_t vlmax_m4 = 4 * cfg.effective_vlen() / 64;
  const RunStats ev = run_prog(cfg, [&](ProgramBuilder& pb) {
    std::uint64_t a = kA;
    for (std::uint64_t i = 0; i < 12; ++i) {
      pb.vsetvli(vlmax_m4, Sew::k64, kLmul4);
      pb.vle(8, a);
      pb.vfmacc_vf(16, 1.5, 8);
      a += vlmax_m4 * 8;
    }
    pb.vsetvli(vlmax_m4, Sew::k32, kLmul4);  // vtype changes: region ends here
    pb.vadd_vv(24, 20, 20);
  });
  EXPECT_GE(rejects(ev, BatchReject::kGrantChange), 1u);
  EXPECT_EQ(rejects(ev, BatchReject::kVlTail), 0u);
}

TEST(LoopBatching, RejectCounterLivenessGateBackstopStaysZero) {
  // The liveness gate (an in-flight op still < 1 period into the region)
  // is a defensive backstop: snapshot equality at two consecutive period
  // boundaries forces the live-op set to be a rigid one-period shift of
  // itself, which puts the oldest live op at least one period into the
  // region — so whenever the snapshot check passes, the gate passes too.
  // No program reachable through the builder has been found that trips it
  // (a wide empirical scan fires it nowhere). Pin it at zero on the
  // canonical engaging shapes so any engine change that starts tripping
  // the backstop — i.e. breaks the invariant above — is surfaced here.
  const auto [ev_axpy, oracle_axpy] = run_both_engines("axpy", 8, 16384);
  EXPECT_GT(ev_axpy.batched_iterations, 0u);
  EXPECT_EQ(rejects(ev_axpy, BatchReject::kLivenessGate), 0u);
  EXPECT_TRUE(ev_axpy == oracle_axpy);

  const auto [ev_dot, oracle_dot] = run_both_engines("fdotproduct", 8, 16384);
  EXPECT_GT(ev_dot.batched_iterations, 0u);
  EXPECT_EQ(rejects(ev_dot, BatchReject::kLivenessGate), 0u);
  EXPECT_TRUE(ev_dot == oracle_dot);
}

TEST(LoopBatching, SignatureCollisionAddressBreakRejected) {
  // Adversarial: op signatures repeat perfectly, but one load's address
  // progression silently breaks two periods after steady state would have
  // been declared. The address checks must clamp the batch before the
  // break, and every counter must still match the oracle.
  MachineConfig cfg = MachineConfig::araxl(16);
  const std::uint64_t vlmax_m2 = 2 * cfg.effective_vlen() / 64;
  const std::uint64_t stride = vlmax_m2 * 8;
  const auto body = [&](ProgramBuilder& pb) {
    for (std::uint64_t i = 0; i < 16; ++i) {
      pb.vsetvli(vlmax_m2, Sew::k64, kLmul2);
      // Progression holds for 10 iterations, then jumps backwards so the
      // store starts colliding with earlier loads.
      const std::uint64_t a = i < 10 ? kA + i * stride : kA + (i - 10) * stride;
      pb.vle(8, a);
      pb.vfadd_vf(16, 8, 2.0);
      pb.vse(16, a + 0x100000);
    }
  };
  const RunStats ev = run_prog(cfg, body);
  MachineConfig oracle_cfg = cfg;
  oracle_cfg.timing_mode = TimingMode::kCycleStepped;
  const RunStats oracle = run_prog(oracle_cfg, body);
  EXPECT_TRUE(ev == oracle);
}

// ---- whole-body regions and bus-phase super-periods --------------------------

struct TracedRun {
  RunStats stats;
  InstrTrace trace;
};

TracedRun run_traced(const MachineConfig& cfg, TimingMode mode,
                     const std::function<Program(Machine&)>& build) {
  MachineConfig c = cfg;
  c.timing_mode = mode;
  Machine m(c);
  TracedRun out;
  // Batch markers only: the oracle would log a wakeup marker every cycle.
  if (mode == TimingMode::kEventDriven) out.trace.enable_markers();
  out.stats = m.run(build(m), &out.trace);
  return out;
}

void expect_same_records(const InstrTrace& ev, const InstrTrace& oracle,
                         const std::string& label) {
  ASSERT_EQ(ev.records().size(), oracle.records().size()) << label;
  for (std::size_t i = 0; i < ev.records().size(); ++i) {
    const TraceRecord& x = ev.records()[i];
    const TraceRecord& y = oracle.records()[i];
    ASSERT_EQ(x.id, y.id) << label << " #" << i;
    ASSERT_EQ(x.prog_index, y.prog_index) << label << " #" << i;
    ASSERT_EQ(x.text, y.text) << label << " #" << i;
    ASSERT_EQ(x.vl, y.vl) << label << " #" << i;
    ASSERT_EQ(x.issued, y.issued) << label << " #" << i;
    ASSERT_EQ(x.dispatched, y.dispatched) << label << " #" << i;
    ASSERT_EQ(x.first_result, y.first_result) << label << " #" << i;
    ASSERT_EQ(x.completed, y.completed) << label << " #" << i;
    ASSERT_EQ(x.stall_reason, y.stall_reason) << label << " #" << i;
    ASSERT_EQ(x.stall_slots, y.stall_slots) << label << " #" << i;
  }
}

/// Runs `build` under both engines, traced, and checks RunStats and every
/// trace record bit-identical; returns the event engine's run.
TracedRun run_both_traced(const MachineConfig& cfg,
                          const std::function<Program(Machine&)>& build,
                          const std::string& label) {
  TracedRun ev = run_traced(cfg, TimingMode::kEventDriven, build);
  const TracedRun oracle = run_traced(cfg, TimingMode::kCycleStepped, build);
  EXPECT_TRUE(ev.stats == oracle.stats) << label;
  expect_same_records(ev.trace, oracle.trace, label);
  return ev;
}

TEST(LoopBatching, EngagesOnFconv2dAndSoftmaxRows) {
  // fconv2d's output row (115 ops) and softmax's row (113 ops) are whole
  // loop bodies only a >64-op period cap can see; fconv2d's input pitch
  // n+6 also drifts every load's bus phase by 48 B per row, which the
  // super-period promotion absorbs. Both must batch, with no progression
  // rejects, bit-identically to the oracle in RunStats and traces.
  const struct {
    const char* kernel;
    unsigned lanes;
    std::uint64_t bpl;
  } cases[] = {{"fconv2d", 8, 64}, {"fconv2d", 64, 64}, {"softmax", 64, 256}};
  for (const auto& c : cases) {
    const std::string label =
        std::string(c.kernel) + " araxl:" + std::to_string(c.lanes);
    const auto [ev, oracle] = run_both_engines(c.kernel, c.lanes, c.bpl);
    EXPECT_GT(ev.batched_iterations, 0u) << label;
    EXPECT_EQ(rejects(ev, BatchReject::kAddrProgression), 0u) << label;
    EXPECT_TRUE(ev == oracle) << label;

    const TracedRun traced = run_both_traced(
        MachineConfig::araxl(c.lanes),
        [&](Machine& m) { return make_kernel(c.kernel)->build(m, c.bpl); },
        label + " traced");
    EXPECT_GT(traced.stats.batched_iterations, 0u) << label;
  }
}

/// `iters` strips of (vle, vfadd, vse) whose load advances `load_step(i)`
/// bytes per strip while the store advances a bus-aligned strip.
Program drifting_loop(const MachineConfig& cfg, std::uint64_t iters,
                      const std::function<std::uint64_t(std::uint64_t)>& load_step) {
  ProgramBuilder pb(cfg.effective_vlen(), "drift");
  const std::uint64_t vlmax_m2 = 2 * cfg.effective_vlen() / 64;
  std::uint64_t a = kA;
  for (std::uint64_t i = 0; i < iters; ++i) {
    pb.vsetvli(vlmax_m2, Sew::k64, kLmul2);
    pb.vle(8, a);
    pb.vfadd_vf(16, 8, 1.0);
    pb.vse(16, kC + i * vlmax_m2 * 8);
    a += load_step(i);
  }
  return pb.take();
}

TEST(LoopBatching, BusPhaseDriftPromotesToSuperPeriod) {
  // 8 lanes: a 64 B bus. The load advances one strip plus 48 B, so its bus
  // phase cycles 0, 48, 32, 16 — equal only 4 bodies apart. The region is
  // promoted to a 4-body super-period and batches; batched_iterations
  // still counts loop bodies, so it and every engage marker's iteration
  // count are multiples of 4.
  const MachineConfig cfg = MachineConfig::araxl(8);
  ASSERT_EQ(cfg.mem_bytes_per_cycle(), 64u);
  const std::uint64_t strip = 2 * cfg.effective_vlen() / 64 * 8;
  const auto build = [&](Machine&) {
    return drifting_loop(cfg, 64, [&](std::uint64_t) { return strip + 48; });
  };
  const TracedRun ev = run_both_traced(cfg, build, "drift48");
  EXPECT_GT(ev.stats.batched_iterations, 0u);
  EXPECT_EQ(ev.stats.batched_iterations % 4, 0u);
  EXPECT_EQ(rejects(ev.stats, BatchReject::kAddrProgression), 0u);
  std::size_t engages = 0;
  for (const SimMarker& mk : ev.trace.markers()) {
    if (mk.kind == SimMarkerKind::kWakeup || mk.kind == SimMarkerKind::kBatchReject) {
      continue;
    }
    ++engages;
    EXPECT_EQ(mk.arg % 4, 0u) << "engage at cycle " << mk.cycle;
  }
  EXPECT_GE(engages, 1u);
}

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

TEST(LoopBatching, AperiodicBusPhaseIsNotPromoted) {
  // Adversarial: each strip's load step adds a pseudo-random multiple of
  // 8 B, so the bus phase never repeats at any power-of-two lag. The region
  // keeps its body period, every phase change stays a barrier (filed as
  // addr_progression), and the run stays bit-identical to the oracle.
  const MachineConfig cfg = MachineConfig::araxl(8);
  const std::uint64_t strip = 2 * cfg.effective_vlen() / 64 * 8;
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    const auto build = [&](Machine&) {
      return drifting_loop(cfg, 64, [&](std::uint64_t i) {
        return strip + 8 * (splitmix64(seed * 1000 + i) % 8);
      });
    };
    const TracedRun ev =
        run_both_traced(cfg, build, "splitmix seed " + std::to_string(seed));
    EXPECT_GE(rejects(ev.stats, BatchReject::kAddrProgression), 1u) << seed;
  }
}

TEST(LoopBatching, SuperPeriodNeedsThreeInRegion) {
  // The 48 B drift again, but 11 bodies: fewer than 3 four-body
  // super-periods (record, match, batch), so no promotion — the region
  // simulates per wakeup with its per-body phase barriers, bit-identically.
  const MachineConfig cfg = MachineConfig::araxl(8);
  const std::uint64_t strip = 2 * cfg.effective_vlen() / 64 * 8;
  const auto build = [&](Machine&) {
    return drifting_loop(cfg, 11, [&](std::uint64_t) { return strip + 48; });
  };
  const TracedRun ev = run_both_traced(cfg, build, "drift48 short");
  EXPECT_EQ(ev.stats.batched_iterations, 0u);
  EXPECT_GE(rejects(ev.stats, BatchReject::kAddrProgression), 1u);
}

}  // namespace
}  // namespace araxl
