// Sensitivity tests for the remaining microarchitectural knobs: buffer
// depths, unit latencies, divider occupancy, and the independence of the
// read/write memory channels. These document which way each knob moves the
// model and keep refactors honest.
#include <gtest/gtest.h>

#include <functional>

#include "common/contracts.hpp"
#include "kernels/common.hpp"
#include "machine/machine.hpp"

namespace araxl {
namespace {

constexpr std::uint64_t kA = 0x10000;
constexpr std::uint64_t kB = 0x40000;

Cycle run_cycles(const MachineConfig& cfg,
                 const std::function<void(ProgramBuilder&)>& body) {
  Machine m(cfg);
  ProgramBuilder pb(cfg.effective_vlen(), "t");
  body(pb);
  return m.run(pb.take()).cycles;
}

TEST(TimingKnobs, ShallowUnitQueueThrottlesBackToBackIssue) {
  MachineConfig deep = MachineConfig::araxl(16);
  MachineConfig shallow = deep;
  shallow.unit_queue_depth = 1;
  const auto body = [](ProgramBuilder& pb) {
    pb.vsetvli(16, Sew::k64, kLmul1);  // short ops: queue depth matters
    for (int i = 0; i < 40; ++i) pb.vfadd_vv(8, 4, 4);
  };
  EXPECT_GT(run_cycles(shallow, body), run_cycles(deep, body));
}

TEST(TimingKnobs, UnitQueueDepthIsCappedAtValidation) {
  // Unit queues are stored inline; a deeper config is rejected up front.
  MachineConfig cfg = MachineConfig::araxl(16);
  cfg.unit_queue_depth = kMaxUnitQueueDepth;
  const auto body = [](ProgramBuilder& pb) {
    pb.vsetvli(16, Sew::k64, kLmul1);
    for (int i = 0; i < 40; ++i) pb.vfadd_vv(8, 4, 4);
  };
  EXPECT_GT(run_cycles(cfg, body), 0u);
  cfg.unit_queue_depth = kMaxUnitQueueDepth + 1;
  EXPECT_THROW(cfg.validate(), ContractViolation);
}

TEST(TimingKnobs, ShallowSequencerQueueStallsCva6) {
  MachineConfig deep = MachineConfig::araxl(16);
  MachineConfig shallow = deep;
  shallow.seq_queue_depth = 1;
  Machine m(shallow);
  ProgramBuilder pb(shallow.effective_vlen(), "t");
  pb.vsetvli(1024, Sew::k64, kLmul4);
  for (int i = 0; i < 8; ++i) pb.vfadd_vv(8, 4, 4);
  const RunStats s = m.run(pb.take());
  EXPECT_GT(s.issue_stall_cycles, 0u);
}

TEST(TimingKnobs, FpuLatencyStretchesDependentChains) {
  MachineConfig fast = MachineConfig::araxl(16);
  MachineConfig slow = fast;
  slow.fpu_latency = 20;
  // Dependent chain: each op consumes the previous result.
  const auto chain = [](ProgramBuilder& pb) {
    pb.vsetvli(256, Sew::k64, kLmul1);
    for (int i = 0; i < 10; ++i) pb.vfadd_vf(8, 8, 1.0);
  };
  const Cycle chain_fast = run_cycles(fast, chain);
  const Cycle chain_slow = run_cycles(slow, chain);
  // Per dependent stage the cost behaves like max(busy, lag): with busy =
  // 256/16 = 16 cycles, raising the lag from 5 to 20 stretches each of the
  // ~10 stages by roughly (20 - 16) cycles.
  EXPECT_GE(chain_slow, chain_fast + 10 * (20 - 16) - 8);
  EXPECT_LE(chain_slow, chain_fast + 10 * 20);
}

TEST(TimingKnobs, DividerOccupancyScalesLinearly) {
  MachineConfig a = MachineConfig::araxl(16);
  MachineConfig b = a;
  a.div_cycles_per_elem = 8;
  b.div_cycles_per_elem = 24;
  const auto body = [](ProgramBuilder& pb) {
    pb.vsetvli(512, Sew::k64, kLmul2);
    pb.vfdiv_vv(8, 4, 4);
  };
  const Cycle ca = run_cycles(a, body);
  const Cycle cb = run_cycles(b, body);
  // Data portion scales 3x; overhead is constant.
  const double data_a = 512.0 / 16 * 8;
  const double data_b = 512.0 / 16 * 24;
  EXPECT_NEAR(static_cast<double>(cb - ca), data_b - data_a, 16.0);
}

TEST(TimingKnobs, ReadAndWriteChannelsAreIndependent) {
  // A load stream and a store stream to disjoint ranges overlap almost
  // fully (separate AXI channels); two load streams serialize.
  const MachineConfig cfg = MachineConfig::araxl(16);
  const auto load_only = [](ProgramBuilder& pb) {
    pb.vsetvli(2048, Sew::k64, kLmul8);
    pb.vle(8, kA);
  };
  const auto load_plus_store = [](ProgramBuilder& pb) {
    pb.vsetvli(2048, Sew::k64, kLmul8);
    pb.vle(8, kA);
    pb.vse(16, kB);
  };
  const auto two_loads = [](ProgramBuilder& pb) {
    pb.vsetvli(2048, Sew::k64, kLmul8);
    pb.vle(8, kA);
    pb.vle(16, kB);
  };
  const Cycle t_load = run_cycles(cfg, load_only);
  const Cycle t_ls = run_cycles(cfg, load_plus_store);
  const Cycle t_ll = run_cycles(cfg, two_loads);
  const Cycle stream = 2048 / 16;  // data beats per stream
  EXPECT_LT(t_ls, t_load + stream / 2);   // store overlaps the load
  EXPECT_GE(t_ll, t_load + stream - 8);   // second load serializes
}

TEST(TimingKnobs, L2LatencyShiftsLoadsOneForOne) {
  MachineConfig near = MachineConfig::araxl(16);
  MachineConfig far = near;
  far.l2_latency = near.l2_latency + 30;
  const auto body = [](ProgramBuilder& pb) {
    pb.vsetvli(128, Sew::k64, kLmul1);
    pb.vle(8, kA);
  };
  EXPECT_EQ(run_cycles(far, body), run_cycles(near, body) + 30);
}

TEST(TimingKnobs, DcacheLatencyChargesScalarLoads) {
  MachineConfig fast = MachineConfig::araxl(16);
  MachineConfig slow = fast;
  slow.dcache_load_latency = fast.dcache_load_latency + 5;
  const auto body = [](ProgramBuilder& pb) {
    pb.vsetvli(16, Sew::k64, kLmul1);
    for (int i = 0; i < 20; ++i) pb.scalar_load();
    pb.vfadd_vv(8, 4, 4);
  };
  EXPECT_EQ(run_cycles(slow, body), run_cycles(fast, body) + 20 * 5);
}

TEST(TimingKnobs, StartLatencyDelaysFirstResultOnly) {
  MachineConfig a = MachineConfig::araxl(16);
  MachineConfig b = a;
  b.unit_start_latency = a.unit_start_latency + 7;
  const auto body = [](ProgramBuilder& pb) {
    pb.vsetvli(1024, Sew::k64, kLmul4);
    pb.vfadd_vv(8, 4, 4);
  };
  EXPECT_EQ(run_cycles(b, body), run_cycles(a, body) + 7);
}

}  // namespace
}  // namespace araxl
