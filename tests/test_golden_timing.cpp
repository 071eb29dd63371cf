// Golden cycle-count regression tests.
//
// The figure benches under bench/ depend on the calibrated timing model;
// these tests pin exact cycle counts of representative programs so that
// any change to the issue path, chaining, memory pipeline, or reduction
// schedule is a *conscious* recalibration (update the constants here and
// re-run the figure benches), never an accident.
#include <gtest/gtest.h>

#include <bit>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <string>

#include "driver/job.hpp"
#include "driver/registry.hpp"
#include "driver/spec.hpp"
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

// One line per RunStats word: "<config> <kernel> <word> <value>".
std::string golden_stats_lines(const std::string& config, const std::string& kernel,
                               const RunStats& s) {
  std::string out;
  for (const StatField& f : kRunStatsFields) {
    const auto words = f.words(s);
    for (std::size_t i = 0; i < f.count; ++i) {
      out += config + " " + kernel + " ";
      out += f.key;
      if (f.is_array()) {
        out += '.';
        out += f.elem_name(i);
      }
      out += ' ';
      out += std::to_string(words[i]);
      out += '\n';
    }
  }
  return out;
}

// Compares `actual` with the committed tests/golden/<name>; on a mismatch the
// actual bytes are written next to the test's temp files for diffing.
void expect_matches_golden(const std::string& name, const std::string& actual,
                           const char* what) {
  const std::string path = std::string(ARAXL_SOURCE_DIR) + "/tests/golden/" + name;
  std::ifstream f(path, std::ios::binary);
  const std::string golden((std::istreambuf_iterator<char>(f)),
                           std::istreambuf_iterator<char>());
  if (actual != golden) {
    const std::string out = testing::TempDir() + name;
    std::ofstream(out, std::ios::binary) << actual;
    ADD_FAILURE() << path << " differs from this build's " << what
                  << "; actual in " << out;
  }
}

TEST(GoldenRunStats, EveryWordOfEveryKernel) {
  // Pins every kRunStatsFields word, provenance included, of every registry
  // kernel on flat Ara2 and AraXL machines and a hierarchical one
  // (tests/golden/run_stats.txt). The cycle-stepped oracle shares the
  // per-cycle step and the stall attribution with the event engine, so
  // --oracle-check cannot catch a slip in that shared code; these committed
  // values can. The oracle must also reproduce every measurement word and
  // count one wakeup per cycle. On a mismatch the actual lines are written
  // next to the test's temp files for diffing.
  constexpr std::uint64_t kBpl = 64;
  constexpr std::uint64_t kSeed = 11;
  const auto& registry = driver::KernelRegistry::instance();
  std::string actual;
  for (const char* spec : {"ara2:8", "araxl:16", "araxl:64", "araxl:2x2x4"}) {
    const driver::ConfigPoint point = driver::parse_config_spec(spec);
    for (const std::string& name : registry.names()) {
      Machine m(point.cfg);
      auto kernel = registry.make(name);
      kernel->seed_inputs(kSeed);
      const Program prog = kernel->build(m, kBpl);
      const RunStats stats = m.run(prog);
      actual += golden_stats_lines(point.label, name, stats);

      MachineConfig ocfg = point.cfg;
      ocfg.timing_mode = TimingMode::kCycleStepped;
      Machine oracle(ocfg);
      kernel->load_inputs(oracle);
      const RunStats ostats = oracle.run(prog);
      EXPECT_TRUE(ostats == stats) << spec << " " << name;
      EXPECT_EQ(ostats.wakeups_total, ostats.cycles) << spec << " " << name;
    }
  }
  expect_matches_golden("run_stats.txt", actual, "RunStats");
}

TEST(GoldenVerify, EveryKernelBitExact) {
  // Pins each registry kernel's VerifyResult (max_rel_err as its IEEE bits,
  // and the element count) on the GoldenRunStats machines at seed 11
  // (tests/golden/verify.txt). Reports and store lines carry both fields,
  // so a rewrite of a golden reference or of the compare must reproduce
  // them bit for bit. At 24 B/lane no output length is a multiple of a
  // verify row, tile or chunk, so the tails are covered too.
  constexpr std::uint64_t kSeed = 11;
  const auto& registry = driver::KernelRegistry::instance();
  std::string actual;
  for (const char* spec : {"ara2:8", "araxl:16", "araxl:64", "araxl:2x2x4"}) {
    const driver::ConfigPoint point = driver::parse_config_spec(spec);
    for (const std::string& name : registry.names()) {
      for (const std::uint64_t bpl : {24, 64}) {
        Machine m(point.cfg);
        auto kernel = registry.make(name);
        kernel->seed_inputs(kSeed);
        m.run(kernel->build(m, bpl));
        const VerifyResult vr = kernel->verify(m);
        EXPECT_TRUE(vr.ok(kernel->tolerance())) << spec << " " << name << " " << bpl;
        char line[160];
        std::snprintf(line, sizeof line, "%s %s %llu %016llx %llu\n",
                      point.label.c_str(), name.c_str(),
                      static_cast<unsigned long long>(bpl),
                      static_cast<unsigned long long>(
                          std::bit_cast<std::uint64_t>(vr.max_rel_err)),
                      static_cast<unsigned long long>(vr.checked));
        actual += line;
      }
    }
  }
  expect_matches_golden("verify.txt", actual, "VerifyResults");
}

}  // namespace
}  // namespace araxl
