// Tests for the instruction trace and Gantt renderer.
#include <gtest/gtest.h>

#include "kernels/common.hpp"
#include "machine/machine.hpp"
#include "trace/trace.hpp"

namespace araxl {
namespace {

TEST(Trace, RecordsEveryDispatchedInstruction) {
  Machine m(MachineConfig::araxl(16));
  ProgramBuilder pb(m.config().effective_vlen(), "t");
  pb.vsetvli(256, Sew::k64, kLmul1);
  pb.vle(8, 0x10000);
  pb.vfadd_vv(12, 8, 8);
  pb.vse(12, 0x20000);
  InstrTrace trace;
  m.run(pb.take(), &trace);
  // vsetvli executes on the CVA6 side; the three dispatched ops are traced.
  ASSERT_EQ(trace.size(), 3u);
  EXPECT_NE(trace.records()[0].text.find("vle64.v"), std::string::npos);
  EXPECT_NE(trace.records()[1].text.find("vfadd.vv"), std::string::npos);
  EXPECT_NE(trace.records()[2].text.find("vse64.v"), std::string::npos);
}

TEST(Trace, TimesAreOrderedPerRecord) {
  Machine m(MachineConfig::araxl(16));
  auto kernel = make_kernel("jacobi2d");
  const Program prog = kernel->build(m, 64);
  InstrTrace trace;
  const RunStats stats = m.run(prog, &trace);
  EXPECT_GT(trace.size(), 100u);
  for (const TraceRecord& r : trace.records()) {
    EXPECT_LE(r.issued, r.dispatched) << r.text;
    EXPECT_LE(r.dispatched, r.completed) << r.text;
    if (r.first_result > 0) {
      EXPECT_LE(r.dispatched, r.first_result) << r.text;
      EXPECT_LE(r.first_result, r.completed) << r.text;
    }
    EXPECT_LE(r.completed, stats.cycles) << r.text;
  }
}

TEST(Trace, ChainingVisibleInTrace) {
  // A chained consumer starts producing before its producer completes.
  Machine m(MachineConfig::araxl(16));
  ProgramBuilder pb(m.config().effective_vlen(), "chain");
  pb.vsetvli(1024, Sew::k64, kLmul4);
  pb.vle(8, 0x10000);
  pb.vfmul_vv(16, 8, 8);
  InstrTrace trace;
  m.run(pb.take(), &trace);
  ASSERT_EQ(trace.size(), 2u);
  const TraceRecord& load = trace.records()[0];
  const TraceRecord& mul = trace.records()[1];
  EXPECT_LT(mul.first_result, load.completed);
}

TEST(Trace, GanttRendersWindow) {
  Machine m(MachineConfig::araxl(16));
  ProgramBuilder pb(m.config().effective_vlen(), "g");
  pb.vsetvli(512, Sew::k64, kLmul2);
  pb.vle(8, 0x10000);
  pb.vfmacc_vf(16, 2.0, 8);
  pb.vse(16, 0x20000);
  InstrTrace trace;
  const RunStats stats = m.run(pb.take(), &trace);
  const std::string art = trace.gantt(0, stats.cycles, 60);
  EXPECT_NE(art.find("vfmacc.vf"), std::string::npos);
  EXPECT_NE(art.find("load"), std::string::npos);
  EXPECT_NE(art.find('='), std::string::npos);
  EXPECT_NE(art.find('#'), std::string::npos);
}

TEST(Trace, GanttRowsWiderThanAFewHundredColumnsKeepTheirEnds) {
  Machine m(MachineConfig::araxl(16));
  ProgramBuilder pb(m.config().effective_vlen(), "g");
  pb.vsetvli(512, Sew::k64, kLmul2);
  pb.vle(8, 0x10000);
  pb.vse(8, 0x20000);
  InstrTrace trace;
  const RunStats stats = m.run(pb.take(), &trace);
  const unsigned width = 600;
  const std::string art = trace.gantt(0, stats.cycles, width);
  // Every instruction row: 28-column label, " |", the bar, "|\n".
  std::size_t rows = 0;
  for (std::size_t at = art.find('\n') + 1; at < art.size(); ++rows) {
    const std::size_t nl = art.find('\n', at);
    ASSERT_NE(nl, std::string::npos);
    EXPECT_EQ(nl - at, 28 + 2 + width + 1);
    EXPECT_EQ(art[nl - 1], '|');
    at = nl + 1;
  }
  EXPECT_EQ(rows, 2u);
}

TEST(Trace, GanttEmptyWindow) {
  InstrTrace trace;
  const std::string art = trace.gantt(0, 100, 40);
  EXPECT_NE(art.find("no instructions"), std::string::npos);
  EXPECT_THROW(trace.gantt(10, 10), ContractViolation);
}

TEST(Trace, NoTraceSinkMeansNoOverheadPath) {
  // Smoke: running without a sink is identical in stats.
  Machine m1(MachineConfig::araxl(16));
  Machine m2(MachineConfig::araxl(16));
  auto k1 = make_kernel("exp");
  auto k2 = make_kernel("exp");
  const Program p1 = k1->build(m1, 64);
  const Program p2 = k2->build(m2, 64);
  InstrTrace trace;
  EXPECT_EQ(m1.run(p1).cycles, m2.run(p2, &trace).cycles);
}

}  // namespace
}  // namespace araxl
