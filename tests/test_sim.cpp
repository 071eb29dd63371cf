// Unit tests: simulation primitives (DelayLine, BoundedQueue, LaggedCounter,
// EventHorizon/WakeupWatchdog, RunStats metrics).
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstring>

#include "sim/pipe.hpp"
#include "sim/scheduler.hpp"
#include "sim/stats.hpp"

namespace araxl {
namespace {

TEST(DelayLine, DelaysByLatency) {
  DelayLine<int> dl(3);
  dl.push(10, 42);
  EXPECT_FALSE(dl.ready(10));
  EXPECT_FALSE(dl.ready(12));
  EXPECT_TRUE(dl.ready(13));
  EXPECT_EQ(dl.pop(13), 42);
  EXPECT_TRUE(dl.empty());
}

TEST(DelayLine, PreservesOrder) {
  DelayLine<int> dl(2);
  dl.push(0, 1);
  dl.push(1, 2);
  dl.push(2, 3);
  EXPECT_EQ(dl.pop(5), 1);
  EXPECT_EQ(dl.pop(5), 2);
  EXPECT_EQ(dl.pop(5), 3);
}

TEST(DelayLine, ZeroLatency) {
  DelayLine<int> dl(0);
  dl.push(7, 9);
  EXPECT_TRUE(dl.ready(7));
  EXPECT_EQ(dl.pop(7), 9);
}

TEST(DelayLine, PopNotReadyThrows) {
  DelayLine<int> dl(5);
  dl.push(0, 1);
  EXPECT_THROW(dl.pop(3), ContractViolation);
}

TEST(BoundedQueue, Backpressure) {
  BoundedQueue<int> q(2);
  EXPECT_TRUE(q.try_push(1));
  EXPECT_TRUE(q.try_push(2));
  EXPECT_FALSE(q.try_push(3));
  EXPECT_TRUE(q.full());
  q.pop();
  EXPECT_TRUE(q.try_push(3));
  EXPECT_EQ(q.front(), 2);
}

TEST(BoundedQueue, EmptyAccessThrows) {
  BoundedQueue<int> q(1);
  EXPECT_THROW(static_cast<void>(q.front()), ContractViolation);
  EXPECT_THROW(q.pop(), ContractViolation);
}

TEST(BoundedQueue, ZeroCapacityRejected) {
  EXPECT_THROW(BoundedQueue<int>(0), ContractViolation);
}

TEST(LaggedCounter, ZeroLagReturnsLatest) {
  LaggedCounter c;
  c.record(10, 5);
  c.record(11, 8);
  EXPECT_EQ(c.value_at_lag(11, 0), 8u);
  EXPECT_EQ(c.latest(), 8u);
}

TEST(LaggedCounter, LagLooksBack) {
  LaggedCounter c;
  c.record(10, 5);
  c.record(12, 9);
  c.record(13, 12);
  EXPECT_EQ(c.value_at_lag(13, 1), 9u);   // value at cycle 12
  EXPECT_EQ(c.value_at_lag(13, 2), 5u);   // value at cycle 11 (still 5)
  EXPECT_EQ(c.value_at_lag(13, 3), 5u);   // value at cycle 10
  EXPECT_EQ(c.value_at_lag(13, 4), 0u);   // before any record
}

TEST(LaggedCounter, BeforeHistoryIsZero) {
  LaggedCounter c;
  EXPECT_EQ(c.value_at_lag(100, 5), 0u);
  c.record(100, 7);
  EXPECT_EQ(c.value_at_lag(100, 50), 0u);
}

TEST(LaggedCounter, SameCycleOverwrite) {
  LaggedCounter c;
  c.record(5, 1);
  c.record(5, 3);
  EXPECT_EQ(c.value_at_lag(5, 0), 3u);
}

TEST(LaggedCounter, LongHistoryStaysCorrectWithinDepth) {
  LaggedCounter c;
  for (Cycle t = 0; t < 200; ++t) c.record(t, t * 2);
  // lag within the retained window (64 entries at 1/cycle).
  EXPECT_EQ(c.value_at_lag(199, 10), (199u - 10) * 2);
  EXPECT_EQ(c.value_at_lag(199, 63), (199u - 63) * 2);
}

TEST(LaggedCounter, RampInterpolatesLikePerCycleRecords) {
  // A segment entry must answer value_at_lag exactly as the equivalent
  // per-cycle point records would (the event engine's compression contract).
  LaggedCounter ramp;
  LaggedCounter points;
  // 5 elements per cycle over cycles [10, 19], i.e. value 5..50.
  ramp.record_ramp(10, 5, 5, 1, 0, 19);
  for (Cycle t = 10; t <= 19; ++t) points.record(t, (t - 9) * 5);
  for (Cycle now = 10; now <= 30; ++now) {
    for (Cycle lag = 0; lag <= 12; ++lag) {
      EXPECT_EQ(ramp.value_at_lag(now, lag), points.value_at_lag(now, lag))
          << "now " << now << " lag " << lag;
    }
  }
  EXPECT_EQ(ramp.latest(), 50u);
}

TEST(LaggedCounter, FractionalRampMatchesAccumulator) {
  // Rate 170/256 elements per cycle — the unpipelined-divider pattern.
  // One ramp entry must reproduce the per-cycle quota recurrence exactly.
  LaggedCounter ramp;
  LaggedCounter points;
  std::uint64_t acc = 0;
  std::uint64_t produced = 0;
  for (Cycle t = 100; t <= 140; ++t) {
    acc += 170;
    produced += acc >> 8;
    acc &= 0xFF;
    points.record(t, produced);
    if (t == 100) ramp.record_ramp(100, produced, 170, 256, acc, 140);
  }
  for (Cycle now = 100; now <= 150; ++now) {
    EXPECT_EQ(ramp.value_at_lag(now, 3), points.value_at_lag(now, 3)) << now;
  }
}

TEST(LaggedCounter, ContiguousIntegerRampsMerge) {
  LaggedCounter c;
  c.record_ramp(10, 4, 4, 1, 0, 14);   // 4/cycle through cycle 14 (value 20)
  c.record_ramp(15, 24, 4, 1, 0, 19);  // seamless continuation to 40
  EXPECT_EQ(c.value_at(12), 12u);
  EXPECT_EQ(c.value_at(17), 32u);
  EXPECT_EQ(c.latest(), 40u);
}

TEST(LaggedCounter, PieceAtDescribesSegments) {
  LaggedCounter c;
  c.record(5, 2);
  c.record_ramp(10, 4, 2, 1, 0, 14);
  const auto before = c.piece_at(3);
  EXPECT_EQ(before.value, 0u);
  EXPECT_EQ(before.num, 0u);
  EXPECT_EQ(before.change_at, 5u);
  const auto flat = c.piece_at(7);
  EXPECT_EQ(flat.value, 2u);
  EXPECT_EQ(flat.num, 0u);
  EXPECT_EQ(flat.change_at, 10u);
  const auto growing = c.piece_at(11);
  EXPECT_EQ(growing.value, 6u);
  EXPECT_EQ(growing.num, 2u);
  EXPECT_EQ(growing.grow_until, 14u);
  const auto held = c.piece_at(20);
  EXPECT_EQ(held.value, 12u);
  EXPECT_EQ(held.num, 0u);
  EXPECT_EQ(held.change_at, kNeverCycle);
}

TEST(EventHorizon, KeepsEarliestFutureProposal) {
  EventHorizon h;
  h.reset(100);
  EXPECT_TRUE(h.empty());
  h.propose(99);   // past: ignored
  h.propose(100);  // present: ignored
  EXPECT_TRUE(h.empty());
  h.propose(140);
  h.propose(120);
  h.propose(130);
  EXPECT_EQ(h.next(), 120u);
  h.reset(120);
  EXPECT_TRUE(h.empty());
}

TEST(WakeupWatchdog, TripsAfterBudgetWithoutProgress) {
  WakeupWatchdog wd(3);
  for (int i = 0; i < 3; ++i) wd.note_wakeup();
  EXPECT_FALSE(wd.stuck());
  wd.note_wakeup();
  EXPECT_TRUE(wd.stuck());
  wd.note_progress();
  EXPECT_FALSE(wd.stuck());
  EXPECT_EQ(wd.wakeups_total(), 4u);
}

TEST(WakeupWatchdog, BatchedProgressCountsPerIteration) {
  // Regression for the loop batcher: fast-forwarding K iterations inside
  // one wakeup must register as K progress events. Before note_progress
  // took an event count, a batch looked like a single note — the progress
  // total undercounted by K-1 and long fast-forwards were indistinguishable
  // from a machine inching along one element at a time.
  WakeupWatchdog wd(4);
  wd.note_wakeup();
  wd.note_progress(1000);  // one batch, 1000 iterations
  EXPECT_FALSE(wd.stuck());
  EXPECT_EQ(wd.progress_total(), 1000u);
  for (int i = 0; i < 4; ++i) wd.note_wakeup();
  EXPECT_FALSE(wd.stuck());  // budget counts wakeups since the batch
  wd.note_wakeup();
  EXPECT_TRUE(wd.stuck());
  wd.note_progress();
  EXPECT_EQ(wd.progress_total(), 1001u);
  wd.reset();
  EXPECT_EQ(wd.progress_total(), 0u);
}

TEST(RunStats, EqualityComparesAllCounters) {
  // Flip every word of the field table in turn: a measurement word must
  // make the stats differ, a provenance word must not.
  std::size_t provenance = 0;
  for (const StatField& f : kRunStatsFields) {
    for (std::size_t i = 0; i < f.count; ++i) {
      RunStats a;
      a.cycles = 10;
      a.flops = 5;
      RunStats b = a;
      f.words(b)[i] ^= 1;
      EXPECT_EQ(a == b, !f.measurement()) << f.key << "[" << i << "]";
      EXPECT_EQ(a != b, f.measurement()) << f.key << "[" << i << "]";
      if (!f.measurement()) ++provenance;
    }
  }
  // wakeups_total, batched_iterations, 5 batch_rejects, batch_clamps,
  // warmup_projected.
  EXPECT_EQ(provenance, 4 + kNumBatchRejects);
}

TEST(RunStats, FieldTableCoversEveryWordOnce) {
  // The static_assert counts words; this checks that the rows address
  // distinct members, so no member hides behind a duplicated row.
  RunStats s;
  std::uint64_t next = 1;
  for (const StatField& f : kRunStatsFields) {
    for (std::uint64_t& w : f.words(s)) w = next++;
  }
  std::array<std::uint64_t, kRunStatsWords> raw{};
  static_assert(sizeof(raw) == sizeof(s));
  std::memcpy(raw.data(), &s, sizeof(s));
  std::sort(raw.begin(), raw.end());
  for (std::size_t i = 0; i < raw.size(); ++i) EXPECT_EQ(raw[i], i + 1);
}

TEST(RunStats, UtilAndFlops) {
  RunStats s;
  s.cycles = 100;
  s.total_lanes = 16;
  s.fpu_result_elems = 800;
  s.flops = 1600;
  EXPECT_DOUBLE_EQ(s.fpu_util(), 0.5);
  EXPECT_DOUBLE_EQ(s.flop_per_cycle(), 16.0);
  EXPECT_DOUBLE_EQ(s.gflops(1.25), 20.0);
}

TEST(RunStats, EmptyIsSafe) {
  RunStats s;
  EXPECT_DOUBLE_EQ(s.fpu_util(), 0.0);
  EXPECT_DOUBLE_EQ(s.flop_per_cycle(), 0.0);
}

TEST(RunStats, SummaryMentionsKeyFields) {
  RunStats s;
  s.cycles = 1234;
  s.total_lanes = 8;
  const std::string out = s.summary();
  EXPECT_NE(out.find("1,234"), std::string::npos);
  EXPECT_NE(out.find("FPU utilization"), std::string::npos);
}

TEST(UnitNames, AllDistinct) {
  for (std::size_t a = 0; a < kNumUnits; ++a) {
    for (std::size_t b = a + 1; b < kNumUnits; ++b) {
      EXPECT_NE(unit_name(static_cast<Unit>(a)), unit_name(static_cast<Unit>(b)));
    }
  }
}

}  // namespace
}  // namespace araxl
