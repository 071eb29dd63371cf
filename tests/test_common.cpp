// Unit tests: common utilities (bits, contracts, fmt, rng, table, ticker).
#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "common/bits.hpp"
#include "common/contracts.hpp"
#include "common/fmt.hpp"
#include "common/rng.hpp"
#include "common/table.hpp"
#include "common/ticker.hpp"

namespace araxl {
namespace {

TEST(Bits, IsPow2) {
  EXPECT_FALSE(is_pow2(0));
  EXPECT_TRUE(is_pow2(1));
  EXPECT_TRUE(is_pow2(2));
  EXPECT_FALSE(is_pow2(3));
  EXPECT_TRUE(is_pow2(1ull << 63));
  EXPECT_FALSE(is_pow2((1ull << 63) + 1));
}

TEST(Bits, Log2Floor) {
  EXPECT_EQ(log2_floor(1), 0u);
  EXPECT_EQ(log2_floor(2), 1u);
  EXPECT_EQ(log2_floor(3), 1u);
  EXPECT_EQ(log2_floor(4), 2u);
  EXPECT_EQ(log2_floor(65536), 16u);
}

TEST(Bits, Log2Ceil) {
  EXPECT_EQ(log2_ceil(1), 0u);
  EXPECT_EQ(log2_ceil(2), 1u);
  EXPECT_EQ(log2_ceil(3), 2u);
  EXPECT_EQ(log2_ceil(4), 2u);
  EXPECT_EQ(log2_ceil(5), 3u);
}

TEST(Bits, AlignUpDown) {
  EXPECT_EQ(align_down(0x1234, 0x100), 0x1200u);
  EXPECT_EQ(align_up(0x1234, 0x100), 0x1300u);
  EXPECT_EQ(align_up(0x1200, 0x100), 0x1200u);
  EXPECT_EQ(align_down(7, 8), 0u);
}

TEST(Bits, CeilDiv) {
  EXPECT_EQ(ceil_div(0, 4), 0u);
  EXPECT_EQ(ceil_div(1, 4), 1u);
  EXPECT_EQ(ceil_div(4, 4), 1u);
  EXPECT_EQ(ceil_div(5, 4), 2u);
}

TEST(Bits, BitsOf) {
  EXPECT_EQ(bits_of(0xABCD, 4, 8), 0xBCu);
  EXPECT_EQ(bits_of(~0ull, 0, 64), ~0ull);
  EXPECT_EQ(bits_of(0xF0, 4, 4), 0xFu);
}

TEST(Contracts, CheckPassesAndFails) {
  EXPECT_NO_THROW(check(true, "fine"));
  EXPECT_THROW(check(false, "nope"), ContractViolation);
  try {
    check(false, "my message");
    FAIL() << "should have thrown";
  } catch (const ContractViolation& e) {
    EXPECT_NE(std::string(e.what()).find("my message"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("test_common.cpp"), std::string::npos);
  }
}

TEST(Fmt, Numbers) {
  EXPECT_EQ(fmt_f(1.2345, 2), "1.23");
  EXPECT_EQ(fmt_pct(0.973, 1), "97.3%");
  EXPECT_EQ(fmt_group(0), "0");
  EXPECT_EQ(fmt_group(999), "999");
  EXPECT_EQ(fmt_group(1000), "1,000");
  EXPECT_EQ(fmt_group(12641), "12,641");
  EXPECT_EQ(fmt_group(1234567890), "1,234,567,890");
}

TEST(Fmt, FixedSpellingsMatchPrintf) {
  // fmt_f/fmt_pct are defined as printf's "%.*f" (C locale); report
  // tables print thousands of them through std::to_chars.
  const auto printf_f = [](double v, int prec) {
    char buf[400];
    std::snprintf(buf, sizeof buf, "%.*f", prec, v);
    return std::string(buf);
  };
  std::vector<double> values = {0.0, -0.0, 0.5, 1.5, 2.5, 0.125, 0.045, 1.005,
                                99.995, 1e-320, 1e22, 1.7976931348623157e308,
                                std::numeric_limits<double>::infinity(),
                                -std::numeric_limits<double>::infinity(),
                                std::numeric_limits<double>::quiet_NaN()};
  std::uint64_t state = 7;
  for (int i = 0; i < 20000; ++i) {
    std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    z ^= z >> 31;
    // Half raw bit patterns, half values in the ranges tables print.
    values.push_back(i % 2 == 0 ? std::bit_cast<double>(z)
                                : static_cast<double>(z % 10000000) / 1024.0);
  }
  for (const double v : values) {
    for (int prec = 0; prec <= 4; ++prec) {
      ASSERT_EQ(fmt_f(v, prec), printf_f(v, prec)) << v << " prec " << prec;
      ASSERT_EQ(fmt_pct(v, prec), printf_f(v * 100.0, prec) + "%") << v;
    }
  }
}

TEST(Fmt, StrprintfKeepsOutputOfAnyLength) {
  // It used to stop at 511 bytes, cutting the tail off long log lines.
  const std::string long_arg(600, 'x');
  const std::string out = strprintf("[%s]%d", long_arg.c_str(), 42);
  EXPECT_EQ(out, "[" + long_arg + "]42");
  EXPECT_EQ(strprintf("%s", ""), "");
  EXPECT_EQ(strprintf("%05.1f|%llu", 2.25, 18446744073709551615ull),
            "002.2|18446744073709551615");
}

TEST(Fmt, Engineering) {
  EXPECT_EQ(fmt_eng(950.0, 0), "950");
  EXPECT_EQ(fmt_eng(1500.0, 1), "1.5K");
  EXPECT_EQ(fmt_eng(2.5e6, 1), "2.5M");
  EXPECT_EQ(fmt_eng(3e9, 0), "3G");
}

TEST(Rng, Deterministic) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += a.next_u64() == b.next_u64() ? 1 : 0;
  EXPECT_EQ(same, 0);
}

TEST(Rng, UnitRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.next_unit();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(Rng, DoubleRange) {
  Rng rng(9);
  double lo = 1e9;
  double hi = -1e9;
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.next_double(-3.0, 5.0);
    lo = std::min(lo, v);
    hi = std::max(hi, v);
    EXPECT_GE(v, -3.0);
    EXPECT_LT(v, 5.0);
  }
  EXPECT_LT(lo, -2.0);  // covers the range
  EXPECT_GT(hi, 4.0);
}

TEST(Table, RendersAligned) {
  TextTable t({"name", "value"});
  t.align_right(1);
  t.add_row({"a", "1"});
  t.add_row({"long-name", "12345"});
  const std::string out = t.render();
  EXPECT_NE(out.find("| name      |"), std::string::npos);
  EXPECT_NE(out.find("|     1 |"), std::string::npos);
  EXPECT_NE(out.find("| 12345 |"), std::string::npos);
}

TEST(Table, RejectsBadArity) {
  TextTable t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), ContractViolation);
}

TEST(Table, RuleRendering) {
  TextTable t({"x"});
  t.add_row({"1"});
  t.add_rule();
  t.add_row({"2"});
  const std::string out = t.render();
  // header rule + rule between rows + top/bottom = at least 4 rules
  std::size_t rules = 0;
  for (std::size_t p = out.find("+--"); p != std::string::npos;
       p = out.find("+--", p + 1)) {
    ++rules;
  }
  EXPECT_GE(rules, 4u);
}

TEST(Ticker, StopRightAfterStartDoesNotWaitOutThePeriod) {
  // `araxl sweep` used to join a heartbeat thread that slept its full 2 s
  // period, so every sweep's wall time rounded up to the next 2 s.
  std::atomic<int> ticks{0};
  const auto t0 = std::chrono::steady_clock::now();
  {
    Ticker t(std::chrono::milliseconds(2000), [&ticks] { ++ticks; });
    t.stop();
  }
  EXPECT_LT(std::chrono::steady_clock::now() - t0,
            std::chrono::milliseconds(500));
  EXPECT_EQ(ticks.load(), 0);
}

TEST(Ticker, TicksEveryPeriodUntilStopped) {
  std::atomic<int> ticks{0};
  Ticker t(std::chrono::milliseconds(1), [&ticks] { ++ticks; });
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (ticks.load() < 3 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  t.stop();
  const int seen = ticks.load();
  EXPECT_GE(seen, 3);
  t.stop();  // idempotent, and no tick after stop
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  EXPECT_EQ(ticks.load(), seen);
}

}  // namespace
}  // namespace araxl
