// Unit tests: main memory and AXI burst decomposition.
#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "mem/axi.hpp"
#include "mem/main_memory.hpp"

namespace araxl {
namespace {

TEST(MainMemory, RoundTripsScalars) {
  MainMemory mem(1 << 20);
  mem.store<double>(0x100, 3.25);
  mem.store<std::uint32_t>(0x200, 0xDEADBEEF);
  EXPECT_DOUBLE_EQ(mem.load<double>(0x100), 3.25);
  EXPECT_EQ(mem.load<std::uint32_t>(0x200), 0xDEADBEEFu);
}

TEST(MainMemory, RoundTripsSpans) {
  MainMemory mem(1 << 16);
  const std::vector<double> data{1.0, 2.0, 3.0};
  mem.store_doubles(64, data);
  EXPECT_EQ(mem.load_doubles(64, 3), data);
}

TEST(MainMemory, ZeroInitialized) {
  MainMemory mem(4096);
  EXPECT_EQ(mem.load<std::uint64_t>(0), 0u);
  EXPECT_EQ(mem.load<std::uint8_t>(4095), 0u);
}

TEST(MainMemory, OutOfBoundsThrows) {
  MainMemory mem(4096);
  EXPECT_THROW(static_cast<void>(mem.load<std::uint64_t>(4090)),
               ContractViolation);
  EXPECT_THROW(mem.store<std::uint8_t>(4096, 1), ContractViolation);
  EXPECT_NO_THROW(static_cast<void>(mem.load<std::uint64_t>(4088)));
}

TEST(MainMemory, ByteAccessUnaligned) {
  MainMemory mem(4096);
  mem.store<std::uint64_t>(13, 0x1122334455667788ull);
  EXPECT_EQ(mem.load<std::uint64_t>(13), 0x1122334455667788ull);
  EXPECT_EQ(mem.load<std::uint8_t>(13), 0x88u);  // little-endian
}

TEST(Axi, AlignedSingleBurst) {
  const auto bursts = split_bursts(0x1000, 512, 64);
  ASSERT_EQ(bursts.size(), 1u);
  EXPECT_EQ(bursts[0].beats, 8u);
}

TEST(Axi, MisalignmentCostsOneBeat) {
  EXPECT_EQ(total_beats(0x1000, 512, 64), 8u);
  EXPECT_EQ(total_beats(0x1008, 512, 64), 9u);  // head + tail partial beats
  EXPECT_EQ(total_beats(0x1001, 64, 64), 2u);
}

TEST(Axi, FourKibSplit) {
  const auto bursts = split_bursts(0x0F80, 0x100, 64);
  ASSERT_EQ(bursts.size(), 2u);
  EXPECT_EQ(bursts[0].addr, 0x0F80u);
  EXPECT_EQ(bursts[0].len_bytes, 0x80u);
  EXPECT_EQ(bursts[1].addr, 0x1000u);
  EXPECT_EQ(bursts[1].len_bytes, 0x80u);
}

TEST(Axi, ZeroLength) {
  EXPECT_TRUE(split_bursts(0x1000, 0, 64).empty());
  EXPECT_EQ(total_beats(0x1000, 0, 64), 0u);
}

TEST(Axi, NonPow2BusRejected) {
  EXPECT_THROW(split_bursts(0, 64, 48), ContractViolation);
  EXPECT_THROW((void)total_beats(0, 64, 48), ContractViolation);
  EXPECT_THROW((void)total_beats(0, 64, 0), ContractViolation);
}

TEST(Axi, TotalBeatsMatchesSumOverBursts) {
  // Differential check of the closed form against the burst split it
  // summarizes: random addresses, lengths of 0 to 3 pages, every
  // power-of-two bus from 8 B to 4 KiB (plus wider buses, where each
  // page's burst is one beat).
  Rng rng(0x5eed);
  for (std::uint64_t bus = 8; bus <= 16384; bus *= 2) {
    for (int i = 0; i < 2000; ++i) {
      const std::uint64_t addr = rng.next_below(1ull << 20);
      const std::uint64_t len = rng.next_below(3 * 4096 + 1);
      std::uint64_t sum = 0;
      for (const AxiBurst& b : split_bursts(addr, len, bus)) sum += b.beats;
      ASSERT_EQ(total_beats(addr, len, bus), sum)
          << "addr=" << addr << " len=" << len << " bus=" << bus;
    }
  }
}

TEST(Axi, BeatsCoverExactSpan) {
  // Property: for any (addr, len), beats * bus >= len and the aligned span
  // equals beats * bus.
  for (std::uint64_t addr : {0ull, 1ull, 7ull, 63ull, 0xFFFull}) {
    for (std::uint64_t len : {1ull, 64ull, 100ull, 4096ull, 5000ull}) {
      const std::uint64_t beats = total_beats(addr, len, 64);
      EXPECT_GE(beats * 64, len);
      EXPECT_LE(beats * 64, len + 2 * 64 + 4096 / 64 * 0 + 64);  // head+tail
    }
  }
}

}  // namespace
}  // namespace araxl
