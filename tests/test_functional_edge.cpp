// Edge-case functional tests: IEEE special values, masked execution of
// every instruction class, LMUL sweeps, narrow-element memory, and the exp
// kernel's clamp masks.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <tuple>
#include <variant>
#include <vector>

#include "common/rng.hpp"
#include "kernels/common.hpp"
#include "kernels/exp_core.hpp"
#include "machine/functional.hpp"
#include "machine/machine.hpp"

namespace araxl {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kNan = std::numeric_limits<double>::quiet_NaN();

Machine small_machine() { return Machine(MachineConfig::araxl(8)); }

TEST(IeeeEdge, MinMaxWithNanAndInf) {
  // vfmin/vfmax follow IEEE 754 minNum/maxNum (fmin/fmax): a NaN operand
  // yields the other operand.
  Machine m = small_machine();
  ProgramBuilder pb(m.config().effective_vlen(), "nan");
  pb.vsetvli(4, Sew::k64, kLmul1);
  pb.vfmax_vv(12, 8, 10);
  pb.vfmin_vv(14, 8, 10);
  const Program prog = pb.take();
  const double a[4] = {kNan, 1.0, kInf, -kInf};
  const double b[4] = {2.0, kNan, 5.0, 5.0};
  for (int i = 0; i < 4; ++i) {
    m.vrf().write_f64(8, i, a[i]);
    m.vrf().write_f64(10, i, b[i]);
  }
  m.run(prog);
  EXPECT_DOUBLE_EQ(m.vrf().read_f64(12, 0), 2.0);
  EXPECT_DOUBLE_EQ(m.vrf().read_f64(12, 1), 1.0);
  EXPECT_DOUBLE_EQ(m.vrf().read_f64(12, 2), kInf);
  EXPECT_DOUBLE_EQ(m.vrf().read_f64(14, 3), -kInf);
}

TEST(IeeeEdge, DivisionSpecials) {
  Machine m = small_machine();
  ProgramBuilder pb(m.config().effective_vlen(), "div");
  pb.vsetvli(3, Sew::k64, kLmul1);
  pb.vfdiv_vv(12, 8, 10);
  const Program prog = pb.take();
  const double a[3] = {1.0, -1.0, 0.0};
  const double b[3] = {0.0, 0.0, 0.0};
  for (int i = 0; i < 3; ++i) {
    m.vrf().write_f64(8, i, a[i]);
    m.vrf().write_f64(10, i, b[i]);
  }
  m.run(prog);
  EXPECT_DOUBLE_EQ(m.vrf().read_f64(12, 0), kInf);
  EXPECT_DOUBLE_EQ(m.vrf().read_f64(12, 1), -kInf);
  EXPECT_TRUE(std::isnan(m.vrf().read_f64(12, 2)));
}

TEST(IeeeEdge, SignedZeroThroughSgnj) {
  Machine m = small_machine();
  ProgramBuilder pb(m.config().effective_vlen(), "szero");
  pb.vsetvli(1, Sew::k64, kLmul1);
  pb.vfsgnjn_vv(12, 8, 8);  // negate
  const Program prog = pb.take();
  m.vrf().write_f64(8, 0, 0.0);
  m.run(prog);
  EXPECT_TRUE(std::signbit(m.vrf().read_f64(12, 0)));
}

TEST(MaskedEdge, SlidesRespectMask) {
  Machine m = small_machine();
  const std::uint64_t vl = 32;
  ProgramBuilder pb(m.config().effective_vlen(), "mslide");
  pb.vsetvli(vl, Sew::k64, kLmul1);
  // Masked slide through the raw instruction interface: builder emits the
  // unmasked form, so drive the engine directly via a masked vfadd after a
  // slide to prove mask+slide composition (paper kernels never mask
  // slides; the ISA allows it and the model must not corrupt inactive
  // elements).
  pb.vfslide1down(12, 8, 7.0);
  pb.vfadd_vf(12, 12, 100.0, /*masked=*/true);
  const Program prog = pb.take();
  const auto a = random_doubles(vl, -1, 1, 41);
  for (std::uint64_t i = 0; i < vl; ++i) {
    m.vrf().write_f64(8, i, a[i]);
    m.vrf().set_mask_bit(0, i, i % 4 == 0);
  }
  m.run(prog);
  for (std::uint64_t i = 0; i < vl; ++i) {
    const double slid = i + 1 < vl ? a[i + 1] : 7.0;
    const double expect = i % 4 == 0 ? slid + 100.0 : slid;
    EXPECT_DOUBLE_EQ(m.vrf().read_f64(12, i), expect) << i;
  }
}

TEST(MaskedEdge, ReductionSkipsInactive) {
  Machine m = small_machine();
  const std::uint64_t vl = 48;
  ProgramBuilder pb(m.config().effective_vlen(), "mred");
  pb.vsetvli(vl, Sew::k64, kLmul1);
  pb.vfmv_s_f(4, 0.0);
  {
    // Masked reduction via the raw instruction (builder keeps reductions
    // unmasked for the paper kernels).
    VInstr in;
    in.op = Op::kVfredusum;
    in.vd = 12;
    in.vs1 = 4;
    in.vs2 = 8;
    in.masked = true;
    // Emit through a tiny manual program extension:
    Program p = pb.take();
    p.ops.emplace_back(in);
    const auto a = random_doubles(vl, -1, 1, 42);
    double expect = 0.0;
    for (std::uint64_t i = 0; i < vl; ++i) {
      m.vrf().write_f64(8, i, a[i]);
      const bool bit = i % 3 == 0;
      m.vrf().set_mask_bit(0, i, bit);
      if (bit) expect += a[i];
    }
    m.run(p);
    EXPECT_NEAR(m.vrf().read_f64(12, 0), expect, 1e-12);
  }
}

class LmulSweep : public testing::TestWithParam<int> {};

TEST_P(LmulSweep, ElementwiseAcrossGroups) {
  const Lmul ml{static_cast<std::int8_t>(GetParam())};
  Machine m = small_machine();
  ProgramBuilder pb(m.config().effective_vlen(), "lmul");
  const std::uint64_t vl = pb.vlmax(Sew::k64, ml);
  pb.vsetvli(vl, Sew::k64, ml);
  pb.vfmacc_vv(16, 0, 8);
  const Program prog = pb.take();
  const auto a = random_doubles(vl, -1, 1, 43);
  const auto b = random_doubles(vl, -1, 1, 44);
  const auto d = random_doubles(vl, -1, 1, 45);
  for (std::uint64_t i = 0; i < vl; ++i) {
    m.vrf().write_f64(0, i, a[i]);
    m.vrf().write_f64(8, i, b[i]);
    m.vrf().write_f64(16, i, d[i]);
  }
  m.run(prog);
  for (std::uint64_t i = 0; i < vl; ++i) {
    EXPECT_DOUBLE_EQ(m.vrf().read_f64(16, i), std::fma(a[i], b[i], d[i])) << i;
  }
}

INSTANTIATE_TEST_SUITE_P(AllLmuls, LmulSweep, testing::Values(-1, 0, 1, 2, 3),
                         [](const testing::TestParamInfo<int>& info) {
                           const int v = info.param;
                           std::string name = v < 0 ? "mf" : "m";
                           name += std::to_string(1 << (v < 0 ? -v : v));
                           return name;
                         });

class NarrowMem : public testing::TestWithParam<Sew> {};

TEST_P(NarrowMem, LoadStoreRoundTrip) {
  const Sew sew = GetParam();
  const unsigned ew = sew_bytes(sew);
  Machine m = small_machine();
  const std::uint64_t vl = 100;
  ProgramBuilder pb(m.config().effective_vlen(), "narrow");
  pb.vsetvli(vl, sew, kLmul1);
  pb.vle(8, 0x10000);
  pb.vadd_vx(12, 8, 1);
  pb.vse(12, 0x20000);
  const Program prog = pb.take();
  Rng rng(46);
  std::vector<std::uint8_t> data(vl * ew);
  for (auto& byte : data) byte = static_cast<std::uint8_t>(rng.next_below(256));
  m.mem().write(0x10000, data);
  m.run(prog);
  for (std::uint64_t i = 0; i < vl; ++i) {
    std::uint64_t in_bits = 0;
    std::memcpy(&in_bits, data.data() + i * ew, ew);
    std::uint64_t out_bits = 0;
    std::vector<std::uint8_t> out(ew);
    m.mem().read(0x20000 + i * ew, out);
    std::memcpy(&out_bits, out.data(), ew);
    const std::uint64_t mask = ew >= 8 ? ~0ull : ((1ull << (8 * ew)) - 1);
    EXPECT_EQ(out_bits, (in_bits + 1) & mask) << "i=" << i;
  }
}

INSTANTIATE_TEST_SUITE_P(AllWidths, NarrowMem,
                         testing::Values(Sew::k8, Sew::k16, Sew::k32, Sew::k64),
                         [](const testing::TestParamInfo<Sew>& info) {
                           return std::string(sew_name(info.param));
                         });

// Both mask layouts: AraXL keeps v0 lane-local, Ara2 in the standard
// layout, and the memory executor reads v0 through the layout's stream walk.
class BulkMaskedMem
    : public testing::TestWithParam<std::tuple<Sew, MaskLayout>> {
 protected:
  Sew sew() const { return std::get<0>(GetParam()); }
  Machine machine() const {
    return Machine(std::get<1>(GetParam()) == MaskLayout::kLaneLocal
                       ? MachineConfig::araxl(8)
                       : MachineConfig::ara2(8));
  }
};

TEST_P(BulkMaskedMem, LoadMergesInactiveElements) {
  // Masked unit-stride load (whole range in bounds): active elements come
  // from memory, inactive ones keep the destination's prior (sentinel)
  // contents — the load-merge the memory executor does on the vd stream.
  const unsigned ew = sew_bytes(sew());
  Machine m = machine();
  const std::uint64_t vl = 171;  // odd length: tail not mask-word aligned
  ProgramBuilder pb(m.config().effective_vlen(), "bmload");
  pb.vsetvli(vl, sew(), kLmul2);
  pb.vle(8, 0x10000, /*masked=*/true);
  const Program prog = pb.take();
  Rng rng(47);
  std::vector<std::uint8_t> data(vl * ew);
  for (auto& byte : data) byte = static_cast<std::uint8_t>(rng.next_below(256));
  m.mem().write(0x10000, data);
  const std::uint64_t sentinel_mask =
      ew >= 8 ? ~0ull : ((1ull << (8 * ew)) - 1);
  for (std::uint64_t i = 0; i < vl; ++i) {
    m.vrf().write_elem(8, i, ew, (0xA5A5A5A5A5A5A5A5ull + i) & sentinel_mask);
    m.vrf().set_mask_bit(0, i, rng.next_below(3) != 0);
  }
  m.run(prog);
  for (std::uint64_t i = 0; i < vl; ++i) {
    std::uint64_t mem_bits = 0;
    std::memcpy(&mem_bits, data.data() + i * ew, ew);
    const std::uint64_t expect =
        m.vrf().mask_bit(0, i) ? mem_bits
                               : ((0xA5A5A5A5A5A5A5A5ull + i) & sentinel_mask);
    EXPECT_EQ(m.vrf().read_elem(8, i, ew), expect) << "i=" << i;
  }
}

TEST_P(BulkMaskedMem, StoreSkipsInactiveElements) {
  const unsigned ew = sew_bytes(sew());
  Machine m = machine();
  const std::uint64_t vl = 171;
  ProgramBuilder pb(m.config().effective_vlen(), "bmstore");
  pb.vsetvli(vl, sew(), kLmul2);
  pb.vse(8, 0x20000, /*masked=*/true);
  const Program prog = pb.take();
  Rng rng(48);
  std::vector<std::uint8_t> sentinel(vl * ew);
  for (auto& byte : sentinel) {
    byte = static_cast<std::uint8_t>(rng.next_below(256));
  }
  m.mem().write(0x20000, sentinel);
  const std::uint64_t val_mask = ew >= 8 ? ~0ull : ((1ull << (8 * ew)) - 1);
  for (std::uint64_t i = 0; i < vl; ++i) {
    m.vrf().write_elem(8, i, ew, (0x123456789ABCDEFull * (i + 1)) & val_mask);
    m.vrf().set_mask_bit(0, i, rng.next_below(3) != 0);
  }
  m.run(prog);
  for (std::uint64_t i = 0; i < vl; ++i) {
    std::uint64_t got = 0;
    std::vector<std::uint8_t> out(ew);
    m.mem().read(0x20000 + i * ew, out);
    std::memcpy(&got, out.data(), ew);
    std::uint64_t untouched = 0;
    std::memcpy(&untouched, sentinel.data() + i * ew, ew);
    const std::uint64_t expect = m.vrf().mask_bit(0, i)
                                     ? ((0x123456789ABCDEFull * (i + 1)) & val_mask)
                                     : untouched;
    EXPECT_EQ(got, expect) << "i=" << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllWidths, BulkMaskedMem,
    testing::Combine(testing::Values(Sew::k8, Sew::k16, Sew::k32, Sew::k64),
                     testing::Values(MaskLayout::kLaneLocal,
                                     MaskLayout::kStandard)),
    [](const testing::TestParamInfo<std::tuple<Sew, MaskLayout>>& info) {
      return std::string(sew_name(std::get<0>(info.param))) +
             (std::get<1>(info.param) == MaskLayout::kLaneLocal ? "_lanelocal"
                                                                : "_standard");
    });

TEST(BulkMaskedMemEdge, OobTailInactiveFallsBackToPerElement) {
  // The tail runs past the end of memory, but only its inactive elements
  // do: the memory executor bounds-checks active addresses alone, so the
  // access completes.
  Machine m = small_machine();
  const std::uint64_t vl = 100;
  const std::uint64_t active_n = 40;
  const std::uint64_t base = m.mem().size() - active_n * 8;
  ProgramBuilder pb(m.config().effective_vlen(), "bmoob");
  pb.vsetvli(vl, Sew::k64, kLmul1);
  pb.vle(8, base, /*masked=*/true);
  const Program prog = pb.take();
  std::vector<double> data(active_n);
  for (std::uint64_t i = 0; i < active_n; ++i) {
    data[i] = static_cast<double>(i) * 1.5 - 7.0;
  }
  m.mem().store_doubles(base, data);
  for (std::uint64_t i = 0; i < vl; ++i) {
    m.vrf().write_f64(8, i, -99.0);
    m.vrf().set_mask_bit(0, i, i < active_n);
  }
  m.run(prog);
  for (std::uint64_t i = 0; i < vl; ++i) {
    EXPECT_DOUBLE_EQ(m.vrf().read_f64(8, i), i < active_n ? data[i] : -99.0)
        << i;
  }
}

class NarrowFpBulk : public testing::TestWithParam<Sew> {};

TEST_P(NarrowFpBulk, BulkMatchesPerElementBitForBit) {
  // Differential check of the narrow-SEW stream path against the
  // per-element reference loop: one machine runs the program, a second
  // VRF with the same contents replays it through
  // FunctionalEngine::exec_reference, and every register the program
  // writes must agree bit for bit, masked-off elements included.
  const Sew sew = GetParam();
  const unsigned ew = sew_bytes(sew);
  Machine m = small_machine();
  Machine r = small_machine();
  FunctionalEngine reference(r.config(), r.vrf(), r.mem());
  const std::uint64_t vl = 157;
  ProgramBuilder pb(m.config().effective_vlen(), "nfpbulk");
  pb.vsetvli(vl, sew, kLmul2);
  pb.vfmul_vv(16, 8, 12);
  pb.vfmul_vv(20, 8, 12, /*masked=*/true);
  pb.vfadd_vf(24, 16, 0.333333);
  pb.vfadd_vf(28, 20, 0.333333, /*masked=*/true);
  pb.vfmacc_vv(16, 8, 12);
  pb.vfmacc_vv(20, 8, 12, /*masked=*/true);
  const Program prog = pb.take();
  Rng rng(49);
  for (Machine* mm : {&m, &r}) {
    Rng same = rng;
    for (std::uint64_t i = 0; i < vl; ++i) {
      // Random element bit patterns: covers subnormals, NaNs, infinities.
      const std::uint64_t mask = ew >= 8 ? ~0ull : ((1ull << (8 * ew)) - 1);
      const std::uint64_t bits =
          (same.next_below(1u << 16) | (std::uint64_t{same.next_below(1u << 16)} << 16) |
           (std::uint64_t{same.next_below(1u << 16)} << 32) |
           (std::uint64_t{same.next_below(1u << 16)} << 48)) & mask;
      for (const unsigned v : {16u, 20u, 24u, 28u}) mm->vrf().write_elem(v, i, ew, bits);
      mm->vrf().write_elem(8, i, ew, bits);
      mm->vrf().write_elem(12, i, ew, bits ^ (mask >> 1));
      mm->vrf().set_mask_bit(0, i, same.next_below(2) == 1);
    }
  }
  m.run(prog);
  for (const ProgOp& op : prog.ops) {
    if (const auto* in = std::get_if<VInstr>(&op)) reference.exec_reference(*in);
  }
  for (const unsigned v : {16u, 20u, 24u, 28u}) {
    for (std::uint64_t i = 0; i < vl; ++i) {
      EXPECT_EQ(m.vrf().read_elem(v, i, ew), r.vrf().read_elem(v, i, ew))
          << "v" << v << " i=" << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(NarrowWidths, NarrowFpBulk,
                         testing::Values(Sew::k16, Sew::k32),
                         [](const testing::TestParamInfo<Sew>& info) {
                           return std::string(sew_name(info.param));
                         });

TEST(Binary16, ConversionSpecialsRoundTrip) {
  // The SEW=16 FP path converts binary16 -> double, computes, and rounds
  // once back. vfsgnj with itself is a pure pass-through (exact even for
  // signed zero, which an add would rewrite), so each pattern must
  // round-trip exactly: zeros and signed zero, the smallest/largest
  // subnormals, one, and the largest finite value (65504).
  const std::uint16_t patterns[] = {0x0000, 0x8000, 0x0001, 0x03FF,
                                    0x3C00, 0x4000, 0x7BFF};
  Machine m = small_machine();
  const std::uint64_t n = std::size(patterns);
  ProgramBuilder pb(m.config().effective_vlen(), "f16id");
  pb.vsetvli(n, Sew::k16, kLmul1);
  pb.vfsgnj_vv(12, 8, 8);
  const Program prog = pb.take();
  for (std::uint64_t i = 0; i < n; ++i) {
    m.vrf().write_elem(8, i, 2, patterns[i]);
  }
  m.run(prog);
  for (std::uint64_t i = 0; i < n; ++i) {
    EXPECT_EQ(m.vrf().read_elem(12, i, 2), patterns[i]) << "pattern " << i;
  }
}

TEST(Binary16, OverflowRoundingAndNan) {
  Machine m = small_machine();
  ProgramBuilder pb(m.config().effective_vlen(), "f16ovf");
  pb.vsetvli(4, Sew::k16, kLmul1);
  pb.vfadd_vv(12, 8, 10);
  const Program prog = pb.take();
  // 65504 + 65504 overflows to +inf; -65504 + -65504 to -inf. 1.0 + 2^-11
  // is a half-ulp tie (ulp of 1.0 is 2^-10) and rounds to the even
  // fraction, back to 1.0. NaN + 1.0 stays NaN.
  const std::uint16_t a[4] = {0x7BFF, 0xFBFF, 0x3C00, 0x7E00};
  const std::uint16_t b[4] = {0x7BFF, 0xFBFF, 0x1000, 0x3C00};
  for (int i = 0; i < 4; ++i) {
    m.vrf().write_elem(8, i, 2, a[i]);
    m.vrf().write_elem(10, i, 2, b[i]);
  }
  m.run(prog);
  EXPECT_EQ(m.vrf().read_elem(12, 0, 2), 0x7C00u);  // +inf
  EXPECT_EQ(m.vrf().read_elem(12, 1, 2), 0xFC00u);  // -inf
  EXPECT_EQ(m.vrf().read_elem(12, 2, 2), 0x3C00u);  // tie to even
  EXPECT_EQ(m.vrf().read_elem(12, 3, 2), 0x7E00u);  // quiet NaN
}

// ---- conversions at every FP width -----------------------------------------

/// Runs vfcvt.f.x.v (to_fp) or vfcvt.x.f.v at `sew` over the given source
/// element bits and returns the result element bits.
std::vector<std::uint64_t> convert(Sew sew, bool to_fp,
                                   const std::vector<std::uint64_t>& src) {
  const unsigned ew = sew_bytes(sew);
  Machine m = small_machine();
  ProgramBuilder pb(m.config().effective_vlen(), "cvt");
  pb.vsetvli(src.size(), sew, kLmul1);
  if (to_fp) {
    pb.vfcvt_f_x(12, 8);
  } else {
    pb.vfcvt_x_f(12, 8);
  }
  const Program prog = pb.take();
  for (std::uint64_t i = 0; i < src.size(); ++i) m.vrf().write_elem(8, i, ew, src[i]);
  m.run(prog);
  std::vector<std::uint64_t> out;
  for (std::uint64_t i = 0; i < src.size(); ++i) out.push_back(m.vrf().read_elem(12, i, ew));
  return out;
}

using Words = std::vector<std::uint64_t>;

std::uint64_t f32_bits(float f) { return std::bit_cast<std::uint32_t>(f); }
std::uint64_t f64_bits(double d) { return std::bit_cast<std::uint64_t>(d); }

TEST(Convert, SignedIntToFpAtEverySew) {
  // vfcvt.f.x.v reads its source as a signed SEW-bit integer: -1 is -1.0
  // at every width, not 2^SEW - 1.
  // binary16: -1, -2, -128, INT16_MIN, INT16_MAX (rounds to 2^15), 5.
  EXPECT_EQ(convert(Sew::k16, true, {0xFFFF, 0xFFFE, 0xFF80, 0x8000, 0x7FFF, 5}),
            (Words{0xBC00, 0xC000, 0xD800, 0xF800, 0x7800, 0x4500}));
  EXPECT_EQ(convert(Sew::k32, true, {0xFFFFFFFF, 0xFFFFFF85, 0x80000000, 0x7FFFFFFF, 7}),
            (Words{f32_bits(-1.0F), f32_bits(-123.0F), f32_bits(-2147483648.0F),
                   f32_bits(2147483648.0F), f32_bits(7.0F)}));
  EXPECT_EQ(convert(Sew::k64, true,
                    {~0ull, static_cast<std::uint64_t>(-123), 1ull << 63,
                     ~(1ull << 63), 7}),
            (Words{f64_bits(-1.0), f64_bits(-123.0), f64_bits(-9223372036854775808.0),
                   f64_bits(9223372036854775808.0), f64_bits(7.0)}));
}

TEST(Convert, FpToIntSaturatesAtEverySew) {
  // vfcvt.x.f.v rounds to nearest even and saturates to the signed SEW-bit
  // range; NaN converts to the maximum.
  // binary16: qNaN, +inf, -inf, 65504, -65504, -2.5, 3.5, -0.
  EXPECT_EQ(convert(Sew::k16, false,
                    {0x7E00, 0x7C00, 0xFC00, 0x7BFF, 0xFBFF, 0xC100, 0x4300, 0x8000}),
            (Words{0x7FFF, 0x7FFF, 0x8000, 0x7FFF, 0x8000, 0xFFFE, 0x0004, 0}));
  constexpr float kInfF = std::numeric_limits<float>::infinity();
  EXPECT_EQ(convert(Sew::k32, false,
                    {0x7FC00000, 0x7F800001, f32_bits(kInfF), f32_bits(-kInfF),
                     f32_bits(3e9F), f32_bits(-3e9F), f32_bits(2147483520.0F),
                     f32_bits(-2147483648.0F), f32_bits(-2.5F)}),
            (Words{0x7FFFFFFF, 0x7FFFFFFF, 0x7FFFFFFF, 0x80000000, 0x7FFFFFFF,
                   0x80000000, 0x7FFFFF80, 0x80000000, 0xFFFFFFFE}));
  constexpr std::uint64_t kMax = ~(1ull << 63);
  constexpr std::uint64_t kMin = 1ull << 63;
  EXPECT_EQ(convert(Sew::k64, false,
                    {f64_bits(kNan), f64_bits(kInf), f64_bits(-kInf), f64_bits(1e19),
                     f64_bits(-1e19), f64_bits(9223372036854774784.0),
                     f64_bits(-9223372036854775808.0), f64_bits(-2.5)}),
            (Words{kMax, kMax, kMin, kMax, kMin, 0x7FFFFFFFFFFFFC00, kMin,
                   static_cast<std::uint64_t>(-2)}));
}

TEST(ExpClamps, OverflowToInfUnderflowToZero) {
  Machine m = small_machine();
  ProgramBuilder pb(m.config().effective_vlen(), "clamp");
  pb.vsetvli(4, Sew::k64, kLmul1);
  ExpRegs regs;
  emit_exp_core(pb, regs);
  const Program prog = pb.take();
  m.vrf().write_f64(regs.x, 0, 800.0);    // overflow
  m.vrf().write_f64(regs.x, 1, -800.0);   // underflow
  m.vrf().write_f64(regs.x, 2, 0.0);      // exp(0) = 1
  m.vrf().write_f64(regs.x, 3, 1.0);      // exp(1) = e
  m.run(prog);
  EXPECT_DOUBLE_EQ(m.vrf().read_f64(regs.out, 0), kInf);
  EXPECT_DOUBLE_EQ(m.vrf().read_f64(regs.out, 1), 0.0);
  EXPECT_NEAR(m.vrf().read_f64(regs.out, 2), 1.0, 1e-14);
  EXPECT_NEAR(m.vrf().read_f64(regs.out, 3), std::exp(1.0), 1e-13);
}

TEST(ExpCore, AccuracyOverFullRange) {
  Machine m = small_machine();
  ProgramBuilder pb(m.config().effective_vlen(), "expacc");
  const std::uint64_t vl = 128;
  pb.vsetvli(vl, Sew::k64, kLmul1);
  ExpRegs regs;
  emit_exp_core(pb, regs);
  const Program prog = pb.take();
  const auto xs = random_doubles(vl, -700.0, 700.0, 47);
  for (std::uint64_t i = 0; i < vl; ++i) m.vrf().write_f64(regs.x, i, xs[i]);
  m.run(prog);
  for (std::uint64_t i = 0; i < vl; ++i) {
    const double expect = std::exp(xs[i]);
    const double got = m.vrf().read_f64(regs.out, i);
    EXPECT_NEAR(got, expect, std::abs(expect) * 1e-12) << "x=" << xs[i];
  }
}

}  // namespace
}  // namespace araxl
