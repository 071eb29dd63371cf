// Functional tests: every instruction of the RVV subset against golden
// scalar semantics, swept over element widths, vector lengths (including
// edge cases) and masking, through the full machine (so the physical VRF
// mapping is exercised by every check).
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <functional>
#include <limits>
#include <memory>

#include "common/contracts.hpp"
#include "common/rng.hpp"
#include "kernels/common.hpp"  // random_doubles
#include "machine/machine.hpp"

namespace araxl {
namespace {

constexpr std::uint64_t kA = 0x10000;  // operand buffers in memory
constexpr std::uint64_t kB = 0x20000;
constexpr std::uint64_t kC = 0x30000;

Machine small_machine() { return Machine(MachineConfig::araxl(8)); }

/// Writes `n` doubles to a vreg directly through the VRF.
void fill_vreg(Machine& m, unsigned vreg, const std::vector<double>& v) {
  for (std::uint64_t i = 0; i < v.size(); ++i) m.vrf().write_f64(vreg, i, v[i]);
}

std::vector<double> rnd(std::uint64_t n, std::uint64_t seed, double lo = -4.0,
                        double hi = 4.0) {
  return random_doubles(n, lo, hi, seed);
}

// ---- element-wise FP ops, parameterized over (op, vl) ----------------------

struct FpCase {
  const char* name;
  // emits op with vd=16, vs2=8, vs1=12, fs=1.5
  std::function<void(ProgramBuilder&)> emit;
  // reference: f(vs2_elem, vs1_elem, old_vd_elem)
  std::function<double(double, double, double)> ref;
};

const double kFs = 1.5;

const std::vector<FpCase>& fp_cases() {
  static const std::vector<FpCase> cases{
      {"vfadd_vv", [](ProgramBuilder& pb) { pb.vfadd_vv(16, 8, 12); },
       [](double a, double b, double) { return a + b; }},
      {"vfadd_vf", [](ProgramBuilder& pb) { pb.vfadd_vf(16, 8, kFs); },
       [](double a, double, double) { return a + kFs; }},
      {"vfsub_vv", [](ProgramBuilder& pb) { pb.vfsub_vv(16, 8, 12); },
       [](double a, double b, double) { return a - b; }},
      {"vfsub_vf", [](ProgramBuilder& pb) { pb.vfsub_vf(16, 8, kFs); },
       [](double a, double, double) { return a - kFs; }},
      {"vfrsub_vf", [](ProgramBuilder& pb) { pb.vfrsub_vf(16, 8, kFs); },
       [](double a, double, double) { return kFs - a; }},
      {"vfmul_vv", [](ProgramBuilder& pb) { pb.vfmul_vv(16, 8, 12); },
       [](double a, double b, double) { return a * b; }},
      {"vfmul_vf", [](ProgramBuilder& pb) { pb.vfmul_vf(16, 8, kFs); },
       [](double a, double, double) { return a * kFs; }},
      {"vfdiv_vv", [](ProgramBuilder& pb) { pb.vfdiv_vv(16, 8, 12); },
       [](double a, double b, double) { return a / b; }},
      {"vfdiv_vf", [](ProgramBuilder& pb) { pb.vfdiv_vf(16, 8, kFs); },
       [](double a, double, double) { return a / kFs; }},
      {"vfrdiv_vf", [](ProgramBuilder& pb) { pb.vfrdiv_vf(16, 8, kFs); },
       [](double a, double, double) { return kFs / a; }},
      {"vfmacc_vv", [](ProgramBuilder& pb) { pb.vfmacc_vv(16, 12, 8); },
       [](double a, double b, double d) { return std::fma(b, a, d); }},
      {"vfmacc_vf", [](ProgramBuilder& pb) { pb.vfmacc_vf(16, kFs, 8); },
       [](double a, double, double d) { return std::fma(kFs, a, d); }},
      {"vfnmsac_vv", [](ProgramBuilder& pb) { pb.vfnmsac_vv(16, 12, 8); },
       [](double a, double b, double d) { return std::fma(-b, a, d); }},
      {"vfnmsac_vf", [](ProgramBuilder& pb) { pb.vfnmsac_vf(16, kFs, 8); },
       [](double a, double, double d) { return std::fma(-kFs, a, d); }},
      {"vfmadd_vf", [](ProgramBuilder& pb) { pb.vfmadd_vf(16, kFs, 8); },
       [](double a, double, double d) { return std::fma(d, kFs, a); }},
      {"vfmadd_vv", [](ProgramBuilder& pb) { pb.vfmadd_vv(16, 12, 8); },
       [](double a, double b, double d) { return std::fma(d, b, a); }},
      {"vfmsac_vf", [](ProgramBuilder& pb) { pb.vfmsac_vf(16, kFs, 8); },
       [](double a, double, double d) { return std::fma(kFs, a, -d); }},
      {"vfmin_vv", [](ProgramBuilder& pb) { pb.vfmin_vv(16, 8, 12); },
       [](double a, double b, double) { return std::fmin(a, b); }},
      {"vfmax_vf", [](ProgramBuilder& pb) { pb.vfmax_vf(16, 8, kFs); },
       [](double a, double, double) { return std::fmax(a, kFs); }},
      {"vfsgnj_vv", [](ProgramBuilder& pb) { pb.vfsgnj_vv(16, 8, 12); },
       [](double a, double b, double) { return std::copysign(a, b); }},
      {"vfsgnjn_vv", [](ProgramBuilder& pb) { pb.vfsgnjn_vv(16, 8, 12); },
       [](double a, double b, double) { return std::copysign(a, -b); }},
  };
  return cases;
}

struct FpParam {
  std::size_t case_idx;
  std::uint64_t vl;
};

class FpElementwise : public testing::TestWithParam<FpParam> {};

TEST_P(FpElementwise, MatchesGolden) {
  const FpCase& c = fp_cases()[GetParam().case_idx];
  const std::uint64_t vl = GetParam().vl;
  Machine m = small_machine();
  const auto a = rnd(vl, 1);
  const auto b = rnd(vl, 2);
  const auto d0 = rnd(vl, 3);

  ProgramBuilder pb(m.config().effective_vlen(), c.name);
  const std::uint64_t granted = pb.vsetvli(vl, Sew::k64, kLmul2);
  ASSERT_EQ(granted, vl);
  c.emit(pb);
  const Program prog = pb.take();

  fill_vreg(m, 8, a);
  fill_vreg(m, 12, b);
  fill_vreg(m, 16, d0);
  m.run(prog);

  for (std::uint64_t i = 0; i < vl; ++i) {
    EXPECT_DOUBLE_EQ(m.vrf().read_f64(16, i), c.ref(a[i], b[i], d0[i]))
        << c.name << " at element " << i;
  }
}

std::vector<FpParam> fp_params() {
  std::vector<FpParam> out;
  for (std::size_t i = 0; i < fp_cases().size(); ++i) {
    for (const std::uint64_t vl : {1ull, 7ull, 64ull, 256ull}) {
      out.push_back({i, vl});
    }
  }
  return out;
}

INSTANTIATE_TEST_SUITE_P(AllFpOps, FpElementwise, testing::ValuesIn(fp_params()),
                         [](const testing::TestParamInfo<FpParam>& info) {
                           return std::string(fp_cases()[info.param.case_idx].name) +
                                  "_vl" + std::to_string(info.param.vl);
                         });

// ---- masking ----------------------------------------------------------------

TEST(Masked, InactiveElementsUndisturbed) {
  Machine m = small_machine();
  const std::uint64_t vl = 100;
  const auto a = rnd(vl, 4);
  const auto d0 = rnd(vl, 5);

  ProgramBuilder pb(m.config().effective_vlen(), "masked");
  pb.vsetvli(vl, Sew::k64, kLmul1);
  pb.vfadd_vf(16, 8, 1.0, /*masked=*/true);
  const Program prog = pb.take();

  fill_vreg(m, 8, a);
  fill_vreg(m, 16, d0);
  Rng rng(77);
  std::vector<bool> mask(vl);
  for (std::uint64_t i = 0; i < vl; ++i) {
    mask[i] = rng.next_below(2) == 1;
    m.vrf().set_mask_bit(0, i, mask[i]);
  }
  m.run(prog);
  for (std::uint64_t i = 0; i < vl; ++i) {
    const double expect = mask[i] ? a[i] + 1.0 : d0[i];
    EXPECT_DOUBLE_EQ(m.vrf().read_f64(16, i), expect) << i;
  }
}

TEST(Masked, CompareThenMergeSelects) {
  Machine m = small_machine();
  const std::uint64_t vl = 64;
  const auto a = rnd(vl, 6);

  ProgramBuilder pb(m.config().effective_vlen(), "cmp-merge");
  pb.vsetvli(vl, Sew::k64, kLmul1);
  pb.vmfgt_vf(0, 8, 0.0);        // mask = a > 0
  pb.vfmerge_vfm(16, 8, -7.0);   // vd = mask ? -7.0 : a
  const Program prog = pb.take();
  fill_vreg(m, 8, a);
  m.run(prog);
  for (std::uint64_t i = 0; i < vl; ++i) {
    EXPECT_DOUBLE_EQ(m.vrf().read_f64(16, i), a[i] > 0.0 ? -7.0 : a[i]) << i;
  }
}

TEST(Masked, MaskLogicalOps) {
  Machine m = small_machine();
  const std::uint64_t vl = 96;
  ProgramBuilder pb(m.config().effective_vlen(), "mask-logic");
  pb.vsetvli(vl, Sew::k64, kLmul1);
  pb.vmflt_vf(4, 8, 0.0);   // m1 = a < 0
  pb.vmfgt_vf(5, 8, -1.0);  // m2 = a > -1
  pb.vmand_mm(6, 4, 5);
  pb.vmor_mm(7, 4, 5);
  pb.vmxor_mm(9, 4, 5);
  pb.vmandn_mm(10, 4, 5);   // m1 AND NOT m2
  const Program prog = pb.take();
  const auto a = rnd(vl, 8, -2.0, 2.0);
  fill_vreg(m, 8, a);
  m.run(prog);
  for (std::uint64_t i = 0; i < vl; ++i) {
    const bool m1 = a[i] < 0.0;
    const bool m2 = a[i] > -1.0;
    EXPECT_EQ(m.vrf().mask_bit(6, i), m1 && m2) << i;
    EXPECT_EQ(m.vrf().mask_bit(7, i), m1 || m2) << i;
    EXPECT_EQ(m.vrf().mask_bit(9, i), m1 != m2) << i;
    EXPECT_EQ(m.vrf().mask_bit(10, i), m1 && !m2) << i;
  }
}

// ---- integer / moves ---------------------------------------------------------

TEST(Integer, AddShiftAndMove) {
  Machine m = small_machine();
  const std::uint64_t vl = 48;
  ProgramBuilder pb(m.config().effective_vlen(), "int");
  pb.vsetvli(vl, Sew::k64, kLmul1);
  pb.vid_v(4);
  pb.vadd_vx(6, 4, 100);
  pb.vsll_vx(8, 4, 3);
  pb.vsrl_vx(10, 8, 1);
  pb.vand_vx(12, 4, 0x7);
  pb.vmv_v_x(14, -5);
  pb.vadd_vv(16, 4, 6);
  pb.vsub_vv(18, 6, 4);
  const Program prog = pb.take();
  m.run(prog);
  for (std::uint64_t i = 0; i < vl; ++i) {
    EXPECT_EQ(m.vrf().read_elem(4, i, 8), i);
    EXPECT_EQ(m.vrf().read_elem(6, i, 8), i + 100);
    EXPECT_EQ(m.vrf().read_elem(8, i, 8), i << 3);
    EXPECT_EQ(m.vrf().read_elem(10, i, 8), (i << 3) >> 1);
    EXPECT_EQ(m.vrf().read_elem(12, i, 8), i & 0x7);
    EXPECT_EQ(m.vrf().read_i64(14, i), -5);
    EXPECT_EQ(m.vrf().read_elem(16, i, 8), 2 * i + 100);
    EXPECT_EQ(m.vrf().read_elem(18, i, 8), 100u);
  }
}

TEST(Integer, NarrowWidthWraps) {
  Machine m = small_machine();
  ProgramBuilder pb(m.config().effective_vlen(), "int8");
  pb.vsetvli(32, Sew::k8, kLmul1);
  pb.vmv_v_x(4, 200);
  pb.vadd_vx(6, 4, 100);  // 300 wraps to 44 in 8 bits
  const Program prog = pb.take();
  m.run(prog);
  EXPECT_EQ(m.vrf().read_elem(6, 0, 1), (200u + 100u) & 0xFF);
}

TEST(Moves, BroadcastAndScalarMove) {
  Machine m = small_machine();
  ProgramBuilder pb(m.config().effective_vlen(), "mv");
  pb.vsetvli(32, Sew::k64, kLmul1);
  pb.vfmv_v_f(4, 2.75);
  pb.vfmv_s_f(6, 9.5);
  pb.vmv_v_v(8, 4);
  const Program prog = pb.take();
  m.vrf().write_f64(6, 1, 111.0);  // must stay (vfmv.s.f writes elem 0 only)
  m.run(prog);
  for (std::uint64_t i = 0; i < 32; ++i) {
    EXPECT_DOUBLE_EQ(m.vrf().read_f64(4, i), 2.75);
    EXPECT_DOUBLE_EQ(m.vrf().read_f64(8, i), 2.75);
  }
  EXPECT_DOUBLE_EQ(m.vrf().read_f64(6, 0), 9.5);
  EXPECT_DOUBLE_EQ(m.vrf().read_f64(6, 1), 111.0);
}

TEST(Moves, ScalarAccumulatorFlow) {
  // vfmv.f.s captures element 0; subsequent _acc ops consume it.
  Machine m = small_machine();
  ProgramBuilder pb(m.config().effective_vlen(), "acc");
  pb.vsetvli(16, Sew::k64, kLmul1);
  pb.vfmv_s_f(4, 3.0);
  pb.vfmv_f_s(4);           // acc = 3.0
  pb.vfmv_v_f(8, 2.0);
  pb.vfmul_vf_acc(12, 8);   // 2 * 3
  pb.vfrdiv_vf_acc(16, 8);  // 3 / 2
  const Program prog = pb.take();
  m.run(prog);
  EXPECT_DOUBLE_EQ(m.scalar_acc(), 3.0);
  EXPECT_DOUBLE_EQ(m.vrf().read_f64(12, 0), 6.0);
  EXPECT_DOUBLE_EQ(m.vrf().read_f64(16, 5), 1.5);
}

TEST(Convert, RoundTripAndRounding) {
  Machine m = small_machine();
  ProgramBuilder pb(m.config().effective_vlen(), "cvt");
  pb.vsetvli(8, Sew::k64, kLmul1);
  pb.vfcvt_x_f(8, 4);
  pb.vfcvt_f_x(12, 8);
  const Program prog = pb.take();
  const std::vector<double> xs{0.0, 0.5, 1.5, 2.5, -0.5, -1.5, 3.49, -3.51};
  fill_vreg(m, 4, xs);
  m.run(prog);
  // Round-to-nearest-even.
  const std::vector<std::int64_t> expect{0, 0, 2, 2, 0, -2, 3, -4};
  for (std::uint64_t i = 0; i < xs.size(); ++i) {
    EXPECT_EQ(m.vrf().read_i64(8, i), expect[i]) << i;
    EXPECT_DOUBLE_EQ(m.vrf().read_f64(12, i), static_cast<double>(expect[i])) << i;
  }
}

// ---- slides -------------------------------------------------------------------

TEST(Slides, Slide1DownAndUp) {
  Machine m = small_machine();
  const std::uint64_t vl = 70;  // not a multiple of the lane count
  ProgramBuilder pb(m.config().effective_vlen(), "slide1");
  pb.vsetvli(vl, Sew::k64, kLmul1);
  pb.vfslide1down(12, 8, -1.0);
  pb.vfslide1up(16, 8, -2.0);
  const Program prog = pb.take();
  const auto a = rnd(vl, 9);
  fill_vreg(m, 8, a);
  m.run(prog);
  for (std::uint64_t i = 0; i < vl; ++i) {
    const double down = i + 1 < vl ? a[i + 1] : -1.0;
    const double up = i == 0 ? -2.0 : a[i - 1];
    EXPECT_DOUBLE_EQ(m.vrf().read_f64(12, i), down) << i;
    EXPECT_DOUBLE_EQ(m.vrf().read_f64(16, i), up) << i;
  }
}

TEST(Slides, SlideNDownZeroFillsPastVlmax) {
  Machine m = small_machine();
  const std::uint64_t vl = 64;
  ProgramBuilder pb(m.config().effective_vlen(), "sliden");
  const std::uint64_t vlmax1 = pb.vlmax(Sew::k64, kLmul1);
  pb.vsetvli(vl, Sew::k64, kLmul1);
  pb.vslidedown_vx(12, 8, 10);
  const Program prog = pb.take();
  const auto a = rnd(vlmax1, 10);  // fill the whole register
  fill_vreg(m, 8, a);
  m.run(prog);
  for (std::uint64_t i = 0; i < vl; ++i) {
    const double expect = i + 10 < vlmax1 ? a[i + 10] : 0.0;
    EXPECT_DOUBLE_EQ(m.vrf().read_f64(12, i), expect) << i;
  }
}

TEST(Slides, SlideUpLeavesHeadUndisturbed) {
  Machine m = small_machine();
  const std::uint64_t vl = 40;
  ProgramBuilder pb(m.config().effective_vlen(), "slideup");
  pb.vsetvli(vl, Sew::k64, kLmul1);
  pb.vslideup_vx(12, 8, 5);
  const Program prog = pb.take();
  const auto a = rnd(vl, 11);
  const auto d0 = rnd(vl, 12);
  fill_vreg(m, 8, a);
  fill_vreg(m, 12, d0);
  m.run(prog);
  for (std::uint64_t i = 0; i < vl; ++i) {
    const double expect = i < 5 ? d0[i] : a[i - 5];
    EXPECT_DOUBLE_EQ(m.vrf().read_f64(12, i), expect) << i;
  }
}

TEST(Slides, Slide1DownInPlace) {
  // vd == vs2 is legal for slidedown (reads ahead of writes).
  Machine m = small_machine();
  const std::uint64_t vl = 32;
  ProgramBuilder pb(m.config().effective_vlen(), "inplace");
  pb.vsetvli(vl, Sew::k64, kLmul1);
  pb.vfslide1down(8, 8, 42.0);
  const Program prog = pb.take();
  const auto a = rnd(vl, 13);
  fill_vreg(m, 8, a);
  m.run(prog);
  for (std::uint64_t i = 0; i + 1 < vl; ++i) {
    EXPECT_DOUBLE_EQ(m.vrf().read_f64(8, i), a[i + 1]) << i;
  }
  EXPECT_DOUBLE_EQ(m.vrf().read_f64(8, vl - 1), 42.0);
}

// ---- reductions ----------------------------------------------------------------

TEST(Reductions, SumMaxMin) {
  Machine m = small_machine();
  const std::uint64_t vl = 200;  // exceeds the LMUL=1 VLMAX of 128
  ProgramBuilder pb(m.config().effective_vlen(), "red");
  ASSERT_EQ(pb.vsetvli(vl, Sew::k64, kLmul2), vl);
  pb.vfmv_s_f(4, 0.5);   // seed
  pb.vfredusum(12, 8, 4);
  pb.vfredmax(13, 8, 4);
  pb.vfredmin(14, 8, 4);
  const Program prog = pb.take();
  const auto a = rnd(vl, 14);
  fill_vreg(m, 8, a);
  m.run(prog);
  double sum = 0.5;
  double mx = 0.5;
  double mn = 0.5;
  for (const double v : a) {
    sum += v;
    mx = std::fmax(mx, v);
    mn = std::fmin(mn, v);
  }
  EXPECT_NEAR(m.vrf().read_f64(12, 0), sum, 1e-9);
  EXPECT_DOUBLE_EQ(m.vrf().read_f64(13, 0), mx);
  EXPECT_DOUBLE_EQ(m.vrf().read_f64(14, 0), mn);
}

TEST(Reductions, Vl1) {
  Machine m = small_machine();
  ProgramBuilder pb(m.config().effective_vlen(), "red1");
  pb.vsetvli(1, Sew::k64, kLmul1);
  pb.vfmv_s_f(4, 10.0);
  pb.vfmv_s_f(8, 32.0);
  pb.vfredusum(12, 8, 4);
  const Program prog = pb.take();
  m.run(prog);
  EXPECT_DOUBLE_EQ(m.vrf().read_f64(12, 0), 42.0);
}

// ---- memory -------------------------------------------------------------------

TEST(Memory, UnitStrideRoundTrip) {
  Machine m = small_machine();
  const std::uint64_t vl = 120;
  ProgramBuilder pb(m.config().effective_vlen(), "mem");
  pb.vsetvli(vl, Sew::k64, kLmul1);
  pb.vle(8, kA);
  pb.vse(8, kC);
  const Program prog = pb.take();
  const auto a = rnd(vl, 15);
  m.mem().store_doubles(kA, a);
  m.run(prog);
  EXPECT_EQ(m.mem().load_doubles(kC, vl), a);
}

TEST(Memory, MisalignedUnitStride) {
  Machine m = small_machine();
  const std::uint64_t vl = 33;
  ProgramBuilder pb(m.config().effective_vlen(), "mis");
  pb.vsetvli(vl, Sew::k64, kLmul1);
  pb.vle(8, kA + 8 * 5 + 0);  // 8-byte aligned but bus-misaligned
  pb.vse(8, kC + 24);
  const Program prog = pb.take();
  const auto a = rnd(vl + 5, 16);
  m.mem().store_doubles(kA, a);
  m.run(prog);
  const auto out = m.mem().load_doubles(kC + 24, vl);
  for (std::uint64_t i = 0; i < vl; ++i) EXPECT_DOUBLE_EQ(out[i], a[i + 5]) << i;
}

TEST(Memory, Strided) {
  Machine m = small_machine();
  const std::uint64_t vl = 50;
  const std::int64_t stride = 40;  // 5 doubles
  ProgramBuilder pb(m.config().effective_vlen(), "strided");
  pb.vsetvli(vl, Sew::k64, kLmul1);
  pb.vlse(8, kA, stride);
  pb.vsse(8, kC, 16);
  const Program prog = pb.take();
  const auto a = rnd(vl * 5, 17);
  m.mem().store_doubles(kA, a);
  m.run(prog);
  for (std::uint64_t i = 0; i < vl; ++i) {
    EXPECT_DOUBLE_EQ(m.mem().load<double>(kC + i * 16), a[i * 5]) << i;
  }
}

TEST(Memory, NegativeStride) {
  Machine m = small_machine();
  const std::uint64_t vl = 16;
  ProgramBuilder pb(m.config().effective_vlen(), "negstride");
  pb.vsetvli(vl, Sew::k64, kLmul1);
  pb.vlse(8, kA + (vl - 1) * 8, -8);
  const Program prog = pb.take();
  const auto a = rnd(vl, 18);
  m.mem().store_doubles(kA, a);
  m.run(prog);
  for (std::uint64_t i = 0; i < vl; ++i) {
    EXPECT_DOUBLE_EQ(m.vrf().read_f64(8, i), a[vl - 1 - i]) << i;
  }
}

TEST(Memory, StrideZeroLoadBroadcastsAndStoreLastWins) {
  // stride 0 is legal RVV: every element reads (or writes) the same
  // address. The memory executor must preserve the ascending-element
  // order so the *last* element wins the store.
  Machine m = small_machine();
  const std::uint64_t vl = 40;
  ProgramBuilder pb(m.config().effective_vlen(), "stride0");
  pb.vsetvli(vl, Sew::k64, kLmul1);
  pb.vlse(8, kA, 0);
  pb.vsse(12, kC, 0);
  const Program prog = pb.take();
  m.mem().store<double>(kA, 2.5);
  fill_vreg(m, 12, rnd(vl, 21));
  const double last = m.vrf().read_f64(12, vl - 1);
  m.run(prog);
  for (std::uint64_t i = 0; i < vl; ++i) {
    EXPECT_DOUBLE_EQ(m.vrf().read_f64(8, i), 2.5) << i;
  }
  EXPECT_DOUBLE_EQ(m.mem().load<double>(kC), last);
}

TEST(Memory, OverlappingStridedStore) {
  // |stride| < ew: writes overlap. Ascending order means element i+1
  // clobbers the top half of element i — replay the same writes through a
  // scalar reference and compare bytes.
  Machine m = small_machine();
  const std::uint64_t vl = 25;
  const std::int64_t stride = 4;
  ProgramBuilder pb(m.config().effective_vlen(), "overlap");
  pb.vsetvli(vl, Sew::k64, kLmul1);
  pb.vsse(12, kC, stride);
  const Program prog = pb.take();
  const auto vals = rnd(vl, 22);
  fill_vreg(m, 12, vals);
  m.run(prog);

  std::vector<std::uint8_t> expect(vl * 4 + 8, 0);
  for (std::uint64_t i = 0; i < vl; ++i) {
    std::memcpy(expect.data() + i * 4, &vals[i], 8);
  }
  for (std::uint64_t b = 0; b < expect.size(); ++b) {
    EXPECT_EQ(m.mem().load<std::uint8_t>(kC + b), expect[b]) << b;
  }
}

TEST(Memory, BulkStridedMatchesPerElementPath) {
  // Differential guard for the memory executor's mask handling: the same
  // strided program run masked with an all-true v0 must leave the state
  // the unmasked run leaves.
  const std::uint64_t vl = 60;
  const std::int64_t stride = 24;
  const auto build = [&](bool masked) {
    ProgramBuilder pb(MachineConfig::araxl(8).effective_vlen(), "diff");
    pb.vsetvli(vl, Sew::k64, kLmul1);
    pb.vlse(8, kA + (vl - 1) * 8, -8);  // descending load
    pb.vsse(8, kC, stride);
    Program prog = pb.take();
    if (masked) {
      for (ProgOp& op : prog.ops) {
        if (auto* in = std::get_if<VInstr>(&op)) {
          if (in->op == Op::kVlse || in->op == Op::kVsse) in->masked = true;
        }
      }
    }
    return prog;
  };

  const auto run = [&](bool masked) {
    auto m = std::make_unique<Machine>(MachineConfig::araxl(8));
    m->mem().store_doubles(kA, rnd(vl, 23));
    for (std::uint64_t i = 0; i < vl; ++i) m->vrf().set_mask_bit(0, i, true);
    m->run(build(masked));
    std::vector<double> out = m->vrf().read_f64_slice(8, vl);
    for (std::uint64_t i = 0; i < vl; ++i) {
      out.push_back(m->mem().load<double>(kC + static_cast<std::uint64_t>(
                                                   static_cast<std::int64_t>(i) *
                                                   stride)));
    }
    return out;
  };
  EXPECT_EQ(run(false), run(true));
}

TEST(Memory, StridedOutOfBoundsIsRejected) {
  // A stride that escapes memory must fail: the memory executor checks
  // every active address before it moves a byte.
  Machine m = small_machine();
  ProgramBuilder pb(m.config().effective_vlen(), "oob");
  pb.vsetvli(16, Sew::k64, kLmul1);
  pb.vlse(8, kA, static_cast<std::int64_t>(m.mem().size() / 4));
  const Program prog = pb.take();
  EXPECT_THROW(m.run(prog), ContractViolation);
}

TEST(Memory, IndexedGatherScatter) {
  Machine m = small_machine();
  const std::uint64_t vl = 64;
  ProgramBuilder pb(m.config().effective_vlen(), "indexed");
  pb.vsetvli(vl, Sew::k64, kLmul1);
  pb.vluxei(8, kA, 4);   // gather A[idx]
  pb.vsuxei(8, kC, 6);   // scatter to C at other idx
  const Program prog = pb.take();
  const auto a = rnd(256, 19);
  m.mem().store_doubles(kA, a);
  Rng rng(20);
  std::vector<std::uint64_t> gidx(vl);
  std::vector<std::uint64_t> sidx(vl);
  for (std::uint64_t i = 0; i < vl; ++i) {
    gidx[i] = rng.next_below(256) * 8;
    sidx[i] = i * 8;  // unique scatter targets
    m.vrf().write_elem(4, i, 8, gidx[i]);
    m.vrf().write_elem(6, i, 8, sidx[i]);
  }
  m.run(prog);
  for (std::uint64_t i = 0; i < vl; ++i) {
    EXPECT_DOUBLE_EQ(m.mem().load<double>(kC + sidx[i]), a[gidx[i] / 8]) << i;
  }
}

TEST(Memory, MaskedLoadLeavesInactive) {
  Machine m = small_machine();
  const std::uint64_t vl = 40;
  ProgramBuilder pb(m.config().effective_vlen(), "maskedload");
  pb.vsetvli(vl, Sew::k64, kLmul1);
  pb.vle(8, kA, /*masked=*/true);
  const Program prog = pb.take();
  const auto a = rnd(vl, 21);
  const auto d0 = rnd(vl, 22);
  m.mem().store_doubles(kA, a);
  fill_vreg(m, 8, d0);
  for (std::uint64_t i = 0; i < vl; ++i) m.vrf().set_mask_bit(0, i, i % 2 == 0);
  m.run(prog);
  for (std::uint64_t i = 0; i < vl; ++i) {
    EXPECT_DOUBLE_EQ(m.vrf().read_f64(8, i), i % 2 == 0 ? a[i] : d0[i]) << i;
  }
}

TEST(Memory, Lmul8LongVector) {
  // One vle across an LMUL=8 group spanning multiple registers.
  Machine m = small_machine();
  ProgramBuilder pb(m.config().effective_vlen(), "lmul8");
  const std::uint64_t vl = pb.vlmax(Sew::k64, kLmul8);
  pb.vsetvli(vl, Sew::k64, kLmul8);
  pb.vle(8, kA);
  pb.vse(8, kC);
  const Program prog = pb.take();
  const auto a = rnd(vl, 23);
  m.mem().store_doubles(kA, a);
  m.run(prog);
  EXPECT_EQ(m.mem().load_doubles(kC, vl), a);
}

// ---- vl edge cases --------------------------------------------------------------

TEST(EdgeCases, VlZeroIsNoOp) {
  Machine m = small_machine();
  ProgramBuilder pb(m.config().effective_vlen(), "vl0");
  pb.vsetvli(0, Sew::k64, kLmul1);
  pb.vfadd_vv(16, 8, 12);
  pb.vle(20, kA);
  const Program prog = pb.take();
  const auto d0 = rnd(4, 24);
  fill_vreg(m, 16, d0);
  const RunStats stats = m.run(prog);
  EXPECT_DOUBLE_EQ(m.vrf().read_f64(16, 0), d0[0]);
  EXPECT_GT(stats.cycles, 0u);
}

TEST(EdgeCases, TailUndisturbed) {
  Machine m = small_machine();
  ProgramBuilder pb(m.config().effective_vlen(), "tail");
  pb.vsetvli(10, Sew::k64, kLmul1);
  pb.vfmv_v_f(8, 1.0);
  const Program prog = pb.take();
  m.vrf().write_f64(8, 10, 99.0);
  m.vrf().write_f64(8, 20, 98.0);
  m.run(prog);
  EXPECT_DOUBLE_EQ(m.vrf().read_f64(8, 9), 1.0);
  EXPECT_DOUBLE_EQ(m.vrf().read_f64(8, 10), 99.0);
  EXPECT_DOUBLE_EQ(m.vrf().read_f64(8, 20), 98.0);
}

TEST(EdgeCases, Float32Arithmetic) {
  Machine m = small_machine();
  ProgramBuilder pb(m.config().effective_vlen(), "f32");
  pb.vsetvli(16, Sew::k32, kLmul1);
  pb.vfadd_vv(16, 8, 12);
  const Program prog = pb.take();
  for (std::uint64_t i = 0; i < 16; ++i) {
    m.vrf().write_f32(8, i, static_cast<float>(i) * 0.5f);
    m.vrf().write_f32(12, i, 1.25f);
  }
  m.run(prog);
  for (std::uint64_t i = 0; i < 16; ++i) {
    EXPECT_FLOAT_EQ(m.vrf().read_f32(16, i), static_cast<float>(i) * 0.5f + 1.25f);
  }
}

}  // namespace
}  // namespace araxl
