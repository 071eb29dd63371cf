// Unit tests: ISA layer — SEW, vtype/VLMAX semantics, opcode property
// table invariants, program builder validation, disassembler.
#include <gtest/gtest.h>

#include "common/contracts.hpp"
#include "isa/disasm.hpp"
#include "isa/program.hpp"

namespace araxl {
namespace {

TEST(Sew, BitsAndBytes) {
  EXPECT_EQ(sew_bits(Sew::k8), 8u);
  EXPECT_EQ(sew_bits(Sew::k64), 64u);
  EXPECT_EQ(sew_bytes(Sew::k32), 4u);
  EXPECT_EQ(sew_from_bits(16), Sew::k16);
  EXPECT_THROW(sew_from_bits(128), ContractViolation);
}

TEST(Vtype, VlmaxBasics) {
  // VLEN=16384 (16-lane AraXL): e64/m1 -> 256 elements.
  EXPECT_EQ(vlmax(16384, {Sew::k64, kLmul1}), 256u);
  EXPECT_EQ(vlmax(16384, {Sew::k64, kLmul8}), 2048u);
  EXPECT_EQ(vlmax(16384, {Sew::k32, kLmul1}), 512u);
  EXPECT_EQ(vlmax(16384, {Sew::k64, kLmulF2}), 128u);
}

TEST(Vtype, RvvMaximumReached) {
  // The RVV 1.0 ceiling the paper reaches: 64 Kibit/register at 64 lanes =>
  // 8192 DP elements per register.
  EXPECT_EQ(vlmax(kMaxVlenBits, {Sew::k64, kLmul1}), 1024u);
  EXPECT_EQ(vlmax(kMaxVlenBits, {Sew::k64, kLmul8}), 8192u);
}

TEST(Vtype, VsetvlClamps) {
  EXPECT_EQ(vsetvl_result(16384, 100, {Sew::k64, kLmul1}), 100u);
  EXPECT_EQ(vsetvl_result(16384, 100000, {Sew::k64, kLmul1}), 256u);
  EXPECT_EQ(vsetvl_result(16384, 0, {Sew::k64, kLmul1}), 0u);
}

TEST(Vtype, InvalidVlenRejected) {
  EXPECT_THROW(vlmax(100, {Sew::k64, kLmul1}), ContractViolation);
  EXPECT_THROW(vlmax(131072, {Sew::k64, kLmul1}), ContractViolation);
}

TEST(Vtype, Names) {
  EXPECT_EQ(vtype_name({Sew::k64, kLmul4}), "e64,m4");
  EXPECT_EQ(vtype_name({Sew::k32, kLmulF4}), "e32,mf4");
}

TEST(Lmul, GroupRegs) {
  EXPECT_EQ(kLmul1.group_regs(), 1u);
  EXPECT_EQ(kLmul8.group_regs(), 8u);
  EXPECT_EQ(kLmulF8.group_regs(), 1u);
  EXPECT_TRUE(kLmulF2.fractional());
  EXPECT_FALSE(kLmul2.fractional());
}

TEST(OpSpec, TableInvariants) {
  // Walk every opcode: the property table must be self-consistent.
  for (unsigned op = 0; op < kNumOps; ++op) {
    const OpSpec& s = op_spec(static_cast<Op>(op));
    EXPECT_FALSE(s.mnemonic.empty());
    if (s.reads_mem || s.writes_mem) {
      EXPECT_TRUE(s.unit == Unit::kLoad || s.unit == Unit::kStore)
          << s.mnemonic;
    }
    if (s.is_reduction) {
      EXPECT_EQ(s.unit, Unit::kFpu) << s.mnemonic;
    }
    if (s.is_slide) {
      EXPECT_EQ(s.unit, Unit::kSldu) << s.mnemonic;
    }
    if (s.flops_per_elem > 0) {
      EXPECT_EQ(s.unit, Unit::kFpu) << s.mnemonic;
    }
    if (s.writes_mask) {
      EXPECT_TRUE(s.writes_vd) << s.mnemonic;
    }
  }
}

TEST(OpSpec, FmaCountsTwoFlops) {
  EXPECT_EQ(op_spec(Op::kVfmaccVV).flops_per_elem, 2);
  EXPECT_EQ(op_spec(Op::kVfmaddVV).flops_per_elem, 2);
  EXPECT_EQ(op_spec(Op::kVfaddVV).flops_per_elem, 1);
  EXPECT_EQ(op_spec(Op::kVmfleVV).flops_per_elem, 0);
  EXPECT_EQ(op_spec(Op::kVle).flops_per_elem, 0);
}

TEST(Builder, RequiresVsetvliFirst) {
  ProgramBuilder pb(16384, "t");
  EXPECT_THROW(pb.vfadd_vv(8, 4, 0), ContractViolation);
}

TEST(Builder, GrantsMinOfAvlAndVlmax) {
  ProgramBuilder pb(16384, "t");
  EXPECT_EQ(pb.vsetvli(1000, Sew::k64, kLmul1), 256u);
  EXPECT_EQ(pb.vsetvli(100, Sew::k64, kLmul1), 100u);
  EXPECT_EQ(pb.vl(), 100u);
}

TEST(Builder, EnforcesGroupAlignment) {
  ProgramBuilder pb(16384, "t");
  pb.vsetvli(16, Sew::k64, kLmul4);
  EXPECT_THROW(pb.vfadd_vv(9, 4, 0), ContractViolation);   // vd not 4-aligned
  EXPECT_THROW(pb.vfadd_vv(8, 5, 0), ContractViolation);   // vs2 not aligned
  EXPECT_NO_THROW(pb.vfadd_vv(8, 4, 0));
}

TEST(Builder, ScalarMoveExemptFromAlignment) {
  ProgramBuilder pb(65536, "t");
  pb.vsetvli(16, Sew::k64, kLmul8);
  EXPECT_NO_THROW(pb.vfmv_f_s(25));   // single-element read
  EXPECT_NO_THROW(pb.vfredusum(25, 16, 24));
}

TEST(Builder, MaskedOpMayNotWriteV0) {
  ProgramBuilder pb(16384, "t");
  pb.vsetvli(16, Sew::k64, kLmul1);
  EXPECT_THROW(pb.vfadd_vv(0, 4, 8, /*masked=*/true), ContractViolation);
  EXPECT_NO_THROW(pb.vfadd_vv(4, 4, 8, /*masked=*/true));
}

TEST(Builder, SlideOverlapRejected) {
  ProgramBuilder pb(16384, "t");
  pb.vsetvli(16, Sew::k64, kLmul1);
  EXPECT_THROW(pb.vfslide1up(8, 8, 0.0), ContractViolation);
  EXPECT_NO_THROW(pb.vfslide1down(8, 8, 0.0));  // down may overlap
}

TEST(Builder, RegisterRangeChecked) {
  ProgramBuilder pb(16384, "t");
  pb.vsetvli(16, Sew::k64, kLmul1);
  EXPECT_THROW(pb.vfadd_vv(32, 0, 0), ContractViolation);
  EXPECT_THROW(pb.vle(40, 0), ContractViolation);
}

TEST(Builder, CountsOps) {
  ProgramBuilder pb(16384, "t");
  pb.vsetvli(16, Sew::k64, kLmul1);
  pb.vle(8, 0x1000);
  pb.vfadd_vv(12, 8, 8);
  pb.scalar_cycles(3);
  const Program p = pb.take();
  EXPECT_EQ(p.ops.size(), 4u);
  EXPECT_EQ(p.vinstr_count(), 3u);  // vsetvli counts as a vector instruction
  EXPECT_EQ(p.scalar_op_count(), 1u);
}

TEST(Builder, TakeResets) {
  ProgramBuilder pb(16384, "t");
  pb.vsetvli(16, Sew::k64, kLmul1);
  (void)pb.take();
  EXPECT_THROW(pb.vfadd_vv(8, 4, 0), ContractViolation);  // needs new vsetvli
}

TEST(Builder, ZeroScalarCyclesElided) {
  ProgramBuilder pb(16384, "t");
  pb.scalar_cycles(0);
  EXPECT_EQ(pb.take().ops.size(), 0u);
}

// ---- loop-region detection --------------------------------------------------

/// `reps` copies of a 115-op body shaped like an fconv2d output row: one
/// head op, seven 16-op blocks that repeat among themselves, two tail ops.
std::vector<OpKey> row_body_keys(std::size_t reps) {
  std::vector<OpKey> keys;
  for (std::size_t r = 0; r < reps; ++r) {
    keys.push_back(OpKey{.tag = 1, .op = 1});
    for (std::size_t b = 0; b < 7; ++b) {
      for (std::uint64_t j = 0; j < 16; ++j) keys.push_back(OpKey{.value = j + 1});
    }
    keys.push_back(OpKey{.tag = 1, .op = 2});
    keys.push_back(OpKey{.value = 99});
  }
  return keys;
}

TEST(LoopRegions, WholeRowBodyIsOneRegionUnderDefaultCap) {
  // Twelve rows: the row loop runs longer than the 7-iteration block loop
  // inside it, so the whole 115-op body is the region.
  const std::vector<OpKey> keys = row_body_keys(12);
  ASSERT_EQ(keys.size(), 12u * 115);
  const std::vector<LoopRegion> regions = find_loop_regions(keys);
  ASSERT_EQ(regions.size(), 1u);
  EXPECT_EQ(regions[0].start, 0u);
  EXPECT_EQ(regions[0].end, keys.size());
  EXPECT_EQ(regions[0].period, 115u);

  // A 64-op cap cannot see the body: only the 16-op blocks inside each row
  // are found, as short fragments.
  const std::vector<LoopRegion> capped = find_loop_regions(keys, 64);
  ASSERT_FALSE(capped.empty());
  for (const LoopRegion& r : capped) {
    EXPECT_EQ(r.period, 16u);
    EXPECT_LE(r.end - r.start, 112u);
  }
}

TEST(LoopRegions, LongerInnerLoopBeatsFewOuterBodies) {
  // Four rows: the 7-iteration block loop inside each row has more to
  // batch than four row bodies, so the blocks are the regions, one per row.
  const std::vector<OpKey> keys = row_body_keys(4);
  const std::vector<LoopRegion> regions = find_loop_regions(keys);
  ASSERT_EQ(regions.size(), 4u);
  for (std::size_t r = 0; r < regions.size(); ++r) {
    EXPECT_EQ(regions[r].start, r * 115 + 1);
    EXPECT_EQ(regions[r].end, r * 115 + 113);
    EXPECT_EQ(regions[r].period, 16u);
  }
}

TEST(LoopRegions, TwoPeriodRunIsNoRegion) {
  // Two bodies can be recorded and matched but never batched, so only the
  // block loops inside them are regions.
  const std::vector<LoopRegion> regions = find_loop_regions(row_body_keys(2));
  ASSERT_EQ(regions.size(), 2u);
  for (const LoopRegion& r : regions) EXPECT_EQ(r.period, 16u);
}

// ---- two-level nest detection ----------------------------------------------

/// 4 rows x 5 strips of (vle, vfadd) with `pitch` between row starts.
Program tiled_program(std::uint64_t pitch, std::uint64_t stride,
                      std::uint64_t wobble_row = ~0ull) {
  ProgramBuilder pb(16384, "tiled");
  pb.vsetvli(16, Sew::k64, kLmul1);
  for (std::uint64_t row = 0; row < 4; ++row) {
    for (std::uint64_t s = 0; s < 5; ++s) {
      const std::uint64_t nudge = row == wobble_row && s == 2 ? 16 : 0;
      pb.vle(8, 0x1000 + row * pitch + s * stride + nudge);
      pb.vfadd_vf(12, 8, 1.0);
    }
  }
  return pb.take();
}

TEST(LoopNest, DetectsTiledRowJumps) {
  // Row pitch != 5*stride, so the load's per-period delta is `stride` four
  // times then one jump — a valid two-level nest with outer period 5 and
  // the jump entering each row's first iteration (phase 4).
  const std::uint64_t stride = 0x100;
  const Program p = tiled_program(/*pitch=*/5 * stride + 8, stride);
  const LoopRegion region{1, p.ops.size(), 2};
  const LoopNest nest = find_loop_nest(p, region);
  ASSERT_TRUE(nest.valid);
  EXPECT_EQ(nest.outer_period, 5u);
  EXPECT_EQ(nest.phase, 4u);
}

TEST(LoopNest, PlainProgressionIsNotANest) {
  // pitch == 5*stride makes the walk a single constant progression: no
  // jumps, so there is no outer loop to find.
  const std::uint64_t stride = 0x100;
  const Program p = tiled_program(/*pitch=*/5 * stride, stride);
  const LoopRegion region{1, p.ops.size(), 2};
  EXPECT_FALSE(find_loop_nest(p, region).valid);
}

TEST(LoopNest, AperiodicJumpInvalidates) {
  // A wobbled strip mid-row introduces a third delta value: the walk is
  // not a two-level nest and the detector must say so rather than guess.
  const std::uint64_t stride = 0x100;
  const Program p =
      tiled_program(/*pitch=*/5 * stride + 8, stride, /*wobble_row=*/1);
  const LoopRegion region{1, p.ops.size(), 2};
  EXPECT_FALSE(find_loop_nest(p, region).valid);
}

TEST(Disasm, RendersOperands) {
  ProgramBuilder pb(16384, "t");
  pb.vsetvli(16, Sew::k64, kLmul2);
  pb.vfmacc_vf(8, 1.5, 16);
  pb.vle(4, 0x2000);
  pb.vslidedown_vx(6, 4, 3);
  const Program p = pb.take();
  const std::string text = disasm(p);
  EXPECT_NE(text.find("vsetvli avl=16, e64,m2"), std::string::npos);
  EXPECT_NE(text.find("vfmacc.vf v8, v16, fs=1.5000"), std::string::npos);
  EXPECT_NE(text.find("vle64.v v4, 0x2000"), std::string::npos);
  EXPECT_NE(text.find("vslidedown.vx v6, v4, x=3"), std::string::npos);
}

TEST(Disasm, MaskedSuffix) {
  ProgramBuilder pb(16384, "t");
  pb.vsetvli(16, Sew::k64, kLmul1);
  pb.vfadd_vv(8, 4, 2, /*masked=*/true);
  const Program prog = pb.take();
  const VInstr& in = std::get<VInstr>(prog.ops[1]);
  EXPECT_NE(disasm(in).find("v0.t"), std::string::npos);
}

TEST(Disasm, AccumulatorScalarShown) {
  ProgramBuilder pb(16384, "t");
  pb.vsetvli(16, Sew::k64, kLmul1);
  pb.vfmul_vf_acc(8, 4);
  const Program prog = pb.take();
  const VInstr& in = std::get<VInstr>(prog.ops[1]);
  EXPECT_NE(disasm(in).find("fs=<acc>"), std::string::npos);
}

}  // namespace
}  // namespace araxl
