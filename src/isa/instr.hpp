// The RVV-1.0 subset implemented by the AraXL model: the instructions the
// paper optimizes for (unit-stride memory, slide-by-1, reductions, basic
// mask operations) plus the strided/indexed accesses and utility ops that
// are "supported, albeit at lower throughput" (paper §III-A) and everything
// the six Table-I kernels need.
#ifndef ARAXL_ISA_INSTR_HPP
#define ARAXL_ISA_INSTR_HPP

#include <cstdint>
#include <string_view>

#include "isa/vtype.hpp"
#include "sim/stats.hpp"

namespace araxl {

/// Vector opcodes (assembler mnemonics in comments).
enum class Op : std::uint8_t {
  kVsetvli,      // vsetvli rd, rs1, vtypei

  // --- memory ---
  kVle,          // vle<sew>.v  vd, (rs1)
  kVse,          // vse<sew>.v  vs3, (rs1)
  kVlse,         // vlse<sew>.v vd, (rs1), rs2      (constant stride)
  kVsse,         // vsse<sew>.v vs3, (rs1), rs2
  kVluxei,       // vluxei<sew>.v vd, (rs1), vs2    (indexed/gather)
  kVsuxei,       // vsuxei<sew>.v vs3, (rs1), vs2   (indexed/scatter)

  // --- floating point arithmetic ---
  kVfaddVV,      // vfadd.vv vd, vs2, vs1
  kVfaddVF,      // vfadd.vf vd, vs2, rs1
  kVfsubVV,      // vfsub.vv vd, vs2, vs1
  kVfsubVF,      // vfsub.vf vd, vs2, rs1
  kVfrsubVF,     // vfrsub.vf vd, vs2, rs1          (rs1 - vs2)
  kVfmulVV,      // vfmul.vv vd, vs2, vs1
  kVfmulVF,      // vfmul.vf vd, vs2, rs1
  kVfdivVV,      // vfdiv.vv vd, vs2, vs1
  kVfdivVF,      // vfdiv.vf vd, vs2, rs1
  kVfrdivVF,     // vfrdiv.vf vd, vs2, rs1          (rs1 / vs2)
  kVfmaccVV,     // vfmacc.vv vd, vs1, vs2          (vd += vs1*vs2)
  kVfmaccVF,     // vfmacc.vf vd, rs1, vs2          (vd += fs*vs2)
  kVfnmsacVV,    // vfnmsac.vv vd, vs1, vs2         (vd -= vs1*vs2)
  kVfnmsacVF,    // vfnmsac.vf vd, rs1, vs2         (vd -= fs*vs2)
  kVfmaddVF,     // vfmadd.vf vd, rs1, vs2          (vd = vd*fs + vs2)
  kVfmaddVV,     // vfmadd.vv vd, vs1, vs2          (vd = vd*vs1 + vs2)
  kVfmsacVF,     // vfmsac.vf vd, rs1, vs2          (vd = fs*vs2 - vd)
  kVfminVV,      // vfmin.vv vd, vs2, vs1
  kVfminVF,      // vfmin.vf vd, vs2, rs1
  kVfmaxVV,      // vfmax.vv vd, vs2, vs1
  kVfmaxVF,      // vfmax.vf vd, vs2, rs1
  kVfsgnjVV,     // vfsgnj.vv vd, vs2, vs1
  kVfsgnjnVV,    // vfsgnjn.vv vd, vs2, vs1         (vfneg when vs1 == vs2)
  kVfcvtXF,      // vfcvt.x.f.v vd, vs2             (round to nearest even)
  kVfcvtFX,      // vfcvt.f.x.v vd, vs2

  // --- integer / moves ---
  kVaddVV,       // vadd.vv vd, vs2, vs1
  kVaddVX,       // vadd.vx vd, vs2, rs1
  kVsubVV,       // vsub.vv vd, vs2, vs1
  kVsllVX,       // vsll.vx vd, vs2, rs1
  kVsrlVX,       // vsrl.vx vd, vs2, rs1
  kVandVX,       // vand.vx vd, vs2, rs1
  kVmvVX,        // vmv.v.x vd, rs1
  kVmvVV,        // vmv.v.v vd, vs1
  kVfmvVF,       // vfmv.v.f vd, rs1
  kVfmvFS,       // vfmv.f.s rd, vs2                (scalar result)
  kVfmvSF,       // vfmv.s.f vd, rs1                (writes element 0)
  kVidV,         // vid.v vd

  // --- reductions ---
  kVfredusum,    // vfredusum.vs vd, vs2, vs1
  kVfredmax,     // vfredmax.vs vd, vs2, vs1
  kVfredmin,     // vfredmin.vs vd, vs2, vs1

  // --- permutation ---
  kVfslide1up,   // vfslide1up.vf vd, vs2, rs1
  kVfslide1down, // vfslide1down.vf vd, vs2, rs1
  kVslideupVX,   // vslideup.vx vd, vs2, rs1
  kVslidedownVX, // vslidedown.vx vd, vs2, rs1

  // --- mask ---
  kVmfeqVV,      // vmfeq.vv vd, vs2, vs1
  kVmfltVV,      // vmflt.vv vd, vs2, vs1
  kVmfleVV,      // vmfle.vv vd, vs2, vs1
  kVmfltVF,      // vmflt.vf vd, vs2, rs1
  kVmfleVF,      // vmfle.vf vd, vs2, rs1
  kVmfgtVF,      // vmfgt.vf vd, vs2, rs1
  kVmfgeVF,      // vmfge.vf vd, vs2, rs1
  kVmandMM,      // vmand.mm vd, vs2, vs1
  kVmorMM,       // vmor.mm vd, vs2, vs1
  kVmxorMM,      // vmxor.mm vd, vs2, vs1
  kVmandnMM,     // vmandn.mm vd, vs2, vs1
  kVmergeVVM,    // vmerge.vvm vd, vs2, vs1, v0
  kVfmergeVFM,   // vfmerge.vfm vd, vs2, rs1, v0

  // --- widening floating point (EEW = 2*SEW destination) ---
  kVfwaddVV,     // vfwadd.vv vd, vs2, vs1
  kVfwsubVV,     // vfwsub.vv vd, vs2, vs1
  kVfwmulVV,     // vfwmul.vv vd, vs2, vs1
  kVfwmaccVV,    // vfwmacc.vv vd, vs1, vs2     (vd += vs1*vs2, vd wide)
  kVfsqrtV,      // vfsqrt.v vd, vs2            (unpipelined like fdiv)

  // --- register gather / compress (all-to-all permutations) ---
  kVrgatherVV,   // vrgather.vv vd, vs2, vs1    (vd[i] = vs2[vs1[i]])
  kVcompressVM,  // vcompress.vm vd, vs2, vs1   (pack vs2 where mask vs1)

  // --- mask population ---
  kVcpopM,       // vcpop.m rd, vs2             (scalar result)
  kVfirstM,      // vfirst.m rd, vs2            (scalar result, -1 if none)
  kViotaM,       // viota.m vd, vs2             (prefix popcount)
  kVmsbfM,       // vmsbf.m vd, vs2             (set-before-first)
  kVmsifM,       // vmsif.m vd, vs2             (set-including-first)
  kVmsofM,       // vmsof.m vd, vs2             (set-only-first)

  // --- additional integer ---
  kVmulVV,       // vmul.vv vd, vs2, vs1
  kVmulVX,       // vmul.vx vd, vs2, rs1
  kVmaccVV,      // vmacc.vv vd, vs1, vs2       (vd += vs1*vs2)
  kVrsubVX,      // vrsub.vx vd, vs2, rs1       (rs1 - vs2)
  kVmaxVV,       // vmax.vv vd, vs2, vs1        (signed)
  kVminVV,       // vmin.vv vd, vs2, vs1        (signed)
};

/// Number of opcodes (for property tables and exhaustive tests).
inline constexpr std::size_t kNumOps = static_cast<std::size_t>(Op::kVminVV) + 1;

/// One decoded vector instruction as issued by CVA6 over the REQI.
struct VInstr {
  Op op = Op::kVsetvli;
  std::uint8_t vd = 0;   ///< destination register (or store data register)
  std::uint8_t vs1 = 0;  ///< first vector source
  std::uint8_t vs2 = 0;  ///< second vector source
  bool masked = false;   ///< vm=0: execution masked by v0

  double fs = 0.0;        ///< scalar FP operand (rs1 of .vf forms)
  std::int64_t xs = 0;    ///< scalar integer operand (.vx forms, slide amount)
  bool fs_from_acc = false;  ///< take fs from the machine's scalar FP
                             ///< accumulator (value of the last vfmv.f.s)

  std::uint64_t addr = 0;   ///< base address for memory operations
  std::int64_t stride = 0;  ///< byte stride for vlse/vsse

  std::uint64_t avl = 0;  ///< application vector length (vsetvli only)
  Vtype vtype{};          ///< requested vtype (vsetvli only)
};

/// Static properties of an opcode used by both the functional model and the
/// timing engine.
struct OpSpec {
  std::string_view mnemonic;
  Unit unit = Unit::kNone;
  bool reads_vs1 = false;
  bool reads_vs2 = false;
  bool reads_vd = false;    ///< FMA family, stores, merges, partial slides
  bool writes_vd = false;
  bool reads_mem = false;
  bool writes_mem = false;
  bool writes_mask = false;   ///< destination uses the mask layout
  bool reads_scalar_acc_ok = false;  ///< .vf form that may use fs_from_acc
  bool returns_scalar = false;       ///< CVA6 blocks on the result
  bool is_reduction = false;
  bool is_slide = false;
  bool widens = false;     ///< destination EEW is 2*SEW (2*LMUL registers)
  bool is_gather = false;  ///< all-to-all permutation (vrgather/vcompress)
  bool reads_mask_src = false;  ///< vs2 (and vs1) read as mask bit vectors
  bool elem0_only = false;  ///< writes element 0 alone, whatever vl is
  std::uint8_t flops_per_elem = 0;  ///< DP-FLOP accounting (FMA = 2)
};

/// Property lookup for `op`.
const OpSpec& op_spec(Op op);

/// Convenience predicates.
bool is_mem_op(Op op);
bool is_arith_fp(Op op);

}  // namespace araxl

#endif  // ARAXL_ISA_INSTR_HPP
