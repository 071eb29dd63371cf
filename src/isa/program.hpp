// Program representation executed by the machine model, and the
// ProgramBuilder — the public API kernels (and library users) use to write
// vector programs. A Program is a flat, pre-unrolled sequence of scalar
// bookkeeping operations (consuming CVA6 cycles) and vector instructions
// (broadcast to the clusters over the REQI).
#ifndef ARAXL_ISA_PROGRAM_HPP
#define ARAXL_ISA_PROGRAM_HPP

#include <cstdint>
#include <string>
#include <variant>
#include <vector>

#include "isa/instr.hpp"
#include "isa/vtype.hpp"

namespace araxl {

/// Scalar-core work between vector instructions. The timing model charges
/// CVA6 cycles for it; it carries no functional payload (kernel builders
/// compute all addresses and scalar values at build time).
struct ScalarOp {
  enum class Kind : std::uint8_t {
    kCycles,  ///< `count` cycles of ALU/branch work
    kLoad,    ///< one d-cache load (latency set by machine config)
    kStore,   ///< one d-cache store
  };
  Kind kind = Kind::kCycles;
  std::uint32_t count = 1;
};

using ProgOp = std::variant<ScalarOp, VInstr>;

/// A compiled vector program.
struct Program {
  std::string name;
  std::vector<ProgOp> ops;

  [[nodiscard]] std::size_t vinstr_count() const;
  [[nodiscard]] std::size_t scalar_op_count() const;
};

// ---- loop-body signatures --------------------------------------------------
//
// The event-driven timing engine batches whole strip-mined loop iterations
// once the machine reaches steady state. The *signature* of an operation is
// everything that can influence timing: opcode, register operands, masking,
// stride, the scalar immediate, and — for vsetvli — the granted vl and
// vtype (two vsetvlis with different AVLs but the same grant are timing-
// and architecture-equivalent; that is exactly how strip-mined loops count
// down their remaining AVL). Memory addresses and FP scalar operands are
// deliberately excluded: addresses are handled separately by the batcher's
// arithmetic-progression checks, and fs never reaches the timing model.
//
// Signatures are compared field-wise, never by hash: the batcher's
// correctness must not rest on hash-collision odds (the differential
// fuzzer includes adversarial near-collision programs).
struct OpKey {
  std::uint32_t tag = 0;     ///< 0 scalar op, 1 vector instruction
  std::uint32_t op = 0;      ///< Op, or ScalarOp::Kind
  std::uint32_t regs = 0;    ///< vd | vs1<<8 | vs2<<16 | masked<<24
  std::uint32_t vtype = 0;   ///< sew bits | (lmul.log2+8)<<16 (vsetvli only)
  std::uint64_t value = 0;   ///< granted vl (vsetvli) / count (scalar)
  std::uint64_t xs = 0;      ///< integer scalar operand (slides, shifts)
  std::uint64_t stride = 0;  ///< strided-access byte stride

  friend bool operator==(const OpKey&, const OpKey&) = default;
};

/// Timing signature of `op` on a machine with `vlen_bits` of register.
[[nodiscard]] OpKey op_key(const ProgOp& op, std::uint64_t vlen_bits);

/// A maximal periodic run of ops[start, end) where every op's signature
/// equals the signature one `period` earlier — the static shape of a
/// strip-mined loop. Regions contain at least three full periods: the
/// batcher records one, matches the next and needs one more to batch, so
/// a two-period run could never batch (and would hide shorter loops
/// nested inside it, e.g. two strips of an inner loop).
struct LoopRegion {
  std::size_t start = 0;
  std::size_t end = 0;
  std::size_t period = 0;
};

/// Scans a signature sequence for periodic regions, preferring the
/// smallest period at each position — unless a shorter-period loop that
/// starts inside the first body runs for more iterations, which then wins.
/// Greedy and non-overlapping, in program order. `max_period` bounds the
/// loop-body length considered; the default covers every registry
/// kernel's whole loop body (fconv2d's output row is 115 ops, softmax's
/// row up to 215), so a body is found as one region instead of as
/// short-period fragments of itself.
[[nodiscard]] std::vector<LoopRegion> find_loop_regions(
    const std::vector<OpKey>& keys, std::size_t max_period = 256);

/// Two-level loop structure detected inside a LoopRegion: the region's
/// period is the *inner* loop body, and every `outer_period` inner
/// iterations the bounded-memory address deltas take one irregular "jump"
/// (a row boundary of a 2D stencil / tiled kernel). `phase` locates the
/// jump within the outer period: the delta entering inner iteration q
/// (from iteration q-1) is a jump iff (q - 1) % outer_period == phase.
/// Invalid when the region's address walk is a plain single-level
/// progression (no jumps) or the jumps are not themselves periodic.
struct LoopNest {
  bool valid = false;
  std::size_t outer_period = 0;  ///< inner iterations per outer iteration
  std::size_t phase = 0;         ///< jump offset within the outer period
};

/// Detects a two-level nest from the bounded-memory address walk of
/// `region` over `prog`. Each bounded mem op position class (op index mod
/// period) contributes its per-period address deltas; the nest is valid
/// only if every class with non-constant deltas jumps at the same
/// (outer_period, phase) with ≥2 jumps and constant values between/at
/// jumps. Classes with constant deltas are unconstrained (1D streams
/// riding inside the nest).
[[nodiscard]] LoopNest find_loop_nest(const Program& prog,
                                      const LoopRegion& region);

/// Fluent, validating builder for Programs.
///
/// The builder tracks the current vtype/vl the way the hardware would, so
/// kernels can strip-mine with the granted vl, and checks the RVV
/// register-group alignment rules at build time (catching kernel bugs long
/// before simulation).
class ProgramBuilder {
 public:
  ProgramBuilder(std::uint64_t vlen_bits, std::string name);

  // ---- scalar side -------------------------------------------------------
  void scalar_cycles(std::uint32_t n);
  void scalar_load();
  void scalar_store();

  // ---- configuration -----------------------------------------------------
  /// Emits vsetvli and returns the granted vl = min(avl, VLMAX).
  std::uint64_t vsetvli(std::uint64_t avl, Sew sew, Lmul lmul);

  [[nodiscard]] std::uint64_t vl() const { return vl_; }
  [[nodiscard]] Vtype vtype() const { return vtype_; }
  [[nodiscard]] std::uint64_t vlen_bits() const { return vlen_bits_; }
  [[nodiscard]] std::uint64_t vlmax(Sew sew, Lmul lmul) const;

  // ---- memory ------------------------------------------------------------
  void vle(unsigned vd, std::uint64_t addr, bool masked = false);
  void vse(unsigned vs3, std::uint64_t addr, bool masked = false);
  void vlse(unsigned vd, std::uint64_t addr, std::int64_t stride_bytes);
  void vsse(unsigned vs3, std::uint64_t addr, std::int64_t stride_bytes);
  void vluxei(unsigned vd, std::uint64_t base, unsigned index_vreg);
  void vsuxei(unsigned vs3, std::uint64_t base, unsigned index_vreg);

  // ---- floating point ----------------------------------------------------
  void vfadd_vv(unsigned vd, unsigned vs2, unsigned vs1, bool masked = false);
  void vfadd_vf(unsigned vd, unsigned vs2, double fs, bool masked = false);
  void vfsub_vv(unsigned vd, unsigned vs2, unsigned vs1, bool masked = false);
  void vfsub_vf(unsigned vd, unsigned vs2, double fs, bool masked = false);
  void vfrsub_vf(unsigned vd, unsigned vs2, double fs, bool masked = false);
  void vfmul_vv(unsigned vd, unsigned vs2, unsigned vs1, bool masked = false);
  void vfmul_vf(unsigned vd, unsigned vs2, double fs, bool masked = false);
  void vfdiv_vv(unsigned vd, unsigned vs2, unsigned vs1, bool masked = false);
  void vfdiv_vf(unsigned vd, unsigned vs2, double fs, bool masked = false);
  void vfrdiv_vf(unsigned vd, unsigned vs2, double fs, bool masked = false);
  void vfmacc_vv(unsigned vd, unsigned vs1, unsigned vs2, bool masked = false);
  void vfmacc_vf(unsigned vd, double fs, unsigned vs2, bool masked = false);
  void vfnmsac_vv(unsigned vd, unsigned vs1, unsigned vs2, bool masked = false);
  void vfnmsac_vf(unsigned vd, double fs, unsigned vs2, bool masked = false);
  void vfmadd_vf(unsigned vd, double fs, unsigned vs2, bool masked = false);
  void vfmadd_vv(unsigned vd, unsigned vs1, unsigned vs2, bool masked = false);
  void vfmsac_vf(unsigned vd, double fs, unsigned vs2, bool masked = false);
  void vfmin_vv(unsigned vd, unsigned vs2, unsigned vs1);
  void vfmin_vf(unsigned vd, unsigned vs2, double fs);
  void vfmax_vv(unsigned vd, unsigned vs2, unsigned vs1);
  void vfmax_vf(unsigned vd, unsigned vs2, double fs);
  void vfsgnj_vv(unsigned vd, unsigned vs2, unsigned vs1);
  void vfsgnjn_vv(unsigned vd, unsigned vs2, unsigned vs1);
  void vfabs(unsigned vd, unsigned vs);   // pseudo: vfsgnjx-style via sgnj
  void vfneg(unsigned vd, unsigned vs);   // pseudo: vfsgnjn vd, vs, vs
  void vfcvt_x_f(unsigned vd, unsigned vs2);
  void vfcvt_f_x(unsigned vd, unsigned vs2);

  // ---- integer / moves ---------------------------------------------------
  void vadd_vv(unsigned vd, unsigned vs2, unsigned vs1);
  void vadd_vx(unsigned vd, unsigned vs2, std::int64_t xs);
  void vsub_vv(unsigned vd, unsigned vs2, unsigned vs1);
  void vsll_vx(unsigned vd, unsigned vs2, std::int64_t shamt);
  void vsrl_vx(unsigned vd, unsigned vs2, std::int64_t shamt);
  void vand_vx(unsigned vd, unsigned vs2, std::int64_t xs);
  void vmv_v_x(unsigned vd, std::int64_t xs);
  void vmv_v_v(unsigned vd, unsigned vs1);
  void vfmv_v_f(unsigned vd, double fs);
  /// Reads element 0 of vs2 into the scalar FP accumulator; CVA6 blocks.
  void vfmv_f_s(unsigned vs2);
  void vfmv_s_f(unsigned vd, double fs);
  void vid_v(unsigned vd);

  /// .vf-style ops whose scalar operand is the accumulator captured by the
  /// last vfmv_f_s (data-dependent scalars, e.g. softmax normalization).
  void vfmul_vf_acc(unsigned vd, unsigned vs2);
  void vfadd_vf_acc(unsigned vd, unsigned vs2);
  void vfsub_vf_acc(unsigned vd, unsigned vs2, bool masked = false);
  void vfrdiv_vf_acc(unsigned vd, unsigned vs2);
  void vfmv_v_f_acc(unsigned vd);

  // ---- reductions --------------------------------------------------------
  void vfredusum(unsigned vd, unsigned vs2, unsigned vs1);
  void vfredmax(unsigned vd, unsigned vs2, unsigned vs1);
  void vfredmin(unsigned vd, unsigned vs2, unsigned vs1);

  // ---- permutation -------------------------------------------------------
  void vfslide1up(unsigned vd, unsigned vs2, double fs);
  void vfslide1down(unsigned vd, unsigned vs2, double fs);
  void vslideup_vx(unsigned vd, unsigned vs2, std::uint64_t amount);
  void vslidedown_vx(unsigned vd, unsigned vs2, std::uint64_t amount);

  // ---- mask --------------------------------------------------------------
  void vmfeq_vv(unsigned vd, unsigned vs2, unsigned vs1);
  void vmflt_vv(unsigned vd, unsigned vs2, unsigned vs1);
  void vmfle_vv(unsigned vd, unsigned vs2, unsigned vs1);
  void vmflt_vf(unsigned vd, unsigned vs2, double fs);
  void vmfle_vf(unsigned vd, unsigned vs2, double fs);
  void vmfgt_vf(unsigned vd, unsigned vs2, double fs);
  void vmfge_vf(unsigned vd, unsigned vs2, double fs);
  void vmand_mm(unsigned vd, unsigned vs2, unsigned vs1);
  void vmor_mm(unsigned vd, unsigned vs2, unsigned vs1);
  void vmxor_mm(unsigned vd, unsigned vs2, unsigned vs1);
  void vmandn_mm(unsigned vd, unsigned vs2, unsigned vs1);
  void vmerge_vvm(unsigned vd, unsigned vs2, unsigned vs1);
  void vfmerge_vfm(unsigned vd, unsigned vs2, double fs);

  // ---- widening FP (SEW=32 sources, 64-bit destination group) -------------
  void vfwadd_vv(unsigned vd, unsigned vs2, unsigned vs1);
  void vfwsub_vv(unsigned vd, unsigned vs2, unsigned vs1);
  void vfwmul_vv(unsigned vd, unsigned vs2, unsigned vs1);
  void vfwmacc_vv(unsigned vd, unsigned vs1, unsigned vs2);
  void vfsqrt_v(unsigned vd, unsigned vs2);

  // ---- gather / compress ---------------------------------------------------
  void vrgather_vv(unsigned vd, unsigned vs2, unsigned vs1);
  void vcompress_vm(unsigned vd, unsigned vs2, unsigned vs1);

  // ---- mask population ------------------------------------------------------
  void vcpop_m(unsigned vs2);    ///< population count -> scalar (CVA6 blocks)
  void vfirst_m(unsigned vs2);   ///< first set index (-1 if none) -> scalar
  void viota_m(unsigned vd, unsigned vs2);
  void vmsbf_m(unsigned vd, unsigned vs2);
  void vmsif_m(unsigned vd, unsigned vs2);
  void vmsof_m(unsigned vd, unsigned vs2);

  // ---- additional integer ---------------------------------------------------
  void vmul_vv(unsigned vd, unsigned vs2, unsigned vs1);
  void vmul_vx(unsigned vd, unsigned vs2, std::int64_t xs);
  void vmacc_vv(unsigned vd, unsigned vs1, unsigned vs2);
  void vrsub_vx(unsigned vd, unsigned vs2, std::int64_t xs);
  void vmax_vv(unsigned vd, unsigned vs2, unsigned vs1);
  void vmin_vv(unsigned vd, unsigned vs2, unsigned vs1);

  /// Finalizes and returns the program (builder becomes empty).
  [[nodiscard]] Program take();

 private:
  void push(VInstr in);
  void check_vreg(unsigned v, bool grouped = true) const;
  VInstr make(Op op, unsigned vd, unsigned vs1, unsigned vs2, bool masked) const;
  VInstr make_widening(Op op, unsigned vd, unsigned vs1, unsigned vs2);

  Program prog_;
  std::uint64_t vlen_bits_;
  Vtype vtype_{};
  std::uint64_t vl_ = 0;
  bool vtype_set_ = false;
};

}  // namespace araxl

#endif  // ARAXL_ISA_PROGRAM_HPP
