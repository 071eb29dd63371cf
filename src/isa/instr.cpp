#include "isa/instr.hpp"

#include <array>

#include "common/contracts.hpp"

namespace araxl {
namespace {

// Shorthand for building the opcode property table. Flags are listed
// explicitly per opcode because almost every combination occurs at least
// once and a compact DSL would obscure the semantics.
struct SpecBuilder {
  OpSpec s;
  explicit SpecBuilder(std::string_view mnemonic, Unit unit) {
    s.mnemonic = mnemonic;
    s.unit = unit;
  }
  SpecBuilder& r1() { s.reads_vs1 = true; return *this; }
  SpecBuilder& r2() { s.reads_vs2 = true; return *this; }
  SpecBuilder& rd() { s.reads_vd = true; return *this; }
  SpecBuilder& wd() { s.writes_vd = true; return *this; }
  SpecBuilder& rmem() { s.reads_mem = true; return *this; }
  SpecBuilder& wmem() { s.writes_mem = true; return *this; }
  SpecBuilder& wmask() { s.writes_mask = true; return *this; }
  SpecBuilder& acc() { s.reads_scalar_acc_ok = true; return *this; }
  SpecBuilder& ret() { s.returns_scalar = true; return *this; }
  SpecBuilder& red() { s.is_reduction = true; return *this; }
  SpecBuilder& sld() { s.is_slide = true; return *this; }
  SpecBuilder& wide() { s.widens = true; return *this; }
  SpecBuilder& gat() { s.is_gather = true; return *this; }
  SpecBuilder& msrc() { s.reads_mask_src = true; return *this; }
  SpecBuilder& e0() { s.elem0_only = true; return *this; }
  SpecBuilder& fl(std::uint8_t n) { s.flops_per_elem = n; return *this; }
  operator OpSpec() const { return s; }  // NOLINT(google-explicit-constructor)
};

using B = SpecBuilder;

const std::array<OpSpec, kNumOps> kSpecs = {
    // config
    OpSpec(B("vsetvli", Unit::kNone).ret()),
    // memory
    OpSpec(B("vle64.v", Unit::kLoad).wd().rmem()),
    OpSpec(B("vse64.v", Unit::kStore).rd().wmem()),
    OpSpec(B("vlse64.v", Unit::kLoad).wd().rmem()),
    OpSpec(B("vsse64.v", Unit::kStore).rd().wmem()),
    OpSpec(B("vluxei64.v", Unit::kLoad).r2().wd().rmem()),
    OpSpec(B("vsuxei64.v", Unit::kStore).r2().rd().wmem()),
    // fp arithmetic
    OpSpec(B("vfadd.vv", Unit::kFpu).r1().r2().wd().fl(1)),
    OpSpec(B("vfadd.vf", Unit::kFpu).r2().wd().acc().fl(1)),
    OpSpec(B("vfsub.vv", Unit::kFpu).r1().r2().wd().fl(1)),
    OpSpec(B("vfsub.vf", Unit::kFpu).r2().wd().acc().fl(1)),
    OpSpec(B("vfrsub.vf", Unit::kFpu).r2().wd().acc().fl(1)),
    OpSpec(B("vfmul.vv", Unit::kFpu).r1().r2().wd().fl(1)),
    OpSpec(B("vfmul.vf", Unit::kFpu).r2().wd().acc().fl(1)),
    OpSpec(B("vfdiv.vv", Unit::kFpu).r1().r2().wd().fl(1)),
    OpSpec(B("vfdiv.vf", Unit::kFpu).r2().wd().acc().fl(1)),
    OpSpec(B("vfrdiv.vf", Unit::kFpu).r2().wd().acc().fl(1)),
    OpSpec(B("vfmacc.vv", Unit::kFpu).r1().r2().rd().wd().fl(2)),
    OpSpec(B("vfmacc.vf", Unit::kFpu).r2().rd().wd().acc().fl(2)),
    OpSpec(B("vfnmsac.vv", Unit::kFpu).r1().r2().rd().wd().fl(2)),
    OpSpec(B("vfnmsac.vf", Unit::kFpu).r2().rd().wd().acc().fl(2)),
    OpSpec(B("vfmadd.vf", Unit::kFpu).r2().rd().wd().acc().fl(2)),
    OpSpec(B("vfmadd.vv", Unit::kFpu).r1().r2().rd().wd().fl(2)),
    OpSpec(B("vfmsac.vf", Unit::kFpu).r2().rd().wd().acc().fl(2)),
    OpSpec(B("vfmin.vv", Unit::kFpu).r1().r2().wd().fl(1)),
    OpSpec(B("vfmin.vf", Unit::kFpu).r2().wd().acc().fl(1)),
    OpSpec(B("vfmax.vv", Unit::kFpu).r1().r2().wd().fl(1)),
    OpSpec(B("vfmax.vf", Unit::kFpu).r2().wd().acc().fl(1)),
    OpSpec(B("vfsgnj.vv", Unit::kFpu).r1().r2().wd().fl(1)),
    OpSpec(B("vfsgnjn.vv", Unit::kFpu).r1().r2().wd().fl(1)),
    OpSpec(B("vfcvt.x.f.v", Unit::kFpu).r2().wd().fl(1)),
    OpSpec(B("vfcvt.f.x.v", Unit::kFpu).r2().wd().fl(1)),
    // integer / moves
    OpSpec(B("vadd.vv", Unit::kAlu).r1().r2().wd()),
    OpSpec(B("vadd.vx", Unit::kAlu).r2().wd()),
    OpSpec(B("vsub.vv", Unit::kAlu).r1().r2().wd()),
    OpSpec(B("vsll.vx", Unit::kAlu).r2().wd()),
    OpSpec(B("vsrl.vx", Unit::kAlu).r2().wd()),
    OpSpec(B("vand.vx", Unit::kAlu).r2().wd()),
    OpSpec(B("vmv.v.x", Unit::kAlu).wd()),
    OpSpec(B("vmv.v.v", Unit::kAlu).r1().wd()),
    OpSpec(B("vfmv.v.f", Unit::kAlu).wd().acc()),
    OpSpec(B("vfmv.f.s", Unit::kNone).r2().ret()),
    OpSpec(B("vfmv.s.f", Unit::kAlu).wd().acc().e0()),
    OpSpec(B("vid.v", Unit::kAlu).wd()),
    // reductions
    OpSpec(B("vfredusum.vs", Unit::kFpu).r1().r2().wd().red().fl(1)),
    OpSpec(B("vfredmax.vs", Unit::kFpu).r1().r2().wd().red().fl(1)),
    OpSpec(B("vfredmin.vs", Unit::kFpu).r1().r2().wd().red().fl(1)),
    // permutation
    OpSpec(B("vfslide1up.vf", Unit::kSldu).r2().wd().acc().sld()),
    OpSpec(B("vfslide1down.vf", Unit::kSldu).r2().wd().acc().sld()),
    OpSpec(B("vslideup.vx", Unit::kSldu).r2().rd().wd().sld()),
    OpSpec(B("vslidedown.vx", Unit::kSldu).r2().wd().sld()),
    // mask
    OpSpec(B("vmfeq.vv", Unit::kFpu).r1().r2().wd().wmask()),
    OpSpec(B("vmflt.vv", Unit::kFpu).r1().r2().wd().wmask()),
    OpSpec(B("vmfle.vv", Unit::kFpu).r1().r2().wd().wmask()),
    OpSpec(B("vmflt.vf", Unit::kFpu).r2().wd().wmask().acc()),
    OpSpec(B("vmfle.vf", Unit::kFpu).r2().wd().wmask().acc()),
    OpSpec(B("vmfgt.vf", Unit::kFpu).r2().wd().wmask().acc()),
    OpSpec(B("vmfge.vf", Unit::kFpu).r2().wd().wmask().acc()),
    OpSpec(B("vmand.mm", Unit::kMasku).r1().r2().wd().wmask()),
    OpSpec(B("vmor.mm", Unit::kMasku).r1().r2().wd().wmask()),
    OpSpec(B("vmxor.mm", Unit::kMasku).r1().r2().wd().wmask()),
    OpSpec(B("vmandn.mm", Unit::kMasku).r1().r2().wd().wmask()),
    OpSpec(B("vmerge.vvm", Unit::kAlu).r1().r2().wd()),
    OpSpec(B("vfmerge.vfm", Unit::kAlu).r2().wd().acc()),
    // widening FP
    OpSpec(B("vfwadd.vv", Unit::kFpu).r1().r2().wd().wide().fl(1)),
    OpSpec(B("vfwsub.vv", Unit::kFpu).r1().r2().wd().wide().fl(1)),
    OpSpec(B("vfwmul.vv", Unit::kFpu).r1().r2().wd().wide().fl(1)),
    OpSpec(B("vfwmacc.vv", Unit::kFpu).r1().r2().rd().wd().wide().fl(2)),
    OpSpec(B("vfsqrt.v", Unit::kFpu).r2().wd().fl(1)),
    // gather / compress
    OpSpec(B("vrgather.vv", Unit::kSldu).r1().r2().wd().gat()),
    OpSpec(B("vcompress.vm", Unit::kSldu).r1().r2().wd().gat().msrc()),
    // mask population
    OpSpec(B("vcpop.m", Unit::kNone).r2().ret().msrc()),
    OpSpec(B("vfirst.m", Unit::kNone).r2().ret().msrc()),
    OpSpec(B("viota.m", Unit::kMasku).r2().wd().msrc()),
    OpSpec(B("vmsbf.m", Unit::kMasku).r2().wd().wmask().msrc()),
    OpSpec(B("vmsif.m", Unit::kMasku).r2().wd().wmask().msrc()),
    OpSpec(B("vmsof.m", Unit::kMasku).r2().wd().wmask().msrc()),
    // integer
    OpSpec(B("vmul.vv", Unit::kAlu).r1().r2().wd()),
    OpSpec(B("vmul.vx", Unit::kAlu).r2().wd()),
    OpSpec(B("vmacc.vv", Unit::kAlu).r1().r2().rd().wd()),
    OpSpec(B("vrsub.vx", Unit::kAlu).r2().wd()),
    OpSpec(B("vmax.vv", Unit::kAlu).r1().r2().wd()),
    OpSpec(B("vmin.vv", Unit::kAlu).r1().r2().wd()),
};

}  // namespace

const OpSpec& op_spec(Op op) {
  const auto idx = static_cast<std::size_t>(op);
  check(idx < kSpecs.size(), "unknown opcode");
  return kSpecs[idx];
}

bool is_mem_op(Op op) {
  const OpSpec& s = op_spec(op);
  return s.reads_mem || s.writes_mem;
}

bool is_arith_fp(Op op) { return op_spec(op).flops_per_elem > 0; }

}  // namespace araxl
