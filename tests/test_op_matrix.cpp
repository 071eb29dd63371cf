// Generated op matrix, in the style of Halide's simd_op_check: every row of
// the functional engine's op table, at SEW 8/16/32/64 x LMUL 1/2/4/8 x
// masked/unmasked x vl in {1, VLMAX-1, VLMAX} x three register placements,
// runs from the same random-bit VRF once through the stream executor
// (FunctionalEngine::exec) and once through the per-element reference loop
// (exec_reference). All 32 registers and both scalar accumulators must
// agree bit for bit. A SEW the row does not support must be rejected by
// both paths alike. Each case runs on an AraXL machine (lane-local mask
// layout) and an Ara2 machine (standard mask layout).
//
// The memory ops get the same treatment: each of the six, at every SEW x
// LMUL x mask x vl, with strides {ew, 3*ew, -ew, 0} for vlse/vsse and
// random in-range indices with duplicates for vluxei/vsuxei, runs through
// the memory executor and its per-element reference, which must agree on
// all 32 registers and on every byte of the memory window the op can
// touch. An out-of-bounds element must make the executor throw with the
// VRF and memory unchanged.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "common/contracts.hpp"
#include "common/rng.hpp"
#include "machine/functional.hpp"
#include "machine/machine.hpp"

namespace araxl {
namespace {

// VLEN 1024 keeps a register at 128 bytes, so LMUL 8 at SEW 8 is 1,024
// elements and a case costs microseconds.
MachineConfig small(MachineConfig cfg) {
  cfg.vlen_bits = 1024;
  cfg.validate();
  return cfg;
}

/// One machine's VRF and memory, driven by its own functional engine.
struct Side {
  explicit Side(const MachineConfig& cfg) : m(cfg), fe(m.config(), m.vrf(), m.mem()) {}
  Machine m;
  FunctionalEngine fe;
};

struct Placement {
  const char* name;
  unsigned vd, vs2, vs1;
};
// Register groups start at v8 so LMUL 8 stays aligned and v0 stays a mask.
constexpr Placement kPlacements[] = {
    {"disjoint", 8, 16, 24}, {"vd==vs2", 8, 8, 16}, {"vd==vs1", 8, 16, 8}};

/// Random element bits at `ew` bytes. One element in four gets an all-ones
/// or all-zeros FP exponent, so NaNs, infinities and subnormals turn up at
/// every width, not only at SEW 16.
std::uint64_t random_elem(Rng& rng, unsigned ew) {
  std::uint64_t bits = rng.next_u64();
  std::uint64_t exp_mask = 0;
  switch (ew) {
    case 2: exp_mask = 0x7C00; break;
    case 4: exp_mask = 0x7F800000; break;
    case 8: exp_mask = 0x7FF0000000000000; break;
    default: break;
  }
  switch (rng.next_below(8)) {
    case 0: bits |= exp_mask; break;
    case 1: bits &= ~exp_mask; break;
    default: break;
  }
  return ew == 8 ? bits : bits & ((std::uint64_t{1} << (8 * ew)) - 1);
}

void fill_vrf(Vrf& vrf, unsigned ew, std::uint64_t seed) {
  Rng rng(seed);
  const std::uint64_t epr = vrf.mapping().elems_per_reg(ew);
  std::vector<std::uint8_t> bytes(epr * ew);
  for (unsigned reg = 0; reg < kNumVregs; ++reg) {
    for (std::uint64_t i = 0; i < epr; ++i) {
      const std::uint64_t v = random_elem(rng, ew);
      std::memcpy(bytes.data() + i * ew, &v, ew);
    }
    vrf.write_stream(reg, epr, ew, bytes.data());
  }
}

/// First difference between the two VRFs, or "" when they are equal.
std::string vrf_diff(const Vrf& a, const Vrf& b) {
  const std::uint64_t epr = a.mapping().elems_per_reg(8);
  std::vector<std::uint8_t> x(epr * 8);
  std::vector<std::uint8_t> y(epr * 8);
  for (unsigned reg = 0; reg < kNumVregs; ++reg) {
    a.read_stream(reg, epr, 8, x.data());
    b.read_stream(reg, epr, 8, y.data());
    for (std::uint64_t i = 0; i < epr * 8; ++i) {
      if (x[i] != y[i]) {
        std::uint64_t u = 0;
        std::uint64_t v = 0;
        std::memcpy(&u, x.data() + i / 8 * 8, 8);
        std::memcpy(&v, y.data() + i / 8 * 8, 8);
        char msg[96];
        std::snprintf(msg, sizeof msg, "v%u byte %llu: %016llx vs %016llx", reg,
                      static_cast<unsigned long long>(i),
                      static_cast<unsigned long long>(u),
                      static_cast<unsigned long long>(v));
        return msg;
      }
    }
  }
  return "";
}

struct Outcome {
  bool rejected = false;
  std::string error;
};

Outcome run(Side& side, const VInstr& setup, const VInstr& in, bool reference) {
  Outcome out;
  side.fe.exec(setup);
  try {
    reference ? side.fe.exec_reference(in) : side.fe.exec(in);
  } catch (const ContractViolation& e) {
    out.rejected = true;
    out.error = e.what();
  }
  return out;
}

std::vector<Op> table_ops() {
  std::vector<Op> ops;
  for (std::size_t i = 0; i < kNumOps; ++i) {
    const auto op = static_cast<Op>(i);
    if (FunctionalEngine::in_op_table(op)) ops.push_back(op);
  }
  return ops;
}

std::string op_name(const testing::TestParamInfo<Op>& info) {
  std::string name(op_spec(info.param).mnemonic);
  for (char& c : name) {
    if (c == '.') c = '_';
  }
  return name;
}

class OpMatrix : public testing::TestWithParam<Op> {};

TEST_P(OpMatrix, StreamMatchesReferenceBitForBit) {
  const Op op = GetParam();
  const OpSpec& spec = op_spec(op);
  const MachineConfig configs[] = {small(MachineConfig::araxl(8)),
                                   small(MachineConfig::ara2(4))};
  std::uint64_t seed = static_cast<std::uint64_t>(op) << 32;
  int ran = 0;
  for (const MachineConfig& cfg : configs) {
    const auto stream = std::make_unique<Side>(cfg);
    const auto ref = std::make_unique<Side>(cfg);
    for (const Sew sew : {Sew::k8, Sew::k16, Sew::k32, Sew::k64}) {
      for (const int lmul_log2 : {0, 1, 2, 3}) {
        const Vtype vt{sew, Lmul{static_cast<std::int8_t>(lmul_log2)}};
        const std::uint64_t vmax = vlmax(cfg.effective_vlen(), vt);
        for (const bool masked : {false, true}) {
          for (const std::uint64_t vl : {std::uint64_t{1}, vmax - 1, vmax}) {
            for (const Placement& p : kPlacements) {
              Rng rng(++seed);
              VInstr in;
              in.op = op;
              in.vd = static_cast<std::uint8_t>(p.vd);
              in.vs2 = static_cast<std::uint8_t>(p.vs2);
              in.vs1 = static_cast<std::uint8_t>(p.vs1);
              in.masked = masked;
              in.fs = std::bit_cast<double>(random_elem(rng, 8));
              in.fs_from_acc = spec.reads_scalar_acc_ok && rng.next_below(2) == 0;
              in.xs = static_cast<std::int64_t>(rng.next_u64());
              if (spec.is_slide) {
                // Amounts inside, at and past VLMAX, and one that would wrap.
                const std::uint64_t amounts[] = {0, 1, 3, vmax - 1, vmax, vmax + 5,
                                                 ~std::uint64_t{0} - 2};
                in.xs = static_cast<std::int64_t>(amounts[rng.next_below(7)]);
              }
              // The scalar accumulator gets random bits through vfmv.f.s.
              VInstr acc_setup;
              acc_setup.op = Op::kVsetvli;
              acc_setup.avl = 1;
              acc_setup.vtype = Vtype{Sew::k64, Lmul{0}};
              VInstr acc_load;
              acc_load.op = Op::kVfmvFS;
              acc_load.vs2 = 31;
              VInstr setup;
              setup.op = Op::kVsetvli;
              setup.avl = vl;
              setup.vtype = vt;

              // Alternate the width the VRF is written at, so the packed
              // mirror starts both at the op's width and at another one.
              const unsigned fill_ew = seed % 2 == 0 ? sew_bytes(sew) : 8;
              for (Side* s : {stream.get(), ref.get()}) {
                fill_vrf(s->m.vrf(), fill_ew, seed);
                s->fe.exec(acc_setup);
                s->fe.exec(acc_load);
              }
              const Outcome got = run(*stream, setup, in, false);
              const Outcome want = run(*ref, setup, in, true);
              const std::string where =
                  cfg.name() + " " + std::string(sew_name(sew)) + " m" +
                  std::to_string(1 << lmul_log2) + (masked ? " masked" : "") +
                  " vl=" + std::to_string(vl) + " " + p.name +
                  " xs=" + std::to_string(static_cast<std::uint64_t>(in.xs));
              ASSERT_EQ(got.rejected, want.rejected)
                  << where << ": " << got.error << want.error;
              if (!want.rejected) ++ran;
              const std::string diff = vrf_diff(stream->m.vrf(), ref->m.vrf());
              ASSERT_EQ(diff, "") << where;
              ASSERT_EQ(std::bit_cast<std::uint64_t>(stream->fe.scalar_acc()),
                        std::bit_cast<std::uint64_t>(ref->fe.scalar_acc()))
                  << where;
              ASSERT_EQ(stream->fe.scalar_iacc(), ref->fe.scalar_iacc()) << where;
            }
          }
        }
      }
    }
  }
  // Rows that need FP elements run at three SEWs; the rest at all four.
  EXPECT_GE(ran, 2 * 3 * 4 * 2 * 3 * 3);
}

INSTANTIATE_TEST_SUITE_P(AllRows, OpMatrix, testing::ValuesIn(table_ops()), op_name);

TEST(SlideMatrix, PartialOverlapMatchesReference) {
  // The placements above give a slide vs2 either equal to vd (shifted in
  // place) or disjoint from it (read in place). A vs2 group that shares
  // only some registers with vd takes the staged path; cover it both ways.
  const MachineConfig cfg = small(MachineConfig::araxl(8));
  const auto stream = std::make_unique<Side>(cfg);
  const auto ref = std::make_unique<Side>(cfg);
  std::uint64_t seed = 1;
  int ran = 0;
  for (const Op op : table_ops()) {
    if (!op_spec(op).is_slide) continue;
    for (const Sew sew : {Sew::k8, Sew::k64}) {
      const Vtype vt{sew, Lmul{2}};
      const std::uint64_t vmax = vlmax(cfg.effective_vlen(), vt);
      for (const bool masked : {false, true}) {
        for (const auto& [vd, vs2] : {std::pair{8u, 10u}, std::pair{10u, 8u}}) {
          for (const std::uint64_t amount : {std::uint64_t{1}, std::uint64_t{3}, vmax - 1}) {
            VInstr setup;
            setup.op = Op::kVsetvli;
            setup.avl = vmax - 1;
            setup.vtype = vt;
            VInstr in;
            in.op = op;
            in.vd = static_cast<std::uint8_t>(vd);
            in.vs2 = static_cast<std::uint8_t>(vs2);
            in.masked = masked;
            in.fs = 1.5;
            in.xs = static_cast<std::int64_t>(amount);
            ++seed;
            for (Side* s : {stream.get(), ref.get()}) fill_vrf(s->m.vrf(), 8, seed);
            const Outcome got = run(*stream, setup, in, false);
            const Outcome want = run(*ref, setup, in, true);
            const std::string where = std::string(op_spec(op).mnemonic) + " " +
                                      std::string(sew_name(sew)) +
                                      (masked ? " masked" : "") + " v" +
                                      std::to_string(vd) + "<-v" + std::to_string(vs2) +
                                      " xs=" + std::to_string(amount);
            ASSERT_EQ(got.rejected, want.rejected) << where;
            if (!want.rejected) ++ran;
            ASSERT_EQ(vrf_diff(stream->m.vrf(), ref->m.vrf()), "") << where;
          }
        }
      }
    }
  }
  EXPECT_GT(ran, 0);
}

// ---- memory ops ---------------------------------------------------------------

constexpr std::uint64_t kMemBase = 0x10000;
/// Every address a matrix case can touch lies in [kMemBase - kMemReach,
/// kMemBase + kMemReach): 3 * VLMAX * ew is at most 3 KiB at VLEN 1024.
constexpr std::uint64_t kMemReach = 4096;

std::vector<Op> memory_ops() {
  std::vector<Op> ops;
  for (std::size_t i = 0; i < kNumOps; ++i) {
    const auto op = static_cast<Op>(i);
    if (op_spec(op).mem != MemMode::kNone) ops.push_back(op);
  }
  return ops;
}

std::vector<std::uint8_t> mem_window(const Side& side) {
  std::vector<std::uint8_t> bytes(2 * kMemReach);
  side.m.mem().read(kMemBase - kMemReach, bytes);
  return bytes;
}

/// Writes element offsets into vs2 at `ew` bytes: random byte offsets in
/// [0, min(kMemReach - ew, largest index at ew)], drawn from a pool of about
/// n/3 values so that duplicates occur (a scatter's later element wins).
void write_indices(Vrf& vrf, unsigned vs2, std::uint64_t n, unsigned ew, Rng& rng) {
  const std::uint64_t largest =
      ew == 8 ? ~std::uint64_t{0} : (std::uint64_t{1} << (8 * ew)) - 1;
  const std::uint64_t bound = std::min(kMemReach - ew, largest) + 1;
  std::vector<std::uint64_t> pool(n / 3 + 1);
  for (std::uint64_t& v : pool) v = rng.next_below(bound);
  std::vector<std::uint8_t> bytes(n * ew);
  for (std::uint64_t i = 0; i < n; ++i) {
    const std::uint64_t v = pool[rng.next_below(pool.size())];
    std::memcpy(bytes.data() + i * ew, &v, ew);
  }
  vrf.write_stream(vs2, n, ew, bytes.data());
}

class MemMatrix : public testing::TestWithParam<Op> {};

TEST_P(MemMatrix, ExecutorMatchesReference) {
  const Op op = GetParam();
  const OpSpec& spec = op_spec(op);
  const MachineConfig configs[] = {small(MachineConfig::araxl(8)),
                                   small(MachineConfig::ara2(4))};
  std::uint64_t seed = static_cast<std::uint64_t>(op) << 32;
  int ran = 0;
  for (const MachineConfig& cfg : configs) {
    const auto exec = std::make_unique<Side>(cfg);
    const auto ref = std::make_unique<Side>(cfg);
    for (const Sew sew : {Sew::k8, Sew::k16, Sew::k32, Sew::k64}) {
      const unsigned ew = sew_bytes(sew);
      const auto iew = static_cast<std::int64_t>(ew);
      std::vector<std::int64_t> strides{0};
      if (spec.mem == MemMode::kStrided) strides = {iew, 3 * iew, -iew, 0};
      // Indexed ops also run with vd == vs2: the offsets are read first.
      std::vector<unsigned> vs2s{16};
      if (spec.mem == MemMode::kIndexed) vs2s = {16, 8};
      for (const int lmul_log2 : {0, 1, 2, 3}) {
        const Vtype vt{sew, Lmul{static_cast<std::int8_t>(lmul_log2)}};
        const std::uint64_t vmax = vlmax(cfg.effective_vlen(), vt);
        for (const bool masked : {false, true}) {
          for (const std::uint64_t vl : {std::uint64_t{1}, vmax - 1, vmax}) {
            for (const std::int64_t stride : strides) {
              for (const unsigned vs2 : vs2s) {
                Rng rng(++seed);
                VInstr in;
                in.op = op;
                in.vd = 8;
                in.vs2 = static_cast<std::uint8_t>(vs2);
                in.masked = masked;
                in.addr = kMemBase;
                in.stride = stride;
                VInstr setup;
                setup.op = Op::kVsetvli;
                setup.avl = vl;
                setup.vtype = vt;
                std::vector<std::uint8_t> bytes(2 * kMemReach);
                for (std::uint8_t& b : bytes) {
                  b = static_cast<std::uint8_t>(rng.next_u64());
                }
                const std::uint64_t index_seed = rng.next_u64();
                for (Side* s : {exec.get(), ref.get()}) {
                  fill_vrf(s->m.vrf(), seed % 2 == 0 ? ew : 8, seed);
                  s->m.mem().write(kMemBase - kMemReach, bytes);
                  if (spec.mem == MemMode::kIndexed) {
                    Rng idx(index_seed);
                    write_indices(s->m.vrf(), vs2, vl, ew, idx);
                  }
                }
                const Outcome got = run(*exec, setup, in, false);
                const Outcome want = run(*ref, setup, in, true);
                const std::string where =
                    cfg.name() + " " + std::string(sew_name(sew)) + " m" +
                    std::to_string(1 << lmul_log2) + (masked ? " masked" : "") +
                    " vl=" + std::to_string(vl) + " stride=" + std::to_string(stride) +
                    " vs2=v" + std::to_string(vs2);
                ASSERT_FALSE(got.rejected) << where << ": " << got.error;
                ASSERT_FALSE(want.rejected) << where << ": " << want.error;
                ++ran;
                ASSERT_EQ(vrf_diff(exec->m.vrf(), ref->m.vrf()), "") << where;
                ASSERT_TRUE(mem_window(*exec) == mem_window(*ref)) << where;
              }
            }
          }
        }
      }
    }
  }
  EXPECT_GE(ran, 2 * 4 * 4 * 2 * 3);
}

TEST_P(MemMatrix, OutOfBoundsLeavesStateUnchanged) {
  // Elements 0..k-1 are in bounds and element k is not. The reference
  // faults after moving elements 0..k-1; the executor must fault first,
  // unmasked and with an all-ones v0 alike.
  const Op op = GetParam();
  const OpSpec& spec = op_spec(op);
  for (const auto& [cfg, masked] :
       {std::pair{small(MachineConfig::araxl(8)), false},
        std::pair{small(MachineConfig::araxl(8)), true},
        std::pair{small(MachineConfig::ara2(4)), false},
        std::pair{small(MachineConfig::ara2(4)), true}}) {
    const auto exec = std::make_unique<Side>(cfg);
    const auto ref = std::make_unique<Side>(cfg);
    const auto pristine = std::make_unique<Side>(cfg);
    const std::uint64_t size = exec->m.mem().size();
    constexpr std::uint64_t kVl = 16;
    constexpr std::uint64_t kFault = 5;
    VInstr in;
    in.op = op;
    in.vd = 8;
    in.vs2 = 16;
    in.masked = masked;
    std::vector<std::uint64_t> offsets(kVl);
    switch (spec.mem) {
      case MemMode::kUnit:
        in.addr = size - kFault * 8;
        for (std::uint64_t i = 0; i < kVl; ++i) offsets[i] = i * 8;
        break;
      case MemMode::kStrided:
        in.stride = 4096;
        in.addr = size - 8 - (kFault - 1) * 4096;
        for (std::uint64_t i = 0; i < kVl; ++i) offsets[i] = i * 4096;
        break;
      default:
        in.addr = kMemBase;
        for (std::uint64_t i = 0; i < kVl; ++i) offsets[i] = i * 8;
        offsets[kFault] = size - kMemBase - 4;  // straddles the end
        break;
    }
    VInstr setup;
    setup.op = Op::kVsetvli;
    setup.avl = kVl;
    setup.vtype = Vtype{Sew::k64, Lmul{0}};
    Rng rng(static_cast<std::uint64_t>(op));
    std::vector<std::uint8_t> bytes(8);
    for (std::uint64_t i = 0; i < kFault; ++i) {
      for (std::uint8_t& b : bytes) b = static_cast<std::uint8_t>(rng.next_u64());
      for (Side* s : {exec.get(), ref.get(), pristine.get()}) {
        s->m.mem().write(in.addr + offsets[i], bytes);
      }
    }
    for (Side* s : {exec.get(), ref.get(), pristine.get()}) {
      fill_vrf(s->m.vrf(), 8, static_cast<std::uint64_t>(op));
      s->m.vrf().write_stream(16, kVl, 8,
                              reinterpret_cast<const std::uint8_t*>(offsets.data()));
      for (std::uint64_t i = 0; i < kVl; ++i) s->m.vrf().set_mask_bit(0, i, true);
    }
    const std::string where = cfg.name() + (masked ? " masked" : "");
    const Outcome got = run(*exec, setup, in, false);
    const Outcome want = run(*ref, setup, in, true);
    ASSERT_TRUE(got.rejected) << where;
    ASSERT_TRUE(want.rejected) << where;
    EXPECT_EQ(vrf_diff(exec->m.vrf(), pristine->m.vrf()), "") << where;
    std::vector<std::uint8_t> a(8);
    std::vector<std::uint8_t> b(8);
    for (std::uint64_t i = 0; i < kFault; ++i) {
      exec->m.mem().read(in.addr + offsets[i], a);
      pristine->m.mem().read(in.addr + offsets[i], b);
      EXPECT_EQ(a, b) << where << " element " << i;
    }
    // The fault is real: the reference moved the elements before it.
    if (spec.reads_mem) {
      EXPECT_NE(vrf_diff(ref->m.vrf(), pristine->m.vrf()), "") << where;
    } else {
      ref->m.mem().read(in.addr + offsets[0], a);
      pristine->m.mem().read(in.addr + offsets[0], b);
      EXPECT_NE(a, b) << where;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllMemoryOps, MemMatrix, testing::ValuesIn(memory_ops()),
                         op_name);

TEST(OpTable, HoldsEveryOpWithoutAnotherPath) {
  // The table must hold exactly the ops the engine has no other path for.
  // Memory ops have their own executor and per-element reference (the
  // MemMatrix cases); the other ops outside the table run one path under
  // exec and exec_reference alike.
  for (std::size_t i = 0; i < kNumOps; ++i) {
    const auto op = static_cast<Op>(i);
    const OpSpec& s = op_spec(op);
    const bool memory = s.mem != MemMode::kNone;
    const bool other_path = op == Op::kVsetvli || op == Op::kVfmvFS || memory ||
                            s.widens || s.is_gather || s.reads_mask_src;
    EXPECT_NE(FunctionalEngine::in_op_table(op), other_path) << s.mnemonic;
  }
}

}  // namespace
}  // namespace araxl
