// Generated op matrix, in the style of Halide's simd_op_check: every row of
// the functional engine's op table, at SEW 8/16/32/64 x LMUL 1/2/4/8 x
// masked/unmasked x vl in {1, VLMAX-1, VLMAX} x three register placements,
// runs from the same random-bit VRF once through the stream executor
// (FunctionalEngine::exec) and once through the per-element reference loop
// (exec_reference). All 32 registers and both scalar accumulators must
// agree bit for bit. A SEW the row does not support must be rejected by
// both paths alike. Each case runs on an AraXL machine (lane-local mask
// layout) and an Ara2 machine (standard mask layout).
#include <gtest/gtest.h>

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

INSTANTIATE_TEST_SUITE_P(AllRows, OpMatrix, testing::ValuesIn(table_ops()),
                         [](const testing::TestParamInfo<Op>& info) {
                           std::string name(op_spec(info.param).mnemonic);
                           for (char& c : name) {
                             if (c == '.') c = '_';
                           }
                           return name;
                         });

TEST(OpTable, HoldsEveryOpWithoutAnotherPath) {
  // The table must hold exactly the ops the engine has no other path for.
  for (std::size_t i = 0; i < kNumOps; ++i) {
    const auto op = static_cast<Op>(i);
    const OpSpec& s = op_spec(op);
    const bool other_path = op == Op::kVsetvli || op == Op::kVfmvFS ||
                            s.reads_mem || s.writes_mem || s.widens ||
                            s.is_gather || s.reads_mask_src;
    EXPECT_NE(FunctionalEngine::in_op_table(op), other_path) << s.mnemonic;
  }
}

}  // namespace
}  // namespace araxl
