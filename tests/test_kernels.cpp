// Integration tests: every Table-I kernel, functionally verified against
// its scalar golden reference on multiple machine configurations and
// weak-scaling points, on both AraXL and the Ara2 baseline.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <string_view>
#include <tuple>

#include "kernels/common.hpp"
#include "machine/machine.hpp"

namespace araxl {
namespace {

struct KernelCase {
  const char* kernel;
  MachineKind kind;
  unsigned lanes;
  std::uint64_t bytes_per_lane;
};

std::string case_name(const testing::TestParamInfo<KernelCase>& info) {
  const KernelCase& c = info.param;
  return std::string(c.kernel) + "_" +
         (c.kind == MachineKind::kAraXL ? "araxl" : "ara2") +
         std::to_string(c.lanes) + "L_" + std::to_string(c.bytes_per_lane) + "B";
}

MachineConfig config_for(const KernelCase& c) {
  return c.kind == MachineKind::kAraXL ? MachineConfig::araxl(c.lanes)
                                       : MachineConfig::ara2(c.lanes);
}

class KernelVerify : public testing::TestWithParam<KernelCase> {};

TEST_P(KernelVerify, MatchesScalarReference) {
  const KernelCase& c = GetParam();
  Machine m(config_for(c));
  auto kernel = make_kernel(c.kernel);
  const Program prog = kernel->build(m, c.bytes_per_lane);
  const RunStats stats = m.run(prog);

  const VerifyResult vr = kernel->verify(m);
  EXPECT_LE(vr.max_rel_err, kernel->tolerance())
      << "kernel result mismatch on " << m.config().name();
  EXPECT_GT(vr.checked, 0u);

  // Timing sanity: the run took at least as long as the FPU-bound floor.
  EXPECT_GT(stats.cycles, 0u);
  EXPECT_GT(stats.flops, 0u);
  EXPECT_LE(stats.fpu_util(), 1.0);
  EXPECT_GE(stats.flops, kernel->useful_flops());
}

/// Address of the first vector load or of the last vector store of `prog`.
std::uint64_t first_op_addr(const Program& prog, Op op) {
  for (const ProgOp& p : prog.ops) {
    const auto* in = std::get_if<VInstr>(&p);
    if (in != nullptr && in->op == op) return in->addr;
  }
  return 0;
}

std::uint64_t last_op_addr(const Program& prog, Op op) {
  std::uint64_t addr = 0;
  for (const ProgOp& p : prog.ops) {
    const auto* in = std::get_if<VInstr>(&p);
    if (in != nullptr && in->op == op) addr = in->addr;
  }
  return addr;
}

TEST_P(KernelVerify, NanOutputFails) {
  // A NaN result element fails verification at any tolerance. Kernels that
  // store their result get a quiet NaN at the program's last store address
  // after the run; fdotproduct, whose result is the scalar accumulator,
  // gets a NaN input element before it so the machine reduces to NaN.
  const KernelCase& c = GetParam();
  Machine m(config_for(c));
  auto kernel = make_kernel(c.kernel);
  const Program prog = kernel->build(m, c.bytes_per_lane);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const std::uint64_t store_addr = last_op_addr(prog, Op::kVse);
  if (store_addr == 0) m.mem().store<double>(first_op_addr(prog, Op::kVle), nan);
  m.run(prog);
  ASSERT_EQ(store_addr == 0, std::string_view(c.kernel) == "fdotproduct");
  if (store_addr != 0) m.mem().store<double>(store_addr, nan);

  const VerifyResult vr = kernel->verify(m);
  EXPECT_EQ(vr.max_rel_err, INFINITY);
  EXPECT_FALSE(vr.ok(kernel->tolerance()));
  EXPECT_FALSE(vr.ok(1.0));
}

std::vector<KernelCase> all_cases() {
  std::vector<KernelCase> cases;
  const char* kernels[] = {"fmatmul", "fconv2d", "jacobi2d",     "fdotproduct",
                           "exp",     "softmax", "spmv",         "stream_triad",
                           "axpy"};
  for (const char* k : kernels) {
    // AraXL at two scales, two weak-scaling points.
    cases.push_back({k, MachineKind::kAraXL, 8, 64});
    cases.push_back({k, MachineKind::kAraXL, 16, 128});
    // Ara2 baseline.
    cases.push_back({k, MachineKind::kAra2, 8, 64});
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(AllKernels, KernelVerify, testing::ValuesIn(all_cases()),
                         case_name);

// The big configurations are exercised once per kernel (64-lane AraXL at a
// long-vector point) to keep test time reasonable while still covering the
// paper's headline machine.
class KernelVerify64L : public testing::TestWithParam<const char*> {};

TEST_P(KernelVerify64L, MatchesScalarReferenceAt64Lanes) {
  Machine m(MachineConfig::araxl(64));
  auto kernel = make_kernel(GetParam());
  const Program prog = kernel->build(m, 256);
  m.run(prog);
  const VerifyResult vr = kernel->verify(m);
  EXPECT_LE(vr.max_rel_err, kernel->tolerance());
}

INSTANTIATE_TEST_SUITE_P(AllKernels, KernelVerify64L,
                         testing::Values("fmatmul", "fconv2d", "jacobi2d",
                                         "fdotproduct", "exp", "softmax"));

// A tolerance-0 kernel at a point whose output spans more than one verify
// piece (fmatmul: 64-column tile; fconv2d, jacobi2d: row; stream_triad,
// axpy: kVerifyChunk elements). `second_piece` is the flat output index
// where the second piece starts.
struct ExactCase {
  const char* kernel;
  std::uint64_t bytes_per_lane;
  std::uint64_t second_piece;
};

enum class Bump { kFirst, kLast, kSecondPiece };

using ExactParam = std::tuple<ExactCase, Bump>;

class KernelVerifyExact : public testing::TestWithParam<ExactParam> {};

TEST_P(KernelVerifyExact, OneUlpOffFails) {
  // These golden references are exact (tolerance 0): moving one output
  // element by a single ulp must fail verification, whichever piece of the
  // reference it falls in and wherever it sits inside that piece.
  const auto& [c, bump] = GetParam();
  Machine m(MachineConfig::araxl(8));
  auto kernel = make_kernel(c.kernel);
  const Program prog = kernel->build(m, c.bytes_per_lane);
  m.run(prog);
  const VerifyResult clean = kernel->verify(m);
  ASSERT_TRUE(clean.ok(kernel->tolerance()));
  ASSERT_EQ(kernel->tolerance(), 0.0);

  // The lowest store address is the output array's first element.
  std::uint64_t out_addr = UINT64_MAX;
  for (const ProgOp& op : prog.ops) {
    const auto* in = std::get_if<VInstr>(&op);
    if (in != nullptr && in->op == Op::kVse) out_addr = std::min(out_addr, in->addr);
  }
  ASSERT_NE(out_addr, UINT64_MAX);
  const std::uint64_t index = bump == Bump::kFirst  ? 0
                              : bump == Bump::kLast ? clean.checked - 1
                                                    : c.second_piece;
  ASSERT_LT(c.second_piece, clean.checked);
  const std::uint64_t addr = out_addr + index * 8;
  m.mem().store<double>(addr, std::nextafter(m.mem().load<double>(addr), INFINITY));
  const VerifyResult vr = kernel->verify(m);
  EXPECT_GT(vr.max_rel_err, 0.0);
  EXPECT_FALSE(vr.ok(kernel->tolerance()));
  EXPECT_EQ(vr.checked, clean.checked);
}

std::string exact_name(const testing::TestParamInfo<ExactParam>& info) {
  const auto& [c, bump] = info.param;
  return std::string(c.kernel) + (bump == Bump::kFirst  ? "_first"
                                  : bump == Bump::kLast ? "_last"
                                                        : "_second_piece");
}

// On araxl:8: fmatmul at 88 B/lane has 88 columns (a full tile and a
// 24-column tail); stream_triad and axpy at 136 B/lane have 136 elements
// (a full chunk and an 8-element tail).
INSTANTIATE_TEST_SUITE_P(
    ExactKernels, KernelVerifyExact,
    testing::Combine(testing::Values(ExactCase{"fmatmul", 88, 64},
                                     ExactCase{"fconv2d", 64, 64},
                                     ExactCase{"jacobi2d", 64, 64},
                                     ExactCase{"stream_triad", 136, kVerifyChunk},
                                     ExactCase{"axpy", 136, kVerifyChunk}),
                     testing::Values(Bump::kFirst, Bump::kLast, Bump::kSecondPiece)),
    exact_name);

TEST(ElementError, RelativeAboveOneAbsoluteBelowAndNanFails) {
  EXPECT_EQ(element_error(4.0, 5.0), 0.25);
  EXPECT_EQ(element_error(0.5, 0.25), 0.25);
  EXPECT_EQ(element_error(-2.0, -2.0), 0.0);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_EQ(element_error(1.0, nan), INFINITY);
  EXPECT_EQ(element_error(nan, 1.0), INFINITY);
  EXPECT_EQ(element_error(nan, -nan), INFINITY);  // sign bit differs
  EXPECT_EQ(element_error(nan, nan), 0.0);        // bit-equal
  EXPECT_EQ(element_error(INFINITY, INFINITY), 0.0);
  EXPECT_EQ(element_error(INFINITY, 1.0), INFINITY);
  EXPECT_EQ(element_error(INFINITY, -INFINITY), INFINITY);
  EXPECT_EQ(element_error(1.0, INFINITY), INFINITY);
}

TEST(CompareInPlace, FoldsPiecesWithoutCopying) {
  MainMemory mem(1 << 16);
  const std::vector<double> out = {1.0, 2.0, 3.0, 4.0};
  mem.store_doubles(4096, out);
  VerifyResult r;
  compare_in_place(r, std::vector<double>{1.0, 2.0}, mem, 4096);
  EXPECT_EQ(r.max_rel_err, 0.0);
  compare_in_place(r, std::vector<double>{3.0, 5.0}, mem, 4096 + 16);
  EXPECT_EQ(r.max_rel_err, 0.2);
  compare_in_place(r, std::vector<double>{3.0}, mem, 4096 + 16);
  EXPECT_EQ(r.max_rel_err, 0.2);  // a worse piece is never forgotten
  EXPECT_EQ(r.checked, 5u);
  EXPECT_THROW(compare_in_place(r, std::vector<double>{0.0}, mem, 1 << 16),
               ContractViolation);
}

}  // namespace
}  // namespace araxl
