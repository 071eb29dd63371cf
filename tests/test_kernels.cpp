// Integration tests: every Table-I kernel, functionally verified against
// its scalar golden reference on multiple machine configurations and
// weak-scaling points, on both AraXL and the Ara2 baseline.
#include <gtest/gtest.h>

#include <cmath>

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

std::vector<KernelCase> all_cases() {
  std::vector<KernelCase> cases;
  const char* kernels[] = {"fmatmul", "fconv2d",    "jacobi2d",     "fdotproduct",
                           "exp",     "softmax",    "spmv",         "stream_triad"};
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

class KernelVerifyExact : public testing::TestWithParam<const char*> {};

TEST_P(KernelVerifyExact, OneUlpOffFails) {
  // These golden references are exact (tolerance 0): moving one output
  // element by a single ulp must fail verification, whatever loop order
  // the reference uses internally.
  Machine m(MachineConfig::araxl(8));
  auto kernel = make_kernel(GetParam());
  const Program prog = kernel->build(m, 64);
  m.run(prog);
  ASSERT_TRUE(kernel->verify(m).ok(kernel->tolerance()));
  ASSERT_EQ(kernel->tolerance(), 0.0);

  // The program's last store writes into the output array.
  std::uint64_t out_addr = 0;
  for (const ProgOp& op : prog.ops) {
    const auto* in = std::get_if<VInstr>(&op);
    if (in != nullptr && in->op == Op::kVse) out_addr = in->addr;
  }
  ASSERT_NE(out_addr, 0u);
  const double v = m.mem().load_doubles(out_addr + 3 * 8, 1)[0];
  const std::vector<double> bumped = {std::nextafter(v, INFINITY)};
  m.mem().store_doubles(out_addr + 3 * 8, bumped);
  const VerifyResult vr = kernel->verify(m);
  EXPECT_GT(vr.max_rel_err, 0.0);
  EXPECT_FALSE(vr.ok(kernel->tolerance()));
}

INSTANTIATE_TEST_SUITE_P(ExactKernels, KernelVerifyExact,
                         testing::Values("fmatmul", "fconv2d"));

}  // namespace
}  // namespace araxl
