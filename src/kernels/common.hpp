// Benchmark kernel framework (paper Table I).
//
// Each kernel knows how to (a) size its problem for a weak-scaling point —
// the paper's "B/lane" metric: bytes of vector data each lane processes per
// register, so N = bytes_per_lane x total_lanes / 8 for DP elements — (b)
// generate its input data and vector program for a given machine, and (c)
// verify the machine's results against a scalar golden reference.
#ifndef ARAXL_KERNELS_COMMON_HPP
#define ARAXL_KERNELS_COMMON_HPP

#include <algorithm>
#include <array>
#include <cstdint>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "common/rng.hpp"
#include "machine/machine.hpp"

namespace araxl {

/// Result of verifying a kernel run.
struct VerifyResult {
  double max_rel_err = 0.0;
  std::uint64_t checked = 0;

  [[nodiscard]] bool ok(double tol) const { return max_rel_err <= tol; }
};

/// Interface of one Table-I benchmark kernel.
class Kernel {
 public:
  virtual ~Kernel() = default;

  [[nodiscard]] virtual std::string_view name() const = 0;

  /// Paper Table I "Max Perf" in DP-FLOP/cycle per total lane (2.0 for
  /// fmatmul/fconv2d, 1.0 for jacobi2d/fdotproduct, ...).
  [[nodiscard]] virtual double max_perf_factor() const = 0;

  /// LMUL the kernel uses at a given weak-scaling point (Table I).
  [[nodiscard]] virtual Lmul lmul(std::uint64_t bytes_per_lane) const = 0;

  /// Generates inputs into `m.mem()` and returns the vector program for the
  /// weak-scaling point `bytes_per_lane`. May be called repeatedly with
  /// different machines/sizes; state for verify() refers to the last build.
  virtual Program build(Machine& m, std::uint64_t bytes_per_lane) = 0;

  /// Writes the last build's inputs into `m.mem()` again, at the same
  /// addresses: with the built program, a second machine of the same shape
  /// (the cycle-stepped oracle) starts from the same architectural state
  /// without another build. build() calls it; a kernel without memory
  /// inputs keeps this no-op.
  virtual void load_inputs(Machine& m) const { (void)m; }

  /// Useful DP-FLOP of the last built problem (the paper's accounting).
  [[nodiscard]] virtual std::uint64_t useful_flops() const = 0;

  /// Compares machine results (in memory) against the scalar reference.
  [[nodiscard]] virtual VerifyResult verify(const Machine& m) const = 0;

  /// Verification tolerance (relative); exact-dataflow kernels use 0.
  [[nodiscard]] virtual double tolerance() const { return 1e-12; }

  /// Re-seeds input generation for the next build(). Base 0 (the default)
  /// keeps each kernel's legacy fixed inputs; the parallel driver gives
  /// every job its own base so no two jobs share an input stream.
  void seed_inputs(std::uint64_t base) noexcept { seed_base_ = base; }

 protected:
  /// Seed for one input buffer. `tag` is the kernel's legacy per-buffer
  /// constant; under a non-zero base each (base, tag) pair forks its own
  /// independent stream.
  [[nodiscard]] std::uint64_t input_seed(std::uint64_t tag) const noexcept {
    return seed_base_ == 0 ? tag : Rng(seed_base_).fork(tag).next_u64();
  }

 private:
  std::uint64_t seed_base_ = 0;
};

/// All six Table-I kernels in paper order.
std::vector<std::unique_ptr<Kernel>> make_all_kernels();

/// Extension kernels beyond the paper's benchmark set: "spmv" (CSR sparse
/// matrix-vector product over the indexed-access path), "stream_triad"
/// (bandwidth probe), and "axpy" (the steady-state loop-batching
/// reference workload).
std::vector<std::unique_ptr<Kernel>> make_extension_kernels();

/// Factory by name ("fmatmul", "fconv2d", "jacobi2d", "fdotproduct",
/// "exp", "softmax", "spmv", "stream_triad", "axpy"); throws on unknown
/// names.
std::unique_ptr<Kernel> make_kernel(std::string_view name);

// ---- shared helpers ---------------------------------------------------------

/// DP elements per vector for a weak-scaling point: N = B/lane x lanes / 8.
std::uint64_t elems_for_bytes_per_lane(const MachineConfig& cfg,
                                       std::uint64_t bytes_per_lane);

/// Deterministic input data in [lo, hi).
std::vector<double> random_doubles(std::uint64_t n, double lo, double hi,
                                   std::uint64_t seed);

/// Elements of a flat output (exp, spmv, stream_triad, axpy) whose golden
/// reference a verify computes and compares at once.
inline constexpr std::uint64_t kVerifyChunk = 128;

/// Error of one output element against its reference: |e - a| / max(|e|, 1),
/// i.e. relative, or absolute for values below 1. An element that is not
/// bit-equal to its reference scores +inf where that quotient is not a
/// number (a NaN on either side, or an infinite reference), so such an
/// element fails every tolerance.
[[nodiscard]] double element_error(double expected, double actual);

/// Folds one piece of a golden reference into `r`: compares `expected`
/// with the expected.size() doubles the machine holds at `addr`, read in
/// place through one bounds-checked window of `mem`. A verify computes its
/// reference one row, tile or chunk at a time and calls this per piece.
void compare_in_place(VerifyResult& r, std::span<const double> expected,
                      const MainMemory& mem, std::uint64_t addr);

/// Verifies a flat output of `n` doubles at `addr` whose element i has the
/// golden value ref(i), computing and comparing kVerifyChunk elements at a
/// time.
template <typename Ref>
VerifyResult verify_chunked(const MainMemory& mem, std::uint64_t addr,
                            std::uint64_t n, Ref ref) {
  VerifyResult r;
  std::array<double, kVerifyChunk> chunk;
  for (std::uint64_t i0 = 0; i0 < n; i0 += kVerifyChunk) {
    const std::uint64_t len = std::min(kVerifyChunk, n - i0);
    for (std::uint64_t i = 0; i < len; ++i) chunk[i] = ref(i0 + i);
    compare_in_place(r, {chunk.data(), len}, mem, addr + i0 * 8);
  }
  return r;
}

/// A kernel's buffers do not fit the machine's main memory at the
/// requested weak-scaling point: a property of the (kernel, machine,
/// B/lane) point, raised while the build lays out its buffers, before
/// anything is simulated.
class FootprintError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Simple bump allocator for laying out kernel buffers in main memory.
class MemLayout {
 public:
  explicit MemLayout(std::uint64_t base = 1u << 20, std::uint64_t align = 4096)
      : cursor_(base), align_(align) {}

  /// A layout that must fit `mem`: alloc() throws FootprintError for a
  /// buffer that would end past its last byte.
  explicit MemLayout(const MainMemory& mem) : MemLayout() { limit_ = mem.size(); }

  /// Reserves `bytes` and returns the base address.
  std::uint64_t alloc(std::uint64_t bytes);

  /// Reserves `bytes` and deliberately misaligns the base by `skew` bytes
  /// (for misalignment tests).
  std::uint64_t alloc_misaligned(std::uint64_t bytes, std::uint64_t skew);

 private:
  std::uint64_t cursor_;
  std::uint64_t align_;
  std::uint64_t limit_ = UINT64_MAX;
};

}  // namespace araxl

#endif  // ARAXL_KERNELS_COMMON_HPP
