#include "kernels/common.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <limits>

#include "common/bits.hpp"
#include "common/contracts.hpp"
#include "common/fmt.hpp"
#include "common/rng.hpp"

namespace araxl {

std::unique_ptr<Kernel> make_fmatmul();
std::unique_ptr<Kernel> make_fconv2d();
std::unique_ptr<Kernel> make_jacobi2d();
std::unique_ptr<Kernel> make_fdotproduct();
std::unique_ptr<Kernel> make_fexp();
std::unique_ptr<Kernel> make_fsoftmax();
std::unique_ptr<Kernel> make_spmv();
std::unique_ptr<Kernel> make_stream_triad();
std::unique_ptr<Kernel> make_axpy();

std::vector<std::unique_ptr<Kernel>> make_all_kernels() {
  std::vector<std::unique_ptr<Kernel>> out;
  out.push_back(make_fmatmul());
  out.push_back(make_fconv2d());
  out.push_back(make_jacobi2d());
  out.push_back(make_fdotproduct());
  out.push_back(make_fexp());
  out.push_back(make_fsoftmax());
  return out;
}

std::vector<std::unique_ptr<Kernel>> make_extension_kernels() {
  std::vector<std::unique_ptr<Kernel>> out;
  out.push_back(make_spmv());
  out.push_back(make_stream_triad());
  out.push_back(make_axpy());
  return out;
}

std::unique_ptr<Kernel> make_kernel(std::string_view name) {
  if (name == "fmatmul") return make_fmatmul();
  if (name == "fconv2d") return make_fconv2d();
  if (name == "jacobi2d") return make_jacobi2d();
  if (name == "fdotproduct") return make_fdotproduct();
  if (name == "exp") return make_fexp();
  if (name == "softmax") return make_fsoftmax();
  if (name == "spmv") return make_spmv();
  if (name == "stream_triad") return make_stream_triad();
  if (name == "axpy") return make_axpy();
  fail("unknown kernel name");
}

std::uint64_t elems_for_bytes_per_lane(const MachineConfig& cfg,
                                       std::uint64_t bytes_per_lane) {
  check(bytes_per_lane % 8 == 0, "bytes per lane must be a multiple of 8");
  return bytes_per_lane * cfg.total_lanes() / 8;
}

std::vector<double> random_doubles(std::uint64_t n, double lo, double hi,
                                   std::uint64_t seed) {
  Rng rng(seed);
  std::vector<double> out(n);
  for (auto& v : out) v = rng.next_double(lo, hi);
  return out;
}

double element_error(double expected, double actual) {
  const double err =
      std::abs(expected - actual) / std::max(std::abs(expected), 1.0);
  if (!std::isnan(err)) return err;
  return std::bit_cast<std::uint64_t>(expected) ==
                 std::bit_cast<std::uint64_t>(actual)
             ? 0.0
             : std::numeric_limits<double>::infinity();
}

void compare_in_place(VerifyResult& r, std::span<const double> expected,
                      const MainMemory& mem, std::uint64_t addr) {
  const std::size_t n = expected.size();
  const std::uint8_t* actual = mem.raw(addr, n * 8);
  const auto load = [&](std::size_t i) {
    double a;
    std::memcpy(&a, actual + i * 8, 8);
    return a;
  };
  // The maximum of non-NaN errors does not depend on the order it is
  // taken in, so four independent lanes give the same bits as one serial
  // fold while letting the compiler vectorize the divides. A NaN quotient
  // drops out of std::max here; the rare piece that has one is folded
  // again through element_error, which scores it.
  double worst[4] = {r.max_rel_err, r.max_rel_err, r.max_rel_err, r.max_rel_err};
  bool unordered = false;
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    for (std::size_t j = 0; j < 4; ++j) {
      const double e = expected[i + j];
      const double err = std::abs(e - load(i + j)) / std::max(std::abs(e), 1.0);
      unordered |= std::isnan(err);
      worst[j] = std::max(worst[j], err);
    }
  }
  for (; i < n; ++i) worst[0] = std::max(worst[0], element_error(expected[i], load(i)));
  double w = std::max(std::max(worst[0], worst[1]), std::max(worst[2], worst[3]));
  if (unordered) {
    for (i = 0; i < n; ++i) w = std::max(w, element_error(expected[i], load(i)));
  }
  r.max_rel_err = w;
  r.checked += n;
}

std::uint64_t MemLayout::alloc(std::uint64_t bytes) {
  const std::uint64_t base = align_up(cursor_, align_);
  cursor_ = base + bytes;
  if (cursor_ > limit_ || cursor_ < base) {
    throw FootprintError(strprintf(
        "kernel buffers need %llu bytes of main memory (layout end), but the "
        "machine has %llu",
        static_cast<unsigned long long>(cursor_),
        static_cast<unsigned long long>(limit_)));
  }
  return base;
}

std::uint64_t MemLayout::alloc_misaligned(std::uint64_t bytes, std::uint64_t skew) {
  return alloc(bytes + skew) + skew;
}

}  // namespace araxl
