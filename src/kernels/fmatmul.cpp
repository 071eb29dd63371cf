// fmatmul — C[64xN] = A[64x256] * B[256xN] (paper Table I).
//
// The structure follows the Ara matmul kernel: vectors run along the N
// columns of B/C; rows of C are blocked so a block of accumulator register
// groups stays resident while the k-loop streams rows of B through a
// double-buffered register pair; each vfmacc.vf takes its scalar from A via
// a scalar d-cache load. Peak: one FMA per lane per cycle = 2 LC DP-FLOP.
#include <algorithm>
#include <cmath>

#include "common/contracts.hpp"
#include "kernels/common.hpp"

namespace araxl {
namespace {

constexpr unsigned kM = 64;   // rows of A / C
constexpr unsigned kK = 256;  // columns of A = rows of B
constexpr unsigned kTileCols = 64;  // verify: columns of C per reference tile

class FmatmulKernel final : public Kernel {
 public:
  [[nodiscard]] std::string_view name() const override { return "fmatmul"; }
  [[nodiscard]] double max_perf_factor() const override { return 2.0; }

  [[nodiscard]] Lmul lmul(std::uint64_t bytes_per_lane) const override {
    if (bytes_per_lane <= 128) return kLmul1;
    if (bytes_per_lane <= 256) return kLmul2;
    return kLmul4;
  }

  void load_inputs(Machine& m) const override {
    m.mem().store_doubles(a_addr_, a_);
    m.mem().store_doubles(b_addr_, b_);
  }

  Program build(Machine& m, std::uint64_t bytes_per_lane) override {
    const MachineConfig& cfg = m.config();
    n_ = elems_for_bytes_per_lane(cfg, bytes_per_lane);
    const Lmul ml = lmul(bytes_per_lane);
    const unsigned g = ml.group_regs();
    const unsigned rb = g >= 4 ? 4 : 8;  // row block sized to the register budget

    MemLayout layout(m.mem());
    a_addr_ = layout.alloc(kM * kK * 8);
    b_addr_ = layout.alloc(kK * n_ * 8);
    c_addr_ = layout.alloc(kM * n_ * 8);

    a_ = random_doubles(kM * kK, -1.0, 1.0, input_seed(0xA));
    b_ = random_doubles(kK * n_, -1.0, 1.0, input_seed(0xB));
    load_inputs(m);

    ProgramBuilder pb(cfg.effective_vlen(), "fmatmul");
    const unsigned acc0 = 16;         // accumulators: v16 .. v16+rb*g
    const unsigned bbuf[2] = {8, 8 + g};

    std::uint64_t col = 0;
    while (col < n_) {
      const std::uint64_t vl = pb.vsetvli(n_ - col, Sew::k64, ml);
      for (unsigned i0 = 0; i0 < kM; i0 += rb) {
        for (unsigned i = 0; i < rb; ++i) pb.vfmv_v_f(acc0 + i * g, 0.0);
        for (unsigned k = 0; k < kK; ++k) {
          const unsigned bb = bbuf[k % 2];
          pb.vle(bb, b_addr_ + (std::uint64_t{k} * n_ + col) * 8);
          for (unsigned i = 0; i < rb; ++i) {
            pb.scalar_load();     // fld of A[i0+i][k]
            pb.scalar_cycles(1);  // row-pointer bump (CVA6 is single-issue)
            pb.vfmacc_vf(acc0 + i * g, a_[(i0 + i) * kK + k], bb);
          }
          pb.scalar_cycles(1);  // pointer bump + branch
        }
        for (unsigned i = 0; i < rb; ++i) {
          pb.vse(acc0 + i * g, c_addr_ + ((i0 + i) * n_ + col) * 8);
        }
        pb.scalar_cycles(2);
      }
      col += vl;
    }
    return pb.take();
  }

  [[nodiscard]] std::uint64_t useful_flops() const override {
    return 2ull * kM * kK * n_;
  }

  [[nodiscard]] VerifyResult verify(const Machine& m) const override {
    // One tile of kTileCols columns across all kM rows at a time (32 KiB of
    // accumulators). Inside it, four rows of B at a time are applied to
    // each accumulator in one register pass: each row of B is read once
    // per tile, and every element still takes its fma chain in ascending
    // k, so the result is bit-identical to the textbook i-j-k loop.
    static_assert(kK % 4 == 0);
    VerifyResult r;
    std::vector<double> acc(kM * kTileCols);
    for (std::uint64_t j0 = 0; j0 < n_; j0 += kTileCols) {
      const std::uint64_t w = std::min<std::uint64_t>(kTileCols, n_ - j0);
      std::fill(acc.begin(), acc.end(), 0.0);
      for (unsigned k = 0; k < kK; k += 4) {
        const double* b0 = b_.data() + std::uint64_t{k} * n_ + j0;
        const double* b1 = b0 + n_;
        const double* b2 = b1 + n_;
        const double* b3 = b2 + n_;
        for (unsigned i = 0; i < kM; ++i) {
          const double* a = a_.data() + i * kK + k;
          double* row = acc.data() + i * kTileCols;
          for (std::uint64_t j = 0; j < w; ++j) {
            row[j] = std::fma(a[3], b3[j],
                              std::fma(a[2], b2[j],
                                       std::fma(a[1], b1[j], std::fma(a[0], b0[j], row[j]))));
          }
        }
      }
      for (unsigned i = 0; i < kM; ++i) {
        compare_in_place(r, {acc.data() + i * kTileCols, w}, m.mem(),
                         c_addr_ + (i * n_ + j0) * 8);
      }
    }
    return r;
  }

  [[nodiscard]] double tolerance() const override { return 0.0; }  // same dataflow

 private:
  std::uint64_t n_ = 0;
  std::vector<double> a_;
  std::vector<double> b_;
  std::uint64_t a_addr_ = 0;
  std::uint64_t b_addr_ = 0;
  std::uint64_t c_addr_ = 0;
};

}  // namespace

std::unique_ptr<Kernel> make_fmatmul() { return std::make_unique<FmatmulKernel>(); }

}  // namespace araxl
