// softmax — row-wise softmax of a 64xN matrix (Table I, LMUL=1).
//
// Per row, the numerically stable three-pass formulation:
//   1. m = max(row)                    (strip-mined vfredmax chain)
//   2. e = exp(row - m), s = sum(e)    (exp core + vfredusum chain;
//                                       e spilled to a scratch buffer)
//   3. out = e * (1/s)                 (the reciprocal is computed on the
//                                       vector divider with vl=1, then
//                                       broadcast through the scalar path)
// The two reductions per strip are what make softmax the paper's most
// reduction-sensitive kernel (7.3x scaling at 64 lanes instead of 8x).
#include <cmath>
#include <limits>

#include "common/contracts.hpp"
#include "kernels/common.hpp"
#include "kernels/exp_core.hpp"

namespace araxl {
namespace {

constexpr unsigned kRows = 64;

class FsoftmaxKernel final : public Kernel {
 public:
  [[nodiscard]] std::string_view name() const override { return "softmax"; }
  [[nodiscard]] double max_perf_factor() const override {
    // exp core + subtract + two reduction passes + final scale.
    return static_cast<double>(kExpFlops + 4) / (kExpFpuSlots + 4);
  }
  [[nodiscard]] Lmul lmul(std::uint64_t) const override { return kLmul1; }

  void load_inputs(Machine& m) const override {
    m.mem().store_doubles(x_addr_, x_);
  }

  Program build(Machine& m, std::uint64_t bytes_per_lane) override {
    const MachineConfig& cfg = m.config();
    n_ = elems_for_bytes_per_lane(cfg, bytes_per_lane);
    MemLayout layout(m.mem());
    x_addr_ = layout.alloc(std::uint64_t{kRows} * n_ * 8);
    y_addr_ = layout.alloc(std::uint64_t{kRows} * n_ * 8);
    scratch_addr_ = layout.alloc(n_ * 8);

    x_ = random_doubles(std::uint64_t{kRows} * n_, -8.0, 8.0, input_seed(0x50));
    load_inputs(m);

    ProgramBuilder pb(cfg.effective_vlen(), "softmax");
    ExpRegs regs;
    regs.x = 6;  // exp input is the shifted row (v6), loaded rows use v4/v5

    for (unsigned row = 0; row < kRows; ++row) {
      const std::uint64_t row_base = x_addr_ + std::uint64_t{row} * n_ * 8;
      const std::uint64_t out_base = y_addr_ + std::uint64_t{row} * n_ * 8;

      // Pass 1: running max across strips (seed v30, result v30).
      pb.vsetvli(n_, Sew::k64, kLmul1);
      pb.vfmv_s_f(30, -std::numeric_limits<double>::infinity());
      std::uint64_t done = 0;
      unsigned flip = 0;
      while (done < n_) {
        const std::uint64_t vl = pb.vsetvli(n_ - done, Sew::k64, kLmul1);
        const unsigned xv = 4 + (flip++ % 2);
        pb.vle(xv, row_base + done * 8);
        pb.vfredmax(30, xv, 30);
        pb.scalar_cycles(2);
        done += vl;
      }
      pb.vfmv_f_s(30);  // scalar accumulator := row max

      // Pass 2: e = exp(x - max) to scratch, s = running sum (seed v31).
      pb.vsetvli(n_, Sew::k64, kLmul1);
      pb.vfmv_s_f(31, 0.0);
      done = 0;
      while (done < n_) {
        const std::uint64_t vl = pb.vsetvli(n_ - done, Sew::k64, kLmul1);
        const unsigned xv = 4 + (flip++ % 2);
        pb.vle(xv, row_base + done * 8);
        pb.vfsub_vf_acc(regs.x, xv);  // x - max (scalar from accumulator)
        emit_exp_core(pb, regs);
        pb.vse(regs.out, scratch_addr_ + done * 8);
        pb.vfredusum(31, regs.out, 31);
        pb.scalar_cycles(2);
        done += vl;
      }
      pb.vfmv_f_s(31);  // scalar accumulator := sum

      // Reciprocal on the vector divider with vl=1: v28 = 1.0 / sum.
      pb.vsetvli(1, Sew::k64, kLmul1);
      pb.vfmv_s_f(28, 1.0);
      pb.vfdiv_vv(28, 28, 31);
      pb.vfmv_f_s(28);  // scalar accumulator := 1/sum

      // Pass 3: normalize from scratch.
      done = 0;
      while (done < n_) {
        const std::uint64_t vl = pb.vsetvli(n_ - done, Sew::k64, kLmul1);
        const unsigned ev = 4 + (flip++ % 2);
        pb.vle(ev, scratch_addr_ + done * 8);
        pb.vfmul_vf_acc(8, ev);
        pb.vse(8, out_base + done * 8);
        pb.scalar_cycles(2);
        done += vl;
      }
      pb.scalar_cycles(3);  // row loop bookkeeping
    }
    return pb.take();
  }

  [[nodiscard]] std::uint64_t useful_flops() const override {
    return std::uint64_t{kExpFlops + 4} * kRows * n_;
  }

  [[nodiscard]] VerifyResult verify(const Machine& m) const override {
    VerifyResult res;
    std::vector<double> e(n_);
    for (unsigned r = 0; r < kRows; ++r) {
      const double* row = x_.data() + std::uint64_t{r} * n_;
      double mx = -std::numeric_limits<double>::infinity();
      for (std::uint64_t c = 0; c < n_; ++c) mx = std::max(mx, row[c]);
      double sum = 0.0;
      for (std::uint64_t c = 0; c < n_; ++c) {
        e[c] = std::exp(row[c] - mx);
        sum += e[c];
      }
      for (std::uint64_t c = 0; c < n_; ++c) e[c] /= sum;
      compare_in_place(res, e, m.mem(), y_addr_ + std::uint64_t{r} * n_ * 8);
    }
    return res;
  }

  [[nodiscard]] double tolerance() const override { return 1e-10; }

 private:
  std::uint64_t n_ = 0;
  std::vector<double> x_;
  std::uint64_t x_addr_ = 0;
  std::uint64_t y_addr_ = 0;
  std::uint64_t scratch_addr_ = 0;
};

}  // namespace

std::unique_ptr<Kernel> make_fsoftmax() { return std::make_unique<FsoftmaxKernel>(); }

}  // namespace araxl
