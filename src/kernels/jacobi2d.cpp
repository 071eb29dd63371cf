// jacobi2d — 5-point Jacobi stencil over a 256xN grid (Table I).
//
// Out[r][c] = 0.2*(In[r][c] + In[r-1][c] + In[r+1][c] + In[r][c-1] +
// In[r][c+1]), computed with a halo'd input so every output element is
// interior. Row buffers rotate three-deep (each input row is loaded once
// per strip); the column neighbours come from slide1up/slide1down of the
// center row. Five single-FLOP FPU slots per element => peak LC DP-FLOP.
#include <cmath>

#include "common/contracts.hpp"
#include "kernels/common.hpp"

namespace araxl {
namespace {

constexpr unsigned kRows = 256;  // output rows
constexpr double kW = 0.2;

class Jacobi2dKernel final : public Kernel {
 public:
  [[nodiscard]] std::string_view name() const override { return "jacobi2d"; }
  [[nodiscard]] double max_perf_factor() const override { return 1.0; }
  [[nodiscard]] Lmul lmul(std::uint64_t) const override { return kLmul4; }

  void load_inputs(Machine& m) const override {
    m.mem().store_doubles(in_addr_, in_);
  }

  Program build(Machine& m, std::uint64_t bytes_per_lane) override {
    const MachineConfig& cfg = m.config();
    n_ = elems_for_bytes_per_lane(cfg, bytes_per_lane);
    // One halo column on each side, then pad the input pitch up to a
    // multiple of the lane count so the per-row load address advances by a
    // bus-aligned step (bus width is 8 bytes x total lanes). The stores
    // already step by n_*8, which is lane-aligned; with both progressions
    // bus-phase-periodic the whole row loop becomes batchable.
    in_cols_ = n_ + 2;
    const std::uint64_t lanes = cfg.total_lanes();
    in_cols_ += (lanes - in_cols_ % lanes) % lanes;

    MemLayout layout(m.mem());
    in_addr_ = layout.alloc((kRows + 2) * in_cols_ * 8);
    out_addr_ = layout.alloc(std::uint64_t{kRows} * n_ * 8);

    in_ = random_doubles((kRows + 2) * in_cols_, -1.0, 1.0, input_seed(0x1A));
    load_inputs(m);

    ProgramBuilder pb(cfg.effective_vlen(), "jacobi2d");
    // Register map (LMUL=4 groups): rows v4/v8/v12 rotate, slides v16/v20,
    // temporaries v24/v28.
    const unsigned rowreg[3] = {4, 8, 12};
    const unsigned left = 16;
    const unsigned right = 20;
    const unsigned t1 = 24;
    const unsigned t2 = 28;

    const auto row_center_addr = [&](unsigned input_row, std::uint64_t col) {
      return in_addr_ + (std::uint64_t{input_row} * in_cols_ + col + 1) * 8;
    };

    std::uint64_t col = 0;
    while (col < n_) {
      const std::uint64_t vl = pb.vsetvli(n_ - col, Sew::k64, kLmul4);
      // Prime the first two input rows of this strip.
      pb.vle(rowreg[0], row_center_addr(0, col));
      pb.vle(rowreg[1], row_center_addr(1, col));
      for (unsigned r = 0; r < kRows; ++r) {
        const unsigned up = rowreg[r % 3];
        const unsigned center = rowreg[(r + 1) % 3];
        const unsigned down = rowreg[(r + 2) % 3];
        pb.vle(down, row_center_addr(r + 2, col));
        const std::uint64_t crow = std::uint64_t{r + 1} * in_cols_;
        pb.vfslide1up(left, center, in_[crow + col]);
        pb.vfslide1down(right, center, in_[crow + col + 1 + vl]);
        pb.vfadd_vv(t1, up, down);
        pb.vfadd_vv(t2, left, right);
        pb.vfadd_vv(t1, t1, t2);
        pb.vfadd_vv(t1, t1, center);
        pb.vfmul_vf(t1, t1, kW);
        pb.vse(t1, out_addr_ + (std::uint64_t{r} * n_ + col) * 8);
        pb.scalar_cycles(3);  // row pointer bumps + branch
      }
      col += vl;
    }
    return pb.take();
  }

  [[nodiscard]] std::uint64_t useful_flops() const override {
    return 5ull * kRows * n_;
  }

  [[nodiscard]] VerifyResult verify(const Machine& m) const override {
    VerifyResult res;
    std::vector<double> row(n_);
    for (unsigned r = 0; r < kRows; ++r) {
      for (std::uint64_t c = 0; c < n_; ++c) {
        const std::uint64_t up = std::uint64_t{r} * in_cols_ + c + 1;
        const std::uint64_t mid = std::uint64_t{r + 1} * in_cols_ + c + 1;
        const std::uint64_t down = std::uint64_t{r + 2} * in_cols_ + c + 1;
        const double sum =
            ((in_[up] + in_[down]) + (in_[mid - 1] + in_[mid + 1])) + in_[mid];
        row[c] = sum * kW;
      }
      compare_in_place(res, row, m.mem(), out_addr_ + std::uint64_t{r} * n_ * 8);
    }
    return res;
  }

  [[nodiscard]] double tolerance() const override { return 0.0; }  // same dataflow

 private:
  std::uint64_t n_ = 0;
  std::uint64_t in_cols_ = 0;
  std::vector<double> in_;
  std::uint64_t in_addr_ = 0;
  std::uint64_t out_addr_ = 0;
};

}  // namespace

std::unique_ptr<Kernel> make_jacobi2d() { return std::make_unique<Jacobi2dKernel>(); }

}  // namespace araxl
