// spmv — sparse matrix-vector product y = A*x, CSR format (extension
// kernel, not in the paper's Table I).
//
// The paper motivates long vectors with sparse workloads (SpMV/HPCG on
// long-vector architectures, refs [5]-[8]); this kernel exercises exactly
// the paths those workloads hit: indexed gathers through the GLSU's
// element-granular path ("supported, albeit at lower throughput") and one
// reduction per row. Rows are strip-mined over LMUL=4 groups.
#include <cmath>

#include "common/contracts.hpp"
#include "common/rng.hpp"
#include "kernels/common.hpp"

namespace araxl {
namespace {

constexpr unsigned kRowsPerLaneByte = 4;  // rows scale mildly with machine size

class SpmvKernel final : public Kernel {
 public:
  [[nodiscard]] std::string_view name() const override { return "spmv"; }
  [[nodiscard]] double max_perf_factor() const override {
    // Indexed gathers move one element per cluster per cycle: the gather,
    // not the FPU, bounds throughput.
    return 0.25;
  }
  [[nodiscard]] Lmul lmul(std::uint64_t) const override { return kLmul4; }

  void load_inputs(Machine& m) const override {
    m.mem().store_doubles(vals_addr_, vals_);
    for (std::size_t k = 0; k < cols_idx_.size(); ++k) {
      m.mem().store<std::uint64_t>(idx_addr_ + k * 8, cols_idx_[k] * 8);
    }
    m.mem().store_doubles(x_addr_, x_);
  }

  Program build(Machine& m, std::uint64_t bytes_per_lane) override {
    const MachineConfig& cfg = m.config();
    cols_ = elems_for_bytes_per_lane(cfg, bytes_per_lane);
    rows_ = kRowsPerLaneByte * cfg.topo.total_clusters() * 8;
    const std::uint64_t avg_nnz = std::max<std::uint64_t>(8, cols_ / 16);

    // Random CSR structure (sorted unique columns per row).
    Rng rng(input_seed(0x5B));
    row_ptr_.assign(rows_ + 1, 0);
    cols_idx_.clear();
    vals_.clear();
    for (std::uint64_t r = 0; r < rows_; ++r) {
      const std::uint64_t nnz = 1 + rng.next_below(2 * avg_nnz);
      std::uint64_t col = rng.next_below(std::max<std::uint64_t>(1, cols_ / 4));
      for (std::uint64_t k = 0; k < nnz && col < cols_; ++k) {
        cols_idx_.push_back(col);
        vals_.push_back(rng.next_double(-1.0, 1.0));
        col += 1 + rng.next_below(std::max<std::uint64_t>(1, 3 * cols_ / nnz / 4));
      }
      row_ptr_[r + 1] = cols_idx_.size();
    }
    x_ = random_doubles(cols_, -1.0, 1.0, input_seed(0x5C));

    MemLayout layout(m.mem());
    vals_addr_ = layout.alloc(vals_.size() * 8);
    // Column indices are stored pre-scaled to byte offsets, as a vectorized
    // CSR kernel would keep them for vluxei.
    idx_addr_ = layout.alloc(cols_idx_.size() * 8);
    x_addr_ = layout.alloc(cols_ * 8);
    y_addr_ = layout.alloc(rows_ * 8);
    load_inputs(m);

    ProgramBuilder pb(cfg.effective_vlen(), "spmv");
    for (std::uint64_t r = 0; r < rows_; ++r) {
      std::uint64_t k = row_ptr_[r];
      const std::uint64_t kend = row_ptr_[r + 1];
      pb.vsetvli(1, Sew::k64, kLmul4);
      // Hack-free accumulate: seed the row sum register with 0.
      pb.vfmv_s_f(28, 0.0);
      while (k < kend) {
        const std::uint64_t vl = pb.vsetvli(kend - k, Sew::k64, kLmul4);
        pb.vle(4, vals_addr_ + k * 8);     // values
        pb.vle(8, idx_addr_ + k * 8);      // byte offsets into x
        pb.vluxei(12, x_addr_, 8);         // gather x[cols]
        pb.vfmul_vv(16, 4, 12);
        pb.vfredusum(28, 16, 28);
        pb.scalar_cycles(2);
        k += vl;
      }
      // Store the scalar row result through a vl=1 vector store.
      pb.vsetvli(1, Sew::k64, kLmul4);
      pb.vse(28, y_addr_ + r * 8);
      pb.scalar_cycles(3);
    }
    return pb.take();
  }

  [[nodiscard]] std::uint64_t useful_flops() const override {
    return 2ull * vals_.size();
  }

  [[nodiscard]] VerifyResult verify(const Machine& m) const override {
    return verify_chunked(m.mem(), y_addr_, rows_, [&](std::uint64_t r) {
      double acc = 0.0;
      for (std::uint64_t k = row_ptr_[r]; k < row_ptr_[r + 1]; ++k) {
        acc += vals_[k] * x_[cols_idx_[k]];
      }
      return acc;
    });
  }

  [[nodiscard]] double tolerance() const override { return 1e-10; }

 private:
  std::uint64_t rows_ = 0;
  std::uint64_t cols_ = 0;
  std::vector<std::uint64_t> row_ptr_;
  std::vector<std::uint64_t> cols_idx_;
  std::vector<double> vals_;
  std::vector<double> x_;
  std::uint64_t vals_addr_ = 0;
  std::uint64_t idx_addr_ = 0;
  std::uint64_t x_addr_ = 0;
  std::uint64_t y_addr_ = 0;
};

}  // namespace

std::unique_ptr<Kernel> make_spmv() { return std::make_unique<SpmvKernel>(); }

}  // namespace araxl
