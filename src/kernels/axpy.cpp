// axpy — y[i] += a*x[i] (extension kernel, not in Table I).
//
// The canonical steady-state streaming loop: every strip-mine iteration
// issues the same vsetvli/vle/vle/vfmacc/vse signature against addresses
// advancing by one arithmetic progression, which makes it the reference
// workload for the event-driven engine's loop batching (and the registry
// twin of the hand-built AXPY program in bench/sim_speed.cpp, so sweeps
// and `araxl stats` can diagnose the same shape the bench measures).
// Like the STREAM triad it is read-bandwidth bound: 16 bytes read per
// 2 DP-FLOP caps throughput at LC DP-FLOP/cycle.
#include <cmath>

#include "common/contracts.hpp"
#include "kernels/common.hpp"

namespace araxl {
namespace {

class AxpyKernel final : public Kernel {
 public:
  [[nodiscard]] std::string_view name() const override { return "axpy"; }
  [[nodiscard]] double max_perf_factor() const override { return 1.0; }
  [[nodiscard]] Lmul lmul(std::uint64_t) const override { return kLmul4; }

  void load_inputs(Machine& m) const override {
    m.mem().store_doubles(x_addr_, x_);
    m.mem().store_doubles(y_addr_, y_);
  }

  Program build(Machine& m, std::uint64_t bytes_per_lane) override {
    const MachineConfig& cfg = m.config();
    n_ = elems_for_bytes_per_lane(cfg, bytes_per_lane);
    MemLayout layout(m.mem());
    x_addr_ = layout.alloc(n_ * 8);
    y_addr_ = layout.alloc(n_ * 8);

    x_ = random_doubles(n_, -1.0, 1.0, input_seed(0x75));
    y_ = random_doubles(n_, -1.0, 1.0, input_seed(0x76));
    load_inputs(m);

    // Same shape as the bench's build_axpy: a fixed register pair per
    // iteration (no double-buffering) keeps the op signature periodic.
    ProgramBuilder pb(cfg.effective_vlen(), "axpy");
    std::uint64_t done = 0;
    while (done < n_) {
      const std::uint64_t vl = pb.vsetvli(n_ - done, Sew::k64, kLmul4);
      pb.vle(8, x_addr_ + done * 8);
      pb.vle(16, y_addr_ + done * 8);
      pb.vfmacc_vf(16, kA, 8);  // y += a*x in place
      pb.vse(16, y_addr_ + done * 8);
      done += vl;
    }
    return pb.take();
  }

  [[nodiscard]] std::uint64_t useful_flops() const override { return 2ull * n_; }

  [[nodiscard]] VerifyResult verify(const Machine& m) const override {
    return verify_chunked(m.mem(), y_addr_, n_, [&](std::uint64_t i) {
      return std::fma(kA, x_[i], y_[i]);
    });
  }

  [[nodiscard]] double tolerance() const override { return 0.0; }

 private:
  static constexpr double kA = 1.5;
  std::uint64_t n_ = 0;
  std::vector<double> x_;
  std::vector<double> y_;
  std::uint64_t x_addr_ = 0;
  std::uint64_t y_addr_ = 0;
};

}  // namespace

std::unique_ptr<Kernel> make_axpy() { return std::make_unique<AxpyKernel>(); }

}  // namespace araxl
