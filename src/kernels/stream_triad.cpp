// stream_triad — a[i] = b[i] + s*c[i] (extension kernel, not in Table I).
//
// The STREAM triad is pure streaming: 16 bytes read + 8 bytes written per
// element against 2 DP-FLOP. With AraXL's 8 B/lane/cycle read channel the
// read streams bound throughput at half an element per lane per cycle,
// i.e. LC DP-FLOP/cycle — a bandwidth-utilization probe for the GLSU.
#include <cmath>

#include "common/contracts.hpp"
#include "kernels/common.hpp"

namespace araxl {
namespace {

class StreamTriadKernel final : public Kernel {
 public:
  [[nodiscard]] std::string_view name() const override { return "stream_triad"; }
  [[nodiscard]] double max_perf_factor() const override { return 1.0; }
  [[nodiscard]] Lmul lmul(std::uint64_t) const override { return kLmul8; }

  void load_inputs(Machine& m) const override {
    m.mem().store_doubles(b_addr_, b_);
    m.mem().store_doubles(c_addr_, c_);
  }

  Program build(Machine& m, std::uint64_t bytes_per_lane) override {
    const MachineConfig& cfg = m.config();
    n_ = elems_for_bytes_per_lane(cfg, bytes_per_lane);
    MemLayout layout(m.mem());
    a_addr_ = layout.alloc(n_ * 8);
    b_addr_ = layout.alloc(n_ * 8);
    c_addr_ = layout.alloc(n_ * 8);

    b_ = random_doubles(n_, -1.0, 1.0, input_seed(0x71));
    c_ = random_doubles(n_, -1.0, 1.0, input_seed(0x72));
    load_inputs(m);

    ProgramBuilder pb(cfg.effective_vlen(), "stream_triad");
    std::uint64_t done = 0;
    unsigned flip = 0;
    while (done < n_) {
      const std::uint64_t vl = pb.vsetvli(n_ - done, Sew::k64, kLmul8);
      // Double-buffer between the two LMUL=8 group pairs (v0/v8, v16/v24).
      const unsigned bb = flip % 2 == 0 ? 0 : 16;
      const unsigned cc = flip % 2 == 0 ? 8 : 24;
      ++flip;
      pb.vle(bb, b_addr_ + done * 8);
      pb.vle(cc, c_addr_ + done * 8);
      pb.vfmacc_vf(bb, kScale, cc);  // b += s*c in place
      pb.vse(bb, a_addr_ + done * 8);
      pb.scalar_cycles(2);
      done += vl;
    }
    return pb.take();
  }

  [[nodiscard]] std::uint64_t useful_flops() const override { return 2ull * n_; }

  [[nodiscard]] VerifyResult verify(const Machine& m) const override {
    return verify_chunked(m.mem(), a_addr_, n_, [&](std::uint64_t i) {
      return std::fma(kScale, c_[i], b_[i]);
    });
  }

  [[nodiscard]] double tolerance() const override { return 0.0; }

 private:
  static constexpr double kScale = 3.0;
  std::uint64_t n_ = 0;
  std::vector<double> b_;
  std::vector<double> c_;
  std::uint64_t a_addr_ = 0;
  std::uint64_t b_addr_ = 0;
  std::uint64_t c_addr_ = 0;
};

}  // namespace

std::unique_ptr<Kernel> make_stream_triad() {
  return std::make_unique<StreamTriadKernel>();
}

}  // namespace araxl
