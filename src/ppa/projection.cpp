#include "ppa/projection.hpp"

#include "ppa/area_model.hpp"
#include "ppa/freq_model.hpp"
#include "ppa/power_model.hpp"

namespace araxl {

PpaProjector::PpaProjector(const MachineConfig& cfg)
    : cfg_(cfg),
      freq_ghz_(FreqModel().freq_ghz(cfg)),
      area_mm2_(AreaModel().total_mm2(cfg)) {}

Ppa PpaProjector::operator()(const RunStats& stats) const {
  const PowerModel power_model;
  Ppa p;
  p.freq_ghz = freq_ghz_;
  p.area_mm2 = area_mm2_;
  const double util = stats.fpu_util();
  p.power_w = power_model.power_w(cfg_, p.freq_ghz, util);
  p.gflops = stats.gflops(p.freq_ghz);
  p.gflops_per_w =
      power_model.gflops_per_w(cfg_, p.freq_ghz, stats.flop_per_cycle(), util);
  return p;
}

}  // namespace araxl
