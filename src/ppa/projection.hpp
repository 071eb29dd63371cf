// PPA projection of finished runs: the frequency, area and power models
// applied to a configuration and a run's RunStats. The driver's JSON/CSV
// reports and the analysis bundle print the same numbers, so both take
// them from here.
#ifndef ARAXL_PPA_PROJECTION_HPP
#define ARAXL_PPA_PROJECTION_HPP

#include "machine/config.hpp"
#include "sim/stats.hpp"

namespace araxl {

/// PPA-model outputs for one run.
struct Ppa {
  double freq_ghz = 0.0;
  double area_mm2 = 0.0;
  double power_w = 0.0;
  double gflops = 0.0;
  double gflops_per_w = 0.0;
};

/// The PPA models bound to one configuration. Frequency and area depend on
/// the configuration alone and are computed once, so a caller projecting
/// many runs of one machine keeps the projector.
class PpaProjector {
 public:
  explicit PpaProjector(const MachineConfig& cfg);

  [[nodiscard]] const MachineConfig& config() const { return cfg_; }
  [[nodiscard]] Ppa operator()(const RunStats& stats) const;

 private:
  MachineConfig cfg_;
  double freq_ghz_;
  double area_mm2_;
};

}  // namespace araxl

#endif  // ARAXL_PPA_PROJECTION_HPP
