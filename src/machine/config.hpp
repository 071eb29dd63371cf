// Machine configuration for the two modelled microarchitectures:
//
//  * AraXL  — C clusters x 4 lanes, REQI/GLSU/RINGI top-level interconnects
//             (paper Fig. 2), VLEN = 1024 bit x total lanes up to the RVV
//             maximum of 64 Kibit at 64 lanes. Beyond 64 lanes the
//             topology becomes hierarchical (paper §V direction): G groups
//             of C clusters, per-group cluster rings joined by a group-
//             level ring and a deeper REQI broadcast tree — expressed by
//             Topology{clusters, lanes, groups} and realized by the
//             InterconnectSpec descriptor (src/interconnect/spec.hpp).
//  * Ara2   — the baseline lumped design: one "cluster" of L lanes whose
//             MASKU/SLDU/VLSU are all-to-all connected (single-cycle
//             align+shuffle, no top-level interfaces, standard mask layout).
//
// All latency knobs of the paper's latency-tolerance study (Fig. 5/7) are
// explicit parameters: reqi_regs, glsu_regs, ring_regs.
#ifndef ARAXL_MACHINE_CONFIG_HPP
#define ARAXL_MACHINE_CONFIG_HPP

#include <cstdint>
#include <string>

#include "vrf/layout.hpp"
#include "vrf/mapping.hpp"

namespace araxl {

struct InterconnectSpec;

/// Named machine presets. A kind selects an InterconnectSpec preset
/// constructor (see interconnect()) — it is a configuration spelling, not
/// something models branch on: everything downstream of MachineConfig
/// consumes the descriptor.
enum class MachineKind : std::uint8_t { kAraXL, kAra2 };

/// Simulation-kernel selection. `kEventDriven` is the production engine: it
/// jumps simulated time to the next cycle where machine state can change
/// and advances in-flight work in closed form (bit-identical RunStats to
/// the oracle). `kCycleStepped` is the reference oracle that ticks every
/// cycle; keep it for calibration, differential testing, and debugging.
enum class TimingMode : std::uint8_t { kEventDriven, kCycleStepped };

/// Deepest per-unit instruction queue a config may ask for (unit queues are
/// stored inline in the timing engine).
inline constexpr unsigned kMaxUnitQueueDepth = 16;

struct MachineConfig {
  MachineKind kind = MachineKind::kAraXL;
  Topology topo{4, 4};  ///< default: 16-lane AraXL (4 clusters x 4 lanes)

  TimingMode timing_mode = TimingMode::kEventDriven;

  /// Bits per vector register; 0 selects the paper's configuration rule
  /// VLEN = 1024 x total lanes (64 Kibit at 64 lanes).
  std::uint64_t vlen_bits = 0;

  std::uint64_t mem_size_bytes = 64ull << 20;

  // ---- latency-tolerance knobs (paper Fig. 5) -----------------------------
  unsigned reqi_regs = 0;  ///< extra REQI register cuts (+1 => ack +2 cycles)
  unsigned glsu_regs = 0;  ///< extra GLSU pipeline registers (+4 => +8 cycles)
  unsigned ring_regs = 0;  ///< extra RINGI registers per hop (+1 => hop +1)

  // ---- microarchitectural constants ---------------------------------------
  unsigned fpu_latency = 5;        ///< FPU result latency (chaining lag)
  unsigned alu_latency = 2;        ///< ALU result latency
  unsigned sldu_latency = 3;       ///< slide-unit result latency
  unsigned load_chain_lag = 3;     ///< VRF write -> operand read lag for loads
  unsigned div_cycles_per_elem = 12;  ///< unpipelined divider occupancy
  unsigned unit_start_latency = 4;    ///< dispatch -> first result (arith)
  unsigned unit_queue_depth = 4;      ///< per-unit instruction queue (<= 16)
  unsigned seq_queue_depth = 8;       ///< sequencer instruction queue
  unsigned dcache_load_latency = 3;   ///< CVA6 scalar load (d-cache hit)
  unsigned l2_latency = 12;           ///< L2 access latency (beyond GLSU pipe)
  /// Liveness watchdog budget (wakeups without progress before the engine
  /// declares a deadlock); 0 selects WakeupWatchdog::kDefaultBudget. Tiny
  /// values are for tests that prove batched fast-forwards count as
  /// progress.
  std::uint64_t watchdog_budget = 0;

  unsigned red_step_latency = 4;      ///< per inter-lane reduction step
  unsigned red_add_latency = 8;       ///< SLDU round trip + FPU add per
                                      ///< inter-cluster tree step
  unsigned writeback_latency = 2;     ///< final scalar writeback of reductions

  // ---- derived ------------------------------------------------------------
  [[nodiscard]] std::uint64_t effective_vlen() const;
  [[nodiscard]] unsigned total_lanes() const { return topo.total_lanes(); }

  /// The interconnect descriptor for this machine: the kind picks a preset
  /// constructor (InterconnectSpec::araxl / ::ara2) and the latency knobs
  /// are threaded through. This is the ONLY place MachineKind is mapped to
  /// interconnect structure — the models and PPA layer consume the
  /// returned descriptor and never branch on the kind.
  [[nodiscard]] InterconnectSpec interconnect() const;

  /// Memory bandwidth per direction (read and write channels are separate):
  /// 8 bytes/lane/cycle, i.e. 64-bit per lane (see README, "Modeling
  /// notes").
  [[nodiscard]] std::uint64_t mem_bytes_per_cycle() const {
    return 8ull * total_lanes();
  }

  [[nodiscard]] MaskLayout mask_layout() const {
    return kind == MachineKind::kAraXL ? MaskLayout::kLaneLocal
                                       : MaskLayout::kStandard;
  }

  /// Throws ContractViolation if inconsistent.
  void validate() const;

  /// "64L-AraXL" / "8L-Ara2" display name.
  [[nodiscard]] std::string name() const;

  // ---- factories -----------------------------------------------------------
  /// AraXL instance with `total_lanes` lanes in 4-lane clusters (the paper's
  /// building block; 8..64 lanes => 2..16 clusters, flat). Beyond 64 lanes
  /// the flat ring would exceed the paper's 16-stop ceiling, so the factory
  /// becomes hierarchical: 8-cluster groups (the largest ring that holds
  /// the 1.40 GHz timing corner) joined by a group-level ring — 128 lanes
  /// => 4 groups x 8 clusters x 4 lanes.
  static MachineConfig araxl(unsigned total_lanes);

  /// AraXL with an explicit cluster shape (design-space exploration; the
  /// paper fixes lanes_per_cluster = 4).
  static MachineConfig araxl_shaped(unsigned clusters, unsigned lanes_per_cluster);

  /// Hierarchical AraXL with an explicit three-level shape:
  /// `groups` groups x `clusters_per_group` clusters x `lanes_per_cluster`
  /// lanes (groups == 1 degenerates to araxl_shaped).
  static MachineConfig araxl_hier(unsigned groups, unsigned clusters_per_group,
                                  unsigned lanes_per_cluster);

  /// Baseline Ara2 with `lanes` lanes (2..16 per the Ara2 paper).
  static MachineConfig ara2(unsigned lanes);

  friend bool operator==(const MachineConfig&, const MachineConfig&) = default;
};

}  // namespace araxl

#endif  // ARAXL_MACHINE_CONFIG_HPP
