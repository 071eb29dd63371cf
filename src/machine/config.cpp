#include "machine/config.hpp"

#include "common/bits.hpp"
#include "common/contracts.hpp"
#include "interconnect/spec.hpp"
#include "isa/vtype.hpp"

namespace araxl {

InterconnectSpec MachineConfig::interconnect() const {
  InterconnectKnobs knobs;
  knobs.reqi_regs = reqi_regs;
  knobs.glsu_regs = glsu_regs;
  knobs.ring_regs = ring_regs;
  knobs.l2_latency = l2_latency;
  knobs.red_add_latency = red_add_latency;
  knobs.bus_bytes = mem_bytes_per_cycle();
  return kind == MachineKind::kAraXL ? InterconnectSpec::araxl(topo, knobs)
                                     : InterconnectSpec::ara2(topo, knobs);
}

std::uint64_t MachineConfig::effective_vlen() const {
  if (vlen_bits != 0) return vlen_bits;
  return std::min<std::uint64_t>(1024ull * total_lanes(), kMaxVlenBits);
}

void MachineConfig::validate() const {
  check(topo.clusters >= 1 && topo.lanes >= 1 && topo.groups >= 1,
        "empty topology");
  check(is_pow2(topo.clusters) && is_pow2(topo.lanes) && is_pow2(topo.groups),
        "group/cluster/lane counts must be powers of two");
  if (kind == MachineKind::kAra2) {
    check(topo.clusters == 1 && topo.groups == 1,
          "Ara2 is a lumped (single-cluster) design");
    check(topo.lanes <= 16, "Ara2 does not scale past 16 lanes (paper SII)");
  } else {
    // The paper's building block is the 4-lane cluster (the most
    // energy-efficient Ara2 configuration); 2- and 8-lane clusters are
    // allowed for design-space exploration (bench/ablation_cluster_shape).
    check(topo.lanes >= 2 && topo.lanes <= 8,
          "AraXL clusters are 2-8 lanes (4 is the paper's building block)");
    check(topo.clusters >= 2, "AraXL needs at least two clusters per group");
    // A single physical ring tops out at the paper's 16-stop 64-lane
    // instance; larger machines must be expressed hierarchically.
    check(topo.clusters <= 16, "a cluster ring holds at most 16 stops");
    check(topo.groups <= 16, "the group-level ring holds at most 16 stops");
  }
  check(effective_vlen() <= kMaxVlenBits, "VLEN exceeds the RVV 1.0 maximum");
  check(effective_vlen() % (64ull * total_lanes()) == 0,
        "VLEN must give each lane whole 64-bit words");
  check(unit_queue_depth >= 1 && seq_queue_depth >= 1, "queues must be non-empty");
  check(unit_queue_depth <= kMaxUnitQueueDepth, "unit queues hold at most 16 entries");
  check(div_cycles_per_elem >= 1, "divider occupancy must be at least 1");
}

std::string MachineConfig::name() const {
  return std::to_string(total_lanes()) +
         (kind == MachineKind::kAraXL ? "L-AraXL" : "L-Ara2");
}

MachineConfig MachineConfig::araxl(unsigned total_lanes) {
  check(total_lanes >= 8 && total_lanes % 4 == 0,
        "AraXL instances have at least two 4-lane clusters");
  const unsigned clusters = total_lanes / 4;
  if (clusters > 16) {
    // Past the 16-stop flat ring (64 lanes): hierarchical, 8-cluster
    // groups — the largest ring inside the 1.40 GHz timing corner.
    check(clusters % 8 == 0,
          "hierarchical AraXL lane counts must fill whole 8-cluster groups "
          "(use araxl_hier for other shapes)");
    return araxl_hier(clusters / 8, 8, 4);
  }
  MachineConfig cfg;
  cfg.kind = MachineKind::kAraXL;
  cfg.topo = Topology{clusters, 4};
  cfg.validate();
  return cfg;
}

MachineConfig MachineConfig::araxl_shaped(unsigned clusters,
                                          unsigned lanes_per_cluster) {
  MachineConfig cfg;
  cfg.kind = MachineKind::kAraXL;
  cfg.topo = Topology{clusters, lanes_per_cluster};
  cfg.validate();
  return cfg;
}

MachineConfig MachineConfig::araxl_hier(unsigned groups,
                                        unsigned clusters_per_group,
                                        unsigned lanes_per_cluster) {
  check(groups >= 1, "hierarchical AraXL needs at least one group");
  MachineConfig cfg;
  cfg.kind = MachineKind::kAraXL;
  cfg.topo = Topology{clusters_per_group, lanes_per_cluster, groups};
  cfg.validate();
  return cfg;
}

MachineConfig MachineConfig::ara2(unsigned lanes) {
  MachineConfig cfg;
  cfg.kind = MachineKind::kAra2;
  cfg.topo = Topology{1, lanes};
  cfg.validate();
  return cfg;
}

}  // namespace araxl
