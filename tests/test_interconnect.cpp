// Unit tests: component models — REQI, GLSU, RINGI, lane group, sequencer
// rules, memory addressing modes, CVA6 cost model, machine configuration.
#include <gtest/gtest.h>

#include "cluster/sequencer.hpp"
#include "common/contracts.hpp"
#include "interconnect/glsu.hpp"
#include "interconnect/reqi.hpp"
#include "interconnect/ring.hpp"
#include "lane/lane_group.hpp"
#include "machine/timing.hpp"
#include "scalar/cva6.hpp"

namespace araxl {
namespace {

TEST(Config, FactoriesAndNames) {
  const MachineConfig a = MachineConfig::araxl(64);
  EXPECT_EQ(a.topo.clusters, 16u);
  EXPECT_EQ(a.topo.lanes, 4u);
  EXPECT_EQ(a.name(), "64L-AraXL");
  const MachineConfig b = MachineConfig::ara2(16);
  EXPECT_EQ(b.topo.clusters, 1u);
  EXPECT_EQ(b.name(), "16L-Ara2");
}

TEST(Config, VlenRule) {
  // VLEN = 1024 bits x total lanes, capped at the RVV maximum.
  EXPECT_EQ(MachineConfig::araxl(8).effective_vlen(), 8192u);
  EXPECT_EQ(MachineConfig::araxl(16).effective_vlen(), 16384u);
  EXPECT_EQ(MachineConfig::araxl(64).effective_vlen(), 65536u);
  EXPECT_EQ(MachineConfig::ara2(16).effective_vlen(), 16384u);
}

TEST(Config, RejectsInvalid) {
  EXPECT_THROW(MachineConfig::ara2(32), ContractViolation);   // Ara2 caps at 16
  EXPECT_THROW(MachineConfig::araxl(4), ContractViolation);   // needs >= 2 clusters
  EXPECT_THROW(MachineConfig::araxl(12), ContractViolation);  // non-pow2 clusters
  // Clusters of 2-8 lanes are allowed for design-space exploration; 16 is
  // past the A2A scalability knee and rejected.
  EXPECT_NO_THROW(MachineConfig::araxl_shaped(8, 8));
  EXPECT_THROW(MachineConfig::araxl_shaped(4, 16), ContractViolation);
  EXPECT_THROW(MachineConfig::araxl_shaped(1, 4), ContractViolation);
}

TEST(Config, HierarchicalFactories) {
  // Past the 16-stop flat ring the lane factory becomes hierarchical:
  // 8-cluster groups at the paper's 4-lane building block.
  const MachineConfig h128 = MachineConfig::araxl(128);
  EXPECT_EQ(h128.topo.groups, 4u);
  EXPECT_EQ(h128.topo.clusters, 8u);
  EXPECT_EQ(h128.topo.lanes, 4u);
  EXPECT_EQ(h128.total_lanes(), 128u);
  EXPECT_EQ(h128.topo.total_clusters(), 32u);
  EXPECT_EQ(h128.name(), "128L-AraXL");
  EXPECT_EQ(h128.effective_vlen(), 65536u);  // RVV ceiling, more lanes

  const MachineConfig h256 = MachineConfig::araxl(256);
  EXPECT_EQ(h256.topo.groups, 8u);
  EXPECT_EQ(h256.topo.total_clusters(), 64u);

  const MachineConfig explicit_hier = MachineConfig::araxl_hier(2, 4, 4);
  EXPECT_EQ(explicit_hier.total_lanes(), 32u);
  // groups == 1 degenerates to the flat shape.
  EXPECT_EQ(MachineConfig::araxl_hier(1, 4, 4).topo,
            MachineConfig::araxl_shaped(4, 4).topo);

  // Single rings cap at 16 stops on either level.
  EXPECT_THROW(MachineConfig::araxl_shaped(32, 4), ContractViolation);
  EXPECT_THROW(MachineConfig::araxl_hier(32, 2, 4), ContractViolation);
  EXPECT_THROW(MachineConfig::araxl_hier(3, 4, 4), ContractViolation);  // pow2
  EXPECT_THROW(MachineConfig::araxl(96), ContractViolation);  // 3 groups
  // Lane counts that do not fill whole 8-cluster groups must be rejected,
  // never silently truncated to a smaller machine.
  EXPECT_THROW(MachineConfig::araxl(72), ContractViolation);
  EXPECT_THROW(MachineConfig::araxl(80), ContractViolation);
}

TEST(Config, MemBandwidthPerLane) {
  EXPECT_EQ(MachineConfig::araxl(64).mem_bytes_per_cycle(), 512u);
  EXPECT_EQ(MachineConfig::ara2(8).mem_bytes_per_cycle(), 64u);
}

TEST(Config, MaskLayoutPerKind) {
  EXPECT_EQ(MachineConfig::araxl(16).mask_layout(), MaskLayout::kLaneLocal);
  EXPECT_EQ(MachineConfig::ara2(16).mask_layout(), MaskLayout::kStandard);
}

TEST(Spec, PresetsMatchLegacyFlatNumbers) {
  // The descriptor presets must reproduce the paper-calibrated flat
  // latencies exactly (they gate the Fig. 6/7 reproduction).
  const InterconnectSpec xl = MachineConfig::araxl(64).interconnect();
  EXPECT_FALSE(xl.lumped);
  EXPECT_EQ(xl.broadcast_levels, 0u);
  EXPECT_EQ(xl.reqi_fwd_latency, 2u);
  EXPECT_EQ(xl.reqi_ack_latency, 6u);
  EXPECT_EQ(xl.glsu_load_latency, 5u);
  EXPECT_EQ(xl.glsu_store_latency, 3u);
  EXPECT_EQ(xl.ring_hop_latency, 1u);
  EXPECT_EQ(xl.bus_bytes, 512u);
  EXPECT_EQ(xl.max_ring_stops(), 16u);
  EXPECT_EQ(xl.total_ring_stops(), 16u);

  const InterconnectSpec a2 = MachineConfig::ara2(16).interconnect();
  EXPECT_TRUE(a2.lumped);
  EXPECT_EQ(a2.reqi_fwd_latency, 1u);
  EXPECT_EQ(a2.reqi_ack_latency, 4u);
  EXPECT_EQ(a2.glsu_load_latency, 2u);
  EXPECT_EQ(a2.glsu_store_latency, 2u);
  EXPECT_FALSE(a2.ring_present());
}

TEST(Spec, HierarchyAddsBroadcastAndShuffleStages) {
  // Each group level deepens the REQI broadcast tree (+1/direction => ack
  // +2) and adds a GLSU group-distribution stage (+2 load, +1 store).
  const InterconnectSpec flat = MachineConfig::araxl(64).interconnect();
  const InterconnectSpec h128 = MachineConfig::araxl(128).interconnect();
  EXPECT_EQ(h128.broadcast_levels, 2u);  // log2(4 groups)
  EXPECT_EQ(h128.reqi_fwd_latency, flat.reqi_fwd_latency + 2);
  EXPECT_EQ(h128.reqi_ack_latency, flat.reqi_ack_latency + 4);
  EXPECT_EQ(h128.glsu_load_latency, flat.glsu_load_latency + 4);
  EXPECT_EQ(h128.glsu_store_latency, flat.glsu_store_latency + 2);
  // A group hop spans the group floorplan: two local hops.
  EXPECT_EQ(h128.group_hop_latency, 2 * h128.ring_hop_latency);
  // Hierarchy keeps every single ring short — that is its point.
  EXPECT_EQ(h128.max_ring_stops(), 8u);
  EXPECT_EQ(h128.total_ring_stops(), 32u + 4u);

  // Register knobs and tree levels stack.
  MachineConfig knobbed = MachineConfig::araxl(128);
  knobbed.reqi_regs = 1;
  knobbed.glsu_regs = 4;
  knobbed.ring_regs = 1;
  const InterconnectSpec k = knobbed.interconnect();
  EXPECT_EQ(k.reqi_ack_latency, h128.reqi_ack_latency + 2);
  EXPECT_EQ(k.glsu_load_latency, h128.glsu_load_latency + 8);
  EXPECT_EQ(k.ring_hop_latency, 2u);
  EXPECT_EQ(k.group_hop_latency, 4u);
}

TEST(Reqi, RegisterCutsCostTwoCyclesOnAck) {
  // Paper §IV-C.b: +1 register => instruction acknowledged 2 cycles later.
  MachineConfig cfg = MachineConfig::araxl(64);
  const unsigned base = ReqiModel(cfg).ack_latency();
  cfg.reqi_regs = 1;
  EXPECT_EQ(ReqiModel(cfg).ack_latency(), base + 2);
  cfg.reqi_regs = 2;
  EXPECT_EQ(ReqiModel(cfg).ack_latency(), base + 4);
}

TEST(Reqi, Ara2HasShorterIssuePath) {
  const MachineConfig xl = MachineConfig::araxl(16);
  const MachineConfig a2 = MachineConfig::ara2(16);
  EXPECT_GT(ReqiModel(xl).ack_latency(), ReqiModel(a2).ack_latency());
  EXPECT_GT(ReqiModel(xl).fwd_latency(), ReqiModel(a2).fwd_latency());
}

TEST(Glsu, FourRegistersCostEightCycles) {
  // Paper §IV-C.a: +4 registers => +8 cycles request-response latency.
  MachineConfig cfg = MachineConfig::araxl(64);
  const unsigned base = GlsuModel(cfg).load_latency();
  cfg.glsu_regs = 4;
  EXPECT_EQ(GlsuModel(cfg).load_latency(), base + 8);
}

TEST(Glsu, Ara2SingleStageAlignShuffle) {
  // Ara2's A2A VLSU aligns+shuffles in one cycle; AraXL pays the 3-stage
  // GLSU pipeline on top of L2 latency.
  const MachineConfig xl = MachineConfig::araxl(16);
  const MachineConfig a2 = MachineConfig::ara2(16);
  EXPECT_GT(GlsuModel(xl).load_latency(), GlsuModel(a2).load_latency());
}

TEST(Glsu, HeadSkewTracksMisalignment) {
  const MachineConfig cfg = MachineConfig::araxl(16);  // 128 B bus
  const GlsuModel glsu(cfg);
  EXPECT_EQ(glsu.head_skew(0x1000), 0u);
  EXPECT_EQ(glsu.head_skew(0x1008), 8u);
  EXPECT_EQ(glsu.head_skew(0x107F), 0x7Fu);
}

TEST(Glsu, ClusterByteShareMatchesMapping) {
  const MachineConfig cfg = MachineConfig::araxl(16);
  const GlsuModel glsu(cfg);
  const VrfMapping map(cfg.topo, cfg.effective_vlen());
  for (const std::uint64_t vl : {1ull, 16ull, 100ull, 256ull}) {
    const auto share = glsu.cluster_byte_share(vl, 8);
    std::vector<std::uint64_t> expect(cfg.topo.clusters, 0);
    for (std::uint64_t i = 0; i < vl; ++i) expect[map.cluster_of(i)] += 8;
    EXPECT_EQ(share, expect) << "vl=" << vl;
  }
}

TEST(Ring, HopLatencyWithRegisters) {
  MachineConfig cfg = MachineConfig::araxl(64);
  EXPECT_EQ(RingModel(cfg).hop_latency(), 1u);
  cfg.ring_regs = 1;
  EXPECT_EQ(RingModel(cfg).hop_latency(), 2u);
}

TEST(Ring, ReductionTreeUsesLogSteps) {
  // Step s pays 2^s hops + one add: total (C-1)*hop + log2(C)*add.
  MachineConfig cfg = MachineConfig::araxl(64);  // C=16
  const RingModel ring(cfg);
  const Cycle expected = (16 - 1) * 1 + 4 * cfg.red_add_latency;
  EXPECT_EQ(ring.reduction_tree_cycles(), expected);
  cfg.ring_regs = 1;
  EXPECT_EQ(RingModel(cfg).reduction_tree_cycles(),
            (16 - 1) * 2 + 4 * cfg.red_add_latency);
}

TEST(Ring, AbsentOnAra2) {
  const MachineConfig cfg = MachineConfig::ara2(16);
  const RingModel ring(cfg);
  EXPECT_FALSE(ring.present());
  EXPECT_EQ(ring.reduction_tree_cycles(), 0u);
  EXPECT_EQ(ring.slide_start_penalty(1), 0u);
}

TEST(Ring, SlidePenaltiesGrowWithDistance) {
  const MachineConfig cfg = MachineConfig::araxl(64);
  const RingModel ring(cfg);
  EXPECT_EQ(ring.slide_start_penalty(1), 1u);    // one hop for slide-by-1
  EXPECT_EQ(ring.slide_start_penalty(-1), 1u);
  EXPECT_EQ(ring.slide_start_penalty(8), 2u);    // ceil(8/4) hops
  EXPECT_GE(ring.slide_start_penalty(1000), 15u);  // capped at C-1 hops
  EXPECT_FALSE(ring.long_slide(1));
  EXPECT_TRUE(ring.long_slide(5));
}

TEST(Ring, Slide1BoundaryTrafficFitsLinkBandwidth) {
  // One boundary element per occupied row per cluster: the 64-bit/cycle
  // neighbour links sustain slide-by-1 at full SLDU throughput (the design
  // argument of paper §III-B.4).
  const MachineConfig cfg = MachineConfig::araxl(64);
  const RingModel ring(cfg);
  const std::uint64_t vl = 4096;
  const std::uint64_t transfers = ring.slide1_boundary_elems(vl);
  const std::uint64_t local_cycles = vl / cfg.total_lanes();
  EXPECT_LE(transfers, local_cycles);
}

TEST(Ring, GroupBoundarySlidesPayGroupHops) {
  // 4 groups x 8 clusters x 4 lanes: slide-by-1 crosses one boundary in
  // the worst case (the two adjacent clusters sit in different groups).
  const MachineConfig h = MachineConfig::araxl(128);
  const RingModel ring(h);
  EXPECT_TRUE(ring.present());
  EXPECT_EQ(ring.hop_latency(), 1u);
  EXPECT_EQ(ring.group_hop_latency(), 2u);
  EXPECT_EQ(ring.slide_start_penalty(1), 2u);  // 1 hop, crossing
  // 8 hops = ceil(32/4): one full group away => 1 group crossing + 7 local.
  EXPECT_EQ(ring.slide_start_penalty(32), 7u * 1 + 1u * 2);
  // Capped at C_total - 1 = 31 hops => ceil(31/8) = 4 crossings.
  EXPECT_EQ(ring.slide_start_penalty(100000), 27u * 1 + 4u * 2);

  // A flat machine of the same total cluster count pays plain hops.
  const RingModel flat(MachineConfig::araxl(64));
  EXPECT_EQ(flat.group_hop_latency(), flat.hop_latency());
  EXPECT_EQ(flat.slide_start_penalty(1), 1u);
}

TEST(Ring, HierarchicalReductionTreeGainsGroupStages) {
  // 2 groups x 8 clusters: 3 per-group stages (1+2+4 hops) then one
  // group stage at group-hop latency.
  const MachineConfig h = MachineConfig::araxl_hier(2, 8, 4);
  const RingModel ring(h);
  const Cycle local = (1 + 2 + 4) * 1 + 3 * h.red_add_latency;
  const Cycle group = 1 * 2 + h.red_add_latency;
  EXPECT_EQ(ring.reduction_tree_cycles(), local + group);

  // Same total clusters flat: 4 stages, all at local hop latency — the
  // hierarchical tree trades the two longest flat stages (8- and 4-hop
  // spans... here 8-hop) for one short group stage.
  const RingModel flat(MachineConfig::araxl(64));
  EXPECT_EQ(flat.reduction_tree_cycles(),
            Cycle{(16 - 1) * 1} + 4 * h.red_add_latency);
}

TEST(Glsu, HierarchicalClusterByteShareMatchesMapping) {
  const MachineConfig cfg = MachineConfig::araxl(128);
  const GlsuModel glsu(cfg);
  const VrfMapping map(cfg.topo, cfg.effective_vlen());
  for (const std::uint64_t vl : {1ull, 16ull, 100ull, 1000ull}) {
    const auto share = glsu.cluster_byte_share(vl, 8);
    std::vector<std::uint64_t> expect(cfg.topo.total_clusters(), 0);
    for (std::uint64_t i = 0; i < vl; ++i) expect[map.cluster_of(i)] += 8;
    EXPECT_EQ(share, expect) << "vl=" << vl;
  }
}

TEST(LaneGroup, RatesScaleWithWidthAndLanes) {
  const MachineConfig cfg = MachineConfig::araxl(16);
  const LaneGroupModel lanes(cfg);
  EXPECT_EQ(lanes.rate256(Op::kVfaddVV, 8), 16u * 256);
  EXPECT_EQ(lanes.rate256(Op::kVfaddVV, 4), 32u * 256);  // SIMD packing
  EXPECT_EQ(lanes.rate256(Op::kVaddVV, 8), 16u * 256);
}

TEST(LaneGroup, DividerIsSlow) {
  const MachineConfig cfg = MachineConfig::araxl(16);
  const LaneGroupModel lanes(cfg);
  EXPECT_EQ(lanes.rate256(Op::kVfdivVV, 8),
            16u * 256 / cfg.div_cycles_per_elem);
}

TEST(LaneGroup, ChainLagsPositiveAndOrdered) {
  const MachineConfig cfg = MachineConfig::araxl(16);
  const LaneGroupModel lanes(cfg);
  EXPECT_GT(lanes.chain_lag(Unit::kFpu), lanes.chain_lag(Unit::kAlu));
  EXPECT_GT(lanes.chain_lag(Unit::kFpu), 0u);
  EXPECT_EQ(lanes.chain_lag(Unit::kNone), 0u);
}

TEST(SequencerRules, WriteGroups) {
  VInstr in;
  in.op = Op::kVfaddVV;
  in.vd = 8;
  EXPECT_EQ(write_group(in, 4), (std::pair<unsigned, unsigned>{8, 4}));
  in.op = Op::kVmfltVV;  // mask destination: single register
  EXPECT_EQ(write_group(in, 4), (std::pair<unsigned, unsigned>{8, 1}));
  in.op = Op::kVfredusum;
  EXPECT_EQ(write_group(in, 8), (std::pair<unsigned, unsigned>{8, 1}));
  in.op = Op::kVse;  // stores write no register
  EXPECT_EQ(write_group(in, 4).second, 0u);
}

TEST(SequencerRules, ReadGroupsIncludeMaskAndVdSource) {
  VInstr in;
  in.op = Op::kVfmaccVV;
  in.vd = 16;
  in.vs1 = 4;
  in.vs2 = 8;
  in.masked = true;
  const ReadGroups g = read_groups(in, 2);
  ASSERT_EQ(g.n, 4u);  // vs1, vs2, vd-as-source, v0
  EXPECT_EQ(g.base[0], 4u);
  EXPECT_EQ(g.base[1], 8u);
  EXPECT_EQ(g.base[2], 16u);
  EXPECT_EQ(g.base[3], 0u);
  EXPECT_EQ(g.count[3], 1u);
}

TEST(SequencerRules, SlideOffsets) {
  VInstr in;
  in.op = Op::kVfslide1down;
  EXPECT_EQ(slide_offset(in), 1);
  in.op = Op::kVfslide1up;
  EXPECT_EQ(slide_offset(in), -1);
  in.op = Op::kVslidedownVX;
  in.xs = 7;
  EXPECT_EQ(slide_offset(in), 7);
  in.op = Op::kVslideupVX;
  EXPECT_EQ(slide_offset(in), -7);
}

TEST(OpSpecMem, EveryMemoryOpHasExactlyOneMode) {
  // Strided and indexed accesses are the element-granular ones ("supported,
  // albeit at lower throughput", paper §III-A); OpSpec::mem names the mode
  // once for the timing engines, the batcher, disasm and the executor.
  EXPECT_EQ(op_spec(Op::kVle).mem, MemMode::kUnit);
  EXPECT_EQ(op_spec(Op::kVse).mem, MemMode::kUnit);
  EXPECT_EQ(op_spec(Op::kVlse).mem, MemMode::kStrided);
  EXPECT_EQ(op_spec(Op::kVsse).mem, MemMode::kStrided);
  EXPECT_EQ(op_spec(Op::kVluxei).mem, MemMode::kIndexed);
  EXPECT_EQ(op_spec(Op::kVsuxei).mem, MemMode::kIndexed);
  int memory_ops = 0;
  for (std::size_t i = 0; i < kNumOps; ++i) {
    const auto op = static_cast<Op>(i);
    const OpSpec& s = op_spec(op);
    const bool memory = s.reads_mem || s.writes_mem;
    EXPECT_EQ(s.mem != MemMode::kNone, memory) << s.mnemonic;
    if (!memory) continue;
    ++memory_ops;
    EXPECT_NE(s.reads_mem, s.writes_mem) << s.mnemonic;
    EXPECT_EQ(s.unit, s.reads_mem ? Unit::kLoad : Unit::kStore) << s.mnemonic;
    // Only an indexed op's footprint depends on register contents.
    VInstr in;
    in.op = op;
    in.addr = 0x1000;
    in.stride = -16;
    std::uint64_t lo = 0;
    std::uint64_t hi = 0;
    EXPECT_EQ(mem_range(in, 4, 8, &lo, &hi), s.mem != MemMode::kIndexed)
        << s.mnemonic;
  }
  EXPECT_EQ(memory_ops, 6);
}

TEST(Cva6, ScalarCosts) {
  const MachineConfig cfg = MachineConfig::araxl(16);
  const Cva6Model cva6(cfg);
  EXPECT_EQ(cva6.scalar_cost({ScalarOp::Kind::kCycles, 5}), 5u);
  EXPECT_EQ(cva6.scalar_cost({ScalarOp::Kind::kLoad, 1}), cfg.dcache_load_latency);
  EXPECT_EQ(cva6.scalar_cost({ScalarOp::Kind::kStore, 1}), 1u);
}

}  // namespace
}  // namespace araxl
