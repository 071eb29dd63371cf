// Run statistics collected by the timing engine. These counters are the
// measurement interface of the whole reproduction: FPU utilization,
// DP-FLOP/cycle, and the per-unit busy breakdown that the paper's Figures 6
// and 7 are built from.
#ifndef ARAXL_SIM_STATS_HPP
#define ARAXL_SIM_STATS_HPP

#include <algorithm>
#include <array>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>

#include "sim/cycle.hpp"

namespace araxl {

/// Execution units of a vector cluster (aggregated machine-wide by the
/// timing engine; see README, "Modeling notes").
enum class Unit : std::uint8_t {
  kNone = 0,  // vsetvli and other non-executing ops
  kFpu,       // FMA-capable floating-point pipeline (one per lane)
  kAlu,       // integer/move/merge pipeline (one per lane)
  kLoad,      // VLSU load path (through the GLSU on AraXL)
  kStore,     // VLSU store path
  kSldu,      // slide unit (ring-connected on AraXL)
  kMasku,     // mask unit
};

inline constexpr std::size_t kNumUnits = 7;

/// Human-readable unit name ("fpu", "load", ...).
std::string_view unit_name(Unit u);

/// Why steady-state loop batching declined to fast-forward at a period
/// boundary. Every rejection in the event engine is counted under exactly
/// one of these, which is the diagnosis interface for "batched_iterations
/// is 0 on this row" (see `araxl stats` and the trace markers).
enum class BatchReject : std::uint8_t {
  kAddrProgression = 0,  ///< a mem op's address walk breaks its per-op
                         ///< arithmetic progression at a boundary that is
                         ///< not a nested-loop row end (counted once per
                         ///< region; row ends clamp instead: batch_clamps)
  kLivenessGate,         ///< an in-flight op is still < 1 period into the
                         ///< region, so no whole iteration can retire
  kSnapshotMismatch,     ///< consecutive period-boundary snapshots differ
                         ///< (machine not in steady state yet)
  kVlTail,               ///< the region ends on a smaller vsetvli grant
                         ///< (strip-mine tail iteration)
  kGrantChange,          ///< the region ends on a vsetvli whose vtype/grant
                         ///< changes (not a tail — a different loop shape)
};

inline constexpr std::size_t kNumBatchRejects = 5;

/// Stable short name for a rejection reason ("addr_progression", ...);
/// used as the JSON/CSV column suffix and the metric/trace-marker label.
std::string_view batch_reject_name(BatchReject r);

/// Why a (cycle × lane-FPU byte-slot) did not carry a result. Every slot of
/// every executed cycle is attributed to exactly one reason (or to
/// `fpu_busy_slots` when an FPU was producing into it), so the taxonomy is a
/// partition: sum(stall_cycles[]) + fpu_busy_slots == cycles * total_lanes * 8.
/// Both timing kernels compute the attribution bit-identically (differential
/// tests demand it), which is what lets `araxl report` explain a utilization
/// number instead of merely quoting it.
enum class StallReason : std::uint8_t {
  kIssuePressure = 0,     ///< no FPU work in flight: frontend/issue/dispatch
                          ///< could not keep the FPUs fed (Fig. 7's REQI
                          ///< pressure at scale lands here)
  kRawDependency,         ///< the acting FPU op exists but is rate-limited by
                          ///< a chained non-mem, non-slide producer (RAW)
  kStructuralUnit,        ///< the acting FPU op is dispatched but still in its
                          ///< fixed unit start-up latency, or only non-FPU
                          ///< arithmetic (ALU) work is in flight
  kMemLatency,            ///< waiting on the first beat of an in-flight load
                          ///< (GLSU/L2 latency, not throughput)
  kMemBandwidth,          ///< a load producer is streaming but its byte/cycle
                          ///< rate caps FPU progress (or only mem ops are in
                          ///< flight past their first beat)
  kReductionSlideLatency, ///< inter-lane/inter-cluster reduction or slide
                          ///< phases (ring latency) gate progress
  kDrainTail,             ///< program fully issued and machine empty of
                          ///< FPU-feeding work: the final writeback/retire
                          ///< drain of the last ops
};

inline constexpr std::size_t kNumStallReasons = 7;

/// Stable short name for a stall reason ("issue_pressure", ...); used as the
/// JSON/CSV key, the metric name suffix and the trace-span annotation.
std::string_view stall_reason_name(StallReason r);

/// Counters for one simulated program run.
struct RunStats {
  Cycle cycles = 0;                  ///< total runtime in cycles
  std::uint64_t total_lanes = 0;     ///< lanes × clusters of the machine
  std::uint64_t vinstrs = 0;         ///< vector instructions issued
  std::uint64_t scalar_ops = 0;      ///< scalar (CVA6) operations retired
  std::uint64_t flops = 0;           ///< DP-FLOP executed (FMA counts 2)
  std::uint64_t fpu_result_elems = 0;///< element results produced by FPUs
  std::uint64_t mem_read_bytes = 0;  ///< bytes read from L2
  std::uint64_t mem_write_bytes = 0; ///< bytes written to L2
  std::uint64_t issue_stall_cycles = 0;  ///< CVA6 cycles stalled on REQI ack
  std::uint64_t scalar_wait_cycles = 0;  ///< CVA6 cycles waiting on vector results
  std::array<std::uint64_t, kNumUnits> unit_busy_elems{};  ///< element slots per unit

  // ---- cycle-attribution stall taxonomy (byte-slot units) -----------------
  // One lane-cycle is 8 byte-slots (a lane datapath is 64 bits wide). The
  // two counters below partition the whole slot universe of a run:
  //   sum(stall_cycles[]) + fpu_busy_slots == cycles * total_lanes * 8
  // For a pure-FP64 kernel this divides down to the element-level identity
  // sum/8 + fpu_result_elems == cycles * total_lanes. Byte-slots (not
  // elements) keep the partition exact for SEW<64 and widening ops, where a
  // lane produces more than one element per cycle. Both counters are
  // measurements, not provenance: the oracle, the event engine, and batched
  // runs must agree bit for bit (they are inside operator==).
  std::array<std::uint64_t, kNumStallReasons> stall_cycles{};  ///< lost byte-slots per reason
  std::uint64_t fpu_busy_slots = 0;  ///< byte-slots that carried an FPU result

  // ---- engine provenance (how the run was simulated, not what it did) -----
  // Excluded from operator== on purpose: the cycle-stepped oracle touches
  // every cycle while the event engine wakes up orders of magnitude less
  // often, yet both must agree on every counter above. Reporters zero these
  // by default so caches/shards/worker-count `cmp` contracts keep holding.
  std::uint64_t wakeups_total = 0;        ///< scheduler wakeups (oracle: cycles)
  std::uint64_t batched_iterations = 0;   ///< loop iterations fast-forwarded
                                          ///< by steady-state batching
  /// Batching rejections by reason, indexed by BatchReject. Like the two
  /// counters above these are event-engine provenance: the oracle never
  /// attempts batching, so its array stays zero.
  std::array<std::uint64_t, kNumBatchRejects> batch_rejects{};
  /// Engagements whose boundary snapshots matched only after canonicalizing
  /// timing-inert fields (warmup fast-forward projected past the fill
  /// transient instead of waiting for it to drain).
  std::uint64_t warmup_projected = 0;
  /// Batches clamped short of the region end by a per-op progression break
  /// (nested-loop row boundary): the batch retires up to the break and the
  /// batcher re-arms on the far side.
  std::uint64_t batch_clamps = 0;

  /// Fraction of lane-FPU slots that produced a valid result — the paper's
  /// FPU-utilization metric (Fig. 6 lines, Fig. 7 drops).
  [[nodiscard]] double fpu_util() const {
    if (cycles == 0 || total_lanes == 0) return 0.0;
    return static_cast<double>(fpu_result_elems) /
           (static_cast<double>(cycles) * static_cast<double>(total_lanes));
  }

  /// Achieved DP-FLOP per cycle (paper's performance metric before the
  /// frequency model is applied).
  [[nodiscard]] double flop_per_cycle() const {
    return cycles == 0 ? 0.0 : static_cast<double>(flops) / static_cast<double>(cycles);
  }

  /// GFLOPS at a given clock frequency in GHz.
  [[nodiscard]] double gflops(double freq_ghz) const { return flop_per_cycle() * freq_ghz; }

  /// Multi-line human-readable dump (used by examples).
  [[nodiscard]] std::string summary() const;

  /// Equality over the *measurement* words of kRunStatsFields: the
  /// event-driven engine must reproduce the cycle-stepped oracle's counters
  /// bit for bit (differential tests). The provenance words (wakeups_total,
  /// batched_iterations, batch_rejects, batch_clamps, warmup_projected)
  /// legitimately differ between engines and are not compared.
  friend bool operator==(const RunStats& a, const RunStats& b);
};

/// Number of 64-bit words in a RunStats (34 today).
inline constexpr std::size_t kRunStatsWords = sizeof(RunStats) / sizeof(std::uint64_t);

// ---- the field table ---------------------------------------------------------
// Every serializer, reader, operator== and the batched K-times delta loop
// over kRunStatsFields instead of naming members, so adding a counter is one
// member plus one row. The rows are in report order: the store line, the
// report JSON "stats" object and the report CSV opt-in block each emit a
// filter of it (`araxl stats --csv` lists the scalar provenance rows first).

/// Facts about one RunStats member (bits of StatField::flags).
enum StatFlag : unsigned {
  /// How the run was simulated, not what it did: outside operator== and
  /// the batched delta (the oracle and the event engine differ here).
  kStatProvenance = 1u << 0,
  /// Reports write 0 unless --provenance (ReportOptions::live_provenance),
  /// so warm/cold, sharded and oracle reports stay `cmp`-identical.
  kStatOptIn = 1u << 1,
  /// Newer than the seed schema: a reader takes a missing key as 0 (older
  /// records lack it). Other fields are required.
  kStatTolerant = 1u << 2,
  /// Persisted in the store but absent from the report "stats" object
  /// (the report carries it in "config").
  kStatStoreOnly = 1u << 3,
};

/// One RunStats member: a scalar word or a fixed array of words.
struct StatField {
  std::string_view key;  ///< JSON key; also the CSV column of a scalar
  std::span<std::uint64_t> (*words_of)(RunStats&);
  std::size_t count;  ///< words per record (1 for a scalar)
  /// Element names of an array member (nullptr for a scalar): the JSON
  /// object keys in reports, the CSV column suffixes after `csv_prefix`.
  std::string_view (*elem_name)(std::size_t);
  std::string_view csv_prefix;
  /// Metrics-registry counter fed at run end ("" = not mirrored); for an
  /// array, the prefix the element name is appended to.
  std::string_view metric;
  unsigned flags;

  [[nodiscard]] bool measurement() const { return (flags & kStatProvenance) == 0; }
  [[nodiscard]] bool opt_in() const { return (flags & kStatOptIn) != 0; }
  [[nodiscard]] bool tolerant() const { return (flags & kStatTolerant) != 0; }
  [[nodiscard]] bool in_report() const { return (flags & kStatStoreOnly) == 0; }
  [[nodiscard]] bool is_array() const { return elem_name != nullptr; }

  [[nodiscard]] std::span<std::uint64_t> words(RunStats& s) const { return words_of(s); }
  [[nodiscard]] std::span<const std::uint64_t> words(const RunStats& s) const {
    return words_of(const_cast<RunStats&>(s));  // read-only view
  }
  /// Name of word `i`: the element name of an array, else the key.
  [[nodiscard]] std::string_view word_name(std::size_t i) const {
    return is_array() ? elem_name(i) : key;
  }
};

template <auto M>
std::span<std::uint64_t> stat_words(RunStats& s) {
  auto& m = s.*M;
  if constexpr (std::is_same_v<std::remove_cvref_t<decltype(m)>, std::uint64_t>) {
    return {&m, 1};
  } else {
    return m;
  }
}

/// Row of member `M`; an array member also gives its element names and the
/// CSV column prefix they follow.
template <auto M>
constexpr StatField stat_field(std::string_view key, unsigned flags,
                               std::string_view metric = {},
                               std::string_view (*elem_name)(std::size_t) = nullptr,
                               std::string_view csv_prefix = {}) {
  return {key,       &stat_words<M>,
          sizeof(std::declval<RunStats&>().*M) / sizeof(std::uint64_t),
          elem_name, csv_prefix, metric, flags};
}

template <class E, std::string_view (*Name)(E)>
std::string_view stat_elem_name(std::size_t i) {
  return Name(static_cast<E>(i));
}

/// Engine telemetry: provenance, opt-in, and absent from older records.
inline constexpr unsigned kStatTelemetry = kStatProvenance | kStatOptIn | kStatTolerant;

inline constexpr std::array kRunStatsFields = {
    stat_field<&RunStats::cycles>("cycles", 0, "engine.cycles"),
    stat_field<&RunStats::total_lanes>("total_lanes", kStatStoreOnly),
    stat_field<&RunStats::vinstrs>("vinstrs", 0),
    stat_field<&RunStats::scalar_ops>("scalar_ops", 0),
    stat_field<&RunStats::flops>("flops", 0),
    stat_field<&RunStats::fpu_result_elems>("fpu_result_elems", 0),
    stat_field<&RunStats::mem_read_bytes>("mem_read_bytes", 0),
    stat_field<&RunStats::mem_write_bytes>("mem_write_bytes", 0),
    stat_field<&RunStats::issue_stall_cycles>("issue_stall_cycles", 0),
    stat_field<&RunStats::scalar_wait_cycles>("scalar_wait_cycles", 0),
    stat_field<&RunStats::unit_busy_elems>("unit_busy_elems", 0, {},
                                           stat_elem_name<Unit, unit_name>),
    stat_field<&RunStats::wakeups_total>("wakeups_total", kStatTelemetry,
                                         "engine.wakeups"),
    stat_field<&RunStats::batched_iterations>("batched_iterations", kStatTelemetry,
                                              "engine.batched_iterations"),
    stat_field<&RunStats::batch_rejects>(
        "batch_rejects", kStatTelemetry, "engine.batch.reject.",
        stat_elem_name<BatchReject, batch_reject_name>, "reject_"),
    stat_field<&RunStats::batch_clamps>("batch_clamps", kStatTelemetry,
                                        "engine.batch.clamps"),
    stat_field<&RunStats::warmup_projected>("warmup_projected", kStatTelemetry,
                                            "engine.batch.warmup_projected"),
    stat_field<&RunStats::stall_cycles>(
        "stall_cycles", kStatOptIn | kStatTolerant, "engine.stall.",
        stat_elem_name<StallReason, stall_reason_name>, "stall_"),
    stat_field<&RunStats::fpu_busy_slots>("fpu_busy_slots", kStatOptIn | kStatTolerant),
};

// A RunStats member without a row fails here (like kConfigSchemaVersion's
// tripwire): every word must be serialized, read and compared somewhere.
static_assert(
    [] {
      std::size_t n = 0;
      for (const StatField& f : kRunStatsFields) n += f.count;
      return n;
    }() == kRunStatsWords,
    "every RunStats word needs a kRunStatsFields row");

inline bool operator==(const RunStats& a, const RunStats& b) {
  return std::ranges::all_of(kRunStatsFields, [&](const StatField& f) {
    return !f.measurement() || std::ranges::equal(f.words(a), f.words(b));
  });
}

}  // namespace araxl

#endif  // ARAXL_SIM_STATS_HPP
