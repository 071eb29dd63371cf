// Instruction-level timing trace.
//
// When a trace sink is attached to Machine::run, the timing engine records
// one record per vector instruction: issue (CVA6), dispatch (sequencer ->
// unit queue), first result, and completion, plus the executing unit. The
// Gantt renderer turns a window of the trace into an ASCII timeline —
// the fastest way to see chaining, unit overlap and interface stalls.
#ifndef ARAXL_TRACE_TRACE_HPP
#define ARAXL_TRACE_TRACE_HPP

#include <string>
#include <vector>

#include "sim/cycle.hpp"
#include "sim/stats.hpp"

namespace araxl {

struct TraceRecord {
  std::uint64_t id = 0;       ///< in-flight id (monotonic in dispatch order)
  std::uint64_t prog_index = 0;  ///< index of the op in Program::ops
  std::string text;           ///< disassembly
  Unit unit = Unit::kNone;
  std::uint64_t vl = 0;
  Cycle issued = 0;           ///< accepted by CVA6
  Cycle dispatched = 0;       ///< entered its unit queue
  Cycle first_result = 0;     ///< first element produced (0 if none)
  Cycle completed = 0;        ///< retired
  /// Dominant stall reason charged to this instruction's lifetime window
  /// (index into StallReason; kNumStallReasons when nothing was charged)
  /// and the byte-slots charged under it — the "why was this span long"
  /// annotation the Perfetto exporter surfaces.
  std::uint8_t stall_reason = static_cast<std::uint8_t>(kNumStallReasons);
  std::uint64_t stall_slots = 0;
};

/// Engine-level instants worth a timeline marker: scheduler wakeups and
/// the batching decisions (engage / clamp / reject). Recorded only when a
/// trace sink opts in (`enable_markers`) — the default-off gate keeps the
/// plain tracing path and the replayed-trace byte-identity contracts
/// untouched.
enum class SimMarkerKind : std::uint8_t {
  kWakeup = 0,    ///< one scheduler wakeup (arg: in-flight occupancy)
  kBatchEngage,   ///< apply_batch retired iterations (arg: loop iterations)
  kBatchClamp,    ///< a batch was clamped short of the region end
                  ///< (arg: loop iterations)
  kBatchReject,   ///< batching declined (arg: BatchReject reason index)
  kBatchWarmup,   ///< engage whose snapshots matched only after projecting
                  ///< timing-inert warmup fields (arg: loop iterations)
};

struct SimMarker {
  Cycle cycle = 0;
  SimMarkerKind kind = SimMarkerKind::kWakeup;
  std::uint64_t arg = 0;
};

class InstrTrace {
 public:
  void add(TraceRecord rec) { records_.push_back(std::move(rec)); }
  void clear() {
    records_.clear();
    markers_.clear();
  }

  [[nodiscard]] const std::vector<TraceRecord>& records() const noexcept {
    return records_;
  }
  [[nodiscard]] std::size_t size() const noexcept { return records_.size(); }

  /// Opts this trace into engine marker collection (wakeups, batching
  /// decisions). Off by default: markers are a timeline-export feature,
  /// not part of the per-instruction record contract.
  void enable_markers() noexcept { markers_enabled_ = true; }
  [[nodiscard]] bool markers_enabled() const noexcept {
    return markers_enabled_;
  }
  void mark(Cycle cycle, SimMarkerKind kind, std::uint64_t arg = 0) {
    if (markers_enabled_) markers_.push_back({cycle, kind, arg});
  }
  [[nodiscard]] const std::vector<SimMarker>& markers() const noexcept {
    return markers_;
  }

  /// ASCII Gantt chart of records whose lifetime intersects
  /// [from_cycle, to_cycle); `width` columns of timeline. '.' marks queue
  /// wait, '=' execution, '#' the first-result cycle.
  [[nodiscard]] std::string gantt(Cycle from_cycle, Cycle to_cycle,
                                  unsigned width = 80,
                                  std::size_t max_rows = 40) const;

 private:
  std::vector<TraceRecord> records_;
  std::vector<SimMarker> markers_;
  bool markers_enabled_ = false;
};

}  // namespace araxl

#endif  // ARAXL_TRACE_TRACE_HPP
