// In-flight vector instruction state tracked by the timing engine, plus
// the slab pool that owns it.
#ifndef ARAXL_MACHINE_INFLIGHT_HPP
#define ARAXL_MACHINE_INFLIGHT_HPP

#include <algorithm>
#include <array>
#include <cstdint>
#include <deque>
#include <vector>

#include "common/contracts.hpp"
#include "isa/instr.hpp"
#include "machine/config.hpp"
#include "sim/cycle.hpp"
#include "sim/pipe.hpp"
#include "sim/stats.hpp"

namespace araxl {

/// Chaining dependency on an older in-flight instruction.
///
/// Element i of the consumer needs element (i + offset) of the producer to
/// have been produced at least `lag` cycles ago (the producer unit's result
/// latency). `full` marks scalar-style dependencies (e.g. the vs1 seed of a
/// reduction) that require the producer to have finished entirely.
struct Dep {
  std::uint64_t producer = 0;   ///< producer instruction id
  std::uint32_t slot = 0;       ///< producer slot in the InflightPool
  std::int64_t offset = 0;
  unsigned lag = 0;
  bool full = false;
  /// Producer's unit ticks before the consumer's within a cycle; decides
  /// whether a same-cycle finish is already visible to `full` consumers.
  bool producer_ticks_first = false;
};

/// Progress phases of a reduction (paper §III-B.4): accumulate in the
/// lanes, combine across lanes, combine across clusters over the ring in a
/// log-tree, reduce the SIMD word, write back the scalar.
enum class RedPhase : std::uint8_t {
  kIntraLane,
  kInterLane,
  kInterCluster,
  kSimd,
  kWriteback,
  kDone,
};

struct Inflight {
  std::uint64_t id = 0;
  std::size_t prog_index = 0;  ///< index of `in` in Program::ops
  VInstr in{};
  const OpSpec* spec = nullptr;
  std::uint64_t vl = 0;       ///< element count captured at issue
  unsigned ew = 8;            ///< element bytes captured at issue
  Unit unit = Unit::kNone;

  Cycle issued_at = 0;         ///< accepted by CVA6 (trace)
  Cycle dispatched_at = 0;
  Cycle start_at = 0;          ///< earliest cycle the first result can appear
  Cycle first_result_at = kNeverCycle;  ///< first element produced (trace)
  Cycle completed_at = kNeverCycle;
  Cycle finished_at = kNeverCycle;  ///< cycle `produced` reached vl
  Cycle advanced_until = 0;    ///< cycles <= this are already simulated
  Cycle projected_done = kNeverCycle;  ///< reduction end-of-phases forecast

  std::uint64_t produced = 0;  ///< element results produced so far
  LaggedCounter hist;          ///< produced-count history for consumers
  std::uint64_t rate_acc = 0;  ///< fractional-throughput accumulator (x256)
  /// Element throughput x256, fixed at dispatch from op, ew, unit and slide
  /// amount (all serialized in loop-batching snapshots).
  std::uint64_t rate256 = 0;

  // Stall attribution (FPU-unit instructions only). `tape` mirrors every
  // `hist` record without the ring's eviction so the attributor can evaluate
  // per-cycle production inside arbitrarily long wakeup windows; `stall_acc`
  // accumulates the byte-slots charged while this instruction was the acting
  // head (or the blamed queue front), feeding the trace-span annotation.
  ProdTape tape;
  std::array<std::uint64_t, kNumStallReasons> stall_acc{};

  // Memory transfer state (loads/stores).
  std::uint64_t bytes_total = 0;
  std::uint64_t bytes_done = 0;
  std::uint64_t head_skew = 0;  ///< useless bytes in the first beat (misalignment)

  // Reduction phase machine.
  RedPhase red_phase = RedPhase::kIntraLane;
  Cycle red_phase_end = kNeverCycle;

  std::vector<Dep> deps;

  // Register claims (released at retirement). Up to four source groups:
  // vs1, vs2, vd-as-source, and the v0 mask.
  unsigned write_base = 0;
  unsigned write_count = 0;  ///< 0 when the op writes no register
  unsigned read_base[4] = {0, 0, 0, 0};
  unsigned read_count[4] = {0, 0, 0, 0};
  unsigned read_groups = 0;

  [[nodiscard]] bool finished_producing() const noexcept { return produced >= vl; }

  /// Returns the slot to dispatch-time defaults, keeping the deps capacity
  /// and hist storage so recycled slots allocate nothing.
  void reset() noexcept {
    id = 0;
    prog_index = 0;
    in = VInstr{};
    spec = nullptr;
    vl = 0;
    ew = 8;
    unit = Unit::kNone;
    issued_at = dispatched_at = start_at = 0;
    first_result_at = completed_at = finished_at = kNeverCycle;
    advanced_until = 0;
    projected_done = kNeverCycle;
    produced = 0;
    hist.clear();
    rate_acc = 0;
    rate256 = 0;
    tape.clear();
    stall_acc.fill(0);
    bytes_total = bytes_done = head_skew = 0;
    red_phase = RedPhase::kIntraLane;
    red_phase_end = kNeverCycle;
    deps.clear();
    write_base = write_count = 0;
    for (unsigned g = 0; g < 4; ++g) read_base[g] = read_count[g] = 0;
    read_groups = 0;
  }
};

/// One execution unit's in-order queue of pool slot ids, stored inline: a
/// queue holds at most unit_queue_depth entries (MachineConfig::validate
/// caps that at kMaxUnitQueueDepth), and every simulated cycle scans,
/// sizes and reads the front of every queue.
class UnitQueue {
 public:
  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }
  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] std::uint32_t front() const noexcept { return slots_[0]; }
  [[nodiscard]] const std::uint32_t* begin() const noexcept { return slots_.data(); }
  [[nodiscard]] const std::uint32_t* end() const noexcept {
    return slots_.data() + size_;
  }
  void push_back(std::uint32_t slot) {
    debug_check(size_ < slots_.size(), "unit queue deeper than kMaxUnitQueueDepth");
    slots_[size_++] = slot;
  }
  void pop_front() noexcept {
    std::copy(slots_.begin() + 1, slots_.begin() + size_, slots_.begin());
    --size_;
  }
  void clear() noexcept { size_ = 0; }

 private:
  std::array<std::uint32_t, kMaxUnitQueueDepth> slots_{};
  std::size_t size_ = 0;
};

/// Slab allocator for Inflight records, keyed by dense slot ids.
///
/// The dispatch path used to heap-allocate one Inflight (plus an
/// unordered_map node) per vector instruction; for event-driven sweeps that
/// allocator traffic dominates.  The pool recycles slots through a free
/// list, so steady-state dispatch touches no allocator at all, and `get`
/// resolves a (slot, id) reference in O(1) — a stale id (the producer
/// retired and the slot was recycled) resolves to nullptr, which is exactly
/// the "retired producers are fully available" contract `find` had.
class InflightPool {
 public:
  Inflight& alloc(std::uint64_t id, std::uint32_t* slot_out) {
    std::uint32_t slot;
    if (!free_.empty()) {
      slot = free_.back();
      free_.pop_back();
    } else {
      slot = static_cast<std::uint32_t>(slots_.size());
      slots_.emplace_back();
    }
    Inflight& instr = slots_[slot];
    instr.reset();
    instr.id = id;
    ++active_;
    *slot_out = slot;
    return instr;
  }

  void release(std::uint32_t slot) {
    debug_check(slot < slots_.size() && slots_[slot].id != 0,
                "releasing an empty inflight slot");
    slots_[slot].id = 0;
    free_.push_back(slot);
    --active_;
  }

  /// Slot contents when it still holds instruction `id`, else nullptr.
  [[nodiscard]] Inflight* get(std::uint32_t slot, std::uint64_t id) noexcept {
    Inflight& instr = slots_[slot];
    return instr.id == id ? &instr : nullptr;
  }
  [[nodiscard]] const Inflight* get(std::uint32_t slot,
                                    std::uint64_t id) const noexcept {
    const Inflight& instr = slots_[slot];
    return instr.id == id ? &instr : nullptr;
  }

  /// Occupied slot (unchecked id); precondition: slot is live.
  [[nodiscard]] Inflight& at(std::uint32_t slot) noexcept { return slots_[slot]; }
  [[nodiscard]] const Inflight& at(std::uint32_t slot) const noexcept {
    return slots_[slot];
  }

  [[nodiscard]] std::size_t active() const noexcept { return active_; }

  void clear() {
    // Keep the slabs; just mark every slot free.
    free_.clear();
    for (std::size_t s = slots_.size(); s-- > 0;) {
      slots_[s].id = 0;
      free_.push_back(static_cast<std::uint32_t>(s));
    }
    active_ = 0;
  }

 private:
  std::deque<Inflight> slots_;  ///< deque: stable addresses across growth
  std::vector<std::uint32_t> free_;
  std::size_t active_ = 0;
};

}  // namespace araxl

#endif  // ARAXL_MACHINE_INFLIGHT_HPP
