// Latency/queue building blocks for the interconnect models.
//
// `DelayLine` models a fixed-latency pipelined channel (one push per cycle,
// items pop `latency` cycles later).  `BoundedQueue` models an elastic
// buffer with backpressure.  Both are deliberately simple value types; the
// timing engine advances them explicitly each cycle.
#ifndef ARAXL_SIM_PIPE_HPP
#define ARAXL_SIM_PIPE_HPP

#include <cstddef>
#include <cstdint>
#include <deque>
#include <optional>
#include <utility>
#include <vector>

#include "common/contracts.hpp"
#include "sim/cycle.hpp"

namespace araxl {

/// Fixed-latency pipelined channel. Fully elastic in occupancy (it models a
/// register chain, one slot per cycle of latency is never exceeded because
/// the caller pushes at most once per cycle).
template <typename T>
class DelayLine {
 public:
  explicit DelayLine(Cycle latency) : latency_(latency) {}

  /// Latency in cycles between push and availability.
  [[nodiscard]] Cycle latency() const noexcept { return latency_; }
  void set_latency(Cycle latency) noexcept { latency_ = latency; }

  /// Enqueues `item` at time `now`; it becomes poppable at `now + latency`.
  void push(Cycle now, T item) { items_.emplace_back(now + latency_, std::move(item)); }

  /// True iff the head item has matured at time `now`.
  [[nodiscard]] bool ready(Cycle now) const {
    return !items_.empty() && items_.front().first <= now;
  }

  /// Pops the head item; precondition: ready(now).
  T pop(Cycle now) {
    check(ready(now), "DelayLine::pop on non-ready channel");
    T item = std::move(items_.front().second);
    items_.pop_front();
    return item;
  }

  [[nodiscard]] bool empty() const noexcept { return items_.empty(); }
  [[nodiscard]] std::size_t size() const noexcept { return items_.size(); }

 private:
  Cycle latency_;
  std::deque<std::pair<Cycle, T>> items_;
};

/// FIFO with a capacity bound; `try_push` fails (backpressure) when full.
template <typename T>
class BoundedQueue {
 public:
  explicit BoundedQueue(std::size_t capacity) : capacity_(capacity) {
    check(capacity_ > 0, "queue capacity must be positive");
  }

  [[nodiscard]] bool full() const noexcept { return items_.size() >= capacity_; }
  [[nodiscard]] bool empty() const noexcept { return items_.empty(); }
  [[nodiscard]] std::size_t size() const noexcept { return items_.size(); }
  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }

  /// Pushes if space is available; returns false when full.
  [[nodiscard]] bool try_push(T item) {
    if (full()) return false;
    items_.push_back(std::move(item));
    return true;
  }

  /// Reference to the oldest element; precondition: !empty().
  [[nodiscard]] T& front() {
    check(!empty(), "front() on empty queue");
    return items_.front();
  }
  [[nodiscard]] const T& front() const {
    check(!empty(), "front() on empty queue");
    return items_.front();
  }

  void pop() {
    check(!empty(), "pop() on empty queue");
    items_.pop_front();
  }

  /// Iteration support (e.g. for hazard scans over queued instructions).
  [[nodiscard]] auto begin() const noexcept { return items_.begin(); }
  [[nodiscard]] auto end() const noexcept { return items_.end(); }

 private:
  std::size_t capacity_;
  std::deque<T> items_;
};

/// Tracks recent samples of a monotonically increasing counter so a
/// consumer can ask "what was the producer's count `lag` cycles ago?" —
/// the mechanism behind result-latency-aware operand chaining.
///
/// The cycle-stepped engine records one (cycle, value) change point per
/// advancing cycle.  The event-driven engine instead records *piecewise-
/// linear segments*: one entry describes a whole run of cycles over which
/// the counter grew at a constant (possibly fractional num/den) rate, and
/// `value_at_lag` interpolates inside the segment with the same integer
/// floor arithmetic the per-cycle path would have produced.  Both entry
/// kinds coexist in one ring of up to kDepth entries; since segments
/// compress long runs, the retained history always covers the single-digit
/// chaining lags consumers ask about.
class LaggedCounter {
 public:
  static constexpr std::size_t kDepth = 64;

  /// Normalized view of the segment covering one query cycle, for
  /// closed-form consumers (the event engine's bulk advancement).
  struct Piece {
    std::uint64_t value = 0;   ///< counter value at the query cycle
    std::uint64_t num = 0;     ///< per-cycle growth numerator (0 = constant)
    std::uint64_t den = 1;     ///< growth denominator
    std::uint64_t acc = 0;     ///< accumulator phase at the query cycle
    Cycle grow_until = 0;      ///< last cycle this growth persists (if num > 0)
    Cycle change_at = kNeverCycle;  ///< first cycle a newer entry takes over
  };

  void clear() noexcept {
    head_ = 0;
    count_ = 0;
  }

  /// Records the counter value at cycle `now` (non-decreasing in both).
  void record(Cycle now, std::uint64_t value) {
    debug_check(count_ == 0 || value >= latest(), "counter must be monotonic");
    debug_check(count_ == 0 || now >= newest().hold, "time must be monotonic");
    if (count_ > 0 && newest().start == now && newest().hold == now) {
      newest() = Entry{now, value, 0, 1, 0, now};
      return;
    }
    push(Entry{now, value, 0, 1, 0, now});
  }

  /// Records a linear segment: for cycles w in [start, hold] the counter
  /// reads v0 + (acc + (w - start) * num) / den, constant afterwards until
  /// the next entry.  `v0` is the value after cycle `start`; acc < den.
  void record_ramp(Cycle start, std::uint64_t v0, std::uint64_t num,
                   std::uint64_t den, std::uint64_t acc, Cycle hold) {
    debug_check(den > 0 && acc < den, "ramp accumulator out of range");
    debug_check(hold >= start, "ramp must cover at least one cycle");
    debug_check(count_ == 0 || v0 >= latest(), "counter must be monotonic");
    debug_check(count_ == 0 || start > newest().hold, "time must be monotonic");
    if (count_ > 0) {
      // Extend a contiguous integer-slope run in place (keeps the ring
      // compact across fast-forward windows).
      Entry& n = newest();
      if (n.den == 1 && den == 1 && n.num == num && start == n.hold + 1 &&
          v0 == eval(n, n.hold) + num) {
        n.hold = hold;
        return;
      }
    }
    push(Entry{start, v0, num, den, acc, hold});
  }

  /// Value the counter had at (absolute) cycle `when`; 0 before history.
  [[nodiscard]] std::uint64_t value_at(Cycle when) const {
    for (std::size_t k = count_; k-- > 0;) {
      const Entry& e = ring_[(head_ + k) % kDepth];
      if (e.start <= when) return eval(e, when);
    }
    return 0;
  }

  /// Value the counter had at cycle `now - lag`; 0 before any history.
  [[nodiscard]] std::uint64_t value_at_lag(Cycle now, Cycle lag) const {
    if (lag > now) return 0;
    return value_at(now - lag);
  }

  /// Segment view at `when` for closed-form consumers.
  [[nodiscard]] Piece piece_at(Cycle when) const {
    for (std::size_t k = count_; k-- > 0;) {
      const Entry& e = ring_[(head_ + k) % kDepth];
      if (e.start > when) continue;
      Piece p;
      p.change_at = k + 1 < count_ ? ring_[(head_ + k + 1) % kDepth].start
                                   : kNeverCycle;
      p.value = eval(e, when);
      if (when < e.hold) {
        p.num = e.num;
        p.den = e.den;
        p.acc = (e.acc + (when - e.start) * e.num) % e.den;
        p.grow_until = e.hold;
      }
      return p;
    }
    Piece p;  // before any history: constant zero until the first entry
    p.change_at = count_ > 0 ? ring_[head_ % kDepth].start : kNeverCycle;
    return p;
  }

  [[nodiscard]] std::uint64_t latest() const noexcept {
    return count_ == 0 ? 0 : eval(ring_[(head_ + count_ - 1) % kDepth],
                                  ring_[(head_ + count_ - 1) % kDepth].hold);
  }

  /// Moves the whole recorded history `delta` cycles into the future — the
  /// loop batcher relabels a steady-state instruction's history when it
  /// fast-forwards K whole iterations (values are per-instruction produced
  /// counts and stay untouched; only the time axis shifts).
  void shift_time(Cycle delta) noexcept {
    for (std::size_t k = 0; k < count_; ++k) {
      Entry& e = ring_[(head_ + k) % kDepth];
      e.start += delta;
      e.hold += delta;
    }
  }

  /// Appends a canonical time-relative serialization of the history to
  /// `out` (cycles rebased to `base`): two histories serialize equally iff
  /// every consumer-visible query agrees under the same rebasing. Used by
  /// the loop batcher's steady-state snapshot comparison.
  void serialize_rel(Cycle base, std::vector<std::uint64_t>* out) const {
    out->push_back(count_);
    for (std::size_t k = 0; k < count_; ++k) {
      const Entry& e = ring_[(head_ + k) % kDepth];
      out->push_back(static_cast<std::uint64_t>(
          static_cast<std::int64_t>(e.start) - static_cast<std::int64_t>(base)));
      out->push_back(e.value);
      out->push_back(e.num);
      out->push_back(e.den);
      out->push_back(e.acc);
      out->push_back(static_cast<std::uint64_t>(
          static_cast<std::int64_t>(e.hold) - static_cast<std::int64_t>(base)));
    }
  }

 private:
  struct Entry {
    Cycle start = 0;           ///< first cycle of the segment
    std::uint64_t value = 0;   ///< counter value after cycle `start`
    std::uint64_t num = 0;     ///< per-cycle increment numerator
    std::uint64_t den = 1;     ///< denominator (1 = integer slope)
    std::uint64_t acc = 0;     ///< accumulator phase at `start` (< den)
    Cycle hold = 0;            ///< last growing cycle; constant afterwards
  };

  [[nodiscard]] static std::uint64_t eval(const Entry& e, Cycle w) noexcept {
    const Cycle cw = w < e.hold ? w : e.hold;
    return e.value + (e.acc + (cw - e.start) * e.num) / e.den;
  }

  [[nodiscard]] Entry& newest() { return ring_[(head_ + count_ - 1) % kDepth]; }

  void push(const Entry& e) {
    if (count_ == kDepth) {
      head_ = (head_ + 1) % kDepth;
      --count_;
    }
    ring_[(head_ + count_) % kDepth] = e;
    ++count_;
  }

  Entry ring_[kDepth] = {};
  std::size_t head_ = 0;
  std::size_t count_ = 0;
};

/// Unbounded production log for stall attribution. Mirrors every history
/// record an FPU instruction makes into its `LaggedCounter`, but without the
/// ring's eviction: the stall attributor asks "how many results existed at
/// cycle w" for windows that can span arbitrarily many recorded pieces (the
/// event engine's fast-forward can overshoot a window by hundreds of
/// per-cycle divider records), and the ring legitimately forgets anything
/// older than its 64 retained entries. The tape is pruned after each
/// attribution step, so its live length is bounded by one attribution window
/// plus one prune batch; `base_*` preserve the pre-prune value so queries at
/// or before the pruned boundary still answer exactly.
class ProdTape {
 public:
  void clear() noexcept {
    pieces_.clear();
    base_cycle_ = 0;
    base_value_ = 0;
  }

  /// Mirrors LaggedCounter::record (point sample at `now`).
  void record(Cycle now, std::uint64_t value) {
    if (!pieces_.empty() && pieces_.back().start == now &&
        pieces_.back().hold == now) {
      pieces_.back() = Entry{now, value, 0, 1, 0, now};
      return;
    }
    pieces_.push_back(Entry{now, value, 0, 1, 0, now});
  }

  /// Mirrors LaggedCounter::record_ramp (same merge rule, same evaluation).
  void record_ramp(Cycle start, std::uint64_t v0, std::uint64_t num,
                   std::uint64_t den, std::uint64_t acc, Cycle hold) {
    if (!pieces_.empty()) {
      Entry& n = pieces_.back();
      if (n.den == 1 && den == 1 && n.num == num && start == n.hold + 1 &&
          v0 == eval(n, n.hold) + num) {
        n.hold = hold;
        return;
      }
    }
    pieces_.push_back(Entry{start, v0, num, den, acc, hold});
  }

  /// Value of the counter at cycle `when`; `base_value_` before history.
  [[nodiscard]] std::uint64_t value_at(Cycle when) const {
    for (std::size_t k = pieces_.size(); k-- > 0;) {
      const Entry& e = pieces_[k];
      if (e.start <= when) return eval(e, when);
    }
    return when >= base_cycle_ || base_cycle_ == 0 ? base_value_ : 0;
  }

  /// Drops pieces whose effect is fully captured at `through` (every future
  /// query will be at a later cycle). Keeps the value at `through` as the
  /// new base so boundary queries (`value_at(through)`) still answer. A
  /// piece that is kept answers its queries exactly too, so pruning waits
  /// until kPruneBatch pieces have built up and then drops them at once:
  /// the per-cycle oracle pays one size test per step instead of a query.
  void prune(Cycle through) {
    if (pieces_.size() < kPruneBatch) return;
    base_value_ = value_at(through);
    base_cycle_ = through;
    // A piece is droppable once a successor covers every cycle after
    // `through` (queries walk newest-first and never look past it again).
    std::size_t drop = 0;
    while (drop + 1 < pieces_.size() && pieces_[drop + 1].start <= through + 1) {
      ++drop;
    }
    pieces_.erase(pieces_.begin(),
                  pieces_.begin() + static_cast<std::ptrdiff_t>(drop));
  }

  /// Time-axis relabel for the loop batcher (mirrors LaggedCounter).
  void shift_time(Cycle delta) noexcept {
    base_cycle_ += delta;
    for (Entry& e : pieces_) {
      e.start += delta;
      e.hold += delta;
    }
  }

 private:
  struct Entry {
    Cycle start = 0;
    std::uint64_t value = 0;
    std::uint64_t num = 0;
    std::uint64_t den = 1;
    std::uint64_t acc = 0;
    Cycle hold = 0;
  };

  [[nodiscard]] static std::uint64_t eval(const Entry& e, Cycle w) noexcept {
    const Cycle cw = w < e.hold ? w : e.hold;
    return e.value + (e.acc + (cw - e.start) * e.num) / e.den;
  }

  static constexpr std::size_t kPruneBatch = 32;

  std::vector<Entry> pieces_;
  Cycle base_cycle_ = 0;
  std::uint64_t base_value_ = 0;
};

}  // namespace araxl

#endif  // ARAXL_SIM_PIPE_HPP
