// Physical Vector Register File.
//
// Lane storage is organized exactly as in the hardware: each (cluster,
// lane) pair owns a chunk holding its slice of all 32 architectural
// registers (e.g. 128 B x 32 = 4 KiB per lane at VLEN = 1024 bits/lane).
// All functional reads/writes resolve through the element mapping, so the
// mapping and layout logic is exercised by every simulated instruction.
//
// On top of the lane storage sits a *lazy packed mirror*: one
// element-order image per architectural register, tagged with the element
// width it was packed at. Whole-register unit-stride streams (the bulk
// load/store and bulk-arithmetic fast paths) read and write the mirror
// with a single memcpy; the lane-interleaved transpose is deferred until
// something actually touches lane bytes (per-element access at another
// width, mask bits, layout introspection), at which point the dirty
// mirror is flushed through the same mapped walk as before. Values and
// final lane bytes are identical either way — only *when* the transpose
// happens changes — so the hardware-layout tests and both timing engines
// see exactly the bytes they always did.
#ifndef ARAXL_VRF_VRF_HPP
#define ARAXL_VRF_VRF_HPP

#include <array>
#include <bit>
#include <cstdint>
#include <cstring>
#include <vector>

#include "vrf/layout.hpp"
#include "vrf/mapping.hpp"

namespace araxl {

class Vrf {
 public:
  Vrf(Topology topo, std::uint64_t vlen_bits, MaskLayout mask_layout);

  [[nodiscard]] const VrfMapping& mapping() const noexcept { return map_; }
  [[nodiscard]] MaskLayout mask_layout() const noexcept { return mask_layout_; }

  // ---- raw element access (idx counts from base_vreg across LMUL) --------
  // Inline, with fixed-size copies per element width: every functional
  // element read/write funnels through these, and a variable-length memcpy
  // would cost a libc call per element. When the register's packed mirror
  // is valid at this width the element is served from it directly (packed
  // offset is shift/mask math); otherwise a dirty mirror is flushed first
  // so the lane bytes are current.
  [[nodiscard]] std::uint64_t read_elem(unsigned base_vreg, std::uint64_t idx,
                                        unsigned ew_bytes) const {
    const VregLoc loc = map_.element_loc(base_vreg, idx, ew_bytes);
    const std::uint8_t* p;
    if (mirror_state_[loc.vreg] != MirrorState::kInvalid &&
        mirror_ew_[loc.vreg] == ew_bytes) {
      const std::uint64_t j = idx & (map_.elems_per_reg(ew_bytes) - 1);
      p = mirror_.data() + loc.vreg * reg_bytes_ + j * ew_bytes;
    } else {
      flush_mirror(loc.vreg);
      p = &bytes_[chunk_index(loc.cluster, loc.lane, loc.vreg, loc.byte_offset)];
    }
    std::uint64_t bits = 0;
    switch (ew_bytes) {
      case 1: std::memcpy(&bits, p, 1); break;
      case 2: std::memcpy(&bits, p, 2); break;
      case 4: std::memcpy(&bits, p, 4); break;
      default: std::memcpy(&bits, p, 8); break;
    }
    return bits;
  }
  void write_elem(unsigned base_vreg, std::uint64_t idx, unsigned ew_bytes,
                  std::uint64_t bits) {
    const VregLoc loc = map_.element_loc(base_vreg, idx, ew_bytes);
    std::uint8_t* p;
    if (mirror_state_[loc.vreg] != MirrorState::kInvalid &&
        mirror_ew_[loc.vreg] == ew_bytes) {
      const std::uint64_t j = idx & (map_.elems_per_reg(ew_bytes) - 1);
      p = mirror_.data() + loc.vreg * reg_bytes_ + j * ew_bytes;
      mirror_state_[loc.vreg] = MirrorState::kDirty;
    } else {
      flush_mirror(loc.vreg);
      mirror_state_[loc.vreg] = MirrorState::kInvalid;
      p = &bytes_[chunk_index(loc.cluster, loc.lane, loc.vreg, loc.byte_offset)];
    }
    switch (ew_bytes) {
      case 1: std::memcpy(p, &bits, 1); break;
      case 2: std::memcpy(p, &bits, 2); break;
      case 4: std::memcpy(p, &bits, 4); break;
      default: std::memcpy(p, &bits, 8); break;
    }
  }

  // ---- typed convenience (inline so the width constant-folds) -------------
  [[nodiscard]] double read_f64(unsigned base_vreg, std::uint64_t idx) const {
    return std::bit_cast<double>(read_elem(base_vreg, idx, 8));
  }
  void write_f64(unsigned base_vreg, std::uint64_t idx, double v) {
    write_elem(base_vreg, idx, 8, std::bit_cast<std::uint64_t>(v));
  }
  [[nodiscard]] float read_f32(unsigned base_vreg, std::uint64_t idx) const {
    return std::bit_cast<float>(
        static_cast<std::uint32_t>(read_elem(base_vreg, idx, 4)));
  }
  void write_f32(unsigned base_vreg, std::uint64_t idx, float v) {
    write_elem(base_vreg, idx, 4, std::bit_cast<std::uint32_t>(v));
  }
  [[nodiscard]] std::int64_t read_i64(unsigned base_vreg,
                                      std::uint64_t idx) const {
    return static_cast<std::int64_t>(read_elem(base_vreg, idx, 8));
  }
  void write_i64(unsigned base_vreg, std::uint64_t idx, std::int64_t v) {
    write_elem(base_vreg, idx, 8, static_cast<std::uint64_t>(v));
  }

  /// Reads `count` doubles starting at element 0 (test/verification aid).
  [[nodiscard]] std::vector<double> read_f64_slice(unsigned base_vreg,
                                                   std::uint64_t count) const;

  // ---- bulk element streams (unit-stride memory fast path) ----------------
  // Move `vl` elements of width `ew_bytes` between a packed buffer (element
  // order) and the mapped register file, equivalent to element-by-element
  // read_elem/write_elem but served from the packed mirror when possible
  // and otherwise walking the (row, lane) structure directly.
  void write_stream(unsigned base_vreg, std::uint64_t vl, unsigned ew_bytes,
                    const std::uint8_t* src);
  void read_stream(unsigned base_vreg, std::uint64_t vl, unsigned ew_bytes,
                   std::uint8_t* dst) const;

  // ---- direct packed spans (bulk-arithmetic zero-copy path) ---------------
  // Consecutive architectural registers are laid out consecutively in the
  // packed mirror, so an LMUL group is a single contiguous element-order
  // span once each register's mirror is valid at the requested width (the
  // accessors adopt any register that isn't). Bulk arithmetic can then
  // compute directly in the mirror instead of staging operands through
  // scratch buffers.

  /// Span covering `vl` elements of width `ew_bytes` from `base_vreg`,
  /// valid until the next write to any covered register.
  [[nodiscard]] const std::uint8_t* packed_read_span(unsigned base_vreg,
                                                     std::uint64_t vl,
                                                     unsigned ew_bytes) const;
  /// Same span for writing `vl` elements; marks the covered registers
  /// dirty at `ew_bytes`, so the caller is committed to writing all `vl`
  /// elements. When `reads` is set the op also consumes the existing
  /// destination elements, which are guaranteed present in the span (as
  /// is the untouched tail of a partially covered final register).
  [[nodiscard]] std::uint8_t* packed_write_span(unsigned base_vreg,
                                                std::uint64_t vl,
                                                unsigned ew_bytes, bool reads);

  // ---- mask registers ------------------------------------------------------
  [[nodiscard]] bool mask_bit(unsigned vreg, std::uint64_t i) const;
  void set_mask_bit(unsigned vreg, std::uint64_t i, bool value);
  /// Bits [0, n) of mask register `vreg`, one byte (0 or 1) per bit:
  /// mask_bit over the range, with one mirror flush for the whole call.
  void read_mask_stream(unsigned vreg, std::uint64_t n, std::uint8_t* dst) const;
  /// Sets bits [0, n) of `vreg` from `src` (nonzero = set), one flush.
  void write_mask_stream(unsigned vreg, std::uint64_t n, const std::uint8_t* src);

  /// Converts mask register `vreg` (first `bits` bits) between layouts —
  /// the reshuffle operation of paper §III-B.5. Returns the number of bits
  /// that had to move to a different lane (the ring traffic the timing
  /// model charges for).
  std::uint64_t reshuffle_mask(unsigned vreg, MaskLayout from, MaskLayout to,
                               std::uint64_t bits);

  // ---- introspection (layout tests) ---------------------------------------
  /// Raw byte inside one lane's slice of a register.
  [[nodiscard]] std::uint8_t lane_byte(unsigned cluster, unsigned lane,
                                       unsigned vreg, std::uint64_t offset) const;

  [[nodiscard]] std::uint64_t total_bytes() const noexcept { return bytes_.size(); }

 private:
  /// Packed-mirror lifecycle per architectural register. kClean: mirror and
  /// lane bytes agree. kDirty: the mirror holds newer data than the lane
  /// bytes (a deferred transpose). kInvalid: lane bytes are authoritative.
  enum class MirrorState : std::uint8_t { kInvalid, kClean, kDirty };

  [[nodiscard]] std::size_t chunk_index(unsigned cluster, unsigned lane,
                                        unsigned vreg, std::uint64_t offset) const {
    debug_check(cluster < map_.topology().clusters &&
                    lane < map_.topology().lanes && vreg < kNumVregs &&
                    offset < map_.slice_bytes(),
                "VRF index out of range");
    const std::size_t lane_flat = cluster * map_.topology().lanes + lane;
    return (lane_flat * kNumVregs + vreg) * map_.slice_bytes() + offset;
  }
  [[nodiscard]] bool mask_bit_in(unsigned vreg, std::uint64_t i,
                                 MaskLayout layout) const;
  void set_mask_bit_in(unsigned vreg, std::uint64_t i, MaskLayout layout, bool value);
  /// Mask bit access on the lane bytes alone; the caller flushes the mirror.
  [[nodiscard]] bool lane_mask_bit(unsigned vreg, std::uint64_t i,
                                   MaskLayout layout) const;
  void set_lane_mask_bit(unsigned vreg, std::uint64_t i, MaskLayout layout,
                         bool value);

  /// Materializes a dirty mirror into the lane bytes. The inline wrapper
  /// keeps the common no-op check out of the transpose path. Const because
  /// flushing is observable only through timing, never through values —
  /// read-side accessors must be able to trigger it.
  void flush_mirror(unsigned vreg) const {
    if (mirror_state_[vreg] == MirrorState::kDirty) flush_mirror_slow(vreg);
  }
  void flush_mirror_slow(unsigned vreg) const;
  /// Makes the mirror valid at `ew_bytes` (no-op when it already is):
  /// flushes a dirty other-width mirror, then transposes the lane bytes
  /// into packed order. One full-register transpose that every later
  /// stream or span access to the register amortizes away.
  void adopt_mirror(unsigned vreg, unsigned ew_bytes) const;

  VrfMapping map_;
  MaskLayout mask_layout_;
  std::uint64_t reg_bytes_ = 0;  ///< bytes per architectural register
  // Mutable: the mirror is a representation cache over the logical register
  // contents; const readers may flush it without changing any value.
  mutable std::vector<std::uint8_t> bytes_;
  mutable std::vector<std::uint8_t> mirror_;
  mutable std::array<MirrorState, kNumVregs> mirror_state_{};
  mutable std::array<std::uint8_t, kNumVregs> mirror_ew_{};
};

}  // namespace araxl

#endif  // ARAXL_VRF_VRF_HPP
