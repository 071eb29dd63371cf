#include "vrf/vrf.hpp"

#include <bit>
#include <cstring>

#include "isa/instr.hpp"

namespace araxl {

Vrf::Vrf(Topology topo, std::uint64_t vlen_bits, MaskLayout mask_layout)
    : map_(topo, vlen_bits), mask_layout_(mask_layout) {
  bytes_.assign(static_cast<std::size_t>(topo.total_lanes()) * kNumVregs *
                    map_.slice_bytes(),
                0);
  reg_bytes_ = map_.slice_bytes() * map_.topology().total_lanes();
  mirror_.assign(static_cast<std::size_t>(kNumVregs) * reg_bytes_, 0);
  mirror_state_.fill(MirrorState::kInvalid);
  mirror_ew_.fill(0);
}

std::vector<double> Vrf::read_f64_slice(unsigned base_vreg,
                                        std::uint64_t count) const {
  std::vector<double> out;
  out.reserve(count);
  for (std::uint64_t i = 0; i < count; ++i) out.push_back(read_f64(base_vreg, i));
  return out;
}

namespace {

/// Streams `in_reg` packed elements of ONE register between a packed buffer
/// and the lane-interleaved storage. The mapping sends element j to flat
/// lane (j mod TL) at row (j div TL). The walk is lane-major: for one lane
/// all rows of a register are contiguous in VRF storage, so the inner loop
/// touches the register file sequentially and only the (cache-resident)
/// packed buffer is accessed with a stride. The element-major order used
/// previously made every VRF access jump by kNumVregs * slice bytes — a
/// 4 KiB stride at 64 lanes that turned each whole-register stream into a
/// cache-miss chain.
template <unsigned kEw, bool kWrite, typename Bytes, typename Buf>
void stream_reg(const VrfMapping& map, Bytes* reg_base, std::uint64_t in_reg,
                Buf* buf) {
  const unsigned total_lanes = map.topology().total_lanes();
  const std::uint64_t lane_stride = kNumVregs * map.slice_bytes();
  const std::uint64_t buf_row = std::uint64_t{total_lanes} * kEw;
  for (std::uint64_t l = 0; l < total_lanes && l < in_reg; ++l) {
    const std::uint64_t rows = (in_reg - l + total_lanes - 1) / total_lanes;
    Bytes* p = reg_base + l * lane_stride;
    Buf* q = buf + l * kEw;
    for (std::uint64_t r = 0; r < rows; ++r, p += kEw, q += buf_row) {
      if constexpr (kWrite) {
        std::memcpy(p, q, kEw);
      } else {
        std::memcpy(q, p, kEw);
      }
    }
  }
}

template <bool kWrite, typename Bytes, typename Buf>
void stream_reg_dispatch(const VrfMapping& map, Bytes* reg_base,
                         std::uint64_t in_reg, unsigned ew, Buf* buf) {
  switch (ew) {
    case 1: stream_reg<1, kWrite>(map, reg_base, in_reg, buf); break;
    case 2: stream_reg<2, kWrite>(map, reg_base, in_reg, buf); break;
    case 4: stream_reg<4, kWrite>(map, reg_base, in_reg, buf); break;
    case 8: stream_reg<8, kWrite>(map, reg_base, in_reg, buf); break;
    default: fail("invalid element width");
  }
}

}  // namespace

void Vrf::flush_mirror_slow(unsigned vreg) const {
  const unsigned ew = mirror_ew_[vreg];
  stream_reg_dispatch<true>(map_, bytes_.data() + vreg * map_.slice_bytes(),
                            map_.elems_per_reg(ew), ew,
                            mirror_.data() + vreg * reg_bytes_);
  mirror_state_[vreg] = MirrorState::kClean;
}

void Vrf::adopt_mirror(unsigned vreg, unsigned ew_bytes) const {
  if (mirror_state_[vreg] != MirrorState::kInvalid &&
      mirror_ew_[vreg] == ew_bytes) {
    return;
  }
  // A dirty mirror at another width holds newer data than the lane bytes;
  // materialize it first so the adoption transpose reads current values.
  flush_mirror(vreg);
  stream_reg_dispatch<false>(
      map_,
      const_cast<const std::uint8_t*>(bytes_.data()) + vreg * map_.slice_bytes(),
      map_.elems_per_reg(ew_bytes), ew_bytes, mirror_.data() + vreg * reg_bytes_);
  mirror_state_[vreg] = MirrorState::kClean;
  mirror_ew_[vreg] = static_cast<std::uint8_t>(ew_bytes);
}

void Vrf::write_stream(unsigned base_vreg, std::uint64_t vl, unsigned ew_bytes,
                       const std::uint8_t* src) {
  const std::uint64_t epr = map_.elems_per_reg(ew_bytes);
  std::uint64_t done = 0;
  unsigned vreg = base_vreg;
  while (done < vl) {
    check(vreg < kNumVregs, "element index spills past v31");
    const std::uint64_t in_reg = std::min<std::uint64_t>(vl - done, epr);
    const std::uint8_t* seg = src + done * ew_bytes;
    if (in_reg == epr) {
      // Whole register: the packed image IS the write — defer the lane
      // transpose until someone actually looks at lane bytes.
      std::memcpy(mirror_.data() + vreg * reg_bytes_, seg, epr * ew_bytes);
      mirror_ew_[vreg] = static_cast<std::uint8_t>(ew_bytes);
    } else {
      // Partial strip: adopt the register into the mirror (one full
      // transpose-read; free if already valid at this width) so the
      // untouched tail is represented, then overwrite the prefix. The
      // adoption pays for itself on the next access — short-vl kernels
      // touch the same registers every loop iteration.
      adopt_mirror(vreg, ew_bytes);
      std::memcpy(mirror_.data() + vreg * reg_bytes_, seg, in_reg * ew_bytes);
    }
    mirror_state_[vreg] = MirrorState::kDirty;
    done += in_reg;
    ++vreg;
  }
}

void Vrf::read_stream(unsigned base_vreg, std::uint64_t vl, unsigned ew_bytes,
                      std::uint8_t* dst) const {
  const std::uint64_t epr = map_.elems_per_reg(ew_bytes);
  std::uint64_t done = 0;
  unsigned vreg = base_vreg;
  while (done < vl) {
    check(vreg < kNumVregs, "element index spills past v31");
    const std::uint64_t in_reg = std::min<std::uint64_t>(vl - done, epr);
    std::uint8_t* seg = dst + done * ew_bytes;
    // A packed prefix of a valid mirror is exactly the requested stream;
    // adopting (no-op when already valid at this width) caches the
    // transpose for every later access to the register.
    adopt_mirror(vreg, ew_bytes);
    std::memcpy(seg, mirror_.data() + vreg * reg_bytes_, in_reg * ew_bytes);
    done += in_reg;
    ++vreg;
  }
}

const std::uint8_t* Vrf::packed_read_span(unsigned base_vreg, std::uint64_t vl,
                                          unsigned ew_bytes) const {
  const std::uint64_t epr = map_.elems_per_reg(ew_bytes);
  const unsigned nregs = static_cast<unsigned>((vl + epr - 1) / epr);
  check(base_vreg + nregs <= kNumVregs, "element index spills past v31");
  for (unsigned v = base_vreg; v < base_vreg + nregs; ++v) {
    adopt_mirror(v, ew_bytes);
  }
  return mirror_.data() + base_vreg * reg_bytes_;
}

std::uint8_t* Vrf::packed_write_span(unsigned base_vreg, std::uint64_t vl,
                                     unsigned ew_bytes, bool reads) {
  const std::uint64_t epr = map_.elems_per_reg(ew_bytes);
  const unsigned nregs = static_cast<unsigned>((vl + epr - 1) / epr);
  check(base_vreg + nregs <= kNumVregs, "element index spills past v31");
  for (unsigned v = base_vreg; v < base_vreg + nregs; ++v) {
    const bool fully_covered = (v + 1 - base_vreg) * epr <= vl;
    if (reads || !fully_covered) {
      // The op consumes existing elements (or leaves a tail untouched):
      // the mirror must represent them before the caller writes through.
      adopt_mirror(v, ew_bytes);
    }
    mirror_state_[v] = MirrorState::kDirty;
    mirror_ew_[v] = static_cast<std::uint8_t>(ew_bytes);
  }
  return mirror_.data() + base_vreg * reg_bytes_;
}

bool Vrf::lane_mask_bit(unsigned vreg, std::uint64_t i, MaskLayout layout) const {
  const MaskBitLoc loc = mask_bit_loc(map_, layout, i);
  const std::uint8_t byte =
      bytes_[chunk_index(loc.cluster, loc.lane, vreg, loc.byte_offset)];
  return ((byte >> loc.bit) & 1u) != 0;
}

void Vrf::set_lane_mask_bit(unsigned vreg, std::uint64_t i, MaskLayout layout,
                            bool value) {
  const MaskBitLoc loc = mask_bit_loc(map_, layout, i);
  std::uint8_t& byte =
      bytes_[chunk_index(loc.cluster, loc.lane, vreg, loc.byte_offset)];
  if (value) {
    byte = static_cast<std::uint8_t>(byte | (1u << loc.bit));
  } else {
    byte = static_cast<std::uint8_t>(byte & ~(1u << loc.bit));
  }
}

bool Vrf::mask_bit_in(unsigned vreg, std::uint64_t i, MaskLayout layout) const {
  flush_mirror(vreg);
  return lane_mask_bit(vreg, i, layout);
}

void Vrf::set_mask_bit_in(unsigned vreg, std::uint64_t i, MaskLayout layout,
                          bool value) {
  flush_mirror(vreg);
  mirror_state_[vreg] = MirrorState::kInvalid;
  set_lane_mask_bit(vreg, i, layout, value);
}

bool Vrf::mask_bit(unsigned vreg, std::uint64_t i) const {
  return mask_bit_in(vreg, i, mask_layout_);
}

void Vrf::set_mask_bit(unsigned vreg, std::uint64_t i, bool value) {
  set_mask_bit_in(vreg, i, mask_layout_, value);
}

void Vrf::read_mask_stream(unsigned vreg, std::uint64_t n,
                           std::uint8_t* dst) const {
  flush_mirror(vreg);
  for (std::uint64_t i = 0; i < n; ++i) {
    dst[i] = lane_mask_bit(vreg, i, mask_layout_) ? 1 : 0;
  }
}

void Vrf::write_mask_stream(unsigned vreg, std::uint64_t n,
                            const std::uint8_t* src) {
  flush_mirror(vreg);
  mirror_state_[vreg] = MirrorState::kInvalid;
  for (std::uint64_t i = 0; i < n; ++i) {
    set_lane_mask_bit(vreg, i, mask_layout_, src[i] != 0);
  }
}

std::uint64_t Vrf::reshuffle_mask(unsigned vreg, MaskLayout from, MaskLayout to,
                                  std::uint64_t bits) {
  std::vector<bool> values(bits);
  std::uint64_t moved = 0;
  for (std::uint64_t i = 0; i < bits; ++i) {
    values[i] = mask_bit_in(vreg, i, from);
    const MaskBitLoc a = mask_bit_loc(map_, from, i);
    const MaskBitLoc b = mask_bit_loc(map_, to, i);
    if (a.cluster != b.cluster || a.lane != b.lane) ++moved;
  }
  // Clear both encodings' footprints before rewriting to avoid stale bits.
  for (std::uint64_t i = 0; i < bits; ++i) {
    set_mask_bit_in(vreg, i, from, false);
  }
  for (std::uint64_t i = 0; i < bits; ++i) {
    set_mask_bit_in(vreg, i, to, values[i]);
  }
  return moved;
}

std::uint8_t Vrf::lane_byte(unsigned cluster, unsigned lane, unsigned vreg,
                            std::uint64_t offset) const {
  flush_mirror(vreg);
  return bytes_[chunk_index(cluster, lane, vreg, offset)];
}

}  // namespace araxl
