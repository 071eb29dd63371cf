#include "mem/axi.hpp"

#include <algorithm>

#include "common/bits.hpp"
#include "common/contracts.hpp"

namespace araxl {

namespace {
constexpr std::uint64_t kAxiPage = 4096;
}

std::vector<AxiBurst> split_bursts(std::uint64_t addr, std::uint64_t len_bytes,
                                   std::uint64_t bus_bytes) {
  check(is_pow2(bus_bytes), "bus width must be a power of two");
  std::vector<AxiBurst> bursts;
  std::uint64_t cur = addr;
  std::uint64_t remaining = len_bytes;
  while (remaining > 0) {
    const std::uint64_t page_end = align_down(cur, kAxiPage) + kAxiPage;
    const std::uint64_t chunk = std::min(remaining, page_end - cur);
    AxiBurst b;
    b.addr = cur;
    b.len_bytes = chunk;
    // Beats: aligned span plus one extra when the head is misaligned w.r.t.
    // the bus (the Align stage folds the shifted head into a second beat).
    const std::uint64_t first = align_down(cur, bus_bytes);
    const std::uint64_t last = align_up(cur + chunk, bus_bytes);
    b.beats = (last - first) / bus_bytes;
    bursts.push_back(b);
    cur += chunk;
    remaining -= chunk;
  }
  return bursts;
}

std::uint64_t total_beats(std::uint64_t addr, std::uint64_t len_bytes,
                          std::uint64_t bus_bytes) {
  check(is_pow2(bus_bytes), "bus width must be a power of two");
  if (len_bytes == 0) return 0;
  // Both widths are powers of two, so the finer one's grid contains the
  // coarser one's: a bus no wider than a page puts every page cut on a
  // bus-word edge (the bursts' beats tile the bus-aligned span), and a
  // wider bus moves each page's burst in one beat (one beat per page).
  const std::uint64_t grain = std::min(bus_bytes, kAxiPage);
  return (align_up(addr + len_bytes, grain) - align_down(addr, grain)) / grain;
}

}  // namespace araxl
