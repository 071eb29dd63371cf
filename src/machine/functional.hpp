// Functional (architectural) execution of the RVV subset.
//
// The machine model separates *what* an instruction computes from *when*
// its results appear: this engine updates the physical VRF, memory, and the
// scalar accumulator with exact IEEE-754 semantics in program order, while
// machine/timing.cpp models when each element becomes visible. The split is
// sound because the timing model enforces the same program-order dataflow
// the functional engine assumes (hazards + chaining).
//
// Elementwise, reduction and slide ops come from one op table (`kRows` in
// functional.cpp). Each op is one row: an element class (int, fp, fp->mask,
// mask logic, merge, FP bits for conversions, sign injection and FP moves,
// fold, slide) and one element lambda. Which registers it reads, and
// whether its scalar is fs or xs, comes from op_spec(). One stream executor
// runs every row. It dispatches on the row and SEW once per instruction,
// reads v0 once, computes on packed register spans (in place when sources
// coincide with vd or miss it) and keeps the exact bits of masked-off
// elements. FP at SEW 16/32 is widened to double and rounded once on
// writeback; an FP result that is NaN is the canonical NaN, as in RISC-V.
// A per-element loop over the same rows is the reference that tests
// compare the stream executor against; nothing selects it at run time.
//
// All six memory ops (unit-stride, strided and indexed loads and stores, at
// every SEW, masked or not) run through one memory executor. It computes
// the element addresses from the op's MemMode, reads v0 once, checks every
// active address before it moves a byte, then copies fixed-width elements
// through the vd stream. A contiguous unmasked access is a single stream
// between memory and the VRF. A per-element loop is its reference, again
// reachable only through exec_reference.
// Widening, gather and mask-population ops have their own paths.
#ifndef ARAXL_MACHINE_FUNCTIONAL_HPP
#define ARAXL_MACHINE_FUNCTIONAL_HPP

#include <cstdint>
#include <vector>

#include "isa/program.hpp"
#include "machine/config.hpp"
#include "mem/main_memory.hpp"
#include "vrf/vrf.hpp"

namespace araxl {

/// Scratch of the op-table and memory executors (capacity persists across
/// instructions).
struct OpScratch {
  std::vector<std::uint8_t> a, b;  ///< staged vs2 / vs1; memory: vd / indices
  std::vector<std::uint8_t> v0;    ///< v0 bits, one byte each
  std::vector<std::uint8_t> bits;  ///< mask-destination bits, one byte each
  std::vector<std::uint64_t> addr;  ///< element addresses of a memory op
};

class FunctionalEngine {
 public:
  FunctionalEngine(const MachineConfig& cfg, Vrf& vrf, MainMemory& mem);

  /// Executes one vector instruction (including vsetvli) architecturally.
  void exec(const VInstr& in);
  /// exec(), except that an op-table or memory op runs through its
  /// per-element reference loop. For tests that check the executors.
  void exec_reference(const VInstr& in);
  /// Whether `op` is executed from the op table.
  [[nodiscard]] static bool in_op_table(Op op);

  [[nodiscard]] std::uint64_t vl() const noexcept { return vl_; }
  [[nodiscard]] Vtype vtype() const noexcept { return vtype_; }
  /// Value captured by the last vfmv.f.s (the scalar FP accumulator).
  [[nodiscard]] double scalar_acc() const noexcept { return scalar_acc_; }
  /// Value captured by the last vcpop.m / vfirst.m (integer accumulator).
  [[nodiscard]] std::int64_t scalar_iacc() const noexcept { return scalar_iacc_; }

 private:
  [[nodiscard]] bool active(const VInstr& in, std::uint64_t i) const;
  [[nodiscard]] unsigned ew_bytes() const { return sew_bytes(vtype_.sew); }
  [[nodiscard]] double scalar_of(const VInstr& in) const {
    return in.fs_from_acc ? scalar_acc_ : in.fs;
  }

  /// Runs `in` from the op table; false when the op has no row.
  bool exec_row(const VInstr& in, bool reference_loop);
  /// All memory ops: addresses, v0, bounds of every active element, then
  /// fixed-width copies (see the header comment).
  void exec_memory(const VInstr& in);
  void exec_widening(const VInstr& in);
  void exec_gather(const VInstr& in);
  void exec_mask_population(const VInstr& in);

  const MachineConfig& cfg_;
  Vrf& vrf_;
  MainMemory& mem_;
  Vtype vtype_{};
  std::uint64_t vlmax_ = 0;  ///< of vtype_
  std::uint64_t vl_ = 0;
  double scalar_acc_ = 0.0;
  std::int64_t scalar_iacc_ = 0;

  OpScratch scratch_;
};

}  // namespace araxl

#endif  // ARAXL_MACHINE_FUNCTIONAL_HPP
