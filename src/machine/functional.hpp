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
// Memory, widening, gather and mask-population ops have their own paths.
#ifndef ARAXL_MACHINE_FUNCTIONAL_HPP
#define ARAXL_MACHINE_FUNCTIONAL_HPP

#include <cstdint>
#include <vector>

#include "isa/program.hpp"
#include "machine/config.hpp"
#include "mem/main_memory.hpp"
#include "vrf/vrf.hpp"

namespace araxl {

/// Scratch of the op-table executor (capacity persists across instructions).
struct OpScratch {
  std::vector<std::uint8_t> a, b;  ///< staged vs2 / vs1
  std::vector<std::uint8_t> v0;    ///< v0 bits, one byte each
  std::vector<std::uint8_t> bits;  ///< mask-destination bits, one byte each
};

class FunctionalEngine {
 public:
  FunctionalEngine(const MachineConfig& cfg, Vrf& vrf, MainMemory& mem);

  /// Executes one vector instruction (including vsetvli) architecturally.
  void exec(const VInstr& in);
  /// exec(), except that an op-table op runs through the per-element
  /// reference loop. For tests that check the stream executor.
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
  void exec_memory(const VInstr& in);
  /// Bulk unmasked constant-stride path (vlse/vsse): one bounds check for
  /// the whole transfer, a tight fixed-width gather/scatter loop through
  /// scratch, and a single VRF stream. Returns false when the shape needs
  /// the per-element fallback.
  bool exec_memory_bulk_strided(const VInstr& in);
  /// Bulk *masked* unit-stride path (vle/vse with a mask): one bounds
  /// check for the whole range, the vd stream read once (load merge keeps
  /// inactive elements), then fixed-width copies for the active elements
  /// only. Returns false when any byte of the range is out of bounds —
  /// the per-element fallback then reports the exact faulting element.
  bool exec_memory_bulk_masked_unit(const VInstr& in);
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
  // Scratch for the bulk memory paths.
  std::vector<std::uint8_t> buf_mem_;
};

}  // namespace araxl

#endif  // ARAXL_MACHINE_FUNCTIONAL_HPP
