#include "cluster/sequencer.hpp"

namespace araxl {

std::pair<unsigned, unsigned> write_group(const VInstr& in, unsigned group_regs) {
  const OpSpec& spec = op_spec(in.op);
  if (!spec.writes_vd) return {0, 0};
  if (spec.writes_mask || spec.is_reduction || spec.elem0_only) {
    return {in.vd, 1};
  }
  if (spec.widens) return {in.vd, 2 * group_regs};  // EEW = 2*SEW destination
  return {in.vd, group_regs};
}

ReadGroups read_groups(const VInstr& in, unsigned group_regs) {
  const OpSpec& spec = op_spec(in.op);
  ReadGroups g;
  const auto add = [&g](unsigned base, unsigned count) {
    g.base[g.n] = base;
    g.count[g.n] = count;
    ++g.n;
  };
  const bool mask_src = spec.unit == Unit::kMasku;  // vmand.mm etc.
  const bool vs1_is_mask = in.op == Op::kVcompressVM;  // single mask register
  if (spec.reads_vs1) {
    add(in.vs1, (mask_src || spec.is_reduction || vs1_is_mask) ? 1 : group_regs);
  }
  if (spec.reads_vs2) add(in.vs2, mask_src ? 1 : group_regs);
  if (spec.reads_vd) add(in.vd, group_regs);
  if (in.masked || in.op == Op::kVmergeVVM || in.op == Op::kVfmergeVFM) add(0, 1);
  return g;
}

std::int64_t slide_offset(const VInstr& in) {
  switch (in.op) {
    case Op::kVfslide1down: return 1;
    case Op::kVfslide1up: return -1;
    case Op::kVslidedownVX: return in.xs;
    case Op::kVslideupVX: return -in.xs;
    default: return 0;
  }
}

}  // namespace araxl
