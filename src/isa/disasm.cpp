#include "isa/disasm.hpp"

#include "common/fmt.hpp"

namespace araxl {

std::string disasm(const VInstr& in) {
  const OpSpec& spec = op_spec(in.op);
  std::string out{spec.mnemonic};

  if (in.op == Op::kVsetvli) {
    out += " avl=" + std::to_string(in.avl) + ", " + vtype_name(in.vtype);
    return out;
  }

  bool first = true;
  const auto sep = [&]() -> std::string {
    if (first) {
      first = false;
      return " ";
    }
    return ", ";
  };

  if (spec.writes_vd || spec.reads_vd) out += sep() + "v" + std::to_string(in.vd);
  if (spec.reads_vs1) out += sep() + "v" + std::to_string(in.vs1);
  if (spec.reads_vs2) out += sep() + "v" + std::to_string(in.vs2);
  if (spec.reads_scalar_acc_ok) {
    out += sep() + (in.fs_from_acc ? std::string("fs=<acc>") : "fs=" + fmt_f(in.fs, 4));
  }
  if (in.op == Op::kVslideupVX || in.op == Op::kVslidedownVX || in.op == Op::kVaddVX ||
      in.op == Op::kVsllVX || in.op == Op::kVsrlVX || in.op == Op::kVandVX ||
      in.op == Op::kVmvVX || in.op == Op::kVmulVX || in.op == Op::kVrsubVX) {
    out += sep() + "x=" + std::to_string(in.xs);
  }
  if (spec.mem != MemMode::kNone) {
    out += sep() + strprintf("0x%llx", static_cast<unsigned long long>(in.addr));
    if (spec.mem == MemMode::kStrided) out += ", stride=" + std::to_string(in.stride);
  }
  if (in.masked) out += ", v0.t";
  return out;
}

std::string disasm(const Program& prog, std::size_t max_ops) {
  std::string out = "program '" + prog.name + "' (" +
                    std::to_string(prog.ops.size()) + " ops, " +
                    std::to_string(prog.vinstr_count()) + " vector)\n";
  std::size_t idx = 0;
  for (const auto& op : prog.ops) {
    if (idx >= max_ops) {
      out += "  ... (" + std::to_string(prog.ops.size() - idx) + " more)\n";
      break;
    }
    out += strprintf("  %5zu: ", idx);
    if (const auto* s = std::get_if<ScalarOp>(&op)) {
      switch (s->kind) {
        case ScalarOp::Kind::kCycles:
          out += "scalar " + std::to_string(s->count) + " cycle(s)";
          break;
        case ScalarOp::Kind::kLoad: out += "scalar load"; break;
        case ScalarOp::Kind::kStore: out += "scalar store"; break;
      }
    } else {
      out += disasm(std::get<VInstr>(op));
    }
    out += '\n';
    ++idx;
  }
  return out;
}

}  // namespace araxl
