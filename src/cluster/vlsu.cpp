#include "cluster/vlsu.hpp"

namespace araxl {

bool elementwise_mem_op(Op op) {
  return op == Op::kVlse || op == Op::kVsse || op == Op::kVluxei ||
         op == Op::kVsuxei;
}

}  // namespace araxl
