// Per-cluster Vector Load-Store Unit — paper §III-B.3.
//
// On AraXL the local VLSU only shuffles already-aligned bytes to its four
// lanes (the GLSU did the aligning); on Ara2 the lumped A2A VLSU does both
// in one cycle, which is what limits its scalability. This module holds the
// predicate for accesses that degrade to element-granular beats.
#ifndef ARAXL_CLUSTER_VLSU_HPP
#define ARAXL_CLUSTER_VLSU_HPP

#include "isa/instr.hpp"

namespace araxl {

/// True for strided/indexed accesses, which are "supported, albeit at
/// lower throughput" (paper §III-A): one element per cluster per cycle.
bool elementwise_mem_op(Op op);

}  // namespace araxl

#endif  // ARAXL_CLUSTER_VLSU_HPP
