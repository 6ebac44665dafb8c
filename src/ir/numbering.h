// Id-space utilities for the ANF IR.
//
// Statement ids double as register indices in the bytecode VM (one slot per
// id), so two properties matter downstream:
//   * use counts — a statement used exactly once by the instruction that
//     immediately follows it is a candidate for instruction fusion in the
//     bytecode compiler; and
//   * density — passes that rewrite functions leave holes in the id space,
//     and every hole is a dead register the VM still allocates and zeroes.
//     RenumberDense compacts ids to [0, num_stmts) in program order.
#ifndef QC_IR_NUMBERING_H_
#define QC_IR_NUMBERING_H_

#include <vector>

#include "ir/stmt.h"

namespace qc::ir {

// Number of times each statement id is referenced as an argument or as a
// block result. Indexed by id; size fn.num_stmts().
std::vector<int> ComputeUseCounts(const Function& fn);

// Reassigns ids of all statements reachable from fn->body() to a dense
// [0, N) range in program order (block params first, then statements) and
// updates fn's id counter so num_stmts() == N. Unreachable (dead) statements
// keep stale ids and must not be executed afterwards.
void RenumberDense(Function* fn);

}  // namespace qc::ir

#endif  // QC_IR_NUMBERING_H_
