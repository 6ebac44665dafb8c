// Mutation self-tests for the static verifier layer (bc_verify.h,
// jit_audit.h): deliberately corrupted programs and stitched images that a
// sound checker MUST reject, each tagged with the invariant expected to
// fire. Driven by the qc_verify CLI (`--self-test`, registered with ctest).
//
// A mutation's `apply` works on a copy of a real compiled program (or its
// stitched image) and returns false when the program has no applicable
// site (e.g. no parallel fragment to corrupt) — drivers skip those, but
// should assert that the canonical corpus program (TPC-H Q1 at full stack
// level, compiled with parallelism info) applies every bytecode mutation.
#ifndef QC_ANALYSIS_MUTATIONS_H_
#define QC_ANALYSIS_MUTATIONS_H_

#include <vector>

#include "exec/bytecode.h"
#include "jit/emitter.h"

namespace qc::exec::analysis {

struct BcMutation {
  const char* name;       // short slug for reporting
  const char* invariant;  // expected invariant, '|'-separated alternatives
  bool (*apply)(BytecodeProgram* prog);
};

struct JitMutation {
  const char* name;
  const char* invariant;
  bool (*apply)(const BytecodeProgram& prog, jit::StitchResult* stitched);
};

// Mutations of real compiled programs.
const std::vector<BcMutation>& BcMutations();

// Mutations of real stitched images (x86-64 template set; drivers skip
// when nothing stitched natively).
const std::vector<JitMutation>& JitMutations();

// Hand-built invalid programs for invariants that are awkward to reach by
// mutating a correct program. Each returns a program whose verification
// must report the named invariant.
BytecodeProgram SyntheticTypeConfusion();        // type-mismatch
BytecodeProgram SyntheticCrossRegionJump();      // jump-region

// True when `invariant` matches the '|'-separated `expected` spec.
bool InvariantMatches(const char* expected, const std::string& invariant);

}  // namespace qc::exec::analysis

#endif  // QC_ANALYSIS_MUTATIONS_H_
