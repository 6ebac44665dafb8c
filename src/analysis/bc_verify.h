// Static verification of compiled bytecode programs (src/analysis/README.md).
//
// The IR level already has a machine-checked well-formedness story
// (ir/verify.h: ANF discipline + the expressibility principle). Below the
// IR, every invariant the engines rely on — slot def-before-use, safepoint
// coverage on loop back edges, the reserved-context-register contract,
// morsel-fragment isolation — was previously enforced only by convention
// in the bytecode compiler and caught after the fact by sanitizers at
// runtime. This verifier extends the per-level checkability discipline
// down to the bytecode: an abstract interpretation over BytecodeProgram
// that proves, per instruction, that the program a compiler handed the
// VM/JIT cannot step outside the machine model the handlers and templates
// assume.
//
// Checked invariants (each violation names one):
//   operand-bounds       register/pool indices inside their pools
//   jump-bounds          every branch target is a real instruction index
//   jump-region          branches never cross region boundaries (main
//                        stream / comparator subroutines / morsel
//                        fragments are separate control-flow regions)
//   backedge-safepoint   every backward branch is a governor safepoint
//                        opcode (kForNext/kIncJmp/kJmpSp) — the governance
//                        liveness guarantee
//   context-reg-contract the two reserved registers (state_reg and
//                        gov_cnt_reg == state_reg + 1) are in range,
//                        distinct and adjacent, and every context operand
//                        names state_reg
//   context-reg-clobber  no instruction writes a reserved register
//   def-before-use       no register is read on a path where it was never
//                        written (presets and context bindings count as
//                        entry definitions)
//   type-mismatch        the per-slot type lattice (i64 / f64 / str / ptr
//                        / any) is respected: f64 arithmetic never reads a
//                        slot that only ever held an integer, string
//                        predicates never read a non-string, pointer
//                        dereferences never read plain scalars
//   comparator-result    every comparator exit path defined its result reg
//   subroutine-shape     comparator regions are well-formed ([entry,
//                        sort pc) terminated by kRet, entry before the
//                        sort instruction)
//   fragment-isolation   morsel fragments contain no nested kParLoop,
//                        log only to their bound touched-slot logs, and only
//                        write through pointers established inside the
//                        fragment or rebound per morsel by the runtime
//                        (fragment-private state)
//
// Verification is compile-time-only: it runs where programs are created
// (exec::Program::Build, which the Interpreter and the server's plan cache
// both go through, and the qc_verify CLI) and never on a per-row path. See VerifyEnabled() for the gating contract.
#ifndef QC_ANALYSIS_BC_VERIFY_H_
#define QC_ANALYSIS_BC_VERIFY_H_

#include <cstdint>
#include <string>
#include <vector>

#include "exec/bytecode.h"

namespace qc::exec::analysis {

// pc value for program-level violations not tied to one instruction.
constexpr uint32_t kNoPc = 0xFFFFFFFFu;

struct Violation {
  uint32_t pc = kNoPc;     // instruction index, or kNoPc
  std::string invariant;   // named invariant (see file comment)
  std::string detail;      // human-readable specifics
};

struct VerifyResult {
  std::vector<Violation> violations;
  bool ok() const { return violations.empty(); }
  // One line per violation: "pc N: <invariant>: <detail>".
  std::string Report() const;
};

// Full structural + dataflow verification of one compiled program.
// Deterministic, allocation-bounded, and independent of the Database the
// program was compiled against (only the program image is inspected).
VerifyResult VerifyProgram(const BytecodeProgram& prog);

// Gating shared by every verification hook (this verifier and the JIT
// auditor, src/analysis/jit_audit.h):
//   * QC_VERIFY=1 forces verification on, QC_VERIFY=0 forces it off;
//   * unset: on in Debug (!NDEBUG) and sanitizer builds (QC_ASAN/QC_TSAN
//     configure QC_SANITIZER_BUILD), off in plain Release.
// Release-with-QC_VERIFY=0 overhead is therefore exactly zero code run.
bool VerifyEnabled();

// Process-wide runtime override of the VerifyEnabled() gate: 0 forces
// verification off, 1 forces it on, -1 restores the QC_VERIFY/build-type
// default. For benches and tests that need both sides of the gate in one
// process (the env default is latched on first use); not for production
// paths.
void SetVerifyEnabledOverride(int v);

}  // namespace qc::exec::analysis

#endif  // QC_ANALYSIS_BC_VERIFY_H_
