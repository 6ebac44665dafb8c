// Static audit of the copy-and-patch JIT layer (src/analysis/README.md).
//
// Complements the bytecode verifier (bc_verify.h) one level further down:
// the objects being checked are the pre-assembled per-opcode templates and
// the stitched program image that is about to be handed executable pages.
// The auditor re-derives the stitcher's layout from the public template
// selection API and checks the emitted bytes against it — a disagreement
// means StitchProgram and the templates have drifted, and the program must
// not be installed.
//
// Checked invariants (each violation names one):
//   template-missing every opcode x map-key kind selects a template, so
//                    every instruction of every program stitches
//   template-shape   every template is self-consistent: non-empty code,
//                    patch count within the descriptor array, every patch
//                    field (4 bytes for disp32/rel32/imm32, 8 for imm64)
//                    inside the template, no two fields overlapping
//   entry-layout     per-pc entry offsets are exactly the stitcher's
//                    layout: prologue first, every instruction in pc
//                    order, then the abort thunk; num_native equal to the
//                    program's pc count
//   patch-value      every non-branch patch byte-compares to the value the
//                    descriptor demands (slot displacements in range of
//                    the register file, resolved pointers/constants/extra
//                    addresses, LIKE-pattern and sort-site descriptor
//                    addresses pointing into the result's own vectors)
//   jump-fixup       every rel32 branch targets a real instruction index
//                    and lands on that instruction's native entry
//   abort-thunk      governance abort branches land on an exit stub
//                    returning the kAbortPc sentinel
//   sort-site        every sort has a descriptor whose fields match the
//                    instruction (comparator entry, param/result triple,
//                    register-file size, governance register)
//   wx-policy        installed code pages are readable/executable and not
//                    writable (W^X held after mprotect)
//
// Gating: same contract as the bytecode verifier (bc_verify.h
// VerifyEnabled()) — always on in Debug/sanitizer builds, QC_VERIFY=1
// elsewhere; all audits run at stitch/install time, never per row.
#ifndef QC_ANALYSIS_JIT_AUDIT_H_
#define QC_ANALYSIS_JIT_AUDIT_H_

#include <cstddef>

#include "analysis/bc_verify.h"
#include "jit/emitter.h"

namespace qc::exec::analysis {

// Validates every template reachable through jit::SelectTemplate (all
// opcodes, both map-key kinds) and that none is missing. Violations use
// pc = opcode value for attribution. Cheap enough to run once per process
// at first JIT compile.
VerifyResult AuditTemplates();

// Validates one stitched-but-not-yet-installed image against the program
// it was stitched from. Must be called before the code is made executable;
// a non-ok result means the image is corrupt and must be discarded.
VerifyResult AuditStitch(const BytecodeProgram& prog,
                         const jit::StitchResult& stitched);

// Post-install check that the page range holding [base, base + size) is
// mapped r-x and not writable (Linux: /proc/self/maps; elsewhere the check
// is vacuous and returns ok).
VerifyResult AuditWx(const void* base, size_t size);

}  // namespace qc::exec::analysis

#endif  // QC_ANALYSIS_JIT_AUDIT_H_
