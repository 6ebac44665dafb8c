// Per-opcode native code templates for the copy-and-patch JIT.
//
// Each supported BcOp has one pre-assembled x86-64 machine-code sequence
// with *holes* — operand-dependent fields left as placeholders — plus a
// patch-point descriptor per hole saying how to fill it from a concrete
// Insn (register-file displacement, pre-resolved pointer, constant bits,
// or a relative branch target). The emitter stitches a program by
// memcpy'ing templates in bytecode order and applying the patches; no
// instruction selection happens at JIT time, which is what makes
// translation effectively free (the copy-and-patch idea).
//
// Templates are built once per process, at first use, by running the
// mini-assembler (emitter.h) with zero placeholders and recording where
// each patchable field landed. Invariants every template obeys:
//   * r12 holds the VM register-file base (Slot*); VM register k lives at
//     [r12 + k*8], always addressed with a patchable disp32.
//   * every caller-saved register is scratch; nothing is preserved across
//     templates except the register file itself (state lives in memory,
//     exactly like the bytecode VM's Slot array — which is what lets any
//     pc be an entry point: subroutines and morsel fragments).
//   * Templates may call C++ helpers through an imm64 address baked in at
//     template build time — the shared ops the VM handlers call
//     (exec/bytecode.h ops::: strings, generic probes, inserts, container
//     construction and allocation, log/emit staging, the safepoint, morsel
//     dispatch) and the sort driver: r12 is callee-saved and rsp stays
//     16-byte aligned, so the calls are ABI-clean.
//   * Every opcode has a template, so a stitched program is native at
//     every pc (analysis/jit_audit.h's template-missing check).
//   * Fall-through is the next stitched instruction; taken branches are
//     rel32 fields patched by the emitter's branch-fixup pass.
#ifndef QC_JIT_TEMPLATES_H_
#define QC_JIT_TEMPLATES_H_

#include <cstdint>

#include "exec/bytecode.h"

namespace qc::exec::jit {

// How one hole in a template is filled at stitch time.
enum class PatchKind : uint8_t {
  kSlotA,   // disp32 <- insn.a * 8 (register-file slot)
  kSlotB,   // disp32 <- insn.b * 8
  kSlotC,   // disp32 <- insn.c * 8
  kSlotD,   // disp32 <- uint32(insn.d) * 8 (d carrying a 4th register)
  kFieldB,  // disp32 <- insn.b * 8 (record-field offset)
  kFieldC,  // disp32 <- insn.c * 8
  kPtrB,    // imm64 <- prog.ptrs[insn.b] (pre-resolved column/index ptr)
  kConstB,  // imm64 <- prog.consts[insn.b] raw slot bits
  kJumpD,   // rel32 <- native code of pc + 1 + insn.d (branch fixup)
  kExtraA,  // imm64 <- &prog.extra[insn.a] (variable-length operand list)
  kExtraB,  // imm64 <- &prog.extra[insn.b]
  kImmN,    // imm32 <- insn.n (operand count)
  kImmN8,   // imm32 <- insn.n * 8 (operand count in slot bytes)
  kImmC,       // imm32 <- insn.c (kEmit string-interning mask, kStrSubstr
               //          start)
  kImmD,       // imm32 <- uint32(insn.d) (kStrSubstr length)
  kPatternC,   // imm64 <- &prog.patterns[insn.c], the pattern pre-split at
               //          bytecode compile time (kStrLike)
  kSortSite,   // imm64 <- &sort_sites[i] for this sort instruction's
               //          descriptor (kArrSort/kListSort; emitter.h
               //          JitSortSite — only stitched when the comparator
               //          subroutine is fully native)
  kGovCnt,     // disp32 <- prog.gov_cnt_reg * 8 (the governance countdown
               //          slot; the safepoint slow path finds the RunState*
               //          at [countdown slot - 8] — gov_cnt_reg==state_reg+1)
  kJumpAbort,  // rel32 <- the program's abort thunk (returns kAbortPc)
  kState,      // disp32 <- prog.state_reg * 8 (the RunState* slot, for ops
               //           whose instruction names no context operand)
  kTypeB,      // imm64 <- prog.types[insn.b] (kMapNew/kMMapNew key type)
  kParLoopA,   // imm64 <- &prog.par_loops[insn.a] (kParLoop)
};

struct PatchPoint {
  uint16_t offset;  // byte offset of the field inside the template
  PatchKind kind;
};

// One opcode's template.
struct OpTemplate {
  const uint8_t* code = nullptr;
  uint16_t size = 0;
  uint8_t num_patches = 0;
  PatchPoint patches[8];  // governed kForNext carries 8 patch points
};

// Template selection for one concrete instruction — the only lookup into
// the table (built on first call, thread-safe function-local static):
// the main entry, or a variant keyed on instruction metadata — the
// hash-probe opcodes (kMapFind/kMapGetOrNull/kMMapGetOrNull) use the
// inline i64 probe for kMapKeyI64 instructions and a generic helper-call
// probe (typed SlotHasher in C++) for string/record keys. Returns nullptr
// only for an opcode without a template, which the template audit rejects.
const OpTemplate* SelectTemplate(const Insn& insn);

// One-time probe of the standard-library memory layout the templates
// compile against (vector = {begin, end, cap} pointers; RtArray/RtList
// payload at offset 0; hash-map node and member offsets; PartitionedIndex/
// PkIndex field offsets). When the probe fails nothing is stitched: the
// whole program runs on the bytecode VM (JitFallback::kLayoutUnsupported).
bool RuntimeLayoutUsable();

}  // namespace qc::exec::jit

#endif  // QC_JIT_TEMPLATES_H_
