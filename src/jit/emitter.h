// Machine-code emission for the copy-and-patch JIT (src/jit/README.md).
//
// Three pieces live here:
//
//   Asm          a deliberately minimal x86-64 instruction encoder over a
//                growable byte buffer — just the addressing modes and
//                opcodes the per-opcode templates (templates.cc) need. It
//                records the buffer offset of the last emitted disp32 /
//                imm64 / rel32 field so the template builder can turn that
//                field into a patch point.
//
//   StitchProgram  copies the pre-built per-opcode templates into one
//                contiguous code blob in bytecode order — every
//                instruction has one — fills every patch point from the
//                instruction operands (register-file displacements,
//                pre-resolved pointers, constants), and resolves branch
//                fixups to direct rel32 jumps between native entries.
//
//   CodeBuffer   W^X executable memory: the blob is written into a
//                PROT_READ|PROT_WRITE anonymous mapping which is then
//                flipped to PROT_READ|PROT_EXEC — the pages are never
//                writable and executable at the same time. Platforms where
//                the mapping or the flip fails simply report failure and
//                the engine degrades to the bytecode VM.
#ifndef QC_JIT_EMITTER_H_
#define QC_JIT_EMITTER_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "exec/bytecode.h"

namespace qc::exec::jit {

// x86-64 general-purpose registers (SysV numbering).
enum Reg : uint8_t {
  RAX = 0, RCX = 1, RDX = 2, RBX = 3, RSP = 4, RBP = 5, RSI = 6, RDI = 7,
  R8 = 8, R9 = 9, R10 = 10, R11 = 11, R12 = 12, R13 = 13, R14 = 14, R15 = 15,
};

// Register conventions inside JIT'd code:
//   r12  base of the VM register file (Slot*) for the whole activation
//   every other caller-saved register (rax, rcx, rdx, rsi, rdi, r8-r11,
//   xmm0) is scratch; rbx/rbp/r13-r15 are never touched
// Templates may call C++ helpers (strings, log/emit staging): r12 is
// callee-saved so the register file survives, the scratch set is exactly
// the SysV caller-saved set, and rsp is 16-byte aligned inside templates
// (the prologue's push r12 realigns after the entry call), so a bare
// `call` is ABI-clean. Helper addresses are materialized as imm64 + call
// through a register — the mmap'd blob can land anywhere in the address
// space, so rel32 calls into the C++ text segment may not reach.
constexpr Reg kSlotBase = R12;

enum Xmm : uint8_t { XMM0 = 0, XMM1 = 1 };

// x86 condition-code nibbles (used in setcc / jcc encodings).
enum Cond : uint8_t {
  kCondB = 0x2,   // unsigned <
  kCondAE = 0x3,  // unsigned >=
  kCondE = 0x4,
  kCondNE = 0x5,
  kCondBE = 0x6,  // unsigned <=
  kCondA = 0x7,   // unsigned >
  kCondL = 0xC,
  kCondGE = 0xD,
  kCondLE = 0xE,
  kCondG = 0xF,
};

// SSE2 cmpsd predicates (ordered/unordered semantics match C++ scalar
// comparisons: EQ/LT/LE are false on NaN, NEQ is true on NaN).
enum FCmp : uint8_t { kFEq = 0, kFLt = 1, kFLe = 2, kFNeq = 4 };

class Asm {
 public:
  const std::vector<uint8_t>& bytes() const { return buf_; }
  size_t size() const { return buf_.size(); }

  // Offset of the last emitted disp32/imm64/rel32 field (patch-point hook).
  size_t last_field() const { return last_field_; }

  // --- moves -------------------------------------------------------------
  // mov r64, [base + disp]. force_disp32 keeps the displacement patchable.
  void MovRegMem(Reg dst, Reg base, int32_t disp, bool force_disp32 = false);
  // mov r32, [base + disp] (zero-extends into the full register)
  void Mov32RegMem(Reg dst, Reg base, int32_t disp);
  // mov [base + disp], r64
  void MovMemReg(Reg base, int32_t disp, Reg src, bool force_disp32 = false);
  // mov r64, [base + index*2^scale + disp]
  void MovRegMemIdx(Reg dst, Reg base, Reg index, uint8_t scale,
                    int32_t disp = 0);
  // mov [base + index*2^scale + disp], r64
  void MovMemIdxReg(Reg base, Reg index, uint8_t scale, int32_t disp, Reg src);
  // movsxd r64, dword [base + index*4]
  void MovsxdRegMemIdx(Reg dst, Reg base, Reg index);
  // movabs r64, imm64 (imm recorded as patchable field)
  void MovImm64(Reg dst, uint64_t imm);
  // mov r32, imm32 (zero-extends)
  void MovImm32(Reg dst, uint32_t imm);
  // mov r64, sign-extended imm32
  void MovImmSext32(Reg dst, int32_t imm);

  // --- integer ALU -------------------------------------------------------
  void AddRegMem(Reg dst, Reg base, int32_t disp, bool force_disp32 = false);
  void SubRegMem(Reg dst, Reg base, int32_t disp, bool force_disp32 = false);
  void ImulRegMem(Reg dst, Reg base, int32_t disp, bool force_disp32 = false);
  void CmpRegMem(Reg dst, Reg base, int32_t disp, bool force_disp32 = false);
  void AndRegMem(Reg dst, Reg base, int32_t disp, bool force_disp32 = false);
  void SubRegMemIdx(Reg dst, Reg base, Reg index, uint8_t scale);
  void AddMemReg(Reg base, int32_t disp, Reg src, bool force_disp32 = false);
  void AddMemIdxReg(Reg base, Reg index, uint8_t scale, int32_t disp, Reg src);
  void CmpRegReg(Reg a, Reg b);
  void TestRegReg(Reg a, Reg b);
  void XorRegReg(Reg dst, Reg src);  // xor r64, r64
  void XorReg32(Reg r);        // xor r32, r32 (zero)
  void AndImm8(Reg r, uint8_t imm);  // and r32, imm8
  void AddImm8(Reg r, int8_t imm);   // add r64, sign-extended imm8
  void AddRegReg(Reg dst, Reg src);  // add r64, r64
  void SubRegReg(Reg dst, Reg src);
  void AndRegReg(Reg dst, Reg src);
  void ImulRegReg(Reg dst, Reg src);
  void IncReg(Reg r);
  void DecReg(Reg r);
  // dec qword [base + disp] (sets flags; the governance countdown check)
  void DecMem(Reg base, int32_t disp, bool force_disp32 = false);
  // lea r64, [base + disp]
  void LeaRegMem(Reg dst, Reg base, int32_t disp, bool force_disp32 = false);
  void NegReg(Reg r);
  void SarImm8(Reg r, uint8_t imm);
  void ShrImm8(Reg r, uint8_t imm);
  void Cqo();
  void IdivReg(Reg r);
  void MovRegReg(Reg dst, Reg src);
  void Setcc(Cond cc, Reg r8);       // setcc r8 (low byte, r8 must be a..d)
  void MovzxRegReg8(Reg dst, Reg src8);
  void AndReg8(Reg dst8, Reg src8);  // and dst8, src8
  void OrReg8(Reg dst8, Reg src8);

  // --- SSE2 --------------------------------------------------------------
  void MovsdXmmMem(Xmm dst, Reg base, int32_t disp, bool force_disp32 = false);
  void MovsdMemXmm(Reg base, int32_t disp, Xmm src, bool force_disp32 = false);
  void MovsdXmmMemIdx(Xmm dst, Reg base, Reg index, uint8_t scale);
  void MovsdMemIdxXmm(Reg base, Reg index, uint8_t scale, Xmm src);
  // F2 0F 58/5C/59/5E: addsd/subsd/mulsd/divsd xmm, [base+disp]
  void ArithsdXmmMem(uint8_t opcode, Xmm dst, Reg base, int32_t disp,
                     bool force_disp32 = false);
  void ArithsdXmmMemIdx(uint8_t opcode, Xmm dst, Reg base, Reg index,
                        uint8_t scale);
  void CmpsdXmmMem(Xmm dst, Reg base, int32_t disp, FCmp pred,
                   bool force_disp32 = false);
  void CmpsdXmmMemIdx(Xmm dst, Reg base, Reg index, uint8_t scale, FCmp pred);
  void MovqRegXmm(Reg dst, Xmm src);
  void Cvtsi2sdXmmMem(Xmm dst, Reg base, int32_t disp,
                      bool force_disp32 = false);
  void Cvttsd2siRegMem(Reg dst, Reg base, int32_t disp,
                       bool force_disp32 = false);

  // --- control -----------------------------------------------------------
  // jcc rel32 / jmp rel32 with a zero displacement; returns the rel32
  // field offset (also recorded as last_field()).
  size_t JccRel32(Cond cc);
  size_t JmpRel32();
  // Short intra-template branches, patched via here()/PatchRel8.
  size_t Jcc8(Cond cc);
  size_t Jmp8();
  void PatchRel8(size_t at);  // retarget the rel8 at `at` to the current end
  // Backward short branches to an already-emitted offset (template-local
  // loops, e.g. the hash-chain walk and the log-append copy loop).
  size_t here() const { return buf_.size(); }
  void Jmp8Back(size_t target);
  void Jcc8Back(Cond cc, size_t target);
  void PushR12();
  void PopR12();
  void Ret();
  void JmpReg(Reg r);
  void CallReg(Reg r);

  void Byte(uint8_t b) { buf_.push_back(b); }
  void U32(uint32_t v);
  void U64(uint64_t v);

 private:
  void Rex(bool w, uint8_t reg, uint8_t index, uint8_t base);
  // modrm(+sib+disp) for [base + disp] with /reg field `reg`.
  void Mem(uint8_t reg, Reg base, int32_t disp, bool force_disp32);
  // modrm+sib(+disp) for [base + index*2^scale + disp].
  void MemIdx(uint8_t reg, Reg base, Reg index, uint8_t scale, int32_t disp);

  std::vector<uint8_t> buf_;
  size_t last_field_ = 0;
};

// Executable memory holding one stitched program. Movable, not copyable.
class CodeBuffer {
 public:
  CodeBuffer() = default;
  ~CodeBuffer();
  CodeBuffer(CodeBuffer&& o) noexcept;
  CodeBuffer& operator=(CodeBuffer&& o) noexcept;
  CodeBuffer(const CodeBuffer&) = delete;
  CodeBuffer& operator=(const CodeBuffer&) = delete;

  // Maps RW memory, copies `code`, then remaps RX (W^X: never RWX).
  // Returns false — leaving the buffer empty — when the platform refuses.
  bool Install(const std::vector<uint8_t>& code);

  const uint8_t* base() const { return base_; }
  size_t size() const { return size_; }

 private:
  uint8_t* base_ = nullptr;
  size_t map_size_ = 0;
  size_t size_ = 0;
};

// "No such entry" in the stitcher's per-pc tables.
constexpr uint32_t kNoEntry = 0xFFFFFFFFu;

class JitProgram;  // engine.h

// One kArrSort/kListSort instruction's resolved descriptor (kSortSite
// patches point at these). Created at stitch time and completed after
// installation: `jp` is backpatched once the code buffer exists. The sort
// helper (templates.cc) drives the comparator subroutine through jp->Run;
// its worker pool comes from the running context's GovState, never from
// the site.
struct JitSortSite {
  uint32_t obj_reg = 0;    // register holding the RtArray* / RtList*
  uint32_t n_reg = 0;      // kArrSort: register holding the element count
  bool is_list = false;    // kListSort sorts the list's full extent
  bool par_safe = false;   // compiler-proven pure comparator (insn.n)
  uint32_t cmp_entry = 0;  // comparator subroutine entry pc
  const uint32_t* ps = nullptr;  // {param0, param1, result} registers
  uint32_t num_regs = 0;         // register-file size (parallel ctx copies)
  uint32_t state_reg = 0;  // reserved register holding the RunState* (the
                           // sort driver governs its comparators with its
                           // GovState)
  const JitProgram* jp = nullptr;  // backpatched after Install
};

// A stitched (but not yet installed) program image.
struct StitchResult {
  std::vector<uint8_t> code;    // prologue + instruction code + abort thunk
  std::vector<uint32_t> entry;  // per-pc blob offset
  int num_native = 0;           // instructions that got native code (all)
  // One entry per natively-stitched sort instruction, in pc order;
  // kSortSite patches point into this vector, so its owner (JitProgram)
  // must keep it alive with the code.
  std::vector<JitSortSite> sort_sites;
};

// Stitches every instruction of `prog` into one blob. Offsets in `entry`
// are valid entry points for any pc (the program start, comparator
// subroutines, morsel fragments).
StitchResult StitchProgram(const BytecodeProgram& prog);

}  // namespace qc::exec::jit

#endif  // QC_JIT_EMITTER_H_
