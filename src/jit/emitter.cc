#include "jit/emitter.h"

#include <cassert>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "common/fault.h"

#if defined(__unix__) || defined(__APPLE__)
#include <sys/mman.h>
#include <unistd.h>
#define QC_JIT_HAVE_MMAP 1
#else
#define QC_JIT_HAVE_MMAP 0
#endif

#include "jit/templates.h"

namespace qc::exec::jit {

// ---------------------------------------------------------------------------
// Asm
// ---------------------------------------------------------------------------

void Asm::U32(uint32_t v) {
  buf_.push_back(static_cast<uint8_t>(v));
  buf_.push_back(static_cast<uint8_t>(v >> 8));
  buf_.push_back(static_cast<uint8_t>(v >> 16));
  buf_.push_back(static_cast<uint8_t>(v >> 24));
}

void Asm::U64(uint64_t v) {
  U32(static_cast<uint32_t>(v));
  U32(static_cast<uint32_t>(v >> 32));
}

void Asm::Rex(bool w, uint8_t reg, uint8_t index, uint8_t base) {
  uint8_t rex = 0x40 | (w ? 8 : 0) | ((reg >= 8) ? 4 : 0) |
                ((index >= 8) ? 2 : 0) | ((base >= 8) ? 1 : 0);
  if (rex != 0x40 || w) buf_.push_back(rex);
}

void Asm::Mem(uint8_t reg, Reg base, int32_t disp, bool force_disp32) {
  // rsp/r12 as base require a SIB byte; rbp/r13 require an explicit disp.
  bool need_sib = (base & 7) == 4;
  bool disp0_ok = (base & 7) != 5;
  uint8_t mod;
  if (force_disp32) {
    mod = 2;
  } else if (disp == 0 && disp0_ok) {
    mod = 0;
  } else if (disp >= -128 && disp <= 127) {
    mod = 1;
  } else {
    mod = 2;
  }
  buf_.push_back(static_cast<uint8_t>((mod << 6) | ((reg & 7) << 3) |
                                      (need_sib ? 4 : (base & 7))));
  if (need_sib) buf_.push_back(0x24);  // scale=1, no index, base = base&7
  if (mod == 1) {
    buf_.push_back(static_cast<uint8_t>(disp));
  } else if (mod == 2) {
    last_field_ = buf_.size();
    U32(static_cast<uint32_t>(disp));
  }
}

void Asm::MemIdx(uint8_t reg, Reg base, Reg index, uint8_t scale,
                 int32_t disp) {
  assert((index & 7) != 4 && "rsp cannot be an index register");
  bool disp0_ok = (base & 7) != 5;
  uint8_t mod;
  if (disp == 0 && disp0_ok) {
    mod = 0;
  } else if (disp >= -128 && disp <= 127) {
    mod = 1;
  } else {
    mod = 2;
  }
  buf_.push_back(static_cast<uint8_t>((mod << 6) | ((reg & 7) << 3) | 4));
  buf_.push_back(static_cast<uint8_t>((scale << 6) | ((index & 7) << 3) |
                                      (base & 7)));
  if (mod == 1) {
    buf_.push_back(static_cast<uint8_t>(disp));
  } else if (mod == 2) {
    last_field_ = buf_.size();
    U32(static_cast<uint32_t>(disp));
  }
}

void Asm::MovRegMem(Reg dst, Reg base, int32_t disp, bool force_disp32) {
  Rex(true, dst, 0, base);
  buf_.push_back(0x8B);
  Mem(dst, base, disp, force_disp32);
}

void Asm::MovMemReg(Reg base, int32_t disp, Reg src, bool force_disp32) {
  Rex(true, src, 0, base);
  buf_.push_back(0x89);
  Mem(src, base, disp, force_disp32);
}

void Asm::MovRegMemIdx(Reg dst, Reg base, Reg index, uint8_t scale,
                       int32_t disp) {
  Rex(true, dst, index, base);
  buf_.push_back(0x8B);
  MemIdx(dst, base, index, scale, disp);
}

void Asm::MovMemIdxReg(Reg base, Reg index, uint8_t scale, int32_t disp,
                       Reg src) {
  Rex(true, src, index, base);
  buf_.push_back(0x89);
  MemIdx(src, base, index, scale, disp);
}

void Asm::MovsxdRegMemIdx(Reg dst, Reg base, Reg index) {
  Rex(true, dst, index, base);
  buf_.push_back(0x63);
  MemIdx(dst, base, index, 2, 0);
}

void Asm::MovImm64(Reg dst, uint64_t imm) {
  Rex(true, 0, 0, dst);
  buf_.push_back(static_cast<uint8_t>(0xB8 | (dst & 7)));
  last_field_ = buf_.size();
  U64(imm);
}

void Asm::MovImm32(Reg dst, uint32_t imm) {
  Rex(false, 0, 0, dst);
  buf_.push_back(static_cast<uint8_t>(0xB8 | (dst & 7)));
  last_field_ = buf_.size();
  U32(imm);
}

void Asm::MovImmSext32(Reg dst, int32_t imm) {
  Rex(true, 0, 0, dst);
  buf_.push_back(0xC7);
  buf_.push_back(static_cast<uint8_t>(0xC0 | (dst & 7)));
  last_field_ = buf_.size();
  U32(static_cast<uint32_t>(imm));
}

void Asm::AddRegMem(Reg dst, Reg base, int32_t disp, bool force_disp32) {
  Rex(true, dst, 0, base);
  buf_.push_back(0x03);
  Mem(dst, base, disp, force_disp32);
}

void Asm::SubRegMem(Reg dst, Reg base, int32_t disp, bool force_disp32) {
  Rex(true, dst, 0, base);
  buf_.push_back(0x2B);
  Mem(dst, base, disp, force_disp32);
}

void Asm::ImulRegMem(Reg dst, Reg base, int32_t disp, bool force_disp32) {
  Rex(true, dst, 0, base);
  buf_.push_back(0x0F);
  buf_.push_back(0xAF);
  Mem(dst, base, disp, force_disp32);
}

void Asm::CmpRegMem(Reg dst, Reg base, int32_t disp, bool force_disp32) {
  Rex(true, dst, 0, base);
  buf_.push_back(0x3B);
  Mem(dst, base, disp, force_disp32);
}

void Asm::AndRegMem(Reg dst, Reg base, int32_t disp, bool force_disp32) {
  Rex(true, dst, 0, base);
  buf_.push_back(0x23);
  Mem(dst, base, disp, force_disp32);
}

void Asm::SubRegMemIdx(Reg dst, Reg base, Reg index, uint8_t scale) {
  Rex(true, dst, index, base);
  buf_.push_back(0x2B);
  MemIdx(dst, base, index, scale, 0);
}

void Asm::AddMemReg(Reg base, int32_t disp, Reg src, bool force_disp32) {
  Rex(true, src, 0, base);
  buf_.push_back(0x01);
  Mem(src, base, disp, force_disp32);
}

void Asm::CmpRegReg(Reg a, Reg b) {
  Rex(true, b, 0, a);
  buf_.push_back(0x39);  // cmp r/m64, r64: a compared with b
  buf_.push_back(static_cast<uint8_t>(0xC0 | ((b & 7) << 3) | (a & 7)));
}

void Asm::TestRegReg(Reg a, Reg b) {
  Rex(true, b, 0, a);
  buf_.push_back(0x85);
  buf_.push_back(static_cast<uint8_t>(0xC0 | ((b & 7) << 3) | (a & 7)));
}

void Asm::XorRegReg(Reg dst, Reg src) {
  Rex(true, src, 0, dst);
  buf_.push_back(0x31);
  buf_.push_back(static_cast<uint8_t>(0xC0 | ((src & 7) << 3) | (dst & 7)));
}

void Asm::XorReg32(Reg r) {
  Rex(false, r, 0, r);
  buf_.push_back(0x31);
  buf_.push_back(static_cast<uint8_t>(0xC0 | ((r & 7) << 3) | (r & 7)));
}

void Asm::AndImm8(Reg r, uint8_t imm) {
  Rex(false, 0, 0, r);
  buf_.push_back(0x83);
  buf_.push_back(static_cast<uint8_t>(0xE0 | (r & 7)));
  buf_.push_back(imm);
}

void Asm::AddImm8(Reg r, int8_t imm) {
  Rex(true, 0, 0, r);
  buf_.push_back(0x83);
  buf_.push_back(static_cast<uint8_t>(0xC0 | (r & 7)));
  buf_.push_back(static_cast<uint8_t>(imm));
}

void Asm::AddRegReg(Reg dst, Reg src) {
  Rex(true, src, 0, dst);
  buf_.push_back(0x01);
  buf_.push_back(static_cast<uint8_t>(0xC0 | ((src & 7) << 3) | (dst & 7)));
}

void Asm::AndRegReg(Reg dst, Reg src) {
  Rex(true, src, 0, dst);
  buf_.push_back(0x21);
  buf_.push_back(static_cast<uint8_t>(0xC0 | ((src & 7) << 3) | (dst & 7)));
}

void Asm::ImulRegReg(Reg dst, Reg src) {
  Rex(true, dst, 0, src);
  buf_.push_back(0x0F);
  buf_.push_back(0xAF);
  buf_.push_back(static_cast<uint8_t>(0xC0 | ((dst & 7) << 3) | (src & 7)));
}

void Asm::IncReg(Reg r) {
  Rex(true, 0, 0, r);
  buf_.push_back(0xFF);
  buf_.push_back(static_cast<uint8_t>(0xC0 | (r & 7)));
}

void Asm::DecReg(Reg r) {
  Rex(true, 0, 0, r);
  buf_.push_back(0xFF);
  buf_.push_back(static_cast<uint8_t>(0xC8 | (r & 7)));
}

void Asm::DecMem(Reg base, int32_t disp, bool force_disp32) {
  Rex(true, 1, 0, base);
  buf_.push_back(0xFF);  // FF /1: dec r/m64
  Mem(1, base, disp, force_disp32);
}

void Asm::LeaRegMem(Reg dst, Reg base, int32_t disp, bool force_disp32) {
  Rex(true, dst, 0, base);
  buf_.push_back(0x8D);
  Mem(dst, base, disp, force_disp32);
}

void Asm::NegReg(Reg r) {
  Rex(true, 0, 0, r);
  buf_.push_back(0xF7);
  buf_.push_back(static_cast<uint8_t>(0xD8 | (r & 7)));
}

void Asm::SarImm8(Reg r, uint8_t imm) {
  Rex(true, 0, 0, r);
  buf_.push_back(0xC1);
  buf_.push_back(static_cast<uint8_t>(0xF8 | (r & 7)));
  buf_.push_back(imm);
}

void Asm::ShrImm8(Reg r, uint8_t imm) {
  Rex(true, 0, 0, r);
  buf_.push_back(0xC1);
  buf_.push_back(static_cast<uint8_t>(0xE8 | (r & 7)));
  buf_.push_back(imm);
}

void Asm::Cqo() {
  buf_.push_back(0x48);
  buf_.push_back(0x99);
}

void Asm::IdivReg(Reg r) {
  Rex(true, 0, 0, r);
  buf_.push_back(0xF7);
  buf_.push_back(static_cast<uint8_t>(0xF8 | (r & 7)));
}

void Asm::MovRegReg(Reg dst, Reg src) {
  Rex(true, src, 0, dst);
  buf_.push_back(0x89);
  buf_.push_back(static_cast<uint8_t>(0xC0 | ((src & 7) << 3) | (dst & 7)));
}

void Asm::Setcc(Cond cc, Reg r8) {
  assert(r8 <= RBX && "setcc helper limited to legacy low-byte registers");
  buf_.push_back(0x0F);
  buf_.push_back(static_cast<uint8_t>(0x90 | cc));
  buf_.push_back(static_cast<uint8_t>(0xC0 | (r8 & 7)));
}

void Asm::MovzxRegReg8(Reg dst, Reg src8) {
  Rex(true, dst, 0, src8);
  buf_.push_back(0x0F);
  buf_.push_back(0xB6);
  buf_.push_back(static_cast<uint8_t>(0xC0 | ((dst & 7) << 3) | (src8 & 7)));
}

void Asm::AndReg8(Reg dst8, Reg src8) {
  buf_.push_back(0x20);
  buf_.push_back(static_cast<uint8_t>(0xC0 | ((src8 & 7) << 3) | (dst8 & 7)));
}

void Asm::OrReg8(Reg dst8, Reg src8) {
  buf_.push_back(0x08);
  buf_.push_back(static_cast<uint8_t>(0xC0 | ((src8 & 7) << 3) | (dst8 & 7)));
}

// --- SSE2 ------------------------------------------------------------------
// F2-prefixed instructions: the mandatory prefix precedes REX.

void Asm::MovsdXmmMem(Xmm dst, Reg base, int32_t disp, bool force_disp32) {
  buf_.push_back(0xF2);
  Rex(false, dst, 0, base);
  buf_.push_back(0x0F);
  buf_.push_back(0x10);
  Mem(dst, base, disp, force_disp32);
}

void Asm::MovsdMemXmm(Reg base, int32_t disp, Xmm src, bool force_disp32) {
  buf_.push_back(0xF2);
  Rex(false, src, 0, base);
  buf_.push_back(0x0F);
  buf_.push_back(0x11);
  Mem(src, base, disp, force_disp32);
}

void Asm::ArithsdXmmMem(uint8_t opcode, Xmm dst, Reg base, int32_t disp,
                        bool force_disp32) {
  buf_.push_back(0xF2);
  Rex(false, dst, 0, base);
  buf_.push_back(0x0F);
  buf_.push_back(opcode);
  Mem(dst, base, disp, force_disp32);
}

void Asm::CmpsdXmmMem(Xmm dst, Reg base, int32_t disp, FCmp pred,
                      bool force_disp32) {
  buf_.push_back(0xF2);
  Rex(false, dst, 0, base);
  buf_.push_back(0x0F);
  buf_.push_back(0xC2);
  Mem(dst, base, disp, force_disp32);
  buf_.push_back(pred);
}

void Asm::MovqRegXmm(Reg dst, Xmm src) {
  buf_.push_back(0x66);
  Rex(true, src, 0, dst);
  buf_.push_back(0x0F);
  buf_.push_back(0x7E);
  buf_.push_back(static_cast<uint8_t>(0xC0 | ((src & 7) << 3) | (dst & 7)));
}

void Asm::Cvtsi2sdXmmMem(Xmm dst, Reg base, int32_t disp, bool force_disp32) {
  buf_.push_back(0xF2);
  Rex(true, dst, 0, base);
  buf_.push_back(0x0F);
  buf_.push_back(0x2A);
  Mem(dst, base, disp, force_disp32);
}

void Asm::Cvttsd2siRegMem(Reg dst, Reg base, int32_t disp,
                          bool force_disp32) {
  buf_.push_back(0xF2);
  Rex(true, dst, 0, base);
  buf_.push_back(0x0F);
  buf_.push_back(0x2C);
  Mem(dst, base, disp, force_disp32);
}

size_t Asm::JccRel32(Cond cc) {
  buf_.push_back(0x0F);
  buf_.push_back(static_cast<uint8_t>(0x80 | cc));
  last_field_ = buf_.size();
  U32(0);
  return last_field_;
}

size_t Asm::JmpRel32() {
  buf_.push_back(0xE9);
  last_field_ = buf_.size();
  U32(0);
  return last_field_;
}

size_t Asm::Jcc8(Cond cc) {
  buf_.push_back(static_cast<uint8_t>(0x70 | cc));
  buf_.push_back(0);
  return buf_.size() - 1;
}

size_t Asm::Jmp8() {
  buf_.push_back(0xEB);
  buf_.push_back(0);
  return buf_.size() - 1;
}

void Asm::PatchRel8(size_t at) {
  ptrdiff_t rel = static_cast<ptrdiff_t>(buf_.size()) -
                  static_cast<ptrdiff_t>(at) - 1;
  assert(rel >= -128 && rel <= 127);
  buf_[at] = static_cast<uint8_t>(rel);
}

void Asm::Jmp8Back(size_t target) {
  ptrdiff_t rel = static_cast<ptrdiff_t>(target) -
                  static_cast<ptrdiff_t>(buf_.size()) - 2;
  assert(rel >= -128 && rel < 0);
  buf_.push_back(0xEB);
  buf_.push_back(static_cast<uint8_t>(rel));
}

void Asm::PushR12() {
  buf_.push_back(0x41);
  buf_.push_back(0x54);
}

void Asm::PopR12() {
  buf_.push_back(0x41);
  buf_.push_back(0x5C);
}

void Asm::Ret() { buf_.push_back(0xC3); }

void Asm::JmpReg(Reg r) {
  Rex(false, 4, 0, r);
  buf_.push_back(0xFF);
  buf_.push_back(static_cast<uint8_t>(0xE0 | (r & 7)));
}

void Asm::CallReg(Reg r) {
  Rex(false, 2, 0, r);
  buf_.push_back(0xFF);
  buf_.push_back(static_cast<uint8_t>(0xD0 | (r & 7)));
}

// ---------------------------------------------------------------------------
// CodeBuffer
// ---------------------------------------------------------------------------

CodeBuffer::~CodeBuffer() {
#if QC_JIT_HAVE_MMAP
  if (base_ != nullptr) ::munmap(base_, map_size_);
#endif
}

CodeBuffer::CodeBuffer(CodeBuffer&& o) noexcept
    : base_(o.base_), map_size_(o.map_size_), size_(o.size_) {
  o.base_ = nullptr;
  o.map_size_ = 0;
  o.size_ = 0;
}

CodeBuffer& CodeBuffer::operator=(CodeBuffer&& o) noexcept {
  if (this != &o) {
#if QC_JIT_HAVE_MMAP
    if (base_ != nullptr) ::munmap(base_, map_size_);
#endif
    base_ = o.base_;
    map_size_ = o.map_size_;
    size_ = o.size_;
    o.base_ = nullptr;
    o.map_size_ = 0;
    o.size_ = 0;
  }
  return *this;
}

bool CodeBuffer::Install(const std::vector<uint8_t>& code) {
#if QC_JIT_HAVE_MMAP
  if (code.empty()) return false;
  long page = ::sysconf(_SC_PAGESIZE);
  if (page <= 0) page = 4096;
  size_t map_size = (code.size() + page - 1) & ~static_cast<size_t>(page - 1);
  void* mem = FaultPoint("jit_mmap")
                  ? MAP_FAILED
                  : ::mmap(nullptr, map_size, PROT_READ | PROT_WRITE,
                           MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (mem == MAP_FAILED) return false;
  std::memcpy(mem, code.data(), code.size());
  if (FaultPoint("jit_mprotect") ||
      ::mprotect(mem, map_size, PROT_READ | PROT_EXEC) != 0) {
    ::munmap(mem, map_size);
    return false;  // W^X denied (e.g. noexec sandbox): degrade
  }
  base_ = static_cast<uint8_t*>(mem);
  map_size_ = map_size;
  size_ = code.size();
  return true;
#else
  (void)code;
  return false;
#endif
}

// ---------------------------------------------------------------------------
// Stitching
// ---------------------------------------------------------------------------

namespace {

// Abort thunk: mov eax, kAbortPc; pop r12; ret — the one exit besides
// kRet's. Built with the encoder so the layout pass (which only needs the
// size) and the emit pass can never disagree about the byte count.
std::vector<uint8_t> BuildAbortThunk() {
  Asm a;
  a.MovImm32(RAX, 0xFFFFFFFEu);  // jit::kAbortPc (engine.h)
  a.PopR12();
  a.Ret();
  return a.bytes();
}

// Prologue (the trampoline target): uint32_t fn(Slot* regs /*rdi*/,
// const void* target /*rsi*/) — save r12, bind the register file, tail
// into the requested entry point. kRet and the abort thunk undo it.
std::vector<uint8_t> BuildPrologue() {
  Asm a;
  a.PushR12();
  a.MovRegReg(R12, RDI);
  a.JmpReg(RSI);
  return a.bytes();
}

void Patch32(std::vector<uint8_t>& out, size_t at, uint32_t v) {
  out[at] = static_cast<uint8_t>(v);
  out[at + 1] = static_cast<uint8_t>(v >> 8);
  out[at + 2] = static_cast<uint8_t>(v >> 16);
  out[at + 3] = static_cast<uint8_t>(v >> 24);
}

void Patch64(std::vector<uint8_t>& out, size_t at, uint64_t v) {
  Patch32(out, at, static_cast<uint32_t>(v));
  Patch32(out, at + 4, static_cast<uint32_t>(v >> 32));
}

}  // namespace

StitchResult StitchProgram(const BytecodeProgram& prog) {
  StitchResult res;
  size_t n = prog.code.size();
  res.entry.assign(n, kNoEntry);

  // Template selection is per instruction, not just per opcode: probe
  // instructions pick the inline-i64 or generic-call variant on their key
  // kind (templates.h SelectTemplate).
  std::vector<const OpTemplate*> sel(n, nullptr);
  for (size_t pc = 0; pc < n; ++pc) {
    sel[pc] = SelectTemplate(prog.code[pc]);
    if (sel[pc] == nullptr) {
      std::fprintf(stderr, "jit: no template for %s\n",
                   BcOpName(static_cast<BcOp>(prog.code[pc].op)));
      std::abort();  // a template bug, not a runtime condition
    }
  }

  // One sort site per sort instruction. The compiler emits [kJmp-skip,
  // comparator..., kRet, sort], so the comparator subroutine starts at
  // insn.c. Sites are fully materialized here, before any patching — the
  // vector never grows once an address has been baked into code.
  std::vector<uint32_t> site_of(n, kNoEntry);
  for (size_t pc = 0; pc < n; ++pc) {
    const Insn& insn = prog.code[pc];
    BcOp op = static_cast<BcOp>(insn.op);
    if (op != BcOp::kArrSort && op != BcOp::kListSort) continue;
    JitSortSite site;
    site.obj_reg = insn.a;
    site.n_reg = insn.b;
    site.is_list = op == BcOp::kListSort;
    site.cmp_entry = insn.c;
    site.ps = prog.extra.data() + static_cast<uint32_t>(insn.d);
    site.state_reg = prog.state_reg;
    site_of[pc] = static_cast<uint32_t>(res.sort_sites.size());
    res.sort_sites.push_back(site);
  }

  // Layout pass: per-pc blob offsets (template sizes are fixed), then the
  // abort thunk when any template branches to it.
  const std::vector<uint8_t> prologue = BuildPrologue();
  size_t off = prologue.size();
  bool needs_abort = false;
  for (size_t pc = 0; pc < n; ++pc) {
    res.entry[pc] = static_cast<uint32_t>(off);
    off += sel[pc]->size;
    for (uint8_t i = 0; i < sel[pc]->num_patches; ++i) {
      needs_abort |= sel[pc]->patches[i].kind == PatchKind::kJumpAbort;
    }
  }
  res.num_native = static_cast<int>(n);

  // Governance abort thunk: back-edge safepoint templates and kParLoop
  // branch here when the query tripped. The safepoint slow path reaches
  // the RunState* through [countdown slot - 8], which is only valid under
  // the reserved-register adjacency the bytecode compiler guarantees.
  assert(prog.gov_cnt_reg == prog.state_reg + 1 &&
         "governed templates assume gov_cnt_reg == state_reg + 1");
  const std::vector<uint8_t> abort_code = BuildAbortThunk();
  const uint32_t abort_thunk = static_cast<uint32_t>(off);
  if (needs_abort) off += abort_code.size();

  // Emit pass.
  std::vector<uint8_t>& out = res.code;
  out.reserve(off);
  out.insert(out.end(), prologue.begin(), prologue.end());

  for (size_t pc = 0; pc < n; ++pc) {
    const OpTemplate& t = *sel[pc];
    const Insn& insn = prog.code[pc];
    size_t start = out.size();
    assert(start == res.entry[pc]);
    out.insert(out.end(), t.code, t.code + t.size);
    for (uint8_t i = 0; i < t.num_patches; ++i) {
      size_t at = start + t.patches[i].offset;
      switch (t.patches[i].kind) {
        case PatchKind::kSlotA:
          Patch32(out, at, insn.a * 8u);
          break;
        case PatchKind::kSlotB:
          Patch32(out, at, insn.b * 8u);
          break;
        case PatchKind::kSlotC:
          Patch32(out, at, insn.c * 8u);
          break;
        case PatchKind::kSlotD:
          Patch32(out, at, static_cast<uint32_t>(insn.d) * 8u);
          break;
        case PatchKind::kFieldB:
          Patch32(out, at, insn.b * 8u);
          break;
        case PatchKind::kFieldC:
          Patch32(out, at, insn.c * 8u);
          break;
        case PatchKind::kPtrB:
          Patch64(out, at,
                  reinterpret_cast<uint64_t>(prog.ptrs[insn.b]));
          break;
        case PatchKind::kConstB:
          Patch64(out, at,
                  static_cast<uint64_t>(prog.consts[insn.b].i));
          break;
        case PatchKind::kExtraA:
          Patch64(out, at,
                  reinterpret_cast<uint64_t>(prog.extra.data() + insn.a));
          break;
        case PatchKind::kExtraB:
          Patch64(out, at,
                  reinterpret_cast<uint64_t>(prog.extra.data() + insn.b));
          break;
        case PatchKind::kImmN:
          Patch32(out, at, insn.n);
          break;
        case PatchKind::kImmC:
          Patch32(out, at, insn.c);
          break;
        case PatchKind::kImmD:
          Patch32(out, at, static_cast<uint32_t>(insn.d));
          break;
        case PatchKind::kPatternC:
          Patch64(out, at,
                  reinterpret_cast<uint64_t>(&prog.patterns[insn.c]));
          break;
        case PatchKind::kSortSite:
          Patch64(out, at,
                  reinterpret_cast<uint64_t>(&res.sort_sites[site_of[pc]]));
          break;
        case PatchKind::kGovCnt:
          Patch32(out, at, prog.gov_cnt_reg * 8u);
          break;
        case PatchKind::kState:
          Patch32(out, at, prog.state_reg * 8u);
          break;
        case PatchKind::kTypeB:
          Patch64(out, at, reinterpret_cast<uint64_t>(prog.types[insn.b]));
          break;
        case PatchKind::kParLoopA:
          Patch64(out, at,
                  reinterpret_cast<uint64_t>(&prog.par_loops[insn.a]));
          break;
        case PatchKind::kJumpAbort:
          Patch32(out, at, abort_thunk - static_cast<uint32_t>(at) - 4);
          break;
        case PatchKind::kJumpD: {
          uint32_t target = static_cast<uint32_t>(pc + 1 + insn.d);
          Patch32(out, at,
                  res.entry[target] - static_cast<uint32_t>(at) - 4);
          break;
        }
      }
    }
  }
  if (needs_abort) {
    assert(out.size() == abort_thunk);
    out.insert(out.end(), abort_code.begin(), abort_code.end());
  }
  assert(out.size() == off);
  return res;
}

}  // namespace qc::exec::jit
