#include "analysis/mutations.h"

#include <cstring>
#include <string>

#include "jit/templates.h"

namespace qc::exec::analysis {

namespace {

uint16_t Op(BcOp op) { return static_cast<uint16_t>(op); }

bool IsOp(const Insn& insn, BcOp op) { return insn.op == Op(op); }

Insn* FindOp(BytecodeProgram* prog, BcOp op) {
  for (Insn& insn : prog->code) {
    if (IsOp(insn, op)) return &insn;
  }
  return nullptr;
}

// ---- bytecode mutations ---------------------------------------------------

bool ClobberContextReg(BytecodeProgram* prog) {
  Insn* insn = FindOp(prog, BcOp::kLoadK);
  if (insn == nullptr) return false;
  insn->a = prog->state_reg;
  return true;
}

bool BackEdgeWithoutSafepoint(BytecodeProgram* prog) {
  for (Insn& insn : prog->code) {
    if (IsOp(insn, BcOp::kForNext) && insn.d < 0) {
      // A plain conditional branch on the same slot: the loop keeps its
      // shape but the back edge no longer polls the governor.
      insn.op = Op(BcOp::kJnz);
      return true;
    }
  }
  return false;
}

bool JumpOutOfBounds(BytecodeProgram* prog) {
  for (Insn& insn : prog->code) {
    if (IsOp(insn, BcOp::kJmp) || IsOp(insn, BcOp::kJz) ||
        IsOp(insn, BcOp::kJnz) || IsOp(insn, BcOp::kForNext)) {
      insn.d = 1000000;
      return true;
    }
  }
  return false;
}

bool RegisterOutOfRange(BytecodeProgram* prog) {
  Insn* insn = FindOp(prog, BcOp::kLoadK);
  if (insn == nullptr) return false;
  insn->a = prog->num_regs + 7;
  return true;
}

bool ReadOfUndefinedReg(BytecodeProgram* prog) {
  // A brand-new register nothing ever writes.
  uint32_t fresh = prog->num_regs++;
  Insn* insn = FindOp(prog, BcOp::kMov);
  if (insn != nullptr) {
    insn->b = fresh;
    return true;
  }
  insn = FindOp(prog, BcOp::kJz);
  if (insn == nullptr) insn = FindOp(prog, BcOp::kJnz);
  if (insn == nullptr) return false;
  insn->a = fresh;
  return true;
}

bool GovCountdownNotAdjacent(BytecodeProgram* prog) {
  prog->gov_cnt_reg = prog->state_reg;  // aliases + breaks adjacency
  return true;
}

bool EmitToWrongRegister(BytecodeProgram* prog) {
  Insn* insn = FindOp(prog, BcOp::kEmit);
  if (insn == nullptr) return false;
  insn->b = prog->gov_cnt_reg;
  return true;
}

bool LogRowToForeignRegister(BytecodeProgram* prog) {
  Insn* insn = FindOp(prog, BcOp::kLogRow);
  if (insn == nullptr) return false;
  insn->c = prog->state_reg;  // state_reg is never a bound touched-slot log
  return true;
}

bool TouchedAppendInMainStream(BytecodeProgram* prog) {
  // A copy of a fragment's touched-slot append over the main-stream
  // instruction after the first kParLoop header: the main run has no
  // touched log to append to.
  const Insn* touched = nullptr;
  uint32_t main_end = static_cast<uint32_t>(prog->code.size());
  for (const ParLoopCode& plc : prog->par_loops) {
    if (plc.entry < main_end) main_end = plc.entry;
    for (const Insn& insn : prog->code) {
      for (uint32_t r : plc.log_regs) {
        if (IsOp(insn, BcOp::kLogRow) && insn.c == r) touched = &insn;
      }
    }
  }
  if (touched == nullptr) return false;
  for (uint32_t pc = 0; pc + 1 < main_end; ++pc) {
    if (IsOp(prog->code[pc], BcOp::kParLoop)) {
      prog->code[pc + 1] = *touched;
      return true;
    }
  }
  return false;
}

// ---- stitched-image mutations ---------------------------------------------

void Wr32(std::vector<uint8_t>* code, size_t at, uint32_t v) {
  (*code)[at] = static_cast<uint8_t>(v);
  (*code)[at + 1] = static_cast<uint8_t>(v >> 8);
  (*code)[at + 2] = static_cast<uint8_t>(v >> 16);
  (*code)[at + 3] = static_cast<uint8_t>(v >> 24);
}

uint32_t Rd32(const std::vector<uint8_t>& code, size_t at) {
  return uint32_t(code[at]) | uint32_t(code[at + 1]) << 8 |
         uint32_t(code[at + 2]) << 16 | uint32_t(code[at + 3]) << 24;
}

// Finds the first natively-stitched pc whose template carries a patch of
// `kind`; returns the blob offset of that patch field, or SIZE_MAX.
size_t FindPatchField(const BytecodeProgram& prog,
                      const jit::StitchResult& st, jit::PatchKind kind,
                      uint32_t* pc_out) {
  for (size_t pc = 0; pc < prog.code.size(); ++pc) {
    const jit::OpTemplate* t = jit::SelectTemplate(prog.code[pc]);
    if (t == nullptr) continue;
    for (uint8_t i = 0; i < t->num_patches; ++i) {
      if (t->patches[i].kind != kind) continue;
      if (pc_out != nullptr) *pc_out = static_cast<uint32_t>(pc);
      return size_t(st.entry[pc]) + t->patches[i].offset;
    }
  }
  return SIZE_MAX;
}

bool TruncateBlob(const BytecodeProgram&, jit::StitchResult* st) {
  if (st->code.empty()) return false;
  st->code.pop_back();
  return true;
}

bool CorruptEntryOffset(const BytecodeProgram&, jit::StitchResult* st) {
  if (st->entry.empty()) return false;
  st->entry[0] += 1;
  return true;
}

bool CorruptNumNative(const BytecodeProgram&, jit::StitchResult* st) {
  if (st->num_native == 0) return false;
  st->num_native -= 1;
  return true;
}

bool CorruptBranchRel32(const BytecodeProgram& prog, jit::StitchResult* st) {
  size_t at = FindPatchField(prog, *st, jit::PatchKind::kJumpD, nullptr);
  if (at == SIZE_MAX || at + 4 > st->code.size()) return false;
  Wr32(&st->code, at, Rd32(st->code, at) + 4);
  return true;
}

bool CorruptSlotDisplacement(const BytecodeProgram& prog,
                             jit::StitchResult* st) {
  for (jit::PatchKind k : {jit::PatchKind::kSlotA, jit::PatchKind::kSlotB,
                           jit::PatchKind::kSlotC}) {
    size_t at = FindPatchField(prog, *st, k, nullptr);
    if (at == SIZE_MAX || at + 4 > st->code.size()) continue;
    Wr32(&st->code, at, Rd32(st->code, at) + 8);  // off-by-one register
    return true;
  }
  return false;
}

bool CorruptSortSiteEntry(const BytecodeProgram&, jit::StitchResult* st) {
  if (st->sort_sites.empty()) return false;
  st->sort_sites[0].cmp_entry += 1;
  return true;
}

}  // namespace

const std::vector<BcMutation>& BcMutations() {
  static const std::vector<BcMutation> muts = {
      {"clobbered-context-reg", "context-reg-clobber", ClobberContextReg},
      {"back-edge-without-safepoint", "backedge-safepoint",
       BackEdgeWithoutSafepoint},
      {"jump-out-of-bounds", "jump-bounds", JumpOutOfBounds},
      {"register-out-of-range", "operand-bounds", RegisterOutOfRange},
      {"read-of-undefined-reg", "def-before-use", ReadOfUndefinedReg},
      {"gov-countdown-not-adjacent", "context-reg-contract",
       GovCountdownNotAdjacent},
      {"emit-to-wrong-register", "context-reg-contract", EmitToWrongRegister},
      {"logrow-to-foreign-register", "fragment-isolation",
       LogRowToForeignRegister},
      {"touched-append-in-main-stream", "fragment-isolation",
       TouchedAppendInMainStream},
  };
  return muts;
}

const std::vector<JitMutation>& JitMutations() {
  static const std::vector<JitMutation> muts = {
      {"truncated-blob", "entry-layout", TruncateBlob},
      {"corrupted-entry-offset", "entry-layout", CorruptEntryOffset},
      {"corrupted-num-native", "entry-layout", CorruptNumNative},
      {"corrupted-branch-rel32", "jump-fixup",
       CorruptBranchRel32},
      {"corrupted-slot-displacement", "patch-value", CorruptSlotDisplacement},
      {"corrupted-sort-site", "sort-site", CorruptSortSiteEntry},
  };
  return muts;
}

namespace {

// Skeleton shared by the synthetic programs: 16 registers, context regs
// r13/r14, presets for r0/r1.
BytecodeProgram SyntheticBase() {
  BytecodeProgram p;
  p.num_regs = 16;
  p.state_reg = 13;
  p.gov_cnt_reg = 14;
  Slot s{};
  p.presets.emplace_back(0, s);
  p.presets.emplace_back(1, s);
  return p;
}

Insn MakeInsn(BcOp op, uint32_t a = 0, uint32_t b = 0, uint32_t c = 0,
              int32_t d = 0) {
  Insn insn{};
  insn.op = Op(op);
  insn.a = a;
  insn.b = b;
  insn.c = c;
  insn.d = d;
  return insn;
}

}  // namespace

BytecodeProgram SyntheticTypeConfusion() {
  // r2 provably holds an i64 (comparison result); kAddF then reads it as
  // an f64.
  BytecodeProgram p = SyntheticBase();
  p.code.push_back(MakeInsn(BcOp::kEqI, 2, 0, 1));
  p.code.push_back(MakeInsn(BcOp::kAddF, 3, 2, 2));
  p.code.push_back(MakeInsn(BcOp::kRet));
  return p;
}

BytecodeProgram SyntheticCrossRegionJump() {
  // A main-stream branch whose target lands inside a comparator
  // subroutine region.
  BytecodeProgram p = SyntheticBase();
  p.extra = {5, 6, 7};
  p.code.push_back(MakeInsn(BcOp::kJz, 0, 0, 0, +1));  // -> pc 2: foreign
  p.code.push_back(MakeInsn(BcOp::kJmp, 0, 0, 0, +2));
  p.code.push_back(MakeInsn(BcOp::kMov, 7, 5));        // comparator body
  p.code.push_back(MakeInsn(BcOp::kRet));
  p.code.push_back(MakeInsn(BcOp::kArrSort, 0, 1, 2));
  p.code.push_back(MakeInsn(BcOp::kRet));
  return p;
}

bool InvariantMatches(const char* expected, const std::string& invariant) {
  const char* s = expected;
  while (*s != '\0') {
    const char* bar = std::strchr(s, '|');
    size_t len = bar != nullptr ? size_t(bar - s) : std::strlen(s);
    if (invariant.size() == len && std::memcmp(invariant.data(), s, len) == 0) {
      return true;
    }
    if (bar == nullptr) break;
    s = bar + 1;
  }
  return false;
}

}  // namespace qc::exec::analysis
