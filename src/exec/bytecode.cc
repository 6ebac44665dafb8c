#include "exec/bytecode.h"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "common/str.h"
#include "ir/numbering.h"
#include "jit/engine.h"

namespace qc::exec {

using ir::Block;
using ir::Op;
using ir::Stmt;
using ir::Type;
using ir::TypeKind;

namespace {

storage::ColType ToColType(const Type* t) {
  switch (t->kind) {
    case TypeKind::kF64: return storage::ColType::kF64;
    case TypeKind::kStr: return storage::ColType::kStr;
    case TypeKind::kDate: return storage::ColType::kDate;
    default: return storage::ColType::kI64;
  }
}

void FindEmit(const Block* b, std::vector<storage::ColType>* types,
              bool* found) {
  for (const Stmt* s : b->stmts) {
    if (*found) return;
    if (s->op == Op::kEmit) {
      for (const Stmt* a : s->args) types->push_back(ToColType(a->type));
      *found = true;
      return;
    }
    for (const Block* nb : s->blocks) FindEmit(nb, types, found);
  }
}

// Emit-row column types of a function (the schema of its kEmit statements).
std::vector<storage::ColType> EmitRowTypes(const ir::Function& fn) {
  std::vector<storage::ColType> types;
  bool found = false;
  FindEmit(fn.body(), &types, &found);
  return types;
}

// Mirror of a comparison when its operands are swapped (a < b  <=>  b > a).
Op SwapCmp(Op op) {
  switch (op) {
    case Op::kLt: return Op::kGt;
    case Op::kLe: return Op::kGe;
    case Op::kGt: return Op::kLt;
    case Op::kGe: return Op::kLe;
    default: return op;  // kEq/kNe are symmetric
  }
}

bool IsCmp(Op op) {
  switch (op) {
    case Op::kEq:
    case Op::kNe:
    case Op::kLt:
    case Op::kLe:
    case Op::kGt:
    case Op::kGe:
      return true;
    default:
      return false;
  }
}

// Statements that compile to register presets rather than instructions.
// They are invisible to the peephole pattern matchers.
bool IsTransparent(const Stmt* s) {
  switch (s->op) {
    case Op::kConst:
    case Op::kNull:
    case Op::kTableRows:
    case Op::kPoolNew:
    case Op::kFree:
      return true;
    default:
      return false;
  }
}

// Pure ops that may form the condition run of a fused filter.
bool IsCondOp(Op op) {
  switch (op) {
    case Op::kColGet:
    case Op::kColDict:
    case Op::kBitAnd:
    case Op::kAnd:
    case Op::kIsNull:
    case Op::kNot:
      return true;
    default:
      return IsCmp(op);
  }
}

bool Contains(const std::vector<const Stmt*>& v, const Stmt* s) {
  for (const Stmt* e : v) {
    if (e == s) return true;
  }
  return false;
}

// Does `user` consume `s`, directly or anywhere inside its nested blocks?
bool UsesStmtDeep(const Stmt* user, const Stmt* s) {
  for (const Stmt* a : user->args) {
    if (a == s) return true;
  }
  for (const Block* b : user->blocks) {
    if (b->result == s) return true;
    for (const Stmt* t : b->stmts) {
      if (UsesStmtDeep(t, s)) return true;
    }
  }
  return false;
}

// Branch-if-false opcode for an integral comparison (register lhs/rhs
// form). Only integral compares fuse: TPC-H money is a decimal, and an f64
// compare (Q17's and Q22's against an average) stays compare + kJz.
BcOp CmpBranchOp(Op cmp) {
  switch (cmp) {
    case Op::kEq: return BcOp::kJnEqI;
    case Op::kNe: return BcOp::kJnNeI;
    case Op::kLt: return BcOp::kJnLtI;
    case Op::kLe: return BcOp::kJnLeI;
    case Op::kGt: return BcOp::kJnGtI;
    default: return BcOp::kJnGeI;
  }
}

// True for an operand type a fused compare-branch takes.
bool FusesCompare(const Type* t) {
  return t->kind != TypeKind::kStr && t->kind != TypeKind::kF64;
}

// Key-kind flag (field d of the hash-probe instructions): matches
// SlotHasher's type dispatch — anything that hashes/compares as a plain
// integral slot is i64-probe-able by the JIT.
int32_t MapKeyKind(const Type* key) {
  return (key != nullptr && key->kind != TypeKind::kStr &&
          key->kind != TypeKind::kRecord)
             ? kMapKeyI64
             : kMapKeyOther;
}

// Branch-if-false opcode for a fused column-read comparison.
BcOp ColCmpBranchOp(Op cmp) {
  switch (cmp) {
    case Op::kEq: return BcOp::kJnColEqI;
    case Op::kNe: return BcOp::kJnColNeI;
    case Op::kLt: return BcOp::kJnColLtI;
    case Op::kLe: return BcOp::kJnColLeI;
    case Op::kGt: return BcOp::kJnColGtI;
    default: return BcOp::kJnColGeI;
  }
}

}  // namespace

const char* BcOpName(BcOp op) {
  static const char* kNames[] = {
#define QC_BC_OP_NAME(name) #name,
      QC_BC_OP_LIST(QC_BC_OP_NAME)
#undef QC_BC_OP_NAME
  };
  return kNames[static_cast<int>(op)];
}

std::string Disassemble(const BytecodeProgram& prog) {
  std::string out;
  char line[160];
  for (size_t pc = 0; pc < prog.code.size(); ++pc) {
    const Insn& insn = prog.code[pc];
    BcOp op = static_cast<BcOp>(insn.op);
    std::snprintf(line, sizeof(line), "%4zu: %-14s a=%u b=%u c=%u d=%d n=%u",
                  pc, BcOpName(op), insn.a, insn.b, insn.c, insn.d, insn.n);
    out += line;
    // Jump-carrying instructions: show the resolved target.
    switch (op) {
      case BcOp::kJmp:
      case BcOp::kJz:
      case BcOp::kJnz:
      case BcOp::kJgeI:
      case BcOp::kForNext:
      case BcOp::kIncJmp:
      case BcOp::kJmpSp:
#define QC_BC_DIS_JMP(name) case BcOp::name:
        QC_BC_DIS_JMP(kJnEqI) QC_BC_DIS_JMP(kJnNeI) QC_BC_DIS_JMP(kJnLtI)
        QC_BC_DIS_JMP(kJnLeI) QC_BC_DIS_JMP(kJnGtI) QC_BC_DIS_JMP(kJnGeI)
        QC_BC_DIS_JMP(kJnColEqI) QC_BC_DIS_JMP(kJnColNeI)
        QC_BC_DIS_JMP(kJnColLtI) QC_BC_DIS_JMP(kJnColLeI)
        QC_BC_DIS_JMP(kJnColGtI) QC_BC_DIS_JMP(kJnColGeI)
#undef QC_BC_DIS_JMP
        std::snprintf(line, sizeof(line), "  -> %zd",
                      static_cast<ptrdiff_t>(pc) + 1 + insn.d);
        out += line;
        break;
      default:
        break;
    }
    out += '\n';
  }
  return out;
}

// ---------------------------------------------------------------------------
// Compiler
// ---------------------------------------------------------------------------

uint32_t BytecodeCompiler::Reg(const Stmt* s) const {
  auto it = alias_.find(s->id);
  return it != alias_.end() ? it->second
                            : static_cast<uint32_t>(s->id);
}

bool BytecodeCompiler::SoleUseBy(const Stmt* s, const Stmt* user) const {
  if (uses_[s->id] != 1) return false;
  for (const Stmt* a : user->args) {
    if (a == s) return true;
  }
  return false;
}

size_t BytecodeCompiler::Emit(BcOp op, uint32_t a, uint32_t b, uint32_t c,
                              int32_t d, uint16_t n) {
  Insn insn;
  insn.op = static_cast<uint16_t>(op);
  insn.n = n;
  insn.a = a;
  insn.b = b;
  insn.c = c;
  insn.d = d;
  prog_.code.push_back(insn);
  return prog_.code.size() - 1;
}

void BytecodeCompiler::PatchToHere(size_t at) {
  prog_.code[at].d =
      static_cast<int32_t>(prog_.code.size()) - static_cast<int32_t>(at) - 1;
}

int32_t BytecodeCompiler::OffsetTo(size_t target) const {
  // Offset for the instruction about to be emitted at code.size().
  return static_cast<int32_t>(target) -
         static_cast<int32_t>(prog_.code.size()) - 1;
}

uint32_t BytecodeCompiler::PtrIdx(const void* p) {
  for (size_t i = 0; i < prog_.ptrs.size(); ++i) {
    if (prog_.ptrs[i] == p) return static_cast<uint32_t>(i);
  }
  prog_.ptrs.push_back(p);
  return static_cast<uint32_t>(prog_.ptrs.size() - 1);
}

uint32_t BytecodeCompiler::TypeIdx(const Type* t) {
  for (size_t i = 0; i < prog_.types.size(); ++i) {
    if (prog_.types[i] == t) return static_cast<uint32_t>(i);
  }
  prog_.types.push_back(t);
  return static_cast<uint32_t>(prog_.types.size() - 1);
}

uint32_t BytecodeCompiler::KonstI(int64_t v) {
  for (size_t i = 0; i < prog_.consts.size(); ++i) {
    if (prog_.consts[i].i == v) return static_cast<uint32_t>(i);
  }
  prog_.consts.push_back(SlotI(v));
  return static_cast<uint32_t>(prog_.consts.size() - 1);
}

uint32_t BytecodeCompiler::ExtraList(const std::vector<uint32_t>& regs) {
  uint32_t off = static_cast<uint32_t>(prog_.extra.size());
  prog_.extra.insert(prog_.extra.end(), regs.begin(), regs.end());
  return off;
}

void BytecodeCompiler::Preset(const Stmt* s, Slot v) {
  prog_.presets.emplace_back(Reg(s), v);
}

void BytecodeCompiler::EmitMovOrRetarget(uint32_t dst, const Stmt* src) {
  // Write-back elimination: when the value was produced by the immediately
  // preceding instruction and has no other use, retarget that instruction's
  // destination instead of emitting a copy.
  if (last_value_stmt_ == src && uses_[src->id] == 1 && !prog_.code.empty()) {
    prog_.code.back().a = dst;
    return;
  }
  Emit(BcOp::kMov, dst, Reg(src));
}

BytecodeProgram BytecodeCompiler::Compile(const ir::Function& fn,
                                          const ir::ParallelInfo* par) {
  prog_ = BytecodeProgram();
  num_regs_ = static_cast<uint32_t>(fn.num_stmts());
  // Context registers, written by the runtime. Must stay consecutive
  // (gov_cnt_reg == state_reg + 1, see BytecodeProgram) — the JIT
  // safepoint template depends on it.
  prog_.state_reg = NewTemp();
  prog_.gov_cnt_reg = NewTemp();
  uses_ = ir::ComputeUseCounts(fn);
  alias_.clear();
  last_value_stmt_ = nullptr;
  par_info_ = par;
  par_ = nullptr;
  pending_par_.clear();
  fuse_skip_.clear();
  prog_.emit_types = EmitRowTypes(fn);
  CompileBlock(fn.body());
  Emit(BcOp::kRet);
  // Body fragments of the parallelizable loops, after the main stream: the
  // loop over bounds in two fresh registers the runtime writes per run of
  // the fragment, with the array stores followed by touched-slot appends
  // (ir::ParLoop::touch).
  for (const auto& [loop, idx] : pending_par_) {
    ParLoopCode& plc = prog_.par_loops[idx];
    par_ = plc.plan;
    plc.entry = static_cast<uint32_t>(prog_.code.size());
    plc.lo_reg = NewTemp();
    plc.hi_reg = NewTemp();
    plc.log_regs.clear();
    for (size_t i = 0; i < plc.plan->reductions.size(); ++i) {
      plc.log_regs.push_back(NewTemp());
    }
    frag_ = &plc;
    EmitForRange(loop->blocks[0], plc.lo_reg, plc.hi_reg);
    Emit(BcOp::kRet);
    par_ = nullptr;
    frag_ = nullptr;
  }
  par_info_ = nullptr;
  prog_.num_regs = num_regs_;
  return std::move(prog_);
}

void BytecodeCompiler::CompileBlock(const Block* b) {
  // A nested block is a new extended-basic-block: the write-back
  // retargeting peephole must not reach across its entry (the previous
  // instruction executes a different number of times than the block body).
  last_value_stmt_ = nullptr;
  // Preset-only statements emit no instructions; compile them up front
  // (their values are position-independent) and pattern-match over the
  // instruction-producing rest. Condition statements folded into a fused
  // while-exit branch vanish here.
  std::vector<const Stmt*> real;
  real.reserve(b->stmts.size());
  for (const Stmt* s : b->stmts) {
    if (!fuse_skip_.empty() && Contains(fuse_skip_, s)) continue;
    if (IsTransparent(s)) {
      CompileStmt(s);
    } else {
      real.push_back(s);
    }
  }
  // Lazy-load scheduling: column reads are pure and base columns are
  // immutable during execution, so sink each read to just before its first
  // consumer in this block. Rows rejected by an earlier filter predicate
  // then never touch the remaining columns — and the read usually lands
  // adjacent to the compare that consumes it, where the branch fuser can
  // fold it away entirely.
  for (size_t i = real.size(); i-- > 0;) {
    const Stmt* s = real[i];
    if (s->op != Op::kColGet && s->op != Op::kColDict) continue;
    size_t first_use = real.size();
    for (size_t j = i + 1; j < real.size(); ++j) {
      if (UsesStmtDeep(real[j], s)) {
        first_use = j;
        break;
      }
    }
    if (first_use == real.size() || first_use == i + 1) continue;
    real.erase(real.begin() + i);
    real.insert(real.begin() + (first_use - 1), s);
  }
  for (size_t i = 0; i < real.size(); ++i) {
    const Stmt* s = real[i];
    if (par_ != nullptr && par_->touch[s->id] >= 0) {
      CompileStmt(s);
      EmitTouchRow(s);
      last_value_stmt_ = nullptr;
      continue;
    }
    size_t consumed = TryFuseBranch(real, i, b->result);
    if (consumed == 0) consumed = TryFuseAccumulate(real, i);
    if (consumed > 0) {
      last_value_stmt_ = nullptr;
      i += consumed - 1;
      continue;
    }
    const Stmt* next = i + 1 < real.size() ? real[i + 1] : nullptr;
    // kVarRead forwarding: when the single consumer is the adjacent
    // statement and reads it as a direct argument, the read can alias the
    // variable's register — no intervening assignment is possible. Loop
    // statements are excluded: they re-read argument registers on every
    // iteration, after the body may have reassigned the variable.
    if (s->op == Op::kVarRead && next != nullptr && uses_[s->id] == 1 &&
        (next->blocks.empty() || next->op == Op::kIf)) {
      bool used_by_next = false;
      for (const Stmt* a : next->args) used_by_next |= (a == s);
      if (used_by_next) {
        alias_[s->id] = Reg(s->args[0]);
        continue;  // no instruction emitted; retarget tracking unchanged
      }
    }
    CompileStmt(s);
    switch (s->op) {
      case Op::kVarAssign:
      case Op::kVarNew:
      case Op::kVarRead:
      case Op::kRecSet:
      case Op::kArrSet:
      case Op::kListAppend:
      case Op::kMMapAdd:
      case Op::kEmit:
      case Op::kIf:
      case Op::kForRange:
      case Op::kWhile:
      case Op::kListForeach:
      case Op::kMapForeach:
      case Op::kArrSortBy:
      case Op::kListSortBy:
        // Stores, control flow, and the var ops (which may themselves have
        // retargeted or emitted a Mov whose destination is a variable
        // register — unsafe to retarget again).
        last_value_stmt_ = nullptr;
        break;
      case Op::kCast:
        // Same-width casts emit Mov and are handled like var moves.
        last_value_stmt_ = nullptr;
        break;
      default:
        // Single instruction with the destination register in field `a`.
        last_value_stmt_ = s;
        break;
    }
  }
}

size_t BytecodeCompiler::EmitLeafBranch(
    const Stmt* leaf, const std::vector<const Stmt*>& window,
    std::vector<const Stmt*>* folded) {
  bool in_window = Contains(window, leaf);
  // Comparison leaf: branch directly on the operands, optionally folding a
  // single-use column read into the branch itself.
  if (in_window && IsCmp(leaf->op) && uses_[leaf->id] == 1 &&
      FusesCompare(leaf->args[0]->type)) {
    folded->push_back(leaf);
    const Stmt* lhs = leaf->args[0];
    const Stmt* rhs = leaf->args[1];
    for (int side = 0; side < 2; ++side) {
      const Stmt* col = side == 0 ? lhs : rhs;
      const Stmt* other = side == 0 ? rhs : lhs;
      if (col->op == Op::kColGet && Contains(window, col) &&
          SoleUseBy(col, leaf) && col != other) {
        folded->push_back(col);
        Op op = side == 0 ? leaf->op : SwapCmp(leaf->op);
        prog_.fused += 2;
        return Emit(ColCmpBranchOp(op), Reg(other),
                    PtrIdx(db_->table(col->aux0).column(col->aux1).data.data()),
                    Reg(col->args[0]));
      }
    }
    ++prog_.fused;
    return Emit(CmpBranchOp(leaf->op), Reg(lhs), Reg(rhs));
  }
  // not(is_null(p)) — the hash-probe hit test: skip when p is null.
  if (in_window && leaf->op == Op::kNot && uses_[leaf->id] == 1) {
    folded->push_back(leaf);
    const Stmt* inner = leaf->args[0];
    if (inner->op == Op::kIsNull && Contains(window, inner) &&
        SoleUseBy(inner, leaf)) {
      folded->push_back(inner);
      prog_.fused += 2;
      return Emit(BcOp::kJz, Reg(inner->args[0]));
    }
    ++prog_.fused;
    return Emit(BcOp::kJnz, Reg(inner));
  }
  // is_null(p): skip when p is non-null.
  if (in_window && leaf->op == Op::kIsNull && uses_[leaf->id] == 1) {
    folded->push_back(leaf);
    ++prog_.fused;
    return Emit(BcOp::kJnz, Reg(leaf->args[0]));
  }
  // Generic boolean value (computed normally before the branches).
  return Emit(BcOp::kJz, Reg(leaf));
}

size_t BytecodeCompiler::TryFuseBranch(const std::vector<const Stmt*>& st,
                                       size_t i,
                                       const Stmt* block_result) {
  if (!IsCondOp(st[i]->op)) return 0;
  // Find the maximal run of pure condition statements ending at a kIf.
  size_t k = i;
  while (k < st.size() && IsCondOp(st[k]->op)) ++k;
  if (k >= st.size() || st[k]->op != Op::kIf) return 0;
  const Stmt* ifs = st[k];
  const Stmt* root = ifs->args[0];
  std::vector<const Stmt*> window(st.begin() + i, st.begin() + k);
  if (!Contains(window, root) || uses_[root->id] != 1) return 0;

  // Flatten the conjunction tree rooted at the condition. BitAnd/And nodes
  // consumed entirely by the tree disappear; everything else is a leaf.
  std::vector<const Stmt*> leaves;
  std::vector<const Stmt*> folded;
  std::vector<const Stmt*> pending = {root};
  while (!pending.empty()) {
    const Stmt* node = pending.back();
    pending.pop_back();
    if ((node->op == Op::kBitAnd || node->op == Op::kAnd) &&
        Contains(window, node) && uses_[node->id] == 1) {
      folded.push_back(node);
      // Evaluation order of pure conjuncts is free; keep source order.
      pending.push_back(node->args[1]);
      pending.push_back(node->args[0]);
    } else {
      leaves.push_back(node);
    }
  }
  if (folded.empty() && leaves.size() == 1 && leaves[0] == root &&
      !IsCmp(root->op) && root->op != Op::kIsNull && root->op != Op::kNot) {
    return 0;  // nothing fusible: plain boolean condition
  }

  // Pass 1: decide which leaves fold into branches (dry run so that
  // non-folded window statements can be compiled first, in order).
  {
    std::vector<const Stmt*> probe_folded;
    size_t before = prog_.code.size();
    int fused_before = prog_.fused;
    for (const Stmt* leaf : leaves) {
      EmitLeafBranch(leaf, window, &probe_folded);
    }
    // Roll back the probe emission; keep only the fold decisions.
    prog_.code.resize(before);
    prog_.fused = fused_before;
    for (const Stmt* s : probe_folded) folded.push_back(s);
  }

  // Partition the surviving window statements: values consumed by the
  // branch cascade, visible outside the then-block, or dead must be
  // computed up front; everything else (typically column reads feeding only
  // the then-path) is deferred past the last predicate, so rejected rows
  // never compute it.
  std::vector<const Stmt*> deferred;
  for (const Stmt* s : window) {
    if (Contains(folded, s)) continue;
    bool visible = Contains(leaves, s) || s == block_result ||
                   uses_[s->id] == 0;
    if (!visible && ifs->blocks.size() > 1) {
      visible = ifs->blocks[1]->result == s;
      for (const Stmt* t : ifs->blocks[1]->stmts) {
        if (visible) break;
        visible = UsesStmtDeep(t, s);
      }
    }
    for (size_t j = k + 1; j < st.size() && !visible; ++j) {
      visible = UsesStmtDeep(st[j], s);
    }
    if (!visible) deferred.push_back(s);
  }
  // Dependency closure: a value feeding an up-front statement must itself
  // be computed up front. Folded statements count — a comparison folded
  // into a branch still reads its non-folded operands at branch time.
  for (bool changed = true; changed;) {
    changed = false;
    for (const Stmt* s : window) {
      if (Contains(deferred, s)) continue;
      for (const Stmt* a : s->args) {
        auto it = std::find(deferred.begin(), deferred.end(), a);
        if (it != deferred.end()) {
          deferred.erase(it);
          changed = true;
        }
      }
    }
  }

  // Pass 2: compile the up-front window statements, in order.
  for (const Stmt* s : window) {
    if (!Contains(folded, s) && !Contains(deferred, s)) CompileStmt(s);
  }
  // Pass 3: emit one branch-if-false per conjunct.
  std::vector<size_t> branches;
  std::vector<const Stmt*> ignored;
  branches.reserve(leaves.size());
  for (const Stmt* leaf : leaves) {
    branches.push_back(EmitLeafBranch(leaf, window, &ignored));
  }
  // Pass 4: the deferred (then-path-only) statements run after the filters.
  for (const Stmt* s : window) {
    if (Contains(deferred, s)) CompileStmt(s);
  }
  CompileIfBody(ifs, branches);
  return k - i + 1;
}

size_t BytecodeCompiler::TryFuseAccumulate(
    const std::vector<const Stmt*>& st, size_t i) {
  if (i + 2 >= st.size()) return 0;
  const Stmt* ld = st[i];
  const Stmt* add = st[i + 1];
  const Stmt* store = st[i + 2];
  if (ld->op != Op::kRecGet) return 0;
  if (add->op != Op::kAdd) return 0;
  const Stmt* x = nullptr;
  if (add->args[0] == ld && add->args[1] != ld) {
    x = add->args[1];
  } else if (add->args[1] == ld && add->args[0] != ld) {
    x = add->args[0];
  } else {
    return 0;
  }
  if (!SoleUseBy(ld, add) || !SoleUseBy(add, store)) return 0;
  if (store->op != Op::kRecSet || store->args[0] != ld->args[0] ||
      store->aux0 != ld->aux0 || store->args[1] != add) {
    return 0;
  }
  // An f64 sum stays three instructions: no TPC-H query has one.
  if (add->type->kind == TypeKind::kF64) return 0;
  Emit(BcOp::kRecAccAddI, Reg(ld->args[0]), static_cast<uint32_t>(ld->aux0),
       Reg(x));
  prog_.fused += 2;
  return 3;
}

void BytecodeCompiler::CompileIfBody(const Stmt* ifstmt,
                                     const std::vector<size_t>& branches) {
  CompileBlock(ifstmt->blocks[0]);
  if (ifstmt->blocks.size() > 1) {
    size_t jend = Emit(BcOp::kJmp);
    size_t else_start = prog_.code.size();
    for (size_t br : branches) PatchToHere(br);
    CompileBlock(ifstmt->blocks[1]);
    if (prog_.code.size() == else_start) {
      // The else block emitted nothing (presets only): drop the then-exit
      // jump and retarget the branches past it.
      prog_.code.pop_back();
      for (size_t br : branches) PatchToHere(br);
    } else {
      PatchToHere(jend);
    }
  } else {
    for (size_t br : branches) PatchToHere(br);
  }
  last_value_stmt_ = nullptr;
}

uint32_t BytecodeCompiler::CompileSubroutine(const Block* b) {
  uint32_t entry = static_cast<uint32_t>(prog_.code.size());
  CompileBlock(b);
  Emit(BcOp::kRet);
  return entry;
}

size_t BytecodeCompiler::EmitWhileExit(const Block* b) {
  const Stmt* res = b->result;
  auto in_b = [&](const Stmt* s) {
    for (const Stmt* t : b->stmts) {
      if (t == s) return true;
    }
    return false;
  };
  // Decide the fusible tail: the condition statements whose only consumer
  // is the loop-exit test fold into the branch instead of materializing a
  // boolean (the hash-chain probe idiom `while (!is_null(cur))` becomes a
  // single kJz on the chain variable).
  std::vector<const Stmt*> skip;
  enum class Shape { kNone, kExitIfZero, kExitIfNonZero, kCmp } shape =
      Shape::kNone;
  const Stmt* lhs = nullptr;
  const Stmt* rhs = nullptr;
  Op cmp = Op::kEq;
  if (res != nullptr && in_b(res) && uses_[res->id] == 1) {
    if (res->op == Op::kNot) {
      const Stmt* inner = res->args[0];
      if (inner->op == Op::kIsNull && in_b(inner) && uses_[inner->id] == 1) {
        // while (!is_null(p)): exit when p is null.
        skip = {res, inner};
        lhs = inner->args[0];
        // A single-use var_read feeding only the test folds away too.
        if (lhs->op == Op::kVarRead && in_b(lhs) && uses_[lhs->id] == 1) {
          skip.push_back(lhs);
          lhs = lhs->args[0];
        }
        shape = Shape::kExitIfZero;
      } else {
        // while (!x): exit when x is true.
        skip = {res};
        lhs = inner;
        shape = Shape::kExitIfNonZero;
      }
    } else if (res->op == Op::kIsNull) {
      // while (is_null(p)): exit when p is non-null.
      skip = {res};
      lhs = res->args[0];
      shape = Shape::kExitIfNonZero;
    } else if (IsCmp(res->op) && FusesCompare(res->args[0]->type)) {
      skip = {res};
      lhs = res->args[0];
      rhs = res->args[1];
      cmp = res->op;
      shape = Shape::kCmp;
    }
  }
  if (shape == Shape::kNone) {
    CompileBlock(b);
    return Emit(BcOp::kJz, Reg(res));
  }
  size_t save = fuse_skip_.size();
  for (const Stmt* s : skip) fuse_skip_.push_back(s);
  CompileBlock(b);
  fuse_skip_.resize(save);
  prog_.fused += static_cast<int>(skip.size());
  switch (shape) {
    case Shape::kExitIfZero:
      return Emit(BcOp::kJz, Reg(lhs));
    case Shape::kExitIfNonZero:
      return Emit(BcOp::kJnz, Reg(lhs));
    default:
      return Emit(CmpBranchOp(cmp), Reg(lhs), Reg(rhs));
  }
}

void BytecodeCompiler::EmitForRange(const Block* body, uint32_t lo,
                                    uint32_t hi) {
  uint32_t ivar = Reg(body->params[0]);
  Emit(BcOp::kMov, ivar, lo);
  size_t guard = Emit(BcOp::kJgeI, ivar, hi);
  size_t body_start = prog_.code.size();
  CompileBlock(body);
  Emit(BcOp::kForNext, ivar, hi, 0, OffsetTo(body_start));
  PatchToHere(guard);
}

void BytecodeCompiler::EmitTouchRow(const Stmt* s) {
  int red = par_->touch[s->id];
  Emit(BcOp::kLogRow, static_cast<uint32_t>(red), Reg(s->args[1]),
       frag_->log_regs[red]);
}

void BytecodeCompiler::CompileStmt(const Stmt* s) {
  switch (s->op) {
    case Op::kConst: {
      if (ir::IsParam(s)) return;  // written by the surrounding loop opcode
      if (s->type->kind == TypeKind::kStr) {
        prog_.strings.push_back(s->sval);
        Preset(s, SlotS(prog_.strings.back().c_str()));
      } else if (s->type->kind == TypeKind::kF64) {
        Preset(s, SlotD(s->fval));
      } else {
        Preset(s, SlotI(s->ival));
      }
      return;
    }
    case Op::kNull:
      Preset(s, SlotP(nullptr));
      return;
    case Op::kTableRows:
      // The database is immutable during execution: a row count is a
      // constant, not an instruction.
      Preset(s, SlotI(db_->table(s->aux0).rows()));
      return;
    case Op::kPoolNew:
      // The pool handle only carries the element field count (see interp).
      Preset(s, SlotI(static_cast<int64_t>(
                    s->type->elem->record->fields.size())));
      return;
    case Op::kFree:
      return;  // arena/deque-owned; modelled as a no-op

    case Op::kAdd:
    case Op::kSub:
    case Op::kMul:
    case Op::kDiv:
    case Op::kMod: {
      bool is_f = s->type->kind == TypeKind::kF64;
      if (s->op == Op::kMod && is_f) {
        std::fprintf(stderr, "bytecode: mod is not defined on f64\n");
        std::abort();
      }
      BcOp op;
      switch (s->op) {
        case Op::kAdd: op = is_f ? BcOp::kAddF : BcOp::kAddI; break;
        case Op::kSub: op = is_f ? BcOp::kSubF : BcOp::kSubI; break;
        case Op::kMul: op = is_f ? BcOp::kMulF : BcOp::kMulI; break;
        case Op::kDiv: op = is_f ? BcOp::kDivF : BcOp::kDivI; break;
        default: op = BcOp::kModI; break;
      }
      Emit(op, Reg(s), Reg(s->args[0]), Reg(s->args[1]));
      return;
    }
    case Op::kNeg:
      Emit(s->type->kind == TypeKind::kF64 ? BcOp::kNegF : BcOp::kNegI,
           Reg(s), Reg(s->args[0]));
      return;
    case Op::kCast: {
      TypeKind from = s->args[0]->type->kind;
      TypeKind to = s->type->kind;
      if (from == TypeKind::kF64 && to != TypeKind::kF64) {
        Emit(BcOp::kCastFI, Reg(s), Reg(s->args[0]));
      } else if (from != TypeKind::kF64 && to == TypeKind::kF64) {
        Emit(BcOp::kCastIF, Reg(s), Reg(s->args[0]));
      } else {
        EmitMovOrRetarget(Reg(s), s->args[0]);  // same-width: a register copy
      }
      return;
    }

    case Op::kEq:
    case Op::kNe:
    case Op::kLt:
    case Op::kLe:
    case Op::kGt:
    case Op::kGe: {
      bool is_f = s->args[0]->type->kind == TypeKind::kF64;
      BcOp op;
      switch (s->op) {
        case Op::kEq: op = is_f ? BcOp::kEqF : BcOp::kEqI; break;
        case Op::kNe: op = is_f ? BcOp::kNeF : BcOp::kNeI; break;
        case Op::kLt: op = is_f ? BcOp::kLtF : BcOp::kLtI; break;
        case Op::kLe: op = is_f ? BcOp::kLeF : BcOp::kLeI; break;
        case Op::kGt: op = is_f ? BcOp::kGtF : BcOp::kGtI; break;
        default: op = is_f ? BcOp::kGeF : BcOp::kGeI; break;
      }
      Emit(op, Reg(s), Reg(s->args[0]), Reg(s->args[1]));
      return;
    }

    case Op::kAnd:
      Emit(BcOp::kAnd, Reg(s), Reg(s->args[0]), Reg(s->args[1]));
      return;
    case Op::kOr:
      Emit(BcOp::kOr, Reg(s), Reg(s->args[0]), Reg(s->args[1]));
      return;
    case Op::kNot:
      Emit(BcOp::kNot, Reg(s), Reg(s->args[0]));
      return;
    case Op::kBitAnd:
      Emit(BcOp::kBitAnd, Reg(s), Reg(s->args[0]), Reg(s->args[1]));
      return;

    case Op::kStrEq:
      Emit(BcOp::kStrEq, Reg(s), Reg(s->args[0]), Reg(s->args[1]));
      return;
    case Op::kStrNe:
      Emit(BcOp::kStrNe, Reg(s), Reg(s->args[0]), Reg(s->args[1]));
      return;
    case Op::kStrLt:
      Emit(BcOp::kStrLt, Reg(s), Reg(s->args[0]), Reg(s->args[1]));
      return;
    case Op::kStrStartsWith:
      Emit(BcOp::kStrStarts, Reg(s), Reg(s->args[0]), Reg(s->args[1]));
      return;
    case Op::kStrEndsWith:
      Emit(BcOp::kStrEnds, Reg(s), Reg(s->args[0]), Reg(s->args[1]));
      return;
    case Op::kStrContains:
      Emit(BcOp::kStrContains, Reg(s), Reg(s->args[0]), Reg(s->args[1]));
      return;
    case Op::kStrLike: {
      prog_.patterns.push_back(SplitLike(s->sval));
      Emit(BcOp::kStrLike, Reg(s), Reg(s->args[0]),
           static_cast<uint32_t>(prog_.patterns.size() - 1));
      return;
    }
    case Op::kStrLen:
      Emit(BcOp::kStrLen, Reg(s), Reg(s->args[0]));
      return;
    case Op::kStrSubstr:
      Emit(BcOp::kStrSubstr, Reg(s), Reg(s->args[0]),
           static_cast<uint32_t>(s->aux0), s->aux1);
      return;

    case Op::kVarNew:
    case Op::kVarRead:
      EmitMovOrRetarget(Reg(s), s->args[0]);
      return;
    case Op::kVarAssign:
      EmitMovOrRetarget(Reg(s->args[0]), s->args[1]);
      return;

    case Op::kIf: {
      size_t jz = Emit(BcOp::kJz, Reg(s->args[0]));
      CompileIfBody(s, {jz});
      return;
    }
    case Op::kForRange: {
      // Parallelizable top-level scan loop: just its kParLoop header, which
      // runs the body fragment compiled after the main stream.
      const ir::ParLoop* plan = par_info_ != nullptr && par_ == nullptr
                                    ? par_info_->Find(s)
                                    : nullptr;
      if (plan != nullptr) {
        Emit(BcOp::kParLoop, static_cast<uint32_t>(prog_.par_loops.size()));
        ParLoopCode plc;
        plc.plan = plan;
        plc.src_lo_reg = Reg(s->args[0]);
        plc.src_hi_reg = Reg(s->args[1]);
        for (const ir::ParReduction& r : plan->reductions) {
          plc.red_regs.push_back(Reg(r.target));
          plc.red_size_regs.push_back(r.size != nullptr ? Reg(r.size) : 0);
        }
        prog_.par_loops.push_back(std::move(plc));
        pending_par_.emplace_back(s, prog_.par_loops.size() - 1);
        return;
      }
      EmitForRange(s->blocks[0], Reg(s->args[0]), Reg(s->args[1]));
      return;
    }
    case Op::kWhile: {
      size_t cond_start = prog_.code.size();
      size_t exit_j = EmitWhileExit(s->blocks[0]);
      CompileBlock(s->blocks[1]);
      // kJmpSp, not kJmp: while back edges are governance safepoints (the
      // for-loop families fuse the check into kForNext/kIncJmp instead).
      Emit(BcOp::kJmpSp, 0, 0, 0, OffsetTo(cond_start));
      PatchToHere(exit_j);
      return;
    }

    case Op::kRecNew: {
      std::vector<uint32_t> regs;
      regs.reserve(s->args.size());
      for (const Stmt* a : s->args) regs.push_back(Reg(a));
      Emit(BcOp::kRecNew, Reg(s), ExtraList(regs), prog_.state_reg, 0,
           static_cast<uint16_t>(regs.size()));
      return;
    }
    case Op::kRecGet:
      Emit(BcOp::kRecGet, Reg(s), Reg(s->args[0]),
           static_cast<uint32_t>(s->aux0));
      return;
    case Op::kRecSet:
      Emit(BcOp::kRecSet, Reg(s->args[0]), static_cast<uint32_t>(s->aux0),
           Reg(s->args[1]));
      return;

    case Op::kArrNew:
    case Op::kMalloc:
      Emit(s->op == Op::kMalloc ? BcOp::kMallocArr : BcOp::kArrNew, Reg(s),
           Reg(s->args[0]));
      return;
    case Op::kArrGet:
      Emit(BcOp::kArrGet, Reg(s), Reg(s->args[0]), Reg(s->args[1]));
      return;
    case Op::kArrSet:
      Emit(BcOp::kArrSet, Reg(s->args[0]), Reg(s->args[1]), Reg(s->args[2]));
      return;
    case Op::kArrLen:
      Emit(BcOp::kArrLen, Reg(s), Reg(s->args[0]));
      return;
    case Op::kArrSortBy: {
      const Block* cmp = s->blocks[0];
      size_t skip = Emit(BcOp::kJmp);
      uint32_t entry = CompileSubroutine(cmp);
      PatchToHere(skip);
      uint32_t off = ExtraList(
          {Reg(cmp->params[0]), Reg(cmp->params[1]), Reg(cmp->result)});
      Emit(BcOp::kArrSort, Reg(s->args[0]), Reg(s->args[1]), entry,
           static_cast<int32_t>(off));
      return;
    }

    case Op::kListNew:
      Emit(BcOp::kListNew, Reg(s));
      return;
    case Op::kListAppend:
      Emit(BcOp::kListAppend, Reg(s->args[0]), Reg(s->args[1]),
           prog_.state_reg);
      return;
    case Op::kListForeach: {
      const Block* body = s->blocks[0];
      uint32_t list = Reg(s->args[0]);
      uint32_t elem = Reg(body->params[0]);
      uint32_t t_idx = NewTemp();
      uint32_t t_len = NewTemp();
      Emit(BcOp::kLoadK, t_idx, KonstI(0));
      // The body may append to the list being iterated, so size() is
      // re-read and the bound re-checked at the head every iteration rather
      // than fused into the back edge.
      size_t head = prog_.code.size();
      Emit(BcOp::kListSize, t_len, list);
      size_t guard = Emit(BcOp::kJgeI, t_idx, t_len);
      Emit(BcOp::kListGet, elem, list, t_idx);
      CompileBlock(body);
      Emit(BcOp::kIncJmp, t_idx, 0, 0, OffsetTo(head));
      PatchToHere(guard);
      return;
    }
    case Op::kListSize:
      Emit(BcOp::kListSize, Reg(s), Reg(s->args[0]));
      return;
    case Op::kListGet:
      Emit(BcOp::kListGet, Reg(s), Reg(s->args[0]), Reg(s->args[1]));
      return;
    case Op::kListSortBy: {
      const Block* cmp = s->blocks[0];
      size_t skip = Emit(BcOp::kJmp);
      uint32_t entry = CompileSubroutine(cmp);
      PatchToHere(skip);
      uint32_t off = ExtraList(
          {Reg(cmp->params[0]), Reg(cmp->params[1]), Reg(cmp->result)});
      Emit(BcOp::kListSort, Reg(s->args[0]), 0, entry,
           static_cast<int32_t>(off));
      return;
    }

    case Op::kMapNew:
      Emit(BcOp::kMapNew, Reg(s), TypeIdx(s->type->key));
      return;
    case Op::kMapGetOrElseUpdate: {
      uint32_t t_node = NewTemp();
      uint32_t map = Reg(s->args[0]);
      uint32_t key = Reg(s->args[1]);
      Emit(BcOp::kMapFind, t_node, map, key,
           MapKeyKind(s->args[0]->type->key));
      size_t found_j = Emit(BcOp::kJnz, t_node);
      const Block* init = s->blocks[0];
      CompileBlock(init);
      Emit(BcOp::kMapInsert, t_node, map, key,
           static_cast<int32_t>(Reg(init->result)));
      PatchToHere(found_j);
      Emit(BcOp::kMapNodeVal, Reg(s), t_node);
      return;
    }
    case Op::kMapGetOrNull:
      Emit(BcOp::kMapGetOrNull, Reg(s), Reg(s->args[0]), Reg(s->args[1]),
           MapKeyKind(s->args[0]->type->key));
      return;
    case Op::kMapForeach: {
      const Block* body = s->blocks[0];
      uint32_t map = Reg(s->args[0]);
      uint32_t t_idx = NewTemp();
      uint32_t t_len = NewTemp();
      Emit(BcOp::kMapSize, t_len, map);
      Emit(BcOp::kLoadK, t_idx, KonstI(0));
      size_t guard = Emit(BcOp::kJgeI, t_idx, t_len);
      size_t body_start = prog_.code.size();
      Emit(BcOp::kMapEntryKV, Reg(body->params[0]), Reg(body->params[1]), map,
           static_cast<int32_t>(t_idx));
      CompileBlock(body);
      Emit(BcOp::kForNext, t_idx, t_len, 0, OffsetTo(body_start));
      PatchToHere(guard);
      return;
    }
    case Op::kMapSize:
      Emit(BcOp::kMapSize, Reg(s), Reg(s->args[0]));
      return;

    case Op::kMMapNew:
      Emit(BcOp::kMMapNew, Reg(s), TypeIdx(s->type->key));
      return;
    case Op::kMMapAdd:
      Emit(BcOp::kMMapAdd, Reg(s->args[0]), Reg(s->args[1]), Reg(s->args[2]));
      return;
    case Op::kMMapGetOrNull:
      Emit(BcOp::kMMapGetOrNull, Reg(s), Reg(s->args[0]), Reg(s->args[1]),
           MapKeyKind(s->args[0]->type->key));
      return;

    case Op::kIsNull:
      Emit(BcOp::kIsNull, Reg(s), Reg(s->args[0]));
      return;

    case Op::kPoolRecNew: {
      std::vector<uint32_t> regs;
      regs.reserve(s->args.size() - 1);
      for (size_t i = 1; i < s->args.size(); ++i) regs.push_back(Reg(s->args[i]));
      Emit(BcOp::kPoolRecNew, Reg(s), ExtraList(regs), prog_.state_reg, 0,
           static_cast<uint16_t>(regs.size()));
      return;
    }

    case Op::kColGet:
      Emit(BcOp::kColGet, Reg(s),
           PtrIdx(db_->table(s->aux0).column(s->aux1).data.data()),
           Reg(s->args[0]));
      return;
    case Op::kColDict:
      Emit(BcOp::kColDict, Reg(s),
           PtrIdx(db_->Dictionary(s->aux0, s->aux1).codes.data()),
           Reg(s->args[0]));
      return;
    case Op::kIdxBucketLen:
      Emit(BcOp::kIdxBucketLen, Reg(s),
           PtrIdx(&db_->Partition(s->aux0, s->aux1)), Reg(s->args[0]));
      return;
    case Op::kIdxBucketRow:
      Emit(BcOp::kIdxBucketRow, Reg(s),
           PtrIdx(&db_->Partition(s->aux0, s->aux1)), Reg(s->args[0]),
           static_cast<int32_t>(Reg(s->args[1])));
      return;
    case Op::kIdxPkRow:
      Emit(BcOp::kIdxPkRow, Reg(s),
           PtrIdx(&db_->PrimaryIndex(s->aux0, s->aux1)), Reg(s->args[0]));
      return;

    case Op::kEmit: {
      if (s->args.size() > 32) {  // the string-interning mask is 32 bits
        std::fprintf(stderr, "bytecode: emit of %zu columns exceeds the "
                     "32-column limit\n", s->args.size());
        std::abort();
      }
      std::vector<uint32_t> regs;
      regs.reserve(s->args.size());
      uint32_t mask = 0;
      for (size_t i = 0; i < s->args.size(); ++i) {
        regs.push_back(Reg(s->args[i]));
        if (s->args[i]->type->kind == TypeKind::kStr) mask |= 1u << i;
      }
      Emit(BcOp::kEmit, ExtraList(regs), prog_.state_reg, mask, 0,
           static_cast<uint16_t>(regs.size()));
      return;
    }

    default:
      std::fprintf(stderr, "bytecode: unhandled op %s\n", ir::OpName(s->op));
      std::abort();
  }
}

// ---------------------------------------------------------------------------
// VM
// ---------------------------------------------------------------------------

void RunState::Bind(const BytecodeProgram& prog, ExecControl* ctl,
                    parallel::Engine* par, Slot* regs) {
  gov.Attach(ctl, stats);
  gov.par = par;
  records.SetGovernor(&gov);
  regs[prog.state_reg] = SlotP(this);
  // INT64_MAX when ungoverned — the safepoint slow path is unreachable.
  regs[prog.gov_cnt_reg] = SlotI(gov.InitialCountdown());
}

storage::ResultTable BytecodeVM::Run(const BytecodeProgram& prog,
                                     const jit::JitProgram* jit,
                                     ExecControl* ctl,
                                     parallel::Engine* par) {
  prog_ = &prog;
  jit_ = jit;
  state_.vm = this;
  // Release the previous run's working set (emitted rows own their strings,
  // so nothing in an already-returned result points in here). Stats keep
  // accumulating: they account lifetime totals.
  state_.morsels.clear();
  state_.lists.clear();
  state_.arrays.clear();
  state_.maps.clear();
  state_.mmaps.clear();
  state_.strings.clear();
  state_.records.Reset();
  regs_.assign(prog.num_regs, SlotI(0));
  for (const auto& p : prog.presets) regs_[p.first] = p.second;
  state_.out = storage::ResultTable();
  state_.out.SetTypes(prog.emit_types);
  state_.Bind(prog, ctl, par, regs_.data());
  Exec(state_, regs_.data(), 0);
  return std::move(state_.out);
}

void BytecodeVM::RunMorsel(parallel::MorselState& ms, const ParLoopCode& plc,
                           const std::vector<Slot>& entry_regs, int64_t lo,
                           int64_t hi) {
  // Worker-private register file: the file at loop entry (loop invariants,
  // presets, pre-resolved handles) with the reduction targets rebound to
  // the morsel's private instances.
  ms.regs = entry_regs;
  Slot* regs = ms.regs.data();
  for (size_t i = 0; i < plc.red_regs.size(); ++i) {
    regs[plc.red_regs[i]] = ms.priv[i];
  }
  regs[plc.lo_reg] = SlotI(lo);
  regs[plc.hi_reg] = SlotI(hi);
  ms.st.Bind(*prog_, state_.gov.ctl, /*par=*/nullptr, regs);
  for (size_t c = 0; c < plc.log_regs.size(); ++c) {
    regs[plc.log_regs[c]] = SlotP(&ms.logs[c]);
  }
  Exec(ms.st, regs, plc.entry);
}

void BytecodeVM::Sort(RunState& st, Slot* regs, Slot* data, int64_t n,
                      const Insn& insn) {
  // The comparator runs through the interpreter on the given state and
  // register file (a JIT run sorts through its own helper, templates.cc).
  struct Ctx {
    BytecodeVM* vm;
    RunState* st;
  } ctx{this, &st};
  SortComparator cmp;
  cmp.regs = regs;
  cmp.ps = &prog_->extra[insn.d];
  cmp.entry = insn.c;
  cmp.run = [](const void* c, Slot* r, uint32_t pc) {
    const Ctx* x = static_cast<const Ctx*>(c);
    x->vm->Interpret(*x->st, r, pc);
  };
  cmp.ctx = &ctx;
  SortSlots(&st.gov, cmp, data, n);
}

void BytecodeVM::Exec(RunState& st, Slot* regs, uint32_t pc) {
  if (jit_ != nullptr) {
    jit_->Run(regs, pc);
  } else {
    Interpret(st, regs, pc);
  }
}

void BytecodeVM::RunUnsplit(RunState& st, Slot* regs,
                            const ParLoopCode& plc) {
  regs[plc.lo_reg] = regs[plc.src_lo_reg];
  regs[plc.hi_reg] = regs[plc.src_hi_reg];
  for (uint32_t r : plc.log_regs) regs[r] = SlotP(nullptr);
  Exec(st, regs, plc.entry);
}

int64_t ops::ParLoop(RunState* st, Slot* regs, const ParLoopCode* plc) {
  if (st->gov.ctl != nullptr && st->gov.Poll() != 0) return kParLoopAbort;
  BytecodeVM& vm = *st->vm;
  if (st->gov.par == nullptr ||
      !parallel::RunForRange(*st->gov.par, vm, *plc, *st, regs,
                             vm.program().num_regs)) {
    vm.RunUnsplit(*st, regs, *plc);
  }
  return st->gov.aborted() ? kParLoopAbort : kParLoopDone;
}

void BytecodeVM::Interpret(RunState& st, Slot* R, uint32_t pc) {
  const Insn* code = prog_->code.data();
  const Insn* I = nullptr;
  // Safepoint countdown, in its reserved register. Ungoverned runs preset
  // it to INT64_MAX, so back edges pay one dec + never-taken branch and the
  // slow path is unreachable.
  int64_t* const gov_cnt = &R[prog_->gov_cnt_reg].i;

  static const void* kTargets[] = {
#define QC_BC_LABEL_ADDR(name) &&TGT_##name,
      QC_BC_OP_LIST(QC_BC_LABEL_ADDR)
#undef QC_BC_LABEL_ADDR
  };
#define TARGET(name) TGT_##name:
#define DISPATCH()         \
  do {                     \
    I = &code[pc];         \
    ++pc;                  \
    goto* kTargets[I->op]; \
  } while (0)
  DISPATCH();

  TARGET(kRet) { return; }
  TARGET(kJmp) { pc += I->d; }
  DISPATCH();
  TARGET(kJz) {
    if (R[I->a].i == 0) pc += I->d;
  }
  DISPATCH();
  TARGET(kJnz) {
    if (R[I->a].i != 0) pc += I->d;
  }
  DISPATCH();
  TARGET(kJgeI) {
    if (R[I->a].i >= R[I->b].i) pc += I->d;
  }
  DISPATCH();
  TARGET(kForNext) {
    if (++R[I->a].i < R[I->b].i) {
      pc += I->d;
      // Safepoint, fused into the taken back edge (exit paths need none).
      if (--*gov_cnt <= 0 && ops::Safepoint(&st, gov_cnt) != 0) return;
    }
  }
  DISPATCH();
  TARGET(kIncJmp) {
    ++R[I->a].i;
    pc += I->d;
    if (--*gov_cnt <= 0 && ops::Safepoint(&st, gov_cnt) != 0) return;
  }
  DISPATCH();
  TARGET(kJmpSp) {
    pc += I->d;
    if (--*gov_cnt <= 0 && ops::Safepoint(&st, gov_cnt) != 0) return;
  }
  DISPATCH();

  TARGET(kLoadK) { R[I->a] = prog_->consts[I->b]; }
  DISPATCH();
  TARGET(kMov) { R[I->a] = R[I->b]; }
  DISPATCH();

  TARGET(kAddI) { R[I->a].i = R[I->b].i + R[I->c].i; }
  DISPATCH();
  TARGET(kSubI) { R[I->a].i = R[I->b].i - R[I->c].i; }
  DISPATCH();
  TARGET(kMulI) { R[I->a].i = R[I->b].i * R[I->c].i; }
  DISPATCH();
  TARGET(kDivI) { R[I->a].i = R[I->c].i == 0 ? 0 : R[I->b].i / R[I->c].i; }
  DISPATCH();
  TARGET(kModI) { R[I->a].i = R[I->c].i == 0 ? 0 : R[I->b].i % R[I->c].i; }
  DISPATCH();
  TARGET(kNegI) { R[I->a].i = -R[I->b].i; }
  DISPATCH();
  TARGET(kAddF) { R[I->a].d = R[I->b].d + R[I->c].d; }
  DISPATCH();
  TARGET(kSubF) { R[I->a].d = R[I->b].d - R[I->c].d; }
  DISPATCH();
  TARGET(kMulF) { R[I->a].d = R[I->b].d * R[I->c].d; }
  DISPATCH();
  TARGET(kDivF) { R[I->a].d = R[I->b].d / R[I->c].d; }
  DISPATCH();
  TARGET(kNegF) { R[I->a].d = -R[I->b].d; }
  DISPATCH();
  TARGET(kCastIF) { R[I->a].d = static_cast<double>(R[I->b].i); }
  DISPATCH();
  TARGET(kCastFI) { R[I->a].i = static_cast<int64_t>(R[I->b].d); }
  DISPATCH();

  TARGET(kEqI) { R[I->a].i = R[I->b].i == R[I->c].i ? 1 : 0; }
  DISPATCH();
  TARGET(kNeI) { R[I->a].i = R[I->b].i != R[I->c].i ? 1 : 0; }
  DISPATCH();
  TARGET(kLtI) { R[I->a].i = R[I->b].i < R[I->c].i ? 1 : 0; }
  DISPATCH();
  TARGET(kLeI) { R[I->a].i = R[I->b].i <= R[I->c].i ? 1 : 0; }
  DISPATCH();
  TARGET(kGtI) { R[I->a].i = R[I->b].i > R[I->c].i ? 1 : 0; }
  DISPATCH();
  TARGET(kGeI) { R[I->a].i = R[I->b].i >= R[I->c].i ? 1 : 0; }
  DISPATCH();
  TARGET(kEqF) { R[I->a].i = R[I->b].d == R[I->c].d ? 1 : 0; }
  DISPATCH();
  TARGET(kNeF) { R[I->a].i = R[I->b].d != R[I->c].d ? 1 : 0; }
  DISPATCH();
  TARGET(kLtF) { R[I->a].i = R[I->b].d < R[I->c].d ? 1 : 0; }
  DISPATCH();
  TARGET(kLeF) { R[I->a].i = R[I->b].d <= R[I->c].d ? 1 : 0; }
  DISPATCH();
  TARGET(kGtF) { R[I->a].i = R[I->b].d > R[I->c].d ? 1 : 0; }
  DISPATCH();
  TARGET(kGeF) { R[I->a].i = R[I->b].d >= R[I->c].d ? 1 : 0; }
  DISPATCH();

  TARGET(kAnd) { R[I->a].i = (R[I->b].i != 0 && R[I->c].i != 0) ? 1 : 0; }
  DISPATCH();
  TARGET(kOr) { R[I->a].i = (R[I->b].i != 0 || R[I->c].i != 0) ? 1 : 0; }
  DISPATCH();
  TARGET(kNot) { R[I->a].i = R[I->b].i == 0 ? 1 : 0; }
  DISPATCH();
  TARGET(kBitAnd) { R[I->a].i = R[I->b].i & R[I->c].i; }
  DISPATCH();

  TARGET(kStrEq) { R[I->a].i = ops::StrEq(R[I->b].s, R[I->c].s); }
  DISPATCH();
  TARGET(kStrNe) { R[I->a].i = ops::StrNe(R[I->b].s, R[I->c].s); }
  DISPATCH();
  TARGET(kStrLt) { R[I->a].i = ops::StrLt(R[I->b].s, R[I->c].s); }
  DISPATCH();
  TARGET(kStrStarts) { R[I->a].i = ops::StrStarts(R[I->b].s, R[I->c].s); }
  DISPATCH();
  TARGET(kStrEnds) { R[I->a].i = ops::StrEnds(R[I->b].s, R[I->c].s); }
  DISPATCH();
  TARGET(kStrContains) {
    R[I->a].i = ops::StrContains(R[I->b].s, R[I->c].s);
  }
  DISPATCH();
  TARGET(kStrLike) {
    R[I->a].i = ops::StrLike(R[I->b].s, &prog_->patterns[I->c]);
  }
  DISPATCH();
  TARGET(kStrLen) { R[I->a].i = ops::StrLen(R[I->b].s); }
  DISPATCH();
  TARGET(kStrSubstr) {
    R[I->a] = SlotS(ops::StrSubstr(&st, R[I->b].s, I->c, I->d));
  }
  DISPATCH();

  TARGET(kRecNew) {
    R[I->a] = SlotP(ops::RecNew(&st, R, &prog_->extra[I->b], I->n));
  }
  DISPATCH();
  TARGET(kRecGet) { R[I->a] = static_cast<Slot*>(R[I->b].p)[I->c]; }
  DISPATCH();
  TARGET(kRecSet) { static_cast<Slot*>(R[I->a].p)[I->b] = R[I->c]; }
  DISPATCH();
  TARGET(kPoolRecNew) {
    R[I->a] = SlotP(ops::PoolRecNew(&st, R, &prog_->extra[I->b], I->n));
  }
  DISPATCH();

  TARGET(kArrNew) { R[I->a] = SlotP(ops::ArrNew(&st, R[I->b].i)); }
  DISPATCH();
  TARGET(kMallocArr) { R[I->a] = SlotP(ops::MallocArr(&st, R[I->b].i)); }
  DISPATCH();
  TARGET(kArrGet) {
    R[I->a] = static_cast<RtArray*>(R[I->b].p)->data[R[I->c].i];
  }
  DISPATCH();
  TARGET(kArrSet) {
    static_cast<RtArray*>(R[I->a].p)->data[R[I->b].i] = R[I->c];
  }
  DISPATCH();
  TARGET(kArrLen) {
    R[I->a].i =
        static_cast<int64_t>(static_cast<RtArray*>(R[I->b].p)->data.size());
  }
  DISPATCH();
  TARGET(kArrSort) {
    RtArray* arr = static_cast<RtArray*>(R[I->a].p);
    Sort(st, R, arr->data.data(), R[I->b].i, *I);
  }
  DISPATCH();

  TARGET(kListNew) { R[I->a] = SlotP(ops::ListNew(&st)); }
  DISPATCH();
  TARGET(kListAppend) {
    ops::ListAppend(static_cast<RtList*>(R[I->a].p), &st, R[I->b].i);
  }
  DISPATCH();
  TARGET(kListSize) {
    R[I->a].i =
        static_cast<int64_t>(static_cast<RtList*>(R[I->b].p)->items.size());
  }
  DISPATCH();
  TARGET(kListGet) {
    R[I->a] = static_cast<RtList*>(R[I->b].p)->items[R[I->c].i];
  }
  DISPATCH();
  TARGET(kListSort) {
    RtList* l = static_cast<RtList*>(R[I->a].p);
    Sort(st, R, l->items.data(), static_cast<int64_t>(l->items.size()), *I);
  }
  DISPATCH();

  TARGET(kMapNew) { R[I->a] = SlotP(ops::MapNew(&st, prog_->types[I->b])); }
  DISPATCH();
  TARGET(kMapFind) {
    R[I->a] = SlotP(ops::MapFind(static_cast<RtHashMap*>(R[I->b].p),
                                 R[I->c].i));
  }
  DISPATCH();
  TARGET(kMapInsert) {
    R[I->a] = SlotP(ops::MapInsert(static_cast<RtHashMap*>(R[I->b].p),
                                   R[I->c].i,
                                   R[static_cast<uint32_t>(I->d)].i));
  }
  DISPATCH();
  TARGET(kMapNodeVal) {
    R[I->a] = static_cast<RtHashMap::Node*>(R[I->b].p)->value;
  }
  DISPATCH();
  TARGET(kMapGetOrNull) {
    R[I->a].i =
        ops::MapGetOrNull(static_cast<RtHashMap*>(R[I->b].p), R[I->c].i);
  }
  DISPATCH();
  TARGET(kMapSize) {
    R[I->a].i = static_cast<int64_t>(static_cast<RtHashMap*>(R[I->b].p)->size());
  }
  DISPATCH();
  TARGET(kMapEntryKV) {
    RtHashMap* m = static_cast<RtHashMap*>(R[I->c].p);
    RtHashMap::Node* n = m->entries()[R[static_cast<uint32_t>(I->d)].i];
    R[I->a] = n->key;
    R[I->b] = n->value;
  }
  DISPATCH();

  TARGET(kMMapNew) {
    R[I->a] = SlotP(ops::MMapNew(&st, prog_->types[I->b]));
  }
  DISPATCH();
  TARGET(kMMapAdd) {
    ops::MMapAdd(static_cast<RtMultiMap*>(R[I->a].p), R[I->b].i, R[I->c].i);
  }
  DISPATCH();
  TARGET(kMMapGetOrNull) {
    R[I->a].i =
        ops::MMapGetOrNull(static_cast<RtMultiMap*>(R[I->b].p), R[I->c].i);
  }
  DISPATCH();

  TARGET(kIsNull) { R[I->a].i = R[I->b].p == nullptr ? 1 : 0; }
  DISPATCH();

  TARGET(kColGet) {
    R[I->a] = static_cast<const Slot*>(prog_->ptrs[I->b])[R[I->c].i];
  }
  DISPATCH();
  TARGET(kColDict) {
    R[I->a].i = static_cast<const int32_t*>(prog_->ptrs[I->b])[R[I->c].i];
  }
  DISPATCH();
  TARGET(kIdxBucketLen) {
    R[I->a].i = static_cast<const storage::PartitionedIndex*>(prog_->ptrs[I->b])
                    ->BucketLen(R[I->c].i);
  }
  DISPATCH();
  TARGET(kIdxBucketRow) {
    R[I->a].i = static_cast<const storage::PartitionedIndex*>(prog_->ptrs[I->b])
                    ->BucketRow(R[I->c].i, R[static_cast<uint32_t>(I->d)].i);
  }
  DISPATCH();
  TARGET(kIdxPkRow) {
    R[I->a].i = static_cast<const storage::PkIndex*>(prog_->ptrs[I->b])
                    ->RowOf(R[I->c].i);
  }
  DISPATCH();

#define QC_BC_JN(NAME, FIELD, CMP)                              \
  TARGET(NAME) {                                                \
    if (!(R[I->a].FIELD CMP R[I->b].FIELD)) pc += I->d;         \
  }                                                             \
  DISPATCH();
  QC_BC_JN(kJnEqI, i, ==)
  QC_BC_JN(kJnNeI, i, !=)
  QC_BC_JN(kJnLtI, i, <)
  QC_BC_JN(kJnLeI, i, <=)
  QC_BC_JN(kJnGtI, i, >)
  QC_BC_JN(kJnGeI, i, >=)
#undef QC_BC_JN

#define QC_BC_JNCOL(NAME, FIELD, CMP)                                 \
  TARGET(NAME) {                                                      \
    const Slot* col = static_cast<const Slot*>(prog_->ptrs[I->b]);    \
    if (!(col[R[I->c].i].FIELD CMP R[I->a].FIELD)) pc += I->d;        \
  }                                                                   \
  DISPATCH();
  QC_BC_JNCOL(kJnColEqI, i, ==)
  QC_BC_JNCOL(kJnColNeI, i, !=)
  QC_BC_JNCOL(kJnColLtI, i, <)
  QC_BC_JNCOL(kJnColLeI, i, <=)
  QC_BC_JNCOL(kJnColGtI, i, >)
  QC_BC_JNCOL(kJnColGeI, i, >=)
#undef QC_BC_JNCOL

  TARGET(kRecAccAddI) { static_cast<Slot*>(R[I->a].p)[I->b].i += R[I->c].i; }
  DISPATCH();

  DISPATCH();

  TARGET(kEmit) { ops::Emit(&st, R, &prog_->extra[I->a], I->n, I->c); }
  DISPATCH();

  TARGET(kParLoop) {
    if (ops::ParLoop(&st, R, &prog_->par_loops[I->a]) == ops::kParLoopAbort) {
      return;
    }
  }
  DISPATCH();
  TARGET(kLogRow) {
    ops::LogRow(static_cast<std::vector<Slot>*>(R[I->c].p), R[I->b]);
  }
  DISPATCH();

  // Unreachable: every handler ends in DISPATCH() and kRet returns.
#undef TARGET
#undef DISPATCH
}

}  // namespace qc::exec
