#include "jit/templates.h"

#include <cstddef>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <vector>

#include "common/hash.h"
#include "jit/emitter.h"
#include "jit/engine.h"
#include "storage/database.h"

namespace qc::exec::jit {

namespace {

constexpr int kNumOps = static_cast<int>(BcOp::kNumOps);

// The JIT-only helpers: the native sort glue. Every other helper call in
// the templates targets the shared op the VM handler for the same opcode
// calls (exec/bytecode.h ops::).
//
// kArrSort/kListSort: the native sort helper. Every comparison is one
// trampoline call into the stitched comparator subroutine, which runs
// through its kRet. The driver (parallel::SortSlots) is the one the VM
// runs, so results stay bit-exact across engines and thread counts.
void RunNativeCmp(const void* jp, Slot* regs, uint32_t entry) {
  static_cast<const JitProgram*>(jp)->Run(regs, entry);
}

void HelpSort(Slot* regs, const JitSortSite* site) {
  Slot* data;
  int64_t n;
  if (site->is_list) {
    RtList* l = static_cast<RtList*>(regs[site->obj_reg].p);
    data = l->items.data();
    n = static_cast<int64_t>(l->items.size());
  } else {
    RtArray* a = static_cast<RtArray*>(regs[site->obj_reg].p);
    data = a->data.data();
    n = regs[site->n_reg].i;
  }
  parallel::SortComparator cmp;
  cmp.regs = regs;
  cmp.num_regs = site->num_regs;
  cmp.ps = site->ps;
  cmp.entry = site->cmp_entry;
  cmp.run = &RunNativeCmp;
  cmp.ctx = site->jp;
  // The context's RunState travels in the reserved state register; its
  // GovState is the object the VM's sort path passes: a tripped query
  // drains a JIT'd sort in linear time too, and fans out only onto the pool
  // the run bound there.
  RunState* st = static_cast<RunState*>(regs[site->state_reg].p);
  parallel::SortSlots(site->par_safe, &st->gov, cmp, data, n);
}

// The hash-probe template hard-codes the splitmix64 finalizer in machine
// code; hold it against the C++ implementation the VM hashes with.
constexpr uint64_t kMix1 = 0x9e3779b97f4a7c15ull;
constexpr uint64_t kMix2 = 0xbf58476d1ce4e5b9ull;
constexpr uint64_t kMix3 = 0x94d049bb133111ebull;
constexpr uint64_t JitHashMixRef(uint64_t x) {
  x += kMix1;
  x = (x ^ (x >> 30)) * kMix2;
  x = (x ^ (x >> 27)) * kMix3;
  return x ^ (x >> 31);
}
static_assert(JitHashMixRef(0xDEADBEEFCAFEull) == HashMix(0xDEADBEEFCAFEull) &&
                  JitHashMixRef(0) == HashMix(0),
              "HashMix changed: update the inline hash in the kMapFind/"
              "kMapGetOrNull templates to match");

// Builder for one template: the mini-assembler plus patch-point recording.
// Every Slot access goes through the *Slot helpers so the displacement is
// forced to disp32 (patchable) even though the placeholder is 0.
struct TB {
  Asm a;
  std::vector<PatchPoint> patches;

  void Mark(PatchKind k) {
    patches.push_back({static_cast<uint16_t>(a.last_field()), k});
  }
  void LoadSlot(Reg r, PatchKind k) {
    a.MovRegMem(r, kSlotBase, 0, /*force_disp32=*/true);
    Mark(k);
  }
  void StoreSlot(Reg r, PatchKind k) {
    a.MovMemReg(kSlotBase, 0, r, true);
    Mark(k);
  }
  void LoadSlotSd(Xmm x, PatchKind k) {
    a.MovsdXmmMem(x, kSlotBase, 0, true);
    Mark(k);
  }
  void StoreSlotSd(Xmm x, PatchKind k) {
    a.MovsdMemXmm(kSlotBase, 0, x, true);
    Mark(k);
  }
  void LoadPtr(Reg r) {
    a.MovImm64(r, 0);
    Mark(PatchKind::kPtrB);
  }
  void Jump(Cond cc) {
    a.JccRel32(cc);
    Mark(PatchKind::kJumpD);
  }
  void JumpAlways() {
    a.JmpRel32();
    Mark(PatchKind::kJumpD);
  }
  // setcc + zero-extend + store to slot A: the boolean materialization tail
  // shared by every value-producing comparison.
  void StoreBool(Cond cc) {
    a.Setcc(cc, RAX);
    a.MovzxRegReg8(RAX, RAX);
    StoreSlot(RAX, PatchKind::kSlotA);
  }
  // movq mask -> rax; low bit -> 0/1; store to slot A (cmpsd tail).
  void StoreFBool() {
    a.MovqRegXmm(RAX, XMM0);
    a.AndImm8(RAX, 1);
    StoreSlot(RAX, PatchKind::kSlotA);
  }
  // The context's RunState*, from the reserved state register.
  void LoadState(Reg r) {
    a.MovRegMem(r, kSlotBase, 0, true);
    Mark(PatchKind::kState);
  }
  // Call a C++ helper whose address is known at template build time.
  // Arguments follow SysV (rdi, rsi, rdx, rcx, r8); the result is in rax.
  void CallHelper(const void* fn) {
    a.MovImm64(RAX, reinterpret_cast<uint64_t>(fn));
    a.CallReg(RAX);
  }
};

struct Built {
  std::vector<uint8_t> bytes;
  std::vector<PatchPoint> patches;
};

struct Store {
  OpTemplate table[kNumOps];
  // Variant templates selected per instruction (SelectTemplate): the
  // generic helper-call hash probes for non-i64 map keys.
  OpTemplate alt[kNumOps];
  std::vector<uint8_t> bytes;
};

// Comparison condition for the value-producing (setcc) direction.
Cond ValCond(int i) {  // order: Eq Ne Lt Le Gt Ge
  static const Cond k[] = {kCondE, kCondNE, kCondL, kCondLE, kCondG, kCondGE};
  return k[i];
}
// Condition for branch-if-FALSE (the kJn* family).
Cond NegCond(int i) {
  static const Cond k[] = {kCondNE, kCondE, kCondGE, kCondG, kCondLE, kCondL};
  return k[i];
}
// SSE cmpsd predicate per comparison; Gt/Ge are encoded by swapping the
// operand loads and using Lt/Le (matches C++ NaN semantics exactly).
FCmp FPred(int i) {
  static const FCmp k[] = {kFEq, kFNeq, kFLt, kFLe, kFLt, kFLe};
  return k[i];
}
bool FSwapped(int i) { return i >= 4; }  // Gt, Ge

Store* BuildTemplates() {
  Store* s = new Store();
  std::vector<Built> built(kNumOps);
  std::vector<Built> built_alt(kNumOps);
  auto build_into = [](std::vector<Built>& dst, BcOp op,
                       const std::function<void(TB&)>& fn) {
    TB t;
    fn(t);
    Built& b = dst[static_cast<int>(op)];
    b.bytes = t.a.bytes();
    b.patches = t.patches;
  };
  auto def = [&](BcOp op, const std::function<void(TB&)>& fn) {
    build_into(built, op, fn);
  };
  auto defalt = [&](BcOp op, const std::function<void(TB&)>& fn) {
    build_into(built_alt, op, fn);
  };

  // --- control flow --------------------------------------------------------
  // kRet leaves the activation with the "returned" sentinel.
  def(BcOp::kRet, [](TB& t) {
    t.a.MovImm32(RAX, 0xFFFFFFFFu);  // jit::kRetPc
    t.a.PopR12();
    t.a.Ret();
  });
  def(BcOp::kJmp, [](TB& t) { t.JumpAlways(); });
  def(BcOp::kJz, [](TB& t) {
    t.LoadSlot(RAX, PatchKind::kSlotA);
    t.a.TestRegReg(RAX, RAX);
    t.Jump(kCondE);
  });
  def(BcOp::kJnz, [](TB& t) {
    t.LoadSlot(RAX, PatchKind::kSlotA);
    t.a.TestRegReg(RAX, RAX);
    t.Jump(kCondNE);
  });
  def(BcOp::kJgeI, [](TB& t) {
    t.LoadSlot(RAX, PatchKind::kSlotA);
    t.a.CmpRegMem(RAX, kSlotBase, 0, true);
    t.Mark(PatchKind::kSlotB);
    t.Jump(kCondGE);
  });
  // Back-edge safepoint tail (governance, exec/governor.h): decrement the
  // reserved countdown slot; while it stays positive the cost is one dec +
  // a never-taken branch (ungoverned runs preset it to INT64_MAX). At zero
  // the slow path calls ops::Safepoint — which polls the control and
  // refills the countdown through the pointer — and branches to the
  // program's abort thunk (returns kAbortPc) on a trip. The RunState* is
  // read from the slot below the countdown: the compiler reserves
  // gov_cnt_reg == state_reg + 1 (bytecode.h), which saves a patch kind.
  auto safepoint = [](TB& t) {
    t.a.DecMem(kSlotBase, 0, true);
    t.Mark(PatchKind::kGovCnt);
    size_t fast = t.a.Jcc8(kCondG);
    t.a.LeaRegMem(RSI, kSlotBase, 0, true);  // rsi = &countdown slot
    t.Mark(PatchKind::kGovCnt);
    t.a.MovRegMem(RDI, RSI, -8);             // rdi = RunState* (state_reg)
    t.CallHelper(reinterpret_cast<const void*>(&ops::Safepoint));
    t.a.TestRegReg(RAX, RAX);
    t.a.JccRel32(kCondNE);
    t.Mark(PatchKind::kJumpAbort);
    t.a.PatchRel8(fast);
  };
  def(BcOp::kForNext, [&](TB& t) {
    t.LoadSlot(RAX, PatchKind::kSlotA);
    t.a.IncReg(RAX);
    t.StoreSlot(RAX, PatchKind::kSlotA);
    t.a.CmpRegMem(RAX, kSlotBase, 0, true);
    t.Mark(PatchKind::kSlotB);
    size_t done = t.a.Jcc8(kCondGE);  // loop exhausted: fall through
    safepoint(t);                     // taken back edges only
    t.JumpAlways();
    t.a.PatchRel8(done);
  });
  def(BcOp::kIncJmp, [&](TB& t) {
    t.LoadSlot(RAX, PatchKind::kSlotA);
    t.a.IncReg(RAX);
    t.StoreSlot(RAX, PatchKind::kSlotA);
    safepoint(t);
    t.JumpAlways();
  });
  // While-loop back edge: an unconditional jump that carries the safepoint
  // (the compiler lowers while back edges to kJmpSp, bytecode.cc).
  def(BcOp::kJmpSp, [&](TB& t) {
    safepoint(t);
    t.JumpAlways();
  });

  // --- moves ---------------------------------------------------------------
  def(BcOp::kLoadK, [](TB& t) {
    t.a.MovImm64(RAX, 0);
    t.Mark(PatchKind::kConstB);
    t.StoreSlot(RAX, PatchKind::kSlotA);
  });
  def(BcOp::kMov, [](TB& t) {
    t.LoadSlot(RAX, PatchKind::kSlotB);
    t.StoreSlot(RAX, PatchKind::kSlotA);
  });

  // --- i64 arithmetic ------------------------------------------------------
  auto alu_i = [&](BcOp op, void (Asm::*alu)(Reg, Reg, int32_t, bool)) {
    def(op, [alu](TB& t) {
      t.LoadSlot(RAX, PatchKind::kSlotB);
      (t.a.*alu)(RAX, kSlotBase, 0, true);
      t.Mark(PatchKind::kSlotC);
      t.StoreSlot(RAX, PatchKind::kSlotA);
    });
  };
  alu_i(BcOp::kAddI, &Asm::AddRegMem);
  alu_i(BcOp::kSubI, &Asm::SubRegMem);
  alu_i(BcOp::kMulI, &Asm::ImulRegMem);
  alu_i(BcOp::kBitAnd, &Asm::AndRegMem);
  auto div_i = [&](BcOp op, bool want_rem) {
    def(op, [want_rem](TB& t) {
      t.LoadSlot(RAX, PatchKind::kSlotB);
      t.LoadSlot(RCX, PatchKind::kSlotC);
      t.a.TestRegReg(RCX, RCX);
      size_t jz = t.a.Jcc8(kCondE);
      t.a.Cqo();
      t.a.IdivReg(RCX);
      if (want_rem) t.a.MovRegReg(RAX, RDX);
      size_t jend = t.a.Jmp8();
      t.a.PatchRel8(jz);
      t.a.XorReg32(RAX);  // divisor 0 -> result 0 (the VM's semantics)
      t.a.PatchRel8(jend);
      t.StoreSlot(RAX, PatchKind::kSlotA);
    });
  };
  div_i(BcOp::kDivI, false);
  div_i(BcOp::kModI, true);
  def(BcOp::kNegI, [](TB& t) {
    t.LoadSlot(RAX, PatchKind::kSlotB);
    t.a.NegReg(RAX);
    t.StoreSlot(RAX, PatchKind::kSlotA);
  });

  // --- f64 arithmetic ------------------------------------------------------
  auto alu_f = [&](BcOp op, uint8_t sse_opcode) {
    def(op, [sse_opcode](TB& t) {
      t.LoadSlotSd(XMM0, PatchKind::kSlotB);
      t.a.ArithsdXmmMem(sse_opcode, XMM0, kSlotBase, 0, true);
      t.Mark(PatchKind::kSlotC);
      t.StoreSlotSd(XMM0, PatchKind::kSlotA);
    });
  };
  alu_f(BcOp::kAddF, 0x58);
  alu_f(BcOp::kSubF, 0x5C);
  alu_f(BcOp::kMulF, 0x59);
  alu_f(BcOp::kDivF, 0x5E);
  def(BcOp::kNegF, [](TB& t) {
    // IEEE negation is a sign-bit flip — identical to what -x compiles to.
    t.LoadSlot(RAX, PatchKind::kSlotB);
    t.a.MovImm64(RCX, 0x8000000000000000ull);
    t.a.XorRegReg(RAX, RCX);
    t.StoreSlot(RAX, PatchKind::kSlotA);
  });
  def(BcOp::kCastIF, [](TB& t) {
    t.a.Cvtsi2sdXmmMem(XMM0, kSlotBase, 0, true);
    t.Mark(PatchKind::kSlotB);
    t.StoreSlotSd(XMM0, PatchKind::kSlotA);
  });
  def(BcOp::kCastFI, [](TB& t) {
    t.a.Cvttsd2siRegMem(RAX, kSlotBase, 0, true);
    t.Mark(PatchKind::kSlotB);
    t.StoreSlot(RAX, PatchKind::kSlotA);
  });

  // --- comparisons (value-producing) --------------------------------------
  const BcOp cmp_i[] = {BcOp::kEqI, BcOp::kNeI, BcOp::kLtI,
                        BcOp::kLeI, BcOp::kGtI, BcOp::kGeI};
  const BcOp cmp_f[] = {BcOp::kEqF, BcOp::kNeF, BcOp::kLtF,
                        BcOp::kLeF, BcOp::kGtF, BcOp::kGeF};
  for (int i = 0; i < 6; ++i) {
    def(cmp_i[i], [i](TB& t) {
      t.LoadSlot(RAX, PatchKind::kSlotB);
      t.a.CmpRegMem(RAX, kSlotBase, 0, true);
      t.Mark(PatchKind::kSlotC);
      t.StoreBool(ValCond(i));
    });
    def(cmp_f[i], [i](TB& t) {
      PatchKind lhs = FSwapped(i) ? PatchKind::kSlotC : PatchKind::kSlotB;
      PatchKind rhs = FSwapped(i) ? PatchKind::kSlotB : PatchKind::kSlotC;
      t.LoadSlotSd(XMM0, lhs);
      t.a.CmpsdXmmMem(XMM0, kSlotBase, 0, FPred(i), true);
      t.Mark(rhs);
      t.StoreFBool();
    });
  }

  // --- booleans ------------------------------------------------------------
  auto bool_ab = [&](BcOp op, bool is_or) {
    def(op, [is_or](TB& t) {
      t.LoadSlot(RAX, PatchKind::kSlotB);
      t.a.TestRegReg(RAX, RAX);
      t.a.Setcc(kCondNE, RAX);
      t.LoadSlot(RCX, PatchKind::kSlotC);
      t.a.TestRegReg(RCX, RCX);
      t.a.Setcc(kCondNE, RCX);
      if (is_or) {
        t.a.OrReg8(RAX, RCX);
      } else {
        t.a.AndReg8(RAX, RCX);
      }
      t.a.MovzxRegReg8(RAX, RAX);
      t.StoreSlot(RAX, PatchKind::kSlotA);
    });
  };
  bool_ab(BcOp::kAnd, false);
  bool_ab(BcOp::kOr, true);
  auto is_zero = [&](BcOp op) {
    def(op, [](TB& t) {
      t.LoadSlot(RAX, PatchKind::kSlotB);
      t.a.TestRegReg(RAX, RAX);
      t.StoreBool(kCondE);
    });
  };
  is_zero(BcOp::kNot);
  is_zero(BcOp::kIsNull);  // null == 0: same shape

  // --- records -------------------------------------------------------------
  def(BcOp::kRecGet, [](TB& t) {
    t.LoadSlot(RAX, PatchKind::kSlotB);
    t.a.MovRegMem(RAX, RAX, 0, true);
    t.Mark(PatchKind::kFieldC);
    t.StoreSlot(RAX, PatchKind::kSlotA);
  });
  def(BcOp::kRecSet, [](TB& t) {
    t.LoadSlot(RAX, PatchKind::kSlotA);
    t.LoadSlot(RCX, PatchKind::kSlotC);
    t.a.MovMemReg(RAX, 0, RCX, true);
    t.Mark(PatchKind::kFieldB);
  });
  def(BcOp::kRecAccAddI, [](TB& t) {
    t.LoadSlot(RAX, PatchKind::kSlotA);
    t.LoadSlot(RCX, PatchKind::kSlotC);
    t.a.AddMemReg(RAX, 0, RCX, true);
    t.Mark(PatchKind::kFieldB);
  });
  def(BcOp::kRecAccAddF, [](TB& t) {
    t.LoadSlot(RAX, PatchKind::kSlotA);
    t.a.MovsdXmmMem(XMM0, RAX, 0, true);
    t.Mark(PatchKind::kFieldB);
    t.a.ArithsdXmmMem(0x58, XMM0, kSlotBase, 0, true);
    t.Mark(PatchKind::kSlotC);
    t.a.MovsdMemXmm(RAX, 0, XMM0, true);
    t.Mark(PatchKind::kFieldB);
  });

  // --- arrays / lists (std::vector layout, checked by the layout probe) ---
  // RtArray/RtList hold their std::vector at offset 0; begin pointer at
  // vector offset 0, end pointer at offset 8 (RuntimeLayoutUsable checks).
  def(BcOp::kArrGet, [](TB& t) {
    t.LoadSlot(RAX, PatchKind::kSlotB);
    t.a.MovRegMem(RAX, RAX, 0);  // data.begin
    t.LoadSlot(RCX, PatchKind::kSlotC);
    t.a.MovRegMemIdx(RAX, RAX, RCX, 3);
    t.StoreSlot(RAX, PatchKind::kSlotA);
  });
  def(BcOp::kListGet, [](TB& t) {
    t.LoadSlot(RAX, PatchKind::kSlotB);
    t.a.MovRegMem(RAX, RAX, 0);
    t.LoadSlot(RCX, PatchKind::kSlotC);
    t.a.MovRegMemIdx(RAX, RAX, RCX, 3);
    t.StoreSlot(RAX, PatchKind::kSlotA);
  });
  def(BcOp::kArrSet, [](TB& t) {
    t.LoadSlot(RAX, PatchKind::kSlotA);
    t.a.MovRegMem(RAX, RAX, 0);
    t.LoadSlot(RCX, PatchKind::kSlotB);
    t.LoadSlot(RDX, PatchKind::kSlotC);
    t.a.MovMemIdxReg(RAX, RCX, 3, 0, RDX);
  });
  auto vec_len = [&](BcOp op) {
    def(op, [](TB& t) {
      t.LoadSlot(RAX, PatchKind::kSlotB);
      t.a.MovRegMem(RCX, RAX, 8);  // end
      t.a.SubRegMem(RCX, RAX, 0);  // - begin
      t.a.SarImm8(RCX, 3);         // / sizeof(Slot)
      t.StoreSlot(RCX, PatchKind::kSlotA);
    });
  };
  vec_len(BcOp::kArrLen);
  vec_len(BcOp::kListSize);
  def(BcOp::kArrAccAddI, [](TB& t) {
    t.LoadSlot(RAX, PatchKind::kSlotA);
    t.a.MovRegMem(RAX, RAX, 0);
    t.LoadSlot(RCX, PatchKind::kSlotB);
    t.LoadSlot(RDX, PatchKind::kSlotC);
    t.a.AddMemIdxReg(RAX, RCX, 3, 0, RDX);
  });
  def(BcOp::kArrAccAddF, [](TB& t) {
    t.LoadSlot(RAX, PatchKind::kSlotA);
    t.a.MovRegMem(RAX, RAX, 0);
    t.LoadSlot(RCX, PatchKind::kSlotB);
    t.a.MovsdXmmMemIdx(XMM0, RAX, RCX, 3);
    t.a.ArithsdXmmMem(0x58, XMM0, kSlotBase, 0, true);
    t.Mark(PatchKind::kSlotC);
    t.a.MovsdMemIdxXmm(RAX, RCX, 3, XMM0);
  });

  // --- base-table access ---------------------------------------------------
  def(BcOp::kColGet, [](TB& t) {
    t.LoadPtr(R11);
    t.LoadSlot(RAX, PatchKind::kSlotC);
    t.a.MovRegMemIdx(RAX, R11, RAX, 3);
    t.StoreSlot(RAX, PatchKind::kSlotA);
  });
  def(BcOp::kColDict, [](TB& t) {
    t.LoadPtr(R11);
    t.LoadSlot(RAX, PatchKind::kSlotC);
    t.a.MovsxdRegMemIdx(RAX, R11, RAX);  // int32 codes, sign-extended
    t.StoreSlot(RAX, PatchKind::kSlotA);
  });
  // Load-time indexes (struct offsets checked by the layout probe). The
  // unsigned compare folds the key < 0 and key > max_key range checks into
  // one.
  def(BcOp::kIdxBucketLen, [](TB& t) {
    t.LoadPtr(R11);
    t.LoadSlot(RAX, PatchKind::kSlotC);
    t.a.XorReg32(RCX);
    t.a.CmpRegMem(RAX, R11, 0);  // max_key
    size_t out = t.a.Jcc8(kCondA);
    t.a.MovRegMem(RDX, R11, 8);  // offsets.begin
    t.a.MovRegMemIdx(RCX, RDX, RAX, 3, 8);  // offsets[key + 1]
    t.a.SubRegMemIdx(RCX, RDX, RAX, 3);     // - offsets[key]
    t.a.PatchRel8(out);
    t.StoreSlot(RCX, PatchKind::kSlotA);
  });
  def(BcOp::kIdxBucketRow, [](TB& t) {
    t.LoadPtr(R11);
    t.LoadSlot(RAX, PatchKind::kSlotC);  // key
    t.a.MovRegMem(RDX, R11, 8);          // offsets.begin
    t.a.MovRegMemIdx(RAX, RDX, RAX, 3);  // offsets[key]
    t.a.AddRegMem(RAX, kSlotBase, 0, true);  // + j
    t.Mark(PatchKind::kSlotD);
    t.a.MovRegMem(RDX, R11, 32);         // rows.begin
    t.a.MovRegMemIdx(RAX, RDX, RAX, 3);
    t.StoreSlot(RAX, PatchKind::kSlotA);
  });
  def(BcOp::kIdxPkRow, [](TB& t) {
    t.LoadPtr(R11);
    t.LoadSlot(RAX, PatchKind::kSlotC);
    t.a.MovImmSext32(RCX, -1);
    t.a.CmpRegMem(RAX, R11, 0);  // max_key
    size_t out = t.a.Jcc8(kCondA);
    t.a.MovRegMem(RDX, R11, 8);  // row_of.begin
    t.a.MovRegMemIdx(RCX, RDX, RAX, 3);
    t.a.PatchRel8(out);
    t.StoreSlot(RCX, PatchKind::kSlotA);
  });

  // --- fused super-instructions -------------------------------------------
  const BcOp colcmp_i[] = {BcOp::kColGetEqI, BcOp::kColGetNeI,
                           BcOp::kColGetLtI, BcOp::kColGetLeI,
                           BcOp::kColGetGtI, BcOp::kColGetGeI};
  const BcOp colcmp_f[] = {BcOp::kColGetEqF, BcOp::kColGetNeF,
                           BcOp::kColGetLtF, BcOp::kColGetLeF,
                           BcOp::kColGetGtF, BcOp::kColGetGeF};
  const BcOp jn_i[] = {BcOp::kJnEqI, BcOp::kJnNeI, BcOp::kJnLtI,
                       BcOp::kJnLeI, BcOp::kJnGtI, BcOp::kJnGeI};
  const BcOp jn_f[] = {BcOp::kJnEqF, BcOp::kJnNeF, BcOp::kJnLtF,
                       BcOp::kJnLeF, BcOp::kJnGtF, BcOp::kJnGeF};
  const BcOp jncol_i[] = {BcOp::kJnColEqI, BcOp::kJnColNeI, BcOp::kJnColLtI,
                          BcOp::kJnColLeI, BcOp::kJnColGtI, BcOp::kJnColGeI};
  const BcOp jncol_f[] = {BcOp::kJnColEqF, BcOp::kJnColNeF, BcOp::kJnColLtF,
                          BcOp::kJnColLeF, BcOp::kJnColGtF, BcOp::kJnColGeF};
  for (int i = 0; i < 6; ++i) {
    // R[a] = col[R[c]] CMP R[d]
    def(colcmp_i[i], [i](TB& t) {
      t.LoadPtr(R11);
      t.LoadSlot(RAX, PatchKind::kSlotC);
      t.a.MovRegMemIdx(RAX, R11, RAX, 3);
      t.a.CmpRegMem(RAX, kSlotBase, 0, true);
      t.Mark(PatchKind::kSlotD);
      t.StoreBool(ValCond(i));
    });
    def(colcmp_f[i], [i](TB& t) {
      t.LoadPtr(R11);
      t.LoadSlot(RAX, PatchKind::kSlotC);
      if (FSwapped(i)) {
        t.LoadSlotSd(XMM0, PatchKind::kSlotD);
        t.a.CmpsdXmmMemIdx(XMM0, R11, RAX, 3, FPred(i));
      } else {
        t.a.MovsdXmmMemIdx(XMM0, R11, RAX, 3);
        t.a.CmpsdXmmMem(XMM0, kSlotBase, 0, FPred(i), true);
        t.Mark(PatchKind::kSlotD);
      }
      t.StoreFBool();
    });
    // if (!(R[a] CMP R[b])) jump
    def(jn_i[i], [i](TB& t) {
      t.LoadSlot(RAX, PatchKind::kSlotA);
      t.a.CmpRegMem(RAX, kSlotBase, 0, true);
      t.Mark(PatchKind::kSlotB);
      t.Jump(NegCond(i));
    });
    def(jn_f[i], [i](TB& t) {
      PatchKind lhs = FSwapped(i) ? PatchKind::kSlotB : PatchKind::kSlotA;
      PatchKind rhs = FSwapped(i) ? PatchKind::kSlotA : PatchKind::kSlotB;
      t.LoadSlotSd(XMM0, lhs);
      t.a.CmpsdXmmMem(XMM0, kSlotBase, 0, FPred(i), true);
      t.Mark(rhs);
      t.a.MovqRegXmm(RAX, XMM0);
      t.a.TestRegReg(RAX, RAX);
      t.Jump(kCondE);  // comparison false -> take the branch
    });
    // if (!(col[R[c]] CMP R[a])) jump
    def(jncol_i[i], [i](TB& t) {
      t.LoadPtr(R11);
      t.LoadSlot(RAX, PatchKind::kSlotC);
      t.a.MovRegMemIdx(RAX, R11, RAX, 3);
      t.a.CmpRegMem(RAX, kSlotBase, 0, true);
      t.Mark(PatchKind::kSlotA);
      t.Jump(NegCond(i));
    });
    def(jncol_f[i], [i](TB& t) {
      t.LoadPtr(R11);
      t.LoadSlot(RAX, PatchKind::kSlotC);
      if (FSwapped(i)) {
        t.LoadSlotSd(XMM0, PatchKind::kSlotA);
        t.a.CmpsdXmmMemIdx(XMM0, R11, RAX, 3, FPred(i));
      } else {
        t.a.MovsdXmmMemIdx(XMM0, R11, RAX, 3);
        t.a.CmpsdXmmMem(XMM0, kSlotBase, 0, FPred(i), true);
        t.Mark(PatchKind::kSlotA);
      }
      t.a.MovqRegXmm(RAX, XMM0);
      t.a.TestRegReg(RAX, RAX);
      t.Jump(kCondE);
    });
  }

  // --- generic hash-map probes (i64 keys) ----------------------------------
  // The compiler tags kMapFind/kMapGetOrNull/kMMapGetOrNull with the map's
  // key kind (insn.d); the stitcher only uses these templates for
  // kMapKeyI64 instructions (integral hash + integral equality — exactly
  // SlotHasher's default branch). The probe is self-contained: the bucket
  // array pointer and mask are loaded from the live map object on every
  // execution, so rehashing between (or during) loops needs no code
  // invalidation.
  size_t map_boff = RtHashMap::BucketsOffsetForJit();
  size_t mmap_moff = RtMultiMap::MapOffsetForJit();
  // rax = key, r11 = RtHashMap*; leaves r11 = matching node or null.
  // Clobbers rcx/rdx. Node layout {key, value, next} checked by the probe.
  auto emit_probe = [map_boff](TB& t) {
    int32_t bo = static_cast<int32_t>(map_boff);
    t.a.MovRegReg(RCX, RAX);  // h = HashMix(key): splitmix64 finalizer
    t.a.MovImm64(RDX, kMix1);
    t.a.AddRegReg(RCX, RDX);
    t.a.MovRegReg(RDX, RCX);
    t.a.ShrImm8(RDX, 30);
    t.a.XorRegReg(RCX, RDX);
    t.a.MovImm64(RDX, kMix2);
    t.a.ImulRegReg(RCX, RDX);
    t.a.MovRegReg(RDX, RCX);
    t.a.ShrImm8(RDX, 27);
    t.a.XorRegReg(RCX, RDX);
    t.a.MovImm64(RDX, kMix3);
    t.a.ImulRegReg(RCX, RDX);
    t.a.MovRegReg(RDX, RCX);
    t.a.ShrImm8(RDX, 31);
    t.a.XorRegReg(RCX, RDX);
    t.a.MovRegMem(RDX, R11, bo + 8);  // buckets.end
    t.a.SubRegMem(RDX, R11, bo);      // - begin = bytes
    t.a.SarImm8(RDX, 3);              // bucket count (a power of two)
    t.a.DecReg(RDX);                  // mask
    t.a.AndRegReg(RCX, RDX);          // bucket index
    t.a.MovRegMem(R11, R11, bo);      // buckets.begin
    t.a.MovRegMemIdx(R11, R11, RCX, 3);  // chain head
    size_t loop = t.a.here();
    t.a.TestRegReg(R11, R11);
    size_t miss = t.a.Jcc8(kCondE);
    t.a.CmpRegMem(RAX, R11, 0);  // key == node->key.i ?
    size_t hit = t.a.Jcc8(kCondE);
    t.a.MovRegMem(R11, R11, 16);  // node->next
    t.a.Jmp8Back(loop);
    t.a.PatchRel8(miss);
    t.a.PatchRel8(hit);
  };
  def(BcOp::kMapFind, [&emit_probe](TB& t) {
    t.LoadSlot(RAX, PatchKind::kSlotC);
    t.LoadSlot(R11, PatchKind::kSlotB);
    emit_probe(t);
    t.StoreSlot(R11, PatchKind::kSlotA);
  });
  // Shared value-load tail: R[a] = node ? node->value : null (null stays 0
  // in r11, so the store needs no second branch arm).
  auto node_value = [](TB& t) {
    t.a.TestRegReg(R11, R11);
    size_t nul = t.a.Jcc8(kCondE);
    t.a.MovRegMem(R11, R11, 8);  // node->value
    t.a.PatchRel8(nul);
    t.StoreSlot(R11, PatchKind::kSlotA);
  };
  def(BcOp::kMapGetOrNull, [&emit_probe, &node_value](TB& t) {
    t.LoadSlot(RAX, PatchKind::kSlotC);
    t.LoadSlot(R11, PatchKind::kSlotB);
    emit_probe(t);
    node_value(t);
  });
  def(BcOp::kMMapGetOrNull,
      [&emit_probe, &node_value, mmap_moff](TB& t) {
        t.LoadSlot(RAX, PatchKind::kSlotC);
        t.LoadSlot(R11, PatchKind::kSlotB);
        if (mmap_moff != 0) {  // the embedded key map
          t.a.AddImm8(R11, static_cast<int8_t>(mmap_moff));
        }
        emit_probe(t);
        node_value(t);  // node->value is the bucket RtList*
      });
  // Generic variants for string/record keys (SelectTemplate picks them
  // when insn.d != kMapKeyI64): one helper call running the typed probe.
  auto generic_probe = [&](BcOp op, const void* helper) {
    defalt(op, [helper](TB& t) {
      t.LoadSlot(RDI, PatchKind::kSlotB);  // map / multimap
      t.LoadSlot(RSI, PatchKind::kSlotC);  // key bits
      t.CallHelper(helper);
      t.StoreSlot(RAX, PatchKind::kSlotA);
    });
  };
  generic_probe(BcOp::kMapFind, reinterpret_cast<const void*>(&ops::MapFind));
  generic_probe(BcOp::kMapGetOrNull,
                reinterpret_cast<const void*>(&ops::MapGetOrNull));
  generic_probe(BcOp::kMMapGetOrNull,
                reinterpret_cast<const void*>(&ops::MMapGetOrNull));
  def(BcOp::kMapNodeVal, [](TB& t) {
    t.LoadSlot(RAX, PatchKind::kSlotB);
    t.a.MovRegMem(RAX, RAX, 8);  // node->value
    t.StoreSlot(RAX, PatchKind::kSlotA);
  });
  // Entry iteration (kMapForeach lowering) and size: pure loads through the
  // insertion-order vector.
  size_t map_eoff = RtHashMap::EntriesOffsetForJit();
  def(BcOp::kMapEntryKV, [map_eoff](TB& t) {
    int32_t eo = static_cast<int32_t>(map_eoff);
    t.LoadSlot(R11, PatchKind::kSlotC);  // map
    t.LoadSlot(RAX, PatchKind::kSlotD);  // entry index
    t.a.MovRegMem(R11, R11, eo);         // entries.begin
    t.a.MovRegMemIdx(R11, R11, RAX, 3);  // Node*
    t.a.MovRegMem(RAX, R11, 0);          // key
    t.StoreSlot(RAX, PatchKind::kSlotA);
    t.a.MovRegMem(RCX, R11, 8);          // value
    t.StoreSlot(RCX, PatchKind::kSlotB);
  });
  def(BcOp::kMapSize, [map_eoff](TB& t) {
    int32_t eo = static_cast<int32_t>(map_eoff);
    t.LoadSlot(RAX, PatchKind::kSlotB);
    t.a.MovRegMem(RCX, RAX, eo + 8);  // entries.end
    t.a.SubRegMem(RCX, RAX, eo);      // - begin
    t.a.SarImm8(RCX, 3);
    t.StoreSlot(RCX, PatchKind::kSlotA);
  });
  // Inserts, container construction and per-row allocation: helper calls —
  // the state they mutate is reachable from the object or from the
  // RunState* in state_reg.
  def(BcOp::kMapInsert, [](TB& t) {
    t.LoadSlot(RDI, PatchKind::kSlotB);  // map
    t.LoadSlot(RSI, PatchKind::kSlotC);  // key bits
    t.LoadSlot(RDX, PatchKind::kSlotD);  // value bits
    t.CallHelper(reinterpret_cast<const void*>(&ops::MapInsert));
    t.StoreSlot(RAX, PatchKind::kSlotA);  // the new node
  });
  def(BcOp::kMMapAdd, [](TB& t) {
    t.LoadSlot(RDI, PatchKind::kSlotA);  // multimap
    t.LoadSlot(RSI, PatchKind::kSlotB);  // key bits
    t.LoadSlot(RDX, PatchKind::kSlotC);  // value bits
    t.CallHelper(reinterpret_cast<const void*>(&ops::MMapAdd));
  });
  def(BcOp::kListAppend, [](TB& t) {
    t.LoadSlot(RDI, PatchKind::kSlotA);  // list
    t.LoadSlot(RSI, PatchKind::kSlotC);  // RunState* (state_reg)
    t.LoadSlot(RDX, PatchKind::kSlotB);  // value bits
    t.CallHelper(reinterpret_cast<const void*>(&ops::ListAppend));
  });
  auto rec_new = [&](BcOp op, const void* helper) {
    def(op, [helper](TB& t) {
      t.LoadSlot(RDI, PatchKind::kSlotC);  // RunState* (state_reg)
      t.a.MovRegReg(RSI, kSlotBase);
      t.a.MovImm64(RDX, 0);
      t.Mark(PatchKind::kExtraB);  // field operand list
      t.a.MovImm32(RCX, 0);
      t.Mark(PatchKind::kImmN);
      t.CallHelper(helper);
      t.StoreSlot(RAX, PatchKind::kSlotA);
    });
  };
  rec_new(BcOp::kRecNew, reinterpret_cast<const void*>(&ops::RecNew));
  rec_new(BcOp::kPoolRecNew, reinterpret_cast<const void*>(&ops::PoolRecNew));
  def(BcOp::kPoolAlloc, [](TB& t) {
    t.LoadSlot(RDI, PatchKind::kSlotC);  // RunState* (state_reg)
    t.LoadSlot(RSI, PatchKind::kSlotB);  // field count
    t.CallHelper(reinterpret_cast<const void*>(&ops::PoolAlloc));
    t.StoreSlot(RAX, PatchKind::kSlotA);
  });
  auto arr_new = [&](BcOp op, const void* helper) {
    def(op, [helper](TB& t) {
      t.LoadState(RDI);
      t.LoadSlot(RSI, PatchKind::kSlotB);  // length
      t.CallHelper(helper);
      t.StoreSlot(RAX, PatchKind::kSlotA);
    });
  };
  arr_new(BcOp::kArrNew, reinterpret_cast<const void*>(&ops::ArrNew));
  arr_new(BcOp::kMallocArr, reinterpret_cast<const void*>(&ops::MallocArr));
  def(BcOp::kListNew, [](TB& t) {
    t.LoadState(RDI);
    t.CallHelper(reinterpret_cast<const void*>(&ops::ListNew));
    t.StoreSlot(RAX, PatchKind::kSlotA);
  });
  auto map_new = [&](BcOp op, const void* helper) {
    def(op, [helper](TB& t) {
      t.LoadState(RDI);
      t.a.MovImm64(RSI, 0);
      t.Mark(PatchKind::kTypeB);  // key type
      t.CallHelper(helper);
      t.StoreSlot(RAX, PatchKind::kSlotA);
    });
  };
  map_new(BcOp::kMapNew, reinterpret_cast<const void*>(&ops::MapNew));
  map_new(BcOp::kMMapNew, reinterpret_cast<const void*>(&ops::MMapNew));

  // --- string comparisons (helper calls) -----------------------------------
  // An interned/constant operand makes pointer equality a common case for
  // kStrEq/kStrNe (dictionary-coded columns compare their pooled strings
  // against a preset constant), so those short-circuit before the strcmp
  // call; every template falls back to the shared op the VM calls.
  // eq_result: value stored when both operands are the same pointer.
  auto str2 = [&](BcOp op, const void* helper, int eq_result) {
    def(op, [helper, eq_result](TB& t) {
      t.LoadSlot(RDI, PatchKind::kSlotB);
      t.LoadSlot(RSI, PatchKind::kSlotC);
      t.a.CmpRegReg(RDI, RSI);
      size_t same = t.a.Jcc8(kCondE);
      t.CallHelper(helper);
      size_t end = t.a.Jmp8();
      t.a.PatchRel8(same);
      t.a.MovImm32(RAX, static_cast<uint32_t>(eq_result));
      t.a.PatchRel8(end);
      t.StoreSlot(RAX, PatchKind::kSlotA);
    });
  };
  str2(BcOp::kStrEq, reinterpret_cast<const void*>(&ops::StrEq), 1);
  str2(BcOp::kStrNe, reinterpret_cast<const void*>(&ops::StrNe), 0);
  str2(BcOp::kStrLt, reinterpret_cast<const void*>(&ops::StrLt), 0);
  str2(BcOp::kStrStarts, reinterpret_cast<const void*>(&ops::StrStarts), 1);
  str2(BcOp::kStrEnds, reinterpret_cast<const void*>(&ops::StrEnds), 1);
  str2(BcOp::kStrContains, reinterpret_cast<const void*>(&ops::StrContains),
       1);
  def(BcOp::kStrLike, [](TB& t) {
    t.LoadSlot(RDI, PatchKind::kSlotB);
    t.a.MovImm64(RSI, 0);
    t.Mark(PatchKind::kPatternC);  // the pre-split prog.patterns entry
    t.CallHelper(reinterpret_cast<const void*>(&ops::StrLike));
    t.StoreSlot(RAX, PatchKind::kSlotA);
  });
  def(BcOp::kStrLen, [](TB& t) {
    t.LoadSlot(RDI, PatchKind::kSlotB);
    t.CallHelper(reinterpret_cast<const void*>(&ops::StrLen));
    t.StoreSlot(RAX, PatchKind::kSlotA);
  });
  def(BcOp::kStrSubstr, [](TB& t) {
    t.LoadState(RDI);
    t.LoadSlot(RSI, PatchKind::kSlotB);  // source
    t.a.MovImm32(RDX, 0);
    t.Mark(PatchKind::kImmC);  // start
    t.a.MovImm32(RCX, 0);
    t.Mark(PatchKind::kImmD);  // length
    t.CallHelper(reinterpret_cast<const void*>(&ops::StrSubstr));
    t.StoreSlot(RAX, PatchKind::kSlotA);
  });

  // --- morsel addend logs --------------------------------------------------
  // kLogRow appends R[extra[b..b+n)] to the channel's vector<Slot> (reached
  // through the log register, insn.c). Fast path is a pure pointer bump —
  // the runtime reserves one entry per morsel row, so growth only happens
  // for channels appending from inner loops — and the grow path is a helper
  // call.
  def(BcOp::kLogRow, [](TB& t) {
    t.LoadSlot(R11, PatchKind::kSlotC);  // the log: std::vector<Slot>*
    t.a.MovImm64(RDX, 0);
    t.Mark(PatchKind::kExtraB);  // operand list
    t.a.MovRegMem(RAX, R11, 8);  // end
    t.a.MovImm32(RCX, 0);
    t.Mark(PatchKind::kImmN8);  // n * sizeof(Slot)
    t.a.AddRegReg(RCX, RAX);    // proposed new end
    t.a.CmpRegMem(RCX, R11, 16);  // vs capacity end
    size_t slow = t.a.Jcc8(kCondA);
    size_t copy = t.a.here();  // n >= 1 always (channels log >= 1 value)
    t.a.Mov32RegMem(RSI, RDX, 0);             // operand register index
    t.a.MovRegMemIdx(R10, kSlotBase, RSI, 3); // its slot
    t.a.MovMemReg(RAX, 0, R10);
    t.a.AddImm8(RAX, 8);
    t.a.AddImm8(RDX, 4);
    t.a.CmpRegReg(RAX, RCX);
    t.a.Jcc8Back(kCondNE, copy);
    t.a.MovMemReg(R11, 8, RCX);  // commit the new end
    size_t end = t.a.Jmp8();
    t.a.PatchRel8(slow);
    t.a.MovRegReg(RDI, R11);
    t.a.MovRegReg(RSI, kSlotBase);
    t.a.SubRegReg(RCX, RAX);  // byte count (rdx still holds argv)
    t.CallHelper(reinterpret_cast<const void*>(&ops::LogRow));
    t.a.PatchRel8(end);
  });

  // --- sorts ---------------------------------------------------------------
  // One helper call: regs + the instruction's JitSortSite descriptor. The
  // helper reads the container/count through the register file, drives the
  // native comparator subroutine per comparison, and shares the stable
  // merge core (and the morsel-parallel run/merge tree) with the VM.
  auto sort_op = [&](BcOp op) {
    def(op, [](TB& t) {
      t.a.MovRegReg(RDI, kSlotBase);
      t.a.MovImm64(RSI, 0);
      t.Mark(PatchKind::kSortSite);
      t.CallHelper(reinterpret_cast<const void*>(&HelpSort));
    });
  };
  sort_op(BcOp::kArrSort);
  sort_op(BcOp::kListSort);

  // --- result emission -----------------------------------------------------
  // One helper call staging the row straight into the result table of the
  // RunState the state register points at — works for any emit schema
  // (the string mask routes interning), and for main and morsel-private
  // tables alike.
  def(BcOp::kEmit, [](TB& t) {
    t.LoadSlot(RDI, PatchKind::kSlotB);  // RunState* (state_reg)
    t.a.MovRegReg(RSI, kSlotBase);       // the register file
    t.a.MovImm64(RDX, 0);
    t.Mark(PatchKind::kExtraA);  // operand list
    t.a.MovImm32(RCX, 0);
    t.Mark(PatchKind::kImmN);
    t.a.MovImm32(R8, 0);
    t.Mark(PatchKind::kImmC);
    t.CallHelper(reinterpret_cast<const void*>(&ops::Emit));
  });

  // --- morsel dispatch -----------------------------------------------------
  // The shared op decides and runs the loop (exec/bytecode.h ops::ParLoop);
  // its outcome selects fall-through into the sequential loop, the skip
  // branch past it, or the abort thunk.
  def(BcOp::kParLoop, [](TB& t) {
    t.LoadState(RDI);
    t.a.MovRegReg(RSI, kSlotBase);
    t.a.MovImm64(RDX, 0);
    t.Mark(PatchKind::kParLoopA);
    t.CallHelper(reinterpret_cast<const void*>(&ops::ParLoop));
    static_assert(ops::kParLoopSequential == 0 && ops::kParLoopDone == 1 &&
                      ops::kParLoopAbort == 2,
                  "the kParLoop template decodes the outcome as 0/1/2");
    t.a.TestRegReg(RAX, RAX);
    size_t seq = t.a.Jcc8(kCondE);
    t.a.DecReg(RAX);
    t.Jump(kCondE);  // ran morsel-parallel: skip the sequential loop
    t.a.JmpRel32();
    t.Mark(PatchKind::kJumpAbort);
    t.a.PatchRel8(seq);
  });

  // Flatten into stable storage: concatenate all template bytes (main
  // table first, then variants), then resolve the code pointers against
  // the final buffer.
  auto flatten = [&](std::vector<Built>& src, OpTemplate* table) {
    for (int op = 0; op < kNumOps; ++op) {
      Built& b = src[op];
      if (b.bytes.empty()) continue;
      OpTemplate& t = table[op];
      if (b.patches.size() > sizeof(t.patches) / sizeof(t.patches[0])) {
        std::fprintf(stderr,
                     "jit: template for %s has %zu patch points (max %zu)\n",
                     BcOpName(static_cast<BcOp>(op)), b.patches.size(),
                     sizeof(t.patches) / sizeof(t.patches[0]));
        std::abort();  // a template bug, not a runtime condition
      }
      t.size = static_cast<uint16_t>(b.bytes.size());
      t.num_patches = static_cast<uint8_t>(b.patches.size());
      for (size_t i = 0; i < b.patches.size(); ++i) t.patches[i] = b.patches[i];
      s->bytes.insert(s->bytes.end(), b.bytes.begin(), b.bytes.end());
    }
  };
  flatten(built, s->table);
  flatten(built_alt, s->alt);
  size_t off = 0;
  auto resolve = [&](std::vector<Built>& src, OpTemplate* table) {
    for (int op = 0; op < kNumOps; ++op) {
      if (src[op].bytes.empty()) continue;
      table[op].code = s->bytes.data() + off;
      off += src[op].bytes.size();
    }
  };
  resolve(built, s->table);
  resolve(built_alt, s->alt);
  return s;
}

const Store* GetStore() {
  static const Store* store = BuildTemplates();
  return store;
}

}  // namespace

const OpTemplate* SelectTemplate(const Insn& insn) {
  const Store* s = GetStore();
  const OpTemplate* t = &s->table[insn.op];
  switch (static_cast<BcOp>(insn.op)) {
    case BcOp::kMapFind:
    case BcOp::kMapGetOrNull:
    case BcOp::kMMapGetOrNull:
      // Non-i64 keys take the generic helper-call probe.
      if (insn.d != kMapKeyI64) t = &s->alt[insn.op];
      break;
    default:
      break;
  }
  return t->code != nullptr ? t : nullptr;
}

bool RuntimeLayoutUsable() {
  static const bool ok = [] {
    if (sizeof(void*) != 8 || sizeof(std::vector<Slot>) != 24) return false;
    std::vector<Slot> v(3);
    unsigned char* raw = reinterpret_cast<unsigned char*>(&v);
    Slot* b = nullptr;
    Slot* e = nullptr;
    std::memcpy(&b, raw, 8);
    std::memcpy(&e, raw + 8, 8);
    if (b != v.data() || e != v.data() + 3) return false;
    {
      // Capacity pointer in the third word — the kLogRow bump checks it.
      std::vector<Slot> c;
      c.reserve(7);
      unsigned char* craw = reinterpret_cast<unsigned char*>(&c);
      Slot* cap = nullptr;
      std::memcpy(&cap, craw + 16, 8);
      if (cap != c.data() + 7) return false;
    }
    // Hash-map probe templates: node field offsets, the bucket vector of a
    // live map (16 null chain heads after construction), and the embedded
    // member offsets small enough for the template's addressing.
    if (offsetof(RtHashMap::Node, key) != 0 ||
        offsetof(RtHashMap::Node, value) != 8 ||
        offsetof(RtHashMap::Node, next) != 16) {
      return false;
    }
    {
      size_t boff = RtHashMap::BucketsOffsetForJit();
      size_t eoff = RtHashMap::EntriesOffsetForJit();
      if (boff > 96 || eoff > 96 || RtMultiMap::MapOffsetForJit() > 96) {
        return false;
      }
      // End-to-end: insert through the C++ map, then re-find every key the
      // way the stitched probe does — raw member offsets, the inline
      // splitmix64 hash, bucket mask from the vector span, intrusive chain
      // walk — across a rehash (40 inserts grow 16 -> 64 buckets). The
      // insertion-order vector feeds the kMapEntryKV/kMapSize templates.
      ir::Type i64t;
      i64t.kind = ir::TypeKind::kI64;
      AllocStats stats;
      RtHashMap m(&i64t, &stats);
      for (int64_t k = 0; k < 40; ++k) m.Insert(SlotI(k * 7), SlotI(k));
      unsigned char* mraw = reinterpret_cast<unsigned char*>(&m);
      RtHashMap::Node** bb = nullptr;
      RtHashMap::Node** be = nullptr;
      std::memcpy(&bb, mraw + boff, 8);
      std::memcpy(&be, mraw + boff + 8, 8);
      size_t nb = static_cast<size_t>(be - bb);
      if (nb < 40 || (nb & (nb - 1)) != 0) return false;
      for (int64_t k = 0; k < 40; ++k) {
        RtHashMap::Node* n =
            bb[HashMix(static_cast<uint64_t>(k * 7)) & (nb - 1)];
        while (n != nullptr && n->key.i != k * 7) n = n->next;
        if (n == nullptr || n->value.i != k) return false;
      }
      RtHashMap::Node** eb = nullptr;
      RtHashMap::Node** ee = nullptr;
      std::memcpy(&eb, mraw + eoff, 8);
      std::memcpy(&ee, mraw + eoff + 8, 8);
      if (ee - eb != 40) return false;
      for (int64_t k = 0; k < 40; ++k) {
        if (eb[k]->key.i != k * 7) return false;
      }
    }
    RtArray arr;
    if (reinterpret_cast<unsigned char*>(&arr.data) !=
        reinterpret_cast<unsigned char*>(&arr)) {
      return false;
    }
    RtList list;
    if (reinterpret_cast<unsigned char*>(&list.items) !=
        reinterpret_cast<unsigned char*>(&list)) {
      return false;
    }
    storage::PartitionedIndex pi;
    unsigned char* pr = reinterpret_cast<unsigned char*>(&pi);
    if (reinterpret_cast<unsigned char*>(&pi.max_key) != pr ||
        reinterpret_cast<unsigned char*>(&pi.offsets) != pr + 8 ||
        reinterpret_cast<unsigned char*>(&pi.rows) != pr + 32) {
      return false;
    }
    storage::PkIndex pk;
    unsigned char* kr = reinterpret_cast<unsigned char*>(&pk);
    if (reinterpret_cast<unsigned char*>(&pk.max_key) != kr ||
        reinterpret_cast<unsigned char*>(&pk.row_of) != kr + 8) {
      return false;
    }
    return true;
  }();
  return ok;
}

}  // namespace qc::exec::jit
