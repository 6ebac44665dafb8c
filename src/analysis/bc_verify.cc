#include "analysis/bc_verify.h"

#include <algorithm>
#include <atomic>
#include <deque>
#include <unordered_map>
#include <utility>

#include "common/knobs.h"

namespace qc::exec::analysis {

namespace {

// -------------------------------------------------------------------------
// Per-slot abstract domain.
//
// Types: a tiny lattice over what a Slot's union fields can legally hold.
// kAny is the top element (column reads, constants, record/map payloads —
// anything whose static type the program image does not record). Integer
// reads (.i) also accept kPtr: the VM's null tests, pointer-identity
// compares and the fused while-exit kJz all legitimately read .i of a
// pointer slot.
// -------------------------------------------------------------------------
enum class Abs : uint8_t { kI64, kF64, kStr, kPtr, kAny };

const char* AbsName(Abs t) {
  switch (t) {
    case Abs::kI64: return "i64";
    case Abs::kF64: return "f64";
    case Abs::kStr: return "str";
    case Abs::kPtr: return "ptr";
    case Abs::kAny: return "any";
  }
  return "?";
}

bool Compat(Abs have, Abs need) {
  if (have == Abs::kAny || need == Abs::kAny) return true;
  if (need == Abs::kI64) return have == Abs::kI64 || have == Abs::kPtr;
  return have == need;
}

struct SlotState {
  uint8_t defined = 0;  // written on every path reaching this point
  uint8_t local = 0;    // written inside the current region (or rebound
                        // per-morsel by the parallel runtime) — the
                        // fragment-isolation provenance bit
  Abs type = Abs::kAny;

  bool operator==(const SlotState& o) const {
    return defined == o.defined && local == o.local && type == o.type;
  }
};

SlotState Join(const SlotState& a, const SlotState& b) {
  SlotState r;
  r.defined = a.defined && b.defined;
  r.local = a.local && b.local;
  r.type = a.type == b.type ? a.type : Abs::kAny;
  return r;
}

using State = std::vector<SlotState>;

bool JoinInto(State& into, const State& from) {
  bool changed = false;
  for (size_t i = 0; i < into.size(); ++i) {
    SlotState j = Join(into[i], from[i]);
    if (!(j == into[i])) {
      into[i] = j;
      changed = true;
    }
  }
  return changed;
}

// -------------------------------------------------------------------------
// Per-instruction effect model. Derived independently from the VM handler
// bodies (bytecode.cc ExecImpl) and the JIT template semantics — NOT from
// the compiler's emission code, so a compiler that starts emitting
// operands the handlers don't implement fails verification here.
// -------------------------------------------------------------------------
struct RegRead {
  uint32_t reg;
  Abs need;
};

struct Effects {
  RegRead reads[5];
  int nreads = 0;
  uint32_t writes[2];
  Abs wtype[2] = {Abs::kAny, Abs::kAny};
  int nwrites = 0;
  bool mov = false;           // kMov: dst copies src's abstract state
  bool reads_extra = false;   // reads the registers in extra[off, off+n)
  uint32_t extra_off = 0;
  uint16_t extra_n = 0;
  // Pointer registers this instruction *stores through* (shared-state
  // mutation candidates for the fragment-isolation check).
  uint32_t stores_thru[1];
  int nstores = 0;
};

struct JumpInfo {
  bool is_jump = false;
  bool unconditional = false;  // no fall-through
  bool safepoint = false;      // may be a loop back edge
};

JumpInfo JumpKind(BcOp op) {
  JumpInfo j;
  switch (op) {
    case BcOp::kJmp:
      j = {true, true, false};
      break;
    case BcOp::kIncJmp:
      j = {true, true, true};
      break;
    case BcOp::kJmpSp:
      j = {true, true, true};
      break;
    case BcOp::kForNext:
      j = {true, false, true};
      break;
    case BcOp::kJz: case BcOp::kJnz: case BcOp::kJgeI:
    case BcOp::kJnEqI: case BcOp::kJnNeI: case BcOp::kJnLtI:
    case BcOp::kJnLeI: case BcOp::kJnGtI: case BcOp::kJnGeI:
    case BcOp::kJnColEqI: case BcOp::kJnColNeI: case BcOp::kJnColLtI:
    case BcOp::kJnColLeI: case BcOp::kJnColGtI: case BcOp::kJnColGeI:
      j = {true, false, false};
      break;
    default:
      break;
  }
  return j;
}

Effects InsnEffects(const Insn& I) {
  Effects e;
  auto R = [&](uint32_t reg, Abs need) { e.reads[e.nreads++] = {reg, need}; };
  auto W = [&](uint32_t reg, Abs t) {
    e.wtype[e.nwrites] = t;
    e.writes[e.nwrites++] = reg;
  };
  auto S = [&](uint32_t reg) { e.stores_thru[e.nstores++] = reg; };
  uint32_t dreg = static_cast<uint32_t>(I.d);
  switch (static_cast<BcOp>(I.op)) {
    case BcOp::kRet:
    case BcOp::kJmp:
      break;
    case BcOp::kJz:
    case BcOp::kJnz:
      R(I.a, Abs::kAny);
      break;
    case BcOp::kJgeI:
      R(I.a, Abs::kI64);
      R(I.b, Abs::kI64);
      break;
    case BcOp::kForNext:
      R(I.a, Abs::kI64);
      R(I.b, Abs::kI64);
      W(I.a, Abs::kI64);
      break;
    case BcOp::kIncJmp:
      R(I.a, Abs::kI64);
      W(I.a, Abs::kI64);
      break;
    case BcOp::kJmpSp:
      break;
    case BcOp::kLoadK:
      W(I.a, Abs::kAny);
      break;
    case BcOp::kMov:
      R(I.b, Abs::kAny);
      W(I.a, Abs::kAny);
      e.mov = true;
      break;
    case BcOp::kAddI: case BcOp::kSubI: case BcOp::kMulI:
    case BcOp::kDivI: case BcOp::kModI: case BcOp::kBitAnd:
      R(I.b, Abs::kI64);
      R(I.c, Abs::kI64);
      W(I.a, Abs::kI64);
      break;
    case BcOp::kNegI:
      R(I.b, Abs::kI64);
      W(I.a, Abs::kI64);
      break;
    case BcOp::kAddF: case BcOp::kSubF: case BcOp::kMulF: case BcOp::kDivF:
      R(I.b, Abs::kF64);
      R(I.c, Abs::kF64);
      W(I.a, Abs::kF64);
      break;
    case BcOp::kNegF:
      R(I.b, Abs::kF64);
      W(I.a, Abs::kF64);
      break;
    case BcOp::kCastIF:
      R(I.b, Abs::kI64);
      W(I.a, Abs::kF64);
      break;
    case BcOp::kCastFI:
      R(I.b, Abs::kF64);
      W(I.a, Abs::kI64);
      break;
    case BcOp::kEqI: case BcOp::kNeI: case BcOp::kLtI:
    case BcOp::kLeI: case BcOp::kGtI: case BcOp::kGeI:
      R(I.b, Abs::kI64);
      R(I.c, Abs::kI64);
      W(I.a, Abs::kI64);
      break;
    case BcOp::kEqF: case BcOp::kNeF: case BcOp::kLtF:
    case BcOp::kLeF: case BcOp::kGtF: case BcOp::kGeF:
      R(I.b, Abs::kF64);
      R(I.c, Abs::kF64);
      W(I.a, Abs::kI64);
      break;
    case BcOp::kAnd: case BcOp::kOr:
      R(I.b, Abs::kAny);
      R(I.c, Abs::kAny);
      W(I.a, Abs::kI64);
      break;
    case BcOp::kNot:
      R(I.b, Abs::kAny);
      W(I.a, Abs::kI64);
      break;
    case BcOp::kStrEq: case BcOp::kStrNe: case BcOp::kStrLt:
    case BcOp::kStrStarts: case BcOp::kStrEnds: case BcOp::kStrContains:
      R(I.b, Abs::kStr);
      R(I.c, Abs::kStr);
      W(I.a, Abs::kI64);
      break;
    case BcOp::kStrLike:
      R(I.b, Abs::kStr);
      W(I.a, Abs::kI64);
      break;
    case BcOp::kStrLen:
      R(I.b, Abs::kStr);
      W(I.a, Abs::kI64);
      break;
    case BcOp::kStrSubstr:
      R(I.b, Abs::kStr);
      W(I.a, Abs::kStr);
      break;
    case BcOp::kRecNew:
      R(I.c, Abs::kPtr);
      W(I.a, Abs::kPtr);
      e.reads_extra = true;
      e.extra_off = I.b;
      e.extra_n = I.n;
      break;
    case BcOp::kRecGet:
      R(I.b, Abs::kPtr);
      W(I.a, Abs::kAny);
      break;
    case BcOp::kRecSet:
      R(I.a, Abs::kPtr);
      R(I.c, Abs::kAny);
      S(I.a);
      break;
    case BcOp::kPoolRecNew:
      R(I.c, Abs::kPtr);
      W(I.a, Abs::kPtr);
      e.reads_extra = true;
      e.extra_off = I.b;
      e.extra_n = I.n;
      break;
    case BcOp::kArrNew:
    case BcOp::kMallocArr:
      R(I.b, Abs::kI64);
      W(I.a, Abs::kPtr);
      break;
    case BcOp::kArrGet:
      R(I.b, Abs::kPtr);
      R(I.c, Abs::kI64);
      W(I.a, Abs::kAny);
      break;
    case BcOp::kArrSet:
      R(I.a, Abs::kPtr);
      R(I.b, Abs::kI64);
      R(I.c, Abs::kAny);
      S(I.a);
      break;
    case BcOp::kArrLen:
      R(I.b, Abs::kPtr);
      W(I.a, Abs::kI64);
      break;
    case BcOp::kArrSort:
      R(I.a, Abs::kPtr);
      R(I.b, Abs::kI64);
      S(I.a);
      break;
    case BcOp::kListNew:
      W(I.a, Abs::kPtr);
      break;
    case BcOp::kListAppend:
      R(I.a, Abs::kPtr);
      R(I.b, Abs::kAny);
      R(I.c, Abs::kPtr);
      S(I.a);
      break;
    case BcOp::kListSize:
      R(I.b, Abs::kPtr);
      W(I.a, Abs::kI64);
      break;
    case BcOp::kListGet:
      R(I.b, Abs::kPtr);
      R(I.c, Abs::kI64);
      W(I.a, Abs::kAny);
      break;
    case BcOp::kListSort:
      R(I.a, Abs::kPtr);
      S(I.a);
      break;
    case BcOp::kMapNew:
      W(I.a, Abs::kPtr);
      break;
    case BcOp::kMapFind:
      R(I.b, Abs::kPtr);
      R(I.c, Abs::kAny);
      W(I.a, Abs::kPtr);
      break;
    case BcOp::kMapInsert:
      R(I.b, Abs::kPtr);
      R(I.c, Abs::kAny);
      R(dreg, Abs::kAny);
      W(I.a, Abs::kPtr);
      S(I.b);
      break;
    case BcOp::kMapNodeVal:
      R(I.b, Abs::kPtr);
      W(I.a, Abs::kAny);
      break;
    case BcOp::kMapGetOrNull:
      R(I.b, Abs::kPtr);
      R(I.c, Abs::kAny);
      W(I.a, Abs::kAny);
      break;
    case BcOp::kMapSize:
      R(I.b, Abs::kPtr);
      W(I.a, Abs::kI64);
      break;
    case BcOp::kMapEntryKV:
      R(I.c, Abs::kPtr);
      R(dreg, Abs::kI64);
      W(I.a, Abs::kAny);
      W(I.b, Abs::kAny);
      break;
    case BcOp::kMMapNew:
      W(I.a, Abs::kPtr);
      break;
    case BcOp::kMMapAdd:
      R(I.a, Abs::kPtr);
      R(I.b, Abs::kAny);
      R(I.c, Abs::kAny);
      S(I.a);
      break;
    case BcOp::kMMapGetOrNull:
      R(I.b, Abs::kPtr);
      R(I.c, Abs::kAny);
      W(I.a, Abs::kPtr);
      break;
    case BcOp::kIsNull:
      R(I.b, Abs::kAny);
      W(I.a, Abs::kI64);
      break;
    case BcOp::kColGet:
      R(I.c, Abs::kI64);
      W(I.a, Abs::kAny);
      break;
    case BcOp::kColDict:
    case BcOp::kIdxBucketLen:
    case BcOp::kIdxPkRow:
      R(I.c, Abs::kI64);
      W(I.a, Abs::kI64);
      break;
    case BcOp::kIdxBucketRow:
      R(I.c, Abs::kI64);
      R(dreg, Abs::kI64);
      W(I.a, Abs::kI64);
      break;
    case BcOp::kJnEqI: case BcOp::kJnNeI: case BcOp::kJnLtI:
    case BcOp::kJnLeI: case BcOp::kJnGtI: case BcOp::kJnGeI:
      R(I.a, Abs::kI64);
      R(I.b, Abs::kI64);
      break;
    case BcOp::kJnColEqI: case BcOp::kJnColNeI: case BcOp::kJnColLtI:
    case BcOp::kJnColLeI: case BcOp::kJnColGtI: case BcOp::kJnColGeI:
      R(I.a, Abs::kI64);
      R(I.c, Abs::kI64);
      break;
    case BcOp::kRecAccAddI:
      R(I.a, Abs::kPtr);
      R(I.c, Abs::kI64);
      S(I.a);
      break;
    case BcOp::kEmit:
      R(I.b, Abs::kPtr);
      e.reads_extra = true;
      e.extra_off = I.a;
      e.extra_n = I.n;
      break;
    case BcOp::kParLoop:
      break;
    case BcOp::kLogRow:
      R(I.b, Abs::kI64);
      R(I.c, Abs::kPtr);
      break;
    case BcOp::kNumOps:
      break;
  }
  return e;
}

// -------------------------------------------------------------------------
// The verifier proper.
// -------------------------------------------------------------------------
constexpr int kMainRegion = 0;

class Verifier {
 public:
  explicit Verifier(const BytecodeProgram& prog) : prog_(prog) {}

  VerifyResult Run() {
    if (!CheckProgramLevel()) return std::move(result_);
    BuildRegions();
    StructuralPass();
    // Dataflow trusts operand indices; a program with out-of-bounds
    // operands or branch targets already failed and is not analyzable.
    if (!bounds_clean_) return std::move(result_);
    DataflowAll();
    return std::move(result_);
  }

 private:
  void Add(uint32_t pc, const char* invariant, std::string detail) {
    result_.violations.push_back({pc, invariant, std::move(detail)});
  }

  bool InBoundsReg(uint32_t r) const { return r < prog_.num_regs; }

  bool IsCtxReg(uint32_t r) const {
    return r == prog_.state_reg || r == prog_.gov_cnt_reg;
  }

  // --- program-level contracts -------------------------------------------
  bool CheckProgramLevel() {
    const BytecodeProgram& p = prog_;
    if (p.code.empty()) {
      Add(kNoPc, "operand-bounds", "empty program (no kRet)");
      return false;
    }
    bool ok = true;
    for (auto [r, name] : {std::pair{p.state_reg, "state_reg"},
                           std::pair{p.gov_cnt_reg, "gov_cnt_reg"}}) {
      if (!InBoundsReg(r)) {
        Add(kNoPc, "context-reg-contract",
            std::string(name) + " = r" + std::to_string(r) +
                " out of range (num_regs = " + std::to_string(p.num_regs) +
                ")");
        ok = false;
      }
    }
    if (p.gov_cnt_reg == p.state_reg) {
      Add(kNoPc, "context-reg-contract",
          "gov_cnt_reg aliases state_reg (r" + std::to_string(p.state_reg) +
              ")");
      ok = false;
    }
    // The JIT safepoint slow path reaches the RunState* at
    // [countdown slot - 8]; only register adjacency makes that load valid.
    if (p.gov_cnt_reg != p.state_reg + 1) {
      Add(kNoPc, "context-reg-contract",
          "gov_cnt_reg (r" + std::to_string(p.gov_cnt_reg) +
              ") != state_reg + 1 (state_reg = r" +
              std::to_string(p.state_reg) +
              "); the JIT safepoint slow path requires adjacency");
      ok = false;
    }
    for (const auto& pr : p.presets) {
      if (!InBoundsReg(pr.first)) {
        Add(kNoPc, "operand-bounds",
            "preset targets r" + std::to_string(pr.first) +
                " out of range");
        ok = false;
      }
    }
    for (size_t i = 0; i < p.par_loops.size(); ++i) {
      const ParLoopCode& plc = p.par_loops[i];
      if (plc.entry >= p.code.size()) {
        Add(kNoPc, "fragment-isolation",
            "par_loops[" + std::to_string(i) + "] fragment entry pc " +
                std::to_string(plc.entry) + " out of range");
        ok = false;
        continue;
      }
      auto chk = [&](uint32_t r, const char* what) {
        if (!InBoundsReg(r)) {
          Add(kNoPc, "fragment-isolation",
              "par_loops[" + std::to_string(i) + "] " + what + " r" +
                  std::to_string(r) + " out of range");
          ok = false;
        }
      };
      chk(plc.src_lo_reg, "src_lo_reg");
      chk(plc.src_hi_reg, "src_hi_reg");
      chk(plc.lo_reg, "lo_reg");
      chk(plc.hi_reg, "hi_reg");
      for (uint32_t r : plc.red_regs) chk(r, "reduction reg");
      for (uint32_t r : plc.red_size_regs) chk(r, "reduction size reg");
      for (uint32_t r : plc.log_regs) chk(r, "log reg");
    }
    return ok;
  }

  // --- regions -----------------------------------------------------------
  // Region 0 is the main stream. Morsel fragments get ids 1..F (in entry
  // order); comparator subroutines get ids > F, inner subroutines
  // overriding outer ones so jumps are checked against the innermost
  // enclosing region.
  void BuildRegions() {
    size_t n = prog_.code.size();
    region_.assign(n, kMainRegion);
    // Fragments partition [first fragment entry, end of code).
    std::vector<std::pair<uint32_t, size_t>> frags;  // (entry, plc index)
    for (size_t i = 0; i < prog_.par_loops.size(); ++i) {
      frags.emplace_back(prog_.par_loops[i].entry, i);
    }
    std::sort(frags.begin(), frags.end());
    num_fragments_ = static_cast<int>(frags.size());
    for (size_t i = 0; i < frags.size(); ++i) {
      uint32_t lo = frags[i].first;
      uint32_t hi = i + 1 < frags.size() ? frags[i + 1].first
                                         : static_cast<uint32_t>(n);
      int rid = static_cast<int>(i) + 1;
      for (uint32_t pc = lo; pc < hi; ++pc) region_[pc] = rid;
      fragment_of_region_[rid] = frags[i].second;
      fragment_end_[rid] = hi;
    }
    // Comparator subroutines: [insn.c, sort pc). Walk sort instructions in
    // descending pc order so inner (later-marked) subroutines override the
    // outer region they are nested in.
    int next_id = num_fragments_ + 1;
    for (size_t pc = n; pc-- > 0;) {
      BcOp op = static_cast<BcOp>(prog_.code[pc].op);
      if (op != BcOp::kArrSort && op != BcOp::kListSort) continue;
      uint32_t entry = prog_.code[pc].c;
      sort_sites_.push_back({static_cast<uint32_t>(pc), entry});
      if (entry >= pc) {
        Add(static_cast<uint32_t>(pc), "subroutine-shape",
            "comparator entry pc " + std::to_string(entry) +
                " not before the sort instruction");
        bounds_clean_ = false;
        continue;
      }
      if (static_cast<BcOp>(prog_.code[pc - 1].op) != BcOp::kRet) {
        Add(static_cast<uint32_t>(pc), "subroutine-shape",
            "comparator region does not end in kRet before the sort "
            "instruction");
      }
      int rid = next_id++;
      for (uint32_t t = entry; t < pc; ++t) region_[t] = rid;
    }
    std::reverse(sort_sites_.begin(), sort_sites_.end());
  }

  // --- structural pass (every instruction, reachable or not) -------------
  void StructuralPass() {
    size_t n = prog_.code.size();
    for (size_t pc = 0; pc < n; ++pc) {
      const Insn& I = prog_.code[pc];
      uint32_t upc = static_cast<uint32_t>(pc);
      if (I.op >= static_cast<uint16_t>(BcOp::kNumOps)) {
        Add(upc, "operand-bounds", "bad opcode " + std::to_string(I.op));
        bounds_clean_ = false;
        continue;
      }
      BcOp op = static_cast<BcOp>(I.op);
      CheckPoolBounds(upc, I, op);
      CheckRegisterBounds(upc, I);
      CheckJump(upc, I, op);
      CheckContextRegs(upc, I, op);
      CheckFragmentStructure(upc, I, op);
    }
  }

  void CheckPoolBounds(uint32_t pc, const Insn& I, BcOp op) {
    auto bad = [&](const char* what, size_t idx, size_t size) {
      Add(pc, "operand-bounds",
          std::string(what) + " index " + std::to_string(idx) +
              " out of range (pool size " + std::to_string(size) + ")");
      bounds_clean_ = false;
    };
    switch (op) {
      case BcOp::kLoadK:
        if (I.b >= prog_.consts.size()) bad("consts", I.b,
                                            prog_.consts.size());
        break;
      case BcOp::kStrLike:
        if (I.c >= prog_.patterns.size()) bad("patterns", I.c,
                                              prog_.patterns.size());
        break;
      case BcOp::kMapNew:
      case BcOp::kMMapNew:
        if (I.b >= prog_.types.size()) bad("types", I.b,
                                           prog_.types.size());
        break;
      case BcOp::kColGet: case BcOp::kColDict:
      case BcOp::kIdxBucketLen: case BcOp::kIdxBucketRow:
      case BcOp::kIdxPkRow:
      case BcOp::kJnColEqI: case BcOp::kJnColNeI: case BcOp::kJnColLtI:
      case BcOp::kJnColLeI: case BcOp::kJnColGtI: case BcOp::kJnColGeI:
        if (I.b >= prog_.ptrs.size()) bad("ptrs", I.b, prog_.ptrs.size());
        break;
      case BcOp::kRecNew: case BcOp::kPoolRecNew:
        if (size_t(I.b) + I.n > prog_.extra.size())
          bad("extra", size_t(I.b) + I.n, prog_.extra.size());
        break;
      case BcOp::kEmit:
        if (size_t(I.a) + I.n > prog_.extra.size())
          bad("extra", size_t(I.a) + I.n, prog_.extra.size());
        break;
      case BcOp::kArrSort: case BcOp::kListSort:
        if (I.d < 0 || size_t(uint32_t(I.d)) + 3 > prog_.extra.size())
          bad("extra (comparator param/result triple)", size_t(int64_t(I.d)),
              prog_.extra.size());
        break;
      case BcOp::kParLoop:
        if (I.a >= prog_.par_loops.size())
          bad("par_loops", I.a, prog_.par_loops.size());
        break;
      case BcOp::kMapFind: case BcOp::kMapGetOrNull:
      case BcOp::kMMapGetOrNull:
        if (I.d != kMapKeyOther && I.d != kMapKeyI64) {
          Add(pc, "operand-bounds",
              "bad map key kind " + std::to_string(I.d));
          bounds_clean_ = false;
        }
        break;
      default:
        break;
    }
  }

  void CheckRegisterBounds(uint32_t pc, const Insn& I) {
    Effects e = InsnEffects(I);
    auto chk = [&](uint32_t r) {
      if (!InBoundsReg(r)) {
        Add(pc, "operand-bounds",
            "register r" + std::to_string(r) + " out of range (num_regs " +
                std::to_string(prog_.num_regs) + ")");
        bounds_clean_ = false;
      }
    };
    for (int i = 0; i < e.nreads; ++i) chk(e.reads[i].reg);
    for (int i = 0; i < e.nwrites; ++i) chk(e.writes[i]);
    if (e.reads_extra &&
        size_t(e.extra_off) + e.extra_n <= prog_.extra.size()) {
      for (uint16_t i = 0; i < e.extra_n; ++i) {
        chk(prog_.extra[e.extra_off + i]);
      }
    }
  }

  void CheckJump(uint32_t pc, const Insn& I, BcOp op) {
    JumpInfo j = JumpKind(op);
    size_t n = prog_.code.size();
    if (!j.is_jump) {
      // Execution must never fall off the end of the code array.
      if (pc + 1 == n && op != BcOp::kRet) {
        Add(pc, "jump-bounds", "last instruction is not a terminator");
        bounds_clean_ = false;
      }
      return;
    }
    if (!j.unconditional && pc + 1 == n) {
      Add(pc, "jump-bounds",
          std::string(BcOpName(op)) +
              " at end of code can fall through past the program");
      bounds_clean_ = false;
    }
    int64_t target = int64_t(pc) + 1 + I.d;
    if (target < 0 || target >= int64_t(n)) {
      Add(pc, "jump-bounds",
          std::string(BcOpName(op)) + " target " + std::to_string(target) +
              " outside [0, " + std::to_string(n) + ")");
      bounds_clean_ = false;
      return;
    }
    if (target <= int64_t(pc) && !j.safepoint) {
      Add(pc, "backedge-safepoint",
          std::string(BcOpName(op)) + " is a backward branch (target " +
              std::to_string(target) +
              ") but not a governor safepoint opcode");
    }
    if (region_[size_t(target)] != region_[pc]) {
      Add(pc, "jump-region",
          std::string(BcOpName(op)) + " target " + std::to_string(target) +
              " crosses from region " + std::to_string(region_[pc]) +
              " into region " + std::to_string(region_[size_t(target)]));
    }
  }

  void CheckContextRegs(uint32_t pc, const Insn& I, BcOp op) {
    Effects e = InsnEffects(I);
    for (int i = 0; i < e.nwrites; ++i) {
      if (IsCtxReg(e.writes[i])) {
        Add(pc, "context-reg-clobber",
            std::string(BcOpName(op)) + " writes reserved context register "
                "r" + std::to_string(e.writes[i]));
      }
    }
    // The instructions that carry a context operand must name state_reg —
    // a JIT template hands that slot to the shared op as the RunState*, so
    // a stray register silently corrupts an unrelated slot.
    uint32_t ctx;
    switch (op) {
      case BcOp::kRecNew: case BcOp::kPoolRecNew:
      case BcOp::kListAppend:
        ctx = I.c;
        break;
      case BcOp::kEmit:
        ctx = I.b;
        break;
      default:
        return;
    }
    if (ctx != prog_.state_reg) {
      Add(pc, "context-reg-contract",
          std::string(BcOpName(op)) + " context operand r" +
              std::to_string(ctx) + " is not state_reg r" +
              std::to_string(prog_.state_reg));
    }
  }

  void CheckFragmentStructure(uint32_t pc, const Insn& I, BcOp op) {
    int rid = region_[pc];
    bool in_fragment = rid >= 1 && rid <= num_fragments_;
    if (op == BcOp::kLogRow) {
      if (!in_fragment) {
        Add(pc, "fragment-isolation",
            "kLogRow outside any morsel fragment");
      } else {
        // The log register is the one the runtime binds for the channel.
        const ParLoopCode& plc = prog_.par_loops[fragment_of_region_[rid]];
        if (I.a >= plc.log_regs.size() || plc.log_regs[I.a] != I.c) {
          Add(pc, "fragment-isolation",
              "kLogRow log operand r" + std::to_string(I.c) +
                  " is not the fragment's bound log of channel " +
                  std::to_string(I.a));
        }
      }
    }
    if (!in_fragment) return;
    if (op == BcOp::kParLoop) {
      Add(pc, "fragment-isolation",
          "nested kParLoop inside a morsel fragment");
    }
  }

  // --- dataflow ----------------------------------------------------------
  State EntryStateMain() const {
    State st(prog_.num_regs);
    for (const auto& pr : prog_.presets) {
      st[pr.first] = {1, 0, Abs::kAny};
    }
    // Context registers are bound by the VM at Run entry; `local` is set
    // because the parallel runtime rebinds them per morsel (they are never
    // shared-state handles from a fragment's point of view).
    st[prog_.state_reg] = {1, 1, Abs::kPtr};
    st[prog_.gov_cnt_reg] = {1, 1, Abs::kI64};
    return st;
  }

  void DataflowAll() {
    size_t n = prog_.code.size();
    in_state_.assign(n, State());
    visited_.assign(n, 0);
    checked_.assign(n, 0);
    // 1. Main stream from pc 0.
    Analyze(kMainRegion, 0, EntryStateMain());
    CheckRegion(kMainRegion);
    // 2. Morsel fragments, seeded from the state at their kParLoop header
    //    (the runtime copies the register file per morsel, then rebinds
    //    bounds, logs and context registers).
    for (size_t pc = 0; pc < n; ++pc) {
      if (static_cast<BcOp>(prog_.code[pc].op) != BcOp::kParLoop) continue;
      if (!visited_[pc]) continue;
      const ParLoopCode& plc = prog_.par_loops[prog_.code[pc].a];
      int rid = region_[plc.entry];
      if (rid < 1 || rid > num_fragments_) continue;  // shape issue, flagged
      State st = in_state_[pc];
      for (SlotState& s : st) s.local = 0;
      st[plc.lo_reg] = {1, 1, Abs::kI64};
      st[plc.hi_reg] = {1, 1, Abs::kI64};
      for (uint32_t r : plc.log_regs) st[r] = {1, 1, Abs::kPtr};
      // Reduction targets are rebound to morsel-private copies.
      for (uint32_t r : plc.red_regs) {
        st[r].defined = 1;
        st[r].local = 1;
      }
      st[prog_.state_reg] = {1, 1, Abs::kPtr};
      st[prog_.gov_cnt_reg] = {1, 1, Abs::kI64};
      Analyze(rid, plc.entry, std::move(st));
      CheckRegion(rid);
    }
    // 3. Comparator subroutines, seeded from the state at their sort
    //    instruction with the two parameter slots bound by the sort driver.
    //    Ascending entry order analyzes outer comparators before the
    //    comparators of sorts nested inside them, so the nested sort pc has
    //    a recorded state by the time we need it.
    std::sort(sort_sites_.begin(), sort_sites_.end(),
              [](const SortSite& a, const SortSite& b) {
                return a.entry < b.entry;
              });
    for (const SortSite& s : sort_sites_) {
      if (s.entry >= s.pc) continue;  // shape violation already reported
      if (!visited_[s.pc]) continue;  // sort unreachable: nothing to seed
      const Insn& I = prog_.code[s.pc];
      const uint32_t* ps = prog_.extra.data() + uint32_t(I.d);
      State st = in_state_[s.pc];
      st[ps[0]] = {1, 1, Abs::kAny};
      st[ps[1]] = {1, 1, Abs::kAny};
      int rid = region_[s.entry];
      Analyze(rid, s.entry, std::move(st));
      CheckRegion(rid);
      // Every exit path of the comparator must produce the result slot.
      for (uint32_t pc = s.entry; pc < s.pc; ++pc) {
        if (region_[pc] != rid || !visited_[pc]) continue;
        if (static_cast<BcOp>(prog_.code[pc].op) != BcOp::kRet) continue;
        if (!in_state_[pc][ps[2]].defined) {
          Add(pc, "comparator-result",
              "comparator can return without writing its result register "
              "r" + std::to_string(ps[2]));
        }
      }
    }
  }

  void Analyze(int rid, uint32_t entry, State entry_state) {
    size_t n = prog_.code.size();
    std::deque<uint32_t> work;
    auto propagate = [&](uint32_t from, uint32_t to, const State& st) {
      if (to >= n) return;
      if (region_[to] != rid) {
        // Jumps crossing regions are reported structurally; flowing off a
        // region's end (fall-through into foreign code) is only visible
        // here.
        if (to == from + 1) {
          Add(from, "jump-region",
              "control falls through from region " + std::to_string(rid) +
                  " into region " + std::to_string(region_[to]));
        }
        return;
      }
      if (!visited_[to]) {
        in_state_[to] = st;
        visited_[to] = 1;
        work.push_back(to);
      } else if (JoinInto(in_state_[to], st)) {
        work.push_back(to);
      }
    };
    if (entry >= n || region_[entry] != rid) return;
    if (!visited_[entry]) {
      in_state_[entry] = std::move(entry_state);
      visited_[entry] = 1;
      work.push_back(entry);
    } else if (JoinInto(in_state_[entry], entry_state)) {
      work.push_back(entry);
    }
    while (!work.empty()) {
      uint32_t pc = work.front();
      work.pop_front();
      const Insn& I = prog_.code[pc];
      BcOp op = static_cast<BcOp>(I.op);
      State st = in_state_[pc];
      // Transfer: apply writes (reads are checked post-fixpoint).
      Effects e = InsnEffects(I);
      if (e.mov) {
        SlotState src = st[I.b];
        src.defined = 1;
        src.local = 1;
        st[I.a] = src;
      } else {
        for (int i = 0; i < e.nwrites; ++i) {
          st[e.writes[i]] = {1, 1, e.wtype[i]};
        }
      }
      if (op == BcOp::kRet) continue;
      JumpInfo j = JumpKind(op);
      if (j.is_jump) {
        uint32_t target = uint32_t(int64_t(pc) + 1 + I.d);
        propagate(pc, target, st);
        if (!j.unconditional) propagate(pc, pc + 1, st);
      } else {
        propagate(pc, pc + 1, st);
      }
    }
  }

  void CheckRegion(int rid) {
    size_t n = prog_.code.size();
    bool in_fragment = rid >= 1 && rid <= num_fragments_;
    for (size_t pc = 0; pc < n; ++pc) {
      if (region_[pc] != rid || !visited_[pc] || checked_[pc]) continue;
      checked_[pc] = 1;
      const Insn& I = prog_.code[pc];
      const State& st = in_state_[pc];
      Effects e = InsnEffects(I);
      auto use = [&](uint32_t r, Abs need) {
        if (!st[r].defined) {
          Add(uint32_t(pc), "def-before-use",
              std::string(BcOpName(static_cast<BcOp>(I.op))) + " reads r" +
                  std::to_string(r) +
                  ", which is not written on every path reaching pc " +
                  std::to_string(pc));
          return;
        }
        if (!Compat(st[r].type, need)) {
          Add(uint32_t(pc), "type-mismatch",
              std::string(BcOpName(static_cast<BcOp>(I.op))) + " needs " +
                  AbsName(need) + " in r" + std::to_string(r) +
                  " but the slot holds " + AbsName(st[r].type));
        }
      };
      for (int i = 0; i < e.nreads; ++i) use(e.reads[i].reg, e.reads[i].need);
      if (e.reads_extra) {
        for (uint16_t i = 0; i < e.extra_n; ++i) {
          use(prog_.extra[e.extra_off + i], Abs::kAny);
        }
      }
      if (in_fragment) {
        // Stores through pointers that were not established inside the
        // fragment (or rebound per morsel) would mutate state shared with
        // other workers — exactly the class of race morsel isolation
        // forbids.
        for (int i = 0; i < e.nstores; ++i) {
          uint32_t r = e.stores_thru[i];
          if (st[r].defined && !st[r].local) {
            Add(uint32_t(pc), "fragment-isolation",
                std::string(BcOpName(static_cast<BcOp>(I.op))) +
                    " stores through r" + std::to_string(r) +
                    ", which references state shared across morsels");
          }
        }
      }
    }
  }

  struct SortSite {
    uint32_t pc;
    uint32_t entry;
  };

  const BytecodeProgram& prog_;
  VerifyResult result_;
  bool bounds_clean_ = true;
  std::vector<int> region_;
  int num_fragments_ = 0;
  std::unordered_map<int, size_t> fragment_of_region_;
  std::unordered_map<int, uint32_t> fragment_end_;
  std::vector<SortSite> sort_sites_;
  std::vector<State> in_state_;
  std::vector<uint8_t> visited_;
  std::vector<uint8_t> checked_;
};

}  // namespace

std::string VerifyResult::Report() const {
  std::string out;
  for (const Violation& v : violations) {
    if (v.pc == kNoPc) {
      out += "program: ";
    } else {
      out += "pc " + std::to_string(v.pc) + ": ";
    }
    out += v.invariant;
    out += ": ";
    out += v.detail;
    out += '\n';
  }
  return out;
}

VerifyResult VerifyProgram(const BytecodeProgram& prog) {
  Verifier v(prog);
  return v.Run();
}

namespace {
// -1: no override (env/build default). Relaxed is enough: benches toggle
// it from one thread before measuring.
std::atomic<int> g_verify_override{-1};
}  // namespace

void SetVerifyEnabledOverride(int v) {
  g_verify_override.store(v < 0 ? -1 : (v != 0 ? 1 : 0),
                          std::memory_order_relaxed);
}

bool VerifyEnabled() {
  int ov = g_verify_override.load(std::memory_order_relaxed);
  if (ov >= 0) return ov != 0;
  static const bool on = KnobFlag(qc::Knob::kVerify);
  return on;
}

}  // namespace qc::exec::analysis
