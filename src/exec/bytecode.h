// Register-bytecode execution engine for the ANF IR.
//
// Walking the Stmt graph directly would re-resolve operand pointers and
// re-dispatch on Stmt::op for every node of every loop iteration — exactly
// the megamorphic-dispatch/pointer-chasing overhead the paper's lowering
// story is about (§B.2). This layer removes it in one flattening step,
// mirroring in miniature what the DSL stack does to queries:
//
//   BytecodeCompiler  flattens a verified ir::Function into a dense
//                     std::vector<Insn> of fixed-width register
//                     instructions. Operands are pre-resolved register
//                     indices (statement ids), constants are materialized
//                     once into a preset image, base-table columns and
//                     load-time indexes become raw pre-resolved pointers,
//                     and the structured block tree (kIf/kForRange/kWhile/
//                     foreach) is lowered to relative jumps.
//
//   BytecodeVM        executes the flat code with computed-goto
//                     direct-threaded dispatch, type-specialized
//                     arithmetic opcodes (separate i64/f64 add/mul/cmp so
//                     the per-op type->kind branch disappears) and the
//                     fused super-instructions the compiler forms: loop-
//                     index increment + bound check + back edge, compare +
//                     branch-if-false (optionally folding the column read),
//                     and record-field accumulate.
//
// The copy-and-patch JIT (src/jit/) goes one step further down the same
// road: it stitches every instruction of these programs into native code
// (BytecodeVM::Run's `jit`), sharing the runtime data structures
// (exec/runtime.h), the ops:: below and the AllocStats accounting, so
// results — including the Figure 8 memory numbers — are bit-identical
// across the engines. A run is all native or all VM.
#ifndef QC_EXEC_BYTECODE_H_
#define QC_EXEC_BYTECODE_H_

#include <cstdint>
#include <cstring>
#include <deque>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/scalar_ops.h"
#include "exec/parallel.h"
#include "exec/runtime.h"
#include "ir/parallel.h"
#include "ir/stmt.h"
#include "storage/database.h"
#include "storage/result.h"

namespace qc::exec {

namespace jit {
class JitProgram;  // src/jit/engine.h
}

// X(name) — opcode list. Order defines the encoding and the direct-threaded
// label table, so the enum and the VM handlers are generated from the same
// macro.
#define QC_BC_OP_LIST(X)                                                     \
  /* control flow (d = relative offset from the following insn) */          \
  X(kRet)     /* return from the current Exec activation */                 \
  X(kJmp)     /* pc += d */                                                 \
  X(kJz)      /* if R[a].i == 0: pc += d */                                 \
  X(kJnz)     /* if R[a].i != 0: pc += d */                                 \
  X(kJgeI)    /* if R[a].i >= R[b].i: pc += d (loop-head guard) */          \
  X(kForNext) /* ++R[a].i; if R[a].i < R[b].i: pc += d (fused back edge) */ \
  X(kIncJmp)  /* ++R[a].i; pc += d (back edge with re-checked bound) */     \
  X(kJmpSp)   /* pc += d; while-loop back edge (safepoint checked) */       \
  /* moves */                                                               \
  X(kLoadK)   /* R[a] = consts[b] */                                        \
  X(kMov)     /* R[a] = R[b] */                                             \
  /* i64 arithmetic (also i32/bool/date: all integral slots) */             \
  X(kAddI) X(kSubI) X(kMulI) X(kDivI) X(kModI) X(kNegI)                     \
  /* f64 arithmetic */                                                      \
  X(kAddF) X(kSubF) X(kMulF) X(kDivF) X(kNegF)                              \
  X(kCastIF)  /* R[a].d = (double)R[b].i */                                 \
  X(kCastFI)  /* R[a].i = (int64)R[b].d */                                  \
  /* comparisons -> 0/1 */                                                  \
  X(kEqI) X(kNeI) X(kLtI) X(kLeI) X(kGtI) X(kGeI)                           \
  X(kEqF) X(kNeF) X(kLtF) X(kLeF) X(kGtF) X(kGeF)                           \
  /* booleans */                                                            \
  X(kAnd) X(kOr) X(kNot) X(kBitAnd)                                         \
  /* strings */                                                             \
  X(kStrEq) X(kStrNe) X(kStrLt)                                             \
  X(kStrStarts) X(kStrEnds) X(kStrContains)                                 \
  X(kStrLike)   /* b = source reg, c = pattern-pool index */                \
  X(kStrLen)                                                                \
  X(kStrSubstr) /* b = source reg, c = start, d = length */                 \
  /* records and pools (c on the allocating ops = prog.state_reg, the      \
     register holding the RunState* — lets JIT'd code allocate via the     \
     shared op) */                                                          \
  X(kRecNew)    /* a = dst, b = extra offset, c = state reg, n = fields */  \
  X(kRecGet)    /* a = dst, b = record reg, c = field index */              \
  X(kRecSet)    /* a = record reg, b = field index, c = src reg */          \
  X(kPoolRecNew) /* a = dst, b = extra offset, c = state reg, n = fields */ \
  /* arrays */                                                              \
  X(kArrNew) X(kMallocArr) /* a = dst, b = length reg */                    \
  X(kArrGet)  /* a = dst, b = array reg, c = index reg */                   \
  X(kArrSet)  /* a = array reg, b = index reg, c = src reg */               \
  X(kArrLen)                                                                \
  X(kArrSort) /* a = array, b = n reg, c = cmp entry pc, d = extra off */ \
  /* lists (kListAppend: a = list, b = value, c = prog.state_reg — the     \
     append accounts vector growth in the run's AllocStats) */             \
  X(kListNew) X(kListAppend) X(kListSize) X(kListGet)                       \
  X(kListSort) /* a = list, c = cmp entry pc, d = extra off */              \
  /* generic hash maps. Probe instructions carry the map's key kind in d   \
     (kMapKeyOther / kMapKeyI64) — the "map layout id" the JIT stitcher    \
     keys its i64 hash-probe specialization on; the VM ignores it. */       \
  X(kMapNew)       /* a = dst, b = key-type pool index */                   \
  X(kMapFind)      /* a = node dst, b = map reg, c = key reg, d = key kind */\
  X(kMapInsert)    /* a = node dst, b = map, c = key, d = value reg */      \
  X(kMapNodeVal)   /* a = dst, b = node reg */                              \
  X(kMapGetOrNull) /* a = dst, b = map, c = key, d = key kind */            \
  X(kMapSize)                                                               \
  X(kMapEntryKV)   /* a = key dst, b = value dst, c = map, d = index reg */ \
  /* multimaps (kMMapGetOrNull: d = key kind, like the map probes) */       \
  X(kMMapNew) X(kMMapAdd) X(kMMapGetOrNull)                                 \
  X(kIsNull)                                                                \
  /* base-table access through pre-resolved pointers */                     \
  X(kColGet)  /* a = dst, b = ptr-pool index, c = row reg */                \
  X(kColDict)                                                               \
  X(kIdxBucketLen) /* a = dst, b = ptr index, c = key reg */                \
  X(kIdxBucketRow) /* a = dst, b = ptr index, c = key reg, d = j reg */     \
  X(kIdxPkRow)                                                              \
  /* fused filter branches: jump (d) when the comparison is FALSE.         \
     kJn*: a = lhs reg, b = rhs reg. */                                     \
  X(kJnEqI) X(kJnNeI) X(kJnLtI) X(kJnLeI) X(kJnGtI) X(kJnGeI)               \
  /* fused scan filters: column read + compare + branch-if-false.          \
     a = rhs reg, b = ptr-pool index, c = row reg. */                       \
  X(kJnColEqI) X(kJnColNeI) X(kJnColLtI)                                    \
  X(kJnColLeI) X(kJnColGtI) X(kJnColGeI)                                    \
  /* fused aggregate updates: record-field load + add + store back.        \
     a = record reg, b = field, c = addend reg. */                          \
  X(kRecAccAddI)                                                            \
  /* result emission: n = arg count, a = extra offset, c = string mask,    \
     b = prog.state_reg (the row goes to the RunState's result table) */    \
  X(kEmit)                                                                  \
  /* morsel-parallel scan loops (see exec/parallel.h) */                    \
  X(kParLoop) /* a = par_loops index: runs the loop's body fragment,       \
                 morsel-parallel or once over the whole range */           \
  X(kLogRow)  /* a = array reduction (index into ParLoopCode::log_regs),  \
                 b = register holding a group/bucket array store's slot    \
                 index, c = register holding the log (std::vector<Slot>*,  \
                 written per morsel by the runtime; null when the fragment \
                 runs unsplit): append R[b] to it */

enum class BcOp : uint16_t {
#define QC_BC_OP_ENUM(name) name,
  QC_BC_OP_LIST(QC_BC_OP_ENUM)
#undef QC_BC_OP_ENUM
      kNumOps
};

// Key-kind metadata on the hash-probe instructions (field d): the JIT only
// stitches its inline i64 probe when the map's key hashes as a plain
// integral slot (HashMix over .i, equality on .i) — strings and records
// call the typed SlotHasher through the shared op.
constexpr int32_t kMapKeyOther = 0;
constexpr int32_t kMapKeyI64 = 1;

const char* BcOpName(BcOp op);

// One fixed-width instruction. Operands a/b/c are register indices or pool
// indices depending on the opcode (see QC_BC_OP_LIST); d is a relative jump
// offset (from the instruction *after* this one) or a fourth operand.
struct Insn {
  uint16_t op = 0;
  uint16_t n = 0;
  uint32_t a = 0;
  uint32_t b = 0;
  uint32_t c = 0;
  int32_t d = 0;
};
static_assert(sizeof(Insn) == 20, "Insn must stay fixed-width and dense");

// Compiled form of one morsel-parallelizable scan loop, the only form the
// loop has: the register bindings the parallel runtime needs, plus the
// entry pc of the body fragment (compiled after the main stream's kRet,
// with each group/bucket array store followed by a kLogRow of its slot
// index, and terminated by kRet). The main stream holds just the loop's
// kParLoop header.
struct ParLoopCode {
  const ir::ParLoop* plan = nullptr;  // owned by the exec::Program
  uint32_t entry = 0;                 // body fragment pc
  uint32_t src_lo_reg = 0;            // the loop's bounds in the main stream
  uint32_t src_hi_reg = 0;
  uint32_t lo_reg = 0;  // fragment bounds, written per run of the fragment
  uint32_t hi_reg = 0;
  std::vector<uint32_t> red_regs;           // per reduction: target register
  std::vector<uint32_t> red_size_regs;      // per reduction: array capacity
  // Per reduction: the register the runtime points at the morsel's
  // touched-slot log (std::vector<Slot>*) before entering the fragment —
  // the kLogRow operand that lets both the VM handler and the JIT's native
  // append reach the log without going through MorselState. Null when the
  // fragment runs unsplit on the main run. Only array reductions
  // (ir::ParReduction::size set) append to theirs.
  std::vector<uint32_t> log_regs;
};

// A compiled program. Owns every payload the instructions reference, so a
// program outlives the Function it was compiled from — but NOT the Database:
// column/index pointers are pre-resolved into `ptrs`.
struct BytecodeProgram {
  std::vector<Insn> code;
  // Registers preloaded before execution: constants, table row counts and
  // pool handles never change, so they cost zero instructions at runtime.
  std::vector<std::pair<uint32_t, Slot>> presets;
  std::vector<Slot> consts;              // kLoadK pool (loop-counter seeds)
  std::vector<uint32_t> extra;           // variable-length operand lists
  std::vector<const void*> ptrs;         // pre-resolved column/index data
  std::vector<const ir::Type*> types;    // map/mmap key types
  // kStrLike patterns, each split once into its '%'-delimited segments
  // (SplitLike) at compile time; the segment text lives in `strings`. The
  // JIT patches their addresses.
  std::vector<std::vector<LikeSeg>> patterns;
  std::deque<std::string> strings;       // owned string constants (stable)
  std::vector<storage::ColType> emit_types;
  std::vector<ParLoopCode> par_loops;  // morsel-parallelizable scan loops
  uint32_t num_regs = 0;
  // The two reserved context registers, written by RunState::Bind at Run
  // entry and per morsel. state_reg holds the context's RunState*: kEmit,
  // the allocating ops, kListAppend and the sort sites name it, and the
  // shared ops (ops:: below) reach the result table, record heap, stats
  // and governance state through it — so JIT'd code reaches all per-run
  // mutable state through the register file alone, which is what lets one
  // stitched image serve concurrent runs. gov_cnt_reg holds the safepoint
  // countdown (int64) and is always state_reg + 1: the JIT's safepoint
  // slow path reaches the RunState* from the countdown slot's address with
  // one unpatched load. Ungoverned runs preset the countdown to INT64_MAX,
  // making the slow path unreachable (back edges cost one dec +
  // predictable branch).
  uint32_t state_reg = 0;
  uint32_t gov_cnt_reg = 0;
  int fused = 0;  // number of super-instructions formed (introspection)
};

// Human-readable listing of a compiled program (one instruction per line,
// "pc: op a b c d [-> target]"). Debugging and test aid.
std::string Disassemble(const BytecodeProgram& prog);

// The runtime ops both engines run as a C++ call, each defined once: the
// VM handler calls the function, and the JIT template for the same opcode
// passes the same function's address to its helper call (templates.cc), so
// the engines cannot disagree on comparison, interning, append order or
// accounting. Signatures are the template's call shape: pointers and Slot
// payloads as int64_t bit patterns, which keeps the SysV classification
// unambiguous. Ops that touch per-run state take the context's RunState*,
// the register the instruction's context operand names (state_reg).
namespace ops {

inline int64_t StrEq(const char* a, const char* b) {
  return std::strcmp(a, b) == 0 ? 1 : 0;
}
inline int64_t StrNe(const char* a, const char* b) {
  return std::strcmp(a, b) != 0 ? 1 : 0;
}
inline int64_t StrLt(const char* a, const char* b) {
  return std::strcmp(a, b) < 0 ? 1 : 0;
}
inline int64_t StrStarts(const char* s, const char* p) {
  return StrStartsWith(s, p) ? 1 : 0;
}
inline int64_t StrEnds(const char* s, const char* p) {
  return StrEndsWith(s, p) ? 1 : 0;
}
inline int64_t StrContains(const char* s, const char* p) {
  return qc::StrContains(s, p) ? 1 : 0;
}
// LIKE over a pattern split at bytecode compile time (prog.patterns).
inline int64_t StrLike(const char* s, const std::vector<LikeSeg>* segs) {
  return StrLikeSegs(s, segs->data(), segs->size()) ? 1 : 0;
}
inline int64_t StrLen(const char* s) {
  return static_cast<int64_t>(std::strlen(s));
}
// s[start, start + count), clamped to the string (SubstrClamp), interned
// into the context's string arena.
inline const char* StrSubstr(RunState* st, const char* s, uint32_t start,
                             int32_t count) {
  size_t from = 0;
  size_t cnt = SubstrClamp(s, start, count, &from);
  st->strings.emplace_back(s + from, cnt);
  return st->strings.back().c_str();
}

// Hash probes through the typed SlotHasher. The JIT calls these for
// string/record keys (kMapKeyOther); i64 keys probe inline there.
inline void* MapFind(RtHashMap* m, int64_t key) {
  return m->Find(SlotI(key));
}
inline int64_t MapGetOrNull(RtHashMap* m, int64_t key) {
  RtHashMap::Node* n = m->Find(SlotI(key));
  return n == nullptr ? 0 : n->value.i;
}
inline int64_t MMapGetOrNull(RtMultiMap* mm, int64_t key) {
  return reinterpret_cast<int64_t>(mm->GetOrNull(SlotI(key)));
}
inline void* MapInsert(RtHashMap* m, int64_t key, int64_t val) {
  return m->Insert(SlotI(key), SlotI(val));
}
inline void MMapAdd(RtMultiMap* mm, int64_t key, int64_t val) {
  mm->Add(SlotI(key), SlotI(val));
}
inline void ListAppend(RtList* l, RunState* st, int64_t val) {
  size_t before = l->items.capacity();
  l->items.push_back(SlotI(val));
  st->stats->vector_bytes += (l->items.capacity() - before) * sizeof(Slot);
}

// Record allocation; the fields are R[argv[0..n)].
inline void* RecNew(RunState* st, const Slot* regs, const uint32_t* argv,
                    uint64_t n) {
  Slot* rec = st->records.AllocHeap(n);
  for (uint64_t i = 0; i < n; ++i) rec[i] = regs[argv[i]];
  return rec;
}
inline void* PoolRecNew(RunState* st, const Slot* regs, const uint32_t* argv,
                        uint64_t n) {
  Slot* rec = st->records.AllocPool(n);
  for (uint64_t i = 0; i < n; ++i) rec[i] = regs[argv[i]];
  return rec;
}

// Container construction into the context's engine-owned deques. kArrNew
// accounts its zero-filled slots as vector growth, kMallocArr as one heap
// allocation.
inline void* ArrNew(RunState* st, int64_t n) {
  RtArray& arr = st->arrays.emplace_back();
  arr.data.assign(n, SlotI(0));
  st->stats->vector_bytes += n * sizeof(Slot);
  return &arr;
}
inline void* MallocArr(RunState* st, int64_t n) {
  RtArray& arr = st->arrays.emplace_back();
  arr.data.assign(n, SlotI(0));
  st->stats->heap_bytes += n * sizeof(Slot);
  ++st->stats->heap_allocs;
  return &arr;
}
inline void* ListNew(RunState* st) { return &st->lists.emplace_back(); }
inline void* MapNew(RunState* st, const ir::Type* key) {
  return &st->maps.emplace_back(key, st->stats);
}
inline void* MMapNew(RunState* st, const ir::Type* key) {
  return &st->mmaps.emplace_back(key, st->stats);
}

// Stages the row R[argv[0..n)] into the context's result table, interning
// the columns whose bit is set in `mask`.
inline void Emit(RunState* st, const Slot* regs, const uint32_t* argv,
                 uint64_t n, uint64_t mask) {
  std::vector<Slot> row;
  row.reserve(n);
  for (uint64_t i = 0; i < n; ++i) {
    Slot v = regs[argv[i]];
    if (mask & (1ull << i)) v = SlotS(st->out.InternString(v.s));
    row.push_back(v);
  }
  st->out.AddRow(std::move(row));
}

// Appends a store's slot index to a morsel's touched-slot log (the JIT's
// inline pointer bump calls this only when the log is full). A null log —
// the fragment runs unsplit on the main run — records nothing.
inline void LogRow(std::vector<Slot>* lg, Slot slot) {
  if (lg != nullptr) lg->push_back(slot);
}

// The back-edge safepoint slow path: polls the context's governance state
// (publishing memory growth, checking cancel/deadline/budget). `countdown`
// is the context's countdown slot; on return it holds the refill value (1
// once tripped so re-entry aborts immediately, INT64_MAX for ungoverned
// state). Returns the trip code (0 = continue).
inline int64_t Safepoint(RunState* st, int64_t* countdown) {
  GovState& gov = st->gov;
  if (gov.ctl == nullptr) {
    *countdown = INT64_MAX;  // ungoverned: never take the slow path again
    return 0;
  }
  int64_t trip = gov.Poll();
  *countdown = trip != 0 ? 1 : gov.interval;
  return trip;
}

// kParLoop's outcomes: the loop ran, or the query aborts (a safepoint
// tripped).
constexpr int64_t kParLoopDone = 0;
constexpr int64_t kParLoopAbort = 1;

// The header of a morsel-parallelizable scan loop: polls the governor (a
// query tripped between loops stops before fanning out), then runs the
// loop `plc`'s body fragment — through parallel::RunForRange when the
// context has a pool bound (the main run at threads > 1; never a morsel,
// whose thread is one of the pool's) and the runtime gates pass, else once
// over the loop's whole range on the caller's state and register file.
// Defined with the VM, whose RunMorsel the morsels run on (bytecode.cc).
int64_t ParLoop(RunState* st, Slot* regs, const ParLoopCode* plc);

}  // namespace ops

// Flattens one verified function. The database is consulted at compile time
// to pre-resolve column arrays, dictionaries and load-time indexes; the
// resulting program is only valid against that database.
class BytecodeCompiler {
 public:
  explicit BytecodeCompiler(storage::Database* db) : db_(db) {}

  // When `par` is non-null, every loop it lists compiles to a kParLoop
  // header in the main stream and its body fragment after it; the loop has
  // no other compiled form. `par` must outlive the program.
  BytecodeProgram Compile(const ir::Function& fn,
                          const ir::ParallelInfo* par = nullptr);

 private:
  uint32_t Reg(const ir::Stmt* s) const;
  uint32_t NewTemp() { return num_regs_++; }

  size_t Emit(BcOp op, uint32_t a = 0, uint32_t b = 0, uint32_t c = 0,
              int32_t d = 0, uint16_t n = 0);
  // Patches the jump at `at` to land on the next emitted instruction.
  void PatchToHere(size_t at);
  int32_t OffsetTo(size_t target) const;

  uint32_t PtrIdx(const void* p);
  uint32_t TypeIdx(const ir::Type* t);
  uint32_t KonstI(int64_t v);
  uint32_t ExtraList(const std::vector<uint32_t>& regs);

  void Preset(const ir::Stmt* s, Slot v);
  void CompileBlock(const ir::Block* b);
  void CompileStmt(const ir::Stmt* s);
  // Emits Mov dst <- src, or — when src was produced by the immediately
  // preceding instruction and has no other use — retargets that
  // instruction's destination instead (write-back elimination).
  void EmitMovOrRetarget(uint32_t dst, const ir::Stmt* src);
  // Filter fusion over the preset-filtered statement view: recognizes a run
  // of pure condition statements (column reads, comparisons, BitAnd chains,
  // null tests) feeding a kIf — the shape cond_flatten produces — and
  // compiles it as a cascade of branch-if-false super-instructions with no
  // materialized booleans. Returns statements consumed (0 = no fusion); the
  // kIf's blocks are compiled as part of the fusion.
  size_t TryFuseBranch(const std::vector<const ir::Stmt*>& stmts, size_t i,
                       const ir::Stmt* block_result);
  // Fuses [x = rec_get(r, f)] -> [y = add(x, v)] -> [rec_set(r, f, y)] into
  // one accumulate instruction. Returns statements consumed.
  size_t TryFuseAccumulate(const std::vector<const ir::Stmt*>& stmts,
                           size_t i);
  // Emits the branch-if-false instruction for one conjunct of a fused
  // filter; `folded` collects statements whose computation disappeared.
  size_t EmitLeafBranch(const ir::Stmt* leaf,
                        const std::vector<const ir::Stmt*>& window,
                        std::vector<const ir::Stmt*>* folded);
  // Compiles kIf's then/else blocks given already-emitted branch-if-false
  // instructions, all patched to the else/end target.
  void CompileIfBody(const ir::Stmt* ifstmt,
                     const std::vector<size_t>& branches);
  // True when `s` is only used by `user`, as a direct argument.
  bool SoleUseBy(const ir::Stmt* s, const ir::Stmt* user) const;
  // Compiles a comparator block as a skipped-over subroutine; returns its
  // entry pc.
  uint32_t CompileSubroutine(const ir::Block* b);
  // While-condition branch fusion: emits the loop-exit branch for the
  // condition block without materializing its boolean result when the
  // result is a fusible tail (Not(IsNull(p)), IsNull, Not, or a numeric
  // comparison). Returns the branch's pc (to be patched to the loop exit).
  size_t EmitWhileExit(const ir::Block* cond);
  // Emits the loop `for ivar in [R[lo], R[hi]) { body }`.
  void EmitForRange(const ir::Block* body, uint32_t lo, uint32_t hi);
  // Appends the slot index of a group/bucket array store to its reduction's
  // touched-slot log (ir::ParLoop::touch; the store is compiled first).
  void EmitTouchRow(const ir::Stmt* s);

  storage::Database* db_;
  BytecodeProgram prog_;
  std::vector<int> uses_;
  uint32_t num_regs_ = 0;
  // Parallel compilation state: the analysis for the whole function, the
  // plan of the morsel fragment currently being compiled (null in the main
  // stream), and the loops whose fragments are emitted after the main kRet.
  const ir::ParallelInfo* par_info_ = nullptr;
  const ir::ParLoop* par_ = nullptr;
  const ParLoopCode* frag_ = nullptr;  // its compiled form
  std::vector<std::pair<const ir::Stmt*, size_t>> pending_par_;
  // Statements folded into a fused while-exit branch (skipped when the
  // condition block is compiled).
  std::vector<const ir::Stmt*> fuse_skip_;
  // Copy propagation: statement id -> register it aliases (kVarRead
  // forwarding), and retargeting state for write-back elimination.
  std::unordered_map<int, uint32_t> alias_;
  const ir::Stmt* last_value_stmt_ = nullptr;  // stmt whose insn is
                                               // code.back() with dst in `a`
};

// Executes compiled programs. Owns the main run's RunState (runtime heap,
// containers, result buffer) over the caller's AllocStats, so Figure 8
// memory accounting is engine-independent.
//
// Exec runs against an explicit (RunState, register file) pair, so the same
// code runs the main program on the VM's own state and morsel body
// fragments on worker-private MorselStates, concurrently.
class BytecodeVM {
 public:
  explicit BytecodeVM(AllocStats* stats) : state_(stats) {}

  // Runs `prog` on the main RunState: natively when `jit` (stitched from
  // `prog`) is non-null, else interpreted. `ctl` (null = ungoverned) and
  // `par` (null = sequential) are bound into the run's GovState, which
  // JIT'd code and morsel fragments reach through prog.state_reg.
  storage::ResultTable Run(const BytecodeProgram& prog,
                           const jit::JitProgram* jit, ExecControl* ctl,
                           parallel::Engine* par);

  // The program of the current Run.
  const BytecodeProgram& program() const { return *prog_; }

  // kParLoop without the pool: runs the body fragment of `plc` once over
  // the loop's range [src_lo, src_hi) on `st` and `regs`, the caller's own,
  // with the touched-slot logs null.
  void RunUnsplit(RunState& st, Slot* regs, const ParLoopCode& plc);

  // Morsel entry of parallel::RunForRange (worker threads, concurrently):
  // runs the body fragment of `plc` over rows [lo, hi) against `ms`, on a
  // copy of the loop-entry register file with the reduction targets, loop
  // bounds, context registers and touched-slot logs rebound to the
  // morsel's own.
  void RunMorsel(parallel::MorselState& ms, const ParLoopCode& plc,
                 const std::vector<Slot>& entry_regs, int64_t lo, int64_t hi);

 private:
  // Runs from `pc` through its kRet (or a governance abort): the main
  // program or a morsel fragment, natively when the Run has a JIT image.
  void Exec(RunState& st, Slot* regs, uint32_t pc);
  // The dispatch loop.
  void Interpret(RunState& st, Slot* R, uint32_t pc);
  // kArrSort/kListSort through SortSlots (exec/runtime.h), on this
  // context's thread.
  void Sort(RunState& st, Slot* regs, Slot* data, int64_t n, const Insn& insn);

  const BytecodeProgram* prog_ = nullptr;  // both set for one Run
  const jit::JitProgram* jit_ = nullptr;
  RunState state_;  // the main run's; morsels run on their own
  std::vector<Slot> regs_;
};

}  // namespace qc::exec

#endif  // QC_EXEC_BYTECODE_H_
