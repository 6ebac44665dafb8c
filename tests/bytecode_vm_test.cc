// The copy-and-patch JIT (src/jit/) must be observationally identical to
// the bytecode VM it stitches: bit-exact result equality (not just
// canonical-text equality) across all 22 TPC-H queries under every stack
// configuration, plus unit tests for the bytecode compiler itself — jump
// lowering, constant presets, and the fused super-instructions.
//
// At SF 0.01 the JIT is additionally locked against the VM at stack levels
// 2-5 and threads {1, 4} with exact AllocStats and native code at every pc,
// plus template and degraded-mode tests. Volcano (stack_equivalence_test) is the independent
// plan-level oracle both engines answer to.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "analysis/bc_verify.h"
#include "bit_exact.h"
#include "common/str.h"
#include "compiler/compiler.h"
#include "exec/bytecode.h"
#include "exec/interp.h"
#include "ir/builder.h"
#include "jit/engine.h"
#include "lower/pipeline.h"
#include "scoped_env.h"
#include "storage/database.h"
#include "tpch/datagen.h"
#include "tpch/queries.h"

namespace qc {
namespace {

using compiler::QueryCompiler;
using compiler::StackConfig;
using exec::BcOp;
using exec::BytecodeCompiler;
using exec::BytecodeProgram;
using exec::InterpOptions;
using ir::Builder;
using ir::Function;
using ir::Stmt;
using ir::TypeFactory;

InterpOptions Bytecode() {
  InterpOptions o;
  o.engine = InterpOptions::Engine::kBytecode;
  return o;
}

InterpOptions Jit(int threads = 1) {
  InterpOptions o;
  o.engine = InterpOptions::Engine::kJit;
  o.num_threads = threads;
  return o;
}

// Runs `fn` on the VM and the JIT against `db` and checks bit-exact
// agreement.
void ExpectEnginesAgree(storage::Database* db, const Function& fn,
                        const std::string& tag) {
  exec::Interpreter bc(db, Bytecode());
  exec::Interpreter jit(db, Jit());
  storage::ResultTable want = bc.Run(fn);
  storage::ResultTable got = jit.Run(fn);
  ExpectBitExact(got, want, tag);
}

int CountOp(const BytecodeProgram& prog, BcOp op) {
  int n = 0;
  for (const exec::Insn& insn : prog.code) {
    if (insn.op == static_cast<uint16_t>(op)) ++n;
  }
  return n;
}

bool IsJumpOp(BcOp op) {
  if (op == BcOp::kForNext || op == BcOp::kIncJmp) return true;
  const char* name = BcOpName(op);
  return name[0] == 'k' && name[1] == 'J';
}

// Every jump target must land inside the program; ArrSort/ListSort
// subroutine entries must too.
void ExpectJumpsInBounds(const BytecodeProgram& prog) {
  for (size_t pc = 0; pc < prog.code.size(); ++pc) {
    const exec::Insn& insn = prog.code[pc];
    BcOp op = static_cast<BcOp>(insn.op);
    if (IsJumpOp(op)) {
      ptrdiff_t target = static_cast<ptrdiff_t>(pc) + 1 + insn.d;
      EXPECT_GE(target, 0) << "pc " << pc << " " << BcOpName(op);
      EXPECT_LT(target, static_cast<ptrdiff_t>(prog.code.size()))
          << "pc " << pc << " " << BcOpName(op);
    }
    if (op == BcOp::kArrSort || op == BcOp::kListSort) {
      EXPECT_LT(insn.c, prog.code.size()) << "subroutine entry, pc " << pc;
    }
  }
}

// --------------------------------------------------------------------------
// All 22 TPC-H queries, every stack level: bit-exact VM/JIT agreement.
// --------------------------------------------------------------------------

class BytecodeVmTpchTest : public ::testing::TestWithParam<int> {
 protected:
  static storage::Database* db() {
    static storage::Database* db =
        new storage::Database(tpch::MakeTpchDatabase(0.002, 7));
    return db;
  }
};

TEST_P(BytecodeVmTpchTest, BitExactAcrossAllStackLevels) {
  int q = GetParam();
  qplan::PlanPtr plan = tpch::MakeQuery(q);
  qplan::ResolvePlan(plan.get(), *db());

  // The pipelining-only lowering (the oracle-test configuration).
  {
    ir::TypeFactory types;
    auto fn = lower::LowerPlanPipelined(*plan, *db(), &types,
                                        "q" + std::to_string(q));
    ExpectEnginesAgree(db(), *fn, "Q" + std::to_string(q) + " pipelined");
  }

  // Every compiler configuration.
  ir::TypeFactory types;
  QueryCompiler qc(db(), &types);
  for (const StackConfig& cfg :
       {StackConfig::Level(2), StackConfig::Level(3), StackConfig::Level(4),
        StackConfig::Level(5), StackConfig::Compliant(),
        StackConfig::LegoBase()}) {
    compiler::CompileResult res =
        qc.Compile(*plan, cfg, "q" + std::to_string(q) + "_" + cfg.name);
    ExpectEnginesAgree(db(), *res.fn,
                       "Q" + std::to_string(q) + " " + cfg.name);
    BytecodeProgram prog = BytecodeCompiler(db()).Compile(*res.fn);
    ExpectJumpsInBounds(prog);
  }
}

INSTANTIATE_TEST_SUITE_P(AllQueries, BytecodeVmTpchTest,
                         ::testing::Range(1, 23));

// --------------------------------------------------------------------------
// Jump lowering
// --------------------------------------------------------------------------

TEST(BytecodeJumps, IfElseLowersToForwardJumps) {
  storage::Database db;
  TypeFactory types;
  Function fn("f", &types);
  Builder b(&fn);
  Stmt* v = b.VarNew(b.I64(0));
  b.If(
      b.Gt(b.VarRead(v), b.I64(10)), [&] { b.VarAssign(v, b.I64(1)); },
      [&] { b.VarAssign(v, b.I64(2)); });
  b.EmitRow({b.VarRead(v)});

  BytecodeProgram prog = BytecodeCompiler(&db).Compile(fn);
  ExpectJumpsInBounds(prog);
  // The else-arm requires a then-exit jump.
  EXPECT_GE(CountOp(prog, BcOp::kJmp), 1);
  ExpectEnginesAgree(&db, fn, "if-else");
  exec::Interpreter interp(&db);
  EXPECT_EQ(interp.Run(fn).row(0)[0].i, 2);
}

TEST(BytecodeJumps, ForRangeUsesFusedBackEdge) {
  storage::Database db;
  TypeFactory types;
  Function fn("f", &types);
  Builder b(&fn);
  Stmt* sum = b.VarNew(b.I64(0));
  b.ForRange(b.I64(0), b.I64(100),
             [&](Stmt* i) { b.VarAssign(sum, b.Add(b.VarRead(sum), i)); });
  b.EmitRow({b.VarRead(sum)});

  BytecodeProgram prog = BytecodeCompiler(&db).Compile(fn);
  ExpectJumpsInBounds(prog);
  // Loop head guard + fused increment/bound-check/back-edge.
  EXPECT_EQ(CountOp(prog, BcOp::kJgeI), 1);
  EXPECT_EQ(CountOp(prog, BcOp::kForNext), 1);
  exec::Interpreter interp(&db);
  EXPECT_EQ(interp.Run(fn).row(0)[0].i, 4950);
}

TEST(BytecodeJumps, ZeroIterationLoopSkipsBody) {
  storage::Database db;
  TypeFactory types;
  Function fn("f", &types);
  Builder b(&fn);
  Stmt* n = b.VarNew(b.I64(7));
  b.ForRange(b.I64(5), b.I64(3),
             [&](Stmt* i) { b.VarAssign(n, b.Add(b.VarRead(n), i)); });
  b.EmitRow({b.VarRead(n)});
  exec::Interpreter interp(&db);
  EXPECT_EQ(interp.Run(fn).row(0)[0].i, 7);
}

TEST(BytecodeJumps, WhileLowersToBackwardJump) {
  storage::Database db;
  TypeFactory types;
  Function fn("f", &types);
  Builder b(&fn);
  Stmt* x = b.VarNew(b.I64(1));
  b.While([&] { return b.Lt(b.VarRead(x), b.I64(1000)); },
          [&] { b.VarAssign(x, b.Mul(b.VarRead(x), b.I64(2))); });
  b.EmitRow({b.VarRead(x)});

  BytecodeProgram prog = BytecodeCompiler(&db).Compile(fn);
  ExpectJumpsInBounds(prog);
  // While back edges lower to kJmpSp (a governance-safepoint jump).
  bool has_backward = false;
  for (const exec::Insn& insn : prog.code) {
    if (insn.op == static_cast<uint16_t>(BcOp::kJmpSp) && insn.d < 0) {
      has_backward = true;
    }
  }
  EXPECT_TRUE(has_backward);
  exec::Interpreter interp(&db);
  EXPECT_EQ(interp.Run(fn).row(0)[0].i, 1024);
}

// --------------------------------------------------------------------------
// Constant presets
// --------------------------------------------------------------------------

TEST(BytecodePresets, ConstantsCostNoInstructions) {
  storage::Database db;
  TypeFactory types;
  Function fn("f", &types);
  Builder b(&fn);
  // Several distinct constants; none may appear as loads in the loop.
  Stmt* sum = b.VarNew(b.I64(0));
  b.ForRange(b.I64(0), b.I64(10), [&](Stmt* i) {
    b.VarAssign(sum, b.Add(b.VarRead(sum), b.Mul(i, b.I64(3))));
  });
  b.EmitRow({b.VarRead(sum), b.F64(2.5), b.StrC("tag")});

  BytecodeProgram prog = BytecodeCompiler(&db).Compile(fn);
  EXPECT_GE(prog.presets.size(), 4u);  // 0, 10, 3, 2.5, "tag" (CSE may share)
  exec::Interpreter interp(&db);
  storage::ResultTable r = interp.Run(fn);
  EXPECT_EQ(r.row(0)[0].i, 135);
  EXPECT_DOUBLE_EQ(r.row(0)[1].d, 2.5);
  EXPECT_STREQ(r.row(0)[2].s, "tag");
}

// --------------------------------------------------------------------------
// Fused super-instructions
// --------------------------------------------------------------------------

storage::Database ScanDb() {
  storage::Database db;
  storage::TableDef t;
  t.name = "T";
  t.columns = {{"k", storage::ColType::kI64},
               {"v", storage::ColType::kF64}};
  storage::Table* tt = db.AddTable(t);
  for (int i = 0; i < 100; ++i) {
    tt->column(0).data.push_back(SlotI(i % 17));
    tt->column(1).data.push_back(SlotD(i * 0.25));
  }
  return db;
}

TEST(BytecodeFusion, ColumnScanFilterFusesToOneBranch) {
  storage::Database db = ScanDb();
  TypeFactory types;
  Function fn("f", &types);
  Builder b(&fn);
  Stmt* count = b.VarNew(b.I64(0));
  b.ForRange(b.I64(0), b.TableRows(0), [&](Stmt* row) {
    Stmt* k = b.ColGet(0, 0, row, types.I64());
    b.If(b.Lt(k, b.I64(5)),
         [&] { b.VarAssign(count, b.Add(b.VarRead(count), b.I64(1))); });
  });
  b.EmitRow({b.VarRead(count)});

  BytecodeProgram prog = BytecodeCompiler(&db).Compile(fn);
  // col_get + compare + branch collapse into one super-instruction: no
  // standalone kColGet, no materialized boolean.
  EXPECT_EQ(CountOp(prog, BcOp::kJnColLtI), 1);
  EXPECT_EQ(CountOp(prog, BcOp::kColGet), 0);
  EXPECT_EQ(CountOp(prog, BcOp::kLtI), 0);
  EXPECT_GE(prog.fused, 2);
  ExpectEnginesAgree(&db, fn, "fused scan filter");
  exec::Interpreter interp(&db);
  EXPECT_EQ(interp.Run(fn).row(0)[0].i, 30);  // k in {0..4}: 6*5 rows
}

TEST(BytecodeFusion, FlattenedConjunctionBecomesBranchCascade) {
  storage::Database db = ScanDb();
  TypeFactory types;
  Function fn("f", &types);
  Builder b(&fn);
  Stmt* count = b.VarNew(b.I64(0));
  b.ForRange(b.I64(0), b.TableRows(0), [&](Stmt* row) {
    Stmt* k = b.ColGet(0, 0, row, types.I64());
    Stmt* v = b.ColGet(0, 1, row, types.F64());
    // The cond_flatten idiom: predicates combined with BitAnd.
    Stmt* cond = b.BitAnd(b.Ge(k, b.I64(2)), b.Lt(v, b.F64(20.0)));
    b.If(cond,
         [&] { b.VarAssign(count, b.Add(b.VarRead(count), b.I64(1))); });
  });
  b.EmitRow({b.VarRead(count)});

  BytecodeProgram prog = BytecodeCompiler(&db).Compile(fn);
  // The integral conjunct becomes a fused column-compare branch and the
  // f64 one a compare + kJz; the BitAnd disappears.
  EXPECT_EQ(CountOp(prog, BcOp::kJnColGeI), 1);
  EXPECT_EQ(CountOp(prog, BcOp::kLtF), 1);
  EXPECT_EQ(CountOp(prog, BcOp::kBitAnd), 0);
  ExpectEnginesAgree(&db, fn, "branch cascade");
}

TEST(BytecodeFusion, RecordAccumulateFuses) {
  storage::Database db;
  TypeFactory types;
  Function fn("f", &types);
  Builder b(&fn);
  const ir::Type* rec = types.Record("Acc", {{"sum", types.I64()}});
  Stmt* r = b.RecNew(rec, {b.I64(0)});
  b.ForRange(b.I64(1), b.I64(11), [&](Stmt* i) {
    b.RecSet(r, 0, b.Add(b.RecGet(r, 0), i));
  });
  b.EmitRow({b.RecGet(r, 0)});

  BytecodeProgram prog = BytecodeCompiler(&db).Compile(fn);
  EXPECT_EQ(CountOp(prog, BcOp::kRecAccAddI), 1);
  exec::Interpreter interp(&db);
  EXPECT_EQ(interp.Run(fn).row(0)[0].i, 55);
}

// No query forms an array accumulate (hash_spec's arrays hold records and
// chain heads), so the read-modify-write stays three plain instructions.
TEST(BytecodeFusion, ArrayReadModifyWriteStaysUnfused) {
  storage::Database db;
  TypeFactory types;
  Function fn("f", &types);
  Builder b(&fn);
  Stmt* arr = b.ArrNew(types.F64(), b.I64(4));
  b.ForRange(b.I64(0), b.I64(20), [&](Stmt* i) {
    Stmt* slot = b.Mod(i, b.I64(4));
    b.ArrSet(arr, slot, b.Add(b.ArrGet(arr, slot), b.F64(0.5)));
  });
  b.ForRange(b.I64(0), b.I64(4),
             [&](Stmt* i) { b.EmitRow({b.ArrGet(arr, i)}); });

  BytecodeProgram prog = BytecodeCompiler(&db).Compile(fn);
  EXPECT_EQ(CountOp(prog, BcOp::kArrGet), 2);
  EXPECT_EQ(CountOp(prog, BcOp::kAddF), 1);
  EXPECT_EQ(CountOp(prog, BcOp::kArrSet), 1);
  for (const exec::Insn& insn : prog.code) {
    EXPECT_EQ(std::strstr(BcOpName(static_cast<BcOp>(insn.op)), "AccAdd"),
              nullptr);
  }
  ExpectEnginesAgree(&db, fn, "array read-modify-write");
  exec::Interpreter interp(&db);
  storage::ResultTable res = interp.Run(fn);
  for (int i = 0; i < 4; ++i) EXPECT_DOUBLE_EQ(res.row(i)[0].d, 2.5);
}

// --------------------------------------------------------------------------
// Comparator subroutines and string interning
// --------------------------------------------------------------------------

TEST(BytecodeVm, SortComparatorRunsAsSubroutine) {
  storage::Database db;
  TypeFactory types;
  Function fn("f", &types);
  Builder b(&fn);
  Stmt* list = b.ListNew(types.I64());
  int64_t vals[] = {9, 1, 8, 2, 7, 3};
  for (int64_t v : vals) b.ListAppend(list, b.I64(v));
  b.ListSortBy(list, [&](Stmt* x, Stmt* y) { return b.Lt(x, y); });
  b.ListForeach(list, [&](Stmt* e) { b.EmitRow({e}); });

  BytecodeProgram prog = BytecodeCompiler(&db).Compile(fn);
  EXPECT_EQ(CountOp(prog, BcOp::kListSort), 1);
  EXPECT_GE(CountOp(prog, BcOp::kRet), 2);  // program end + subroutine
  ExpectEnginesAgree(&db, fn, "list sort");
  exec::Interpreter interp(&db);
  storage::ResultTable r = interp.Run(fn);
  int64_t expect[] = {1, 2, 3, 7, 8, 9};
  for (int i = 0; i < 6; ++i) EXPECT_EQ(r.row(i)[0].i, expect[i]);
}

TEST(BytecodeVm, EmittedStringsAreInterned) {
  storage::Database db;
  TypeFactory types;
  Function fn("f", &types);
  Builder b(&fn);
  Stmt* s = b.StrC("hello world");
  b.EmitRow({b.StrSubstr(s, 0, 5), b.StrLen(s)});
  ExpectEnginesAgree(&db, fn, "string interning");
  exec::Interpreter interp(&db);
  storage::ResultTable r = interp.Run(fn);
  EXPECT_STREQ(r.row(0)[0].s, "hello");
  EXPECT_EQ(r.row(0)[1].i, 11);
}

// While-condition branch fusion: the loop-exit test branches on the
// comparison directly — no materialized boolean, no generic kJz.
TEST(BytecodeFusion, WhileConditionFusesToBranch) {
  storage::Database db;
  TypeFactory types;
  Function fn("f", &types);
  Builder b(&fn);
  Stmt* x = b.VarNew(b.I64(1));
  b.While([&] { return b.Lt(b.VarRead(x), b.I64(1000)); },
          [&] { b.VarAssign(x, b.Mul(b.VarRead(x), b.I64(2))); });
  b.EmitRow({b.VarRead(x)});

  BytecodeProgram prog = BytecodeCompiler(&db).Compile(fn);
  ExpectJumpsInBounds(prog);
  EXPECT_EQ(CountOp(prog, BcOp::kLtI), 0);
  EXPECT_EQ(CountOp(prog, BcOp::kJz), 0);
  EXPECT_EQ(CountOp(prog, BcOp::kJnLtI), 1);
  ExpectEnginesAgree(&db, fn, "fused while condition");
  exec::Interpreter interp(&db);
  EXPECT_EQ(interp.Run(fn).row(0)[0].i, 1024);
}

// The hash-chain probe loop (`while (!is_null(cur))` over intrusive next
// pointers, Q3 at the 5-level stack) must fuse its null test into the exit
// branch: no kIsNull/kNot instructions survive anywhere in the program.
TEST(BytecodeFusion, HashChainProbeWhileFusesNullTest) {
  storage::Database db = tpch::MakeTpchDatabase(0.002, 7);
  qplan::PlanPtr plan = tpch::MakeQuery(3);
  qplan::ResolvePlan(plan.get(), db);
  TypeFactory types;
  compiler::QueryCompiler qc(&db, &types);
  compiler::CompileResult res = qc.Compile(*plan, StackConfig::Level(5), "q3");
  BytecodeProgram prog = BytecodeCompiler(&db).Compile(*res.fn);
  EXPECT_EQ(CountOp(prog, BcOp::kIsNull), 0);
  EXPECT_EQ(CountOp(prog, BcOp::kNot), 0);
}

// Repeated Run() calls on one Interpreter must reuse the cached program and
// still produce fresh, correct results.
TEST(BytecodeVm, RepeatedRunsReuseCachedProgram) {
  storage::Database db;
  TypeFactory types;
  Function fn("f", &types);
  Builder b(&fn);
  Stmt* sum = b.VarNew(b.I64(0));
  b.ForRange(b.I64(0), b.I64(5),
             [&](Stmt* i) { b.VarAssign(sum, b.Add(b.VarRead(sum), i)); });
  b.EmitRow({b.VarRead(sum)});
  exec::Interpreter interp(&db);
  for (int rep = 0; rep < 3; ++rep) {
    storage::ResultTable r = interp.Run(fn);
    ASSERT_EQ(r.size(), 1u);
    EXPECT_EQ(r.row(0)[0].i, 10) << "rep " << rep;
  }
}

// --------------------------------------------------------------------------
// JIT backend (src/jit/): bit-exact agreement with the bytecode VM.
// --------------------------------------------------------------------------

// Golden total_pcs per TPC-H query (row q-1) of the level-5 program at SF
// 0.01, the one program every thread count runs (fragments included). They
// are exact, so any drift is a change in what the bytecode compiler emits.
// A change that alters them on purpose pastes the table the failing test
// prints and says so in CHANGES.md.
constexpr int kGoldenJitCounts[tpch::kNumQueries] = {
    108,  // Q1
    261,  // Q2
    101,  // Q3
    61,  // Q4
    153,  // Q5
    20,  // Q6
    168,  // Q7
    180,  // Q8
    103,  // Q9
    119,  // Q10
    160,  // Q11
    91,  // Q12
    89,  // Q13
    39,  // Q14
    150,  // Q15
    127,  // Q16
    88,  // Q17
    156,  // Q18
    80,  // Q19
    143,  // Q20
    118,  // Q21
    130,  // Q22
};

// The SF 0.01 TPC-H database of the JIT and census tests.
storage::Database* TpchDb() {
  static storage::Database* db =
      new storage::Database(tpch::MakeTpchDatabase(0.01));
  return db;
}

// All 22 TPC-H queries at SF 0.01, stack levels 2-5, threads {1, 4}: the
// JIT engine must agree with the sequential bytecode VM bit-for-bit,
// including the Figure 8 AllocStats, run native code at every pc (main
// stream, comparator subroutines and morsel fragments alike), and at
// level 5 match the golden pc count.
class JitTpchTest : public ::testing::TestWithParam<int> {
 protected:
  static storage::Database* db() { return TpchDb(); }

  // Whether this build and host can run native code at all; QC_JIT_DISABLE
  // does not count, so forcing the VM fails the checks.
  static bool PlatformJits() {
    return exec::jit::JitAvailable() ||
           exec::jit::JitUnavailableReason() ==
               exec::jit::JitFallback::kDisabledByEnv;
  }

  // Checks each JIT run of `fn` against the VM; returns the total pcs of
  // the four-thread run.
  static int CheckJitAgrees(const Function& fn, const std::string& tag) {
    exec::Interpreter ref(db(), Bytecode());
    storage::ResultTable want = ref.Run(fn);
    exec::AllocStats want_stats = ref.stats();
    int total_pcs = 0;
    for (int threads : {1, 4}) {
      exec::Interpreter jit(db(), Jit(threads));
      storage::ResultTable got = jit.Run(fn);
      std::string t = tag + " jit threads=" + std::to_string(threads);
      ExpectBitExact(got, want, t);
      ExpectStatsEqual(jit.stats(), want_stats, t);
      const exec::Interpreter::JitRunStats& js = jit.last_jit_stats();
      if (PlatformJits()) {
        EXPECT_TRUE(js.jitted) << t;
        EXPECT_EQ(js.native_pcs, js.total_pcs) << t;
      }
      total_pcs = js.total_pcs;
    }
    return total_pcs;
  }

  static int CheckLevel(int q, const qplan::Plan& plan, int level) {
    ir::TypeFactory types;
    QueryCompiler qc(db(), &types);
    compiler::CompileResult res = qc.Compile(
        plan, StackConfig::Level(level), "q" + std::to_string(q));
    return CheckJitAgrees(*res.fn, "Q" + std::to_string(q) + " L" +
                                       std::to_string(level));
  }

  // Prints the golden table as this build measures it, ready to paste.
  static void PrintGoldenTable() {
    std::string table =
        "constexpr int kGoldenJitCounts[tpch::kNumQueries] = {\n";
    for (int q = 1; q <= tpch::kNumQueries; ++q) {
      qplan::PlanPtr plan = tpch::MakeQuery(q);
      qplan::ResolvePlan(plan.get(), *db());
      table += "    " + std::to_string(CheckLevel(q, *plan, 5)) +
               ",  // Q" + std::to_string(q) + "\n";
    }
    std::printf("%s};\n", table.c_str());
  }
};

TEST_P(JitTpchTest, NativeAndBitExactAtEveryLevel) {
  int q = GetParam();
  qplan::PlanPtr plan = tpch::MakeQuery(q);
  qplan::ResolvePlan(plan.get(), *db());
  for (int level : {2, 3, 4}) CheckLevel(q, *plan, level);
  int got = CheckLevel(q, *plan, 5);
  if (!PlatformJits()) return;
  const int want = kGoldenJitCounts[q - 1];
  EXPECT_EQ(got, want) << "Q" << q << " L5 total_pcs";
  static bool printed = false;
  if (got != want && !printed) {
    printed = true;
    PrintGoldenTable();
  }
}

// Byte equality of two vectors of plain records (Insn, Slot).
template <typename T>
bool SameBytes(const std::vector<T>& a, const std::vector<T>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(T)) == 0);
}

// Forces the verifier gate for one scope.
struct VerifyGate {
  explicit VerifyGate(int on) { exec::analysis::SetVerifyEnabledOverride(on); }
  ~VerifyGate() { exec::analysis::SetVerifyEnabledOverride(-1); }
};

// Verification runs once, at program build and stitch, and must leave no
// trace: the level-5 program built with the verifier layer forced on and
// forced off has the same bytecode and the same JIT image shape, and runs
// to the same bits and AllocStats at threads 1 and 4.
TEST_P(JitTpchTest, VerifierLeavesProgramAndImageUnchanged) {
  int q = GetParam();
  qplan::PlanPtr plan = tpch::MakeQuery(q);
  qplan::ResolvePlan(plan.get(), *db());
  ir::TypeFactory types;
  QueryCompiler qc(db(), &types);
  compiler::CompileResult res =
      qc.Compile(*plan, StackConfig::Level(5), "q" + std::to_string(q));
  const std::string tag = "Q" + std::to_string(q);
  std::unique_ptr<const exec::Program> prog[2];
  for (int on : {0, 1}) {
    VerifyGate gate(on);
    std::string err;
    prog[on] = exec::Program::Build(db(), *res.fn, &err);
    ASSERT_NE(prog[on], nullptr) << tag << ": " << err;
    prog[on]->jit();  // stitch (and audit, when on) under this gate
  }
  const BytecodeProgram& off = prog[0]->bytecode();
  const BytecodeProgram& on = prog[1]->bytecode();
  EXPECT_TRUE(SameBytes(on.code, off.code)) << tag << ": code";
  EXPECT_EQ(on.extra, off.extra) << tag;
  EXPECT_TRUE(SameBytes(on.consts, off.consts)) << tag << ": consts";
  EXPECT_EQ(on.emit_types, off.emit_types) << tag;
  EXPECT_EQ(on.patterns, off.patterns) << tag;
  EXPECT_EQ(on.num_regs, off.num_regs) << tag;
  EXPECT_EQ(on.state_reg, off.state_reg) << tag;
  EXPECT_EQ(on.gov_cnt_reg, off.gov_cnt_reg) << tag;
  const exec::jit::JitProgram* jon = prog[1]->jit();
  const exec::jit::JitProgram* joff = prog[0]->jit();
  ASSERT_EQ(jon == nullptr, joff == nullptr) << tag;
  if (jon != nullptr) {
    EXPECT_EQ(jon->total_pcs(), joff->total_pcs()) << tag;
    EXPECT_EQ(jon->num_native(), joff->num_native()) << tag;
    EXPECT_EQ(jon->code_bytes(), joff->code_bytes()) << tag;
    EXPECT_EQ(jon->num_sort_sites(), joff->num_sort_sites()) << tag;
  }
  for (int threads : {1, 4}) {
    const std::string t = tag + " threads=" + std::to_string(threads);
    storage::ResultTable out[2];
    exec::AllocStats stats[2];
    for (int gate : {0, 1}) {
      exec::Interpreter interp(db());
      out[gate] = interp.Run(*prog[gate], Jit(threads));
      stats[gate] = interp.stats();
    }
    ExpectBitExact(out[1], out[0], t);
    ExpectStatsEqual(stats[1], stats[0], t);
  }
}

INSTANTIATE_TEST_SUITE_P(AllQueries, JitTpchTest, ::testing::Range(1, 23));

// Census tripwire: over 22 queries x levels 2-5, every super-instruction
// family the ISA keeps is formed at least once. A family that stops
// forming is dead weight in three places (VM handler, JIT template,
// verifier row) and either a pass regressed or the family should go.
TEST(BytecodeCensus, EveryFusedFamilyForms) {
  // Each family is one contiguous run of QC_BC_OP_LIST.
  auto in = [](BcOp op, BcOp first, BcOp last) {
    return op >= first && op <= last;
  };
  int for_next = 0, jn = 0, jn_col = 0, rec_acc = 0;
  for (int q = 1; q <= tpch::kNumQueries; ++q) {
    qplan::PlanPtr plan = tpch::MakeQuery(q);
    qplan::ResolvePlan(plan.get(), *TpchDb());
    for (int level : {2, 3, 4, 5}) {
      ir::TypeFactory types;
      QueryCompiler qc(TpchDb(), &types);
      compiler::CompileResult res = qc.Compile(
          *plan, StackConfig::Level(level), "q" + std::to_string(q));
      std::string err;
      auto prog = exec::Program::Build(TpchDb(), *res.fn, &err);
      ASSERT_NE(prog, nullptr) << err;
      for (const exec::Insn& insn : prog->bytecode().code) {
        BcOp op = static_cast<BcOp>(insn.op);
        for_next += op == BcOp::kForNext;
        jn += in(op, BcOp::kJnEqI, BcOp::kJnGeI);
        jn_col += in(op, BcOp::kJnColEqI, BcOp::kJnColGeI);
        rec_acc += op == BcOp::kRecAccAddI;
      }
    }
  }
  EXPECT_GT(for_next, 0) << "kForNext";
  EXPECT_GT(jn, 0) << "kJn<Cmp>";
  EXPECT_GT(jn_col, 0) << "kJnCol<Cmp>";
  EXPECT_GT(rec_acc, 0) << "kRecAccAdd";
}

// Each parallelizable loop exists once in the bytecode, as its body
// fragment. Over 22 queries x {levels 2-5, Compliant, LegoBase}, the program
// Program::Build makes is the plain compile of the same function plus,
// per kParLoop, its header and its fragment's kRet, plus the kLogRow
// appends; and the main stream holds no kLogRow and no kForNext over a
// parallel loop's induction register.
TEST(BytecodeCensus, EachParallelLoopCompiledOnce) {
  int par_loops = 0;
  for (int q = 1; q <= tpch::kNumQueries; ++q) {
    qplan::PlanPtr plan = tpch::MakeQuery(q);
    qplan::ResolvePlan(plan.get(), *TpchDb());
    for (const StackConfig& config :
         {StackConfig::Level(2), StackConfig::Level(3), StackConfig::Level(4),
          StackConfig::Level(5), StackConfig::Compliant(),
          StackConfig::LegoBase()}) {
      ir::TypeFactory types;
      QueryCompiler qc(TpchDb(), &types);
      compiler::CompileResult res =
          qc.Compile(*plan, config, "q" + std::to_string(q));
      const std::string tag = "Q" + std::to_string(q) + " " + config.name;
      std::string err;
      auto built = exec::Program::Build(TpchDb(), *res.fn, &err);
      ASSERT_NE(built, nullptr) << tag << ": " << err;
      const BytecodeProgram& prog = built->bytecode();
      const BytecodeProgram plain = BytecodeCompiler(TpchDb()).Compile(*res.fn);
      const int heads = CountOp(prog, BcOp::kParLoop);
      const int logs = CountOp(prog, BcOp::kLogRow);
      EXPECT_EQ(heads, static_cast<int>(prog.par_loops.size())) << tag;
      EXPECT_EQ(prog.code.size(), plain.code.size() + 2 * heads + logs)
          << tag;
      par_loops += heads;
      size_t main_end = prog.code.size();
      std::vector<uint32_t> ivars;
      for (const exec::ParLoopCode& plc : prog.par_loops) {
        main_end = std::min<size_t>(main_end, plc.entry);
        ivars.push_back(prog.code[plc.entry].a);  // kMov ivar <- lo_reg
      }
      for (size_t pc = 0; pc < main_end; ++pc) {
        const exec::Insn& insn = prog.code[pc];
        EXPECT_NE(insn.op, static_cast<uint16_t>(BcOp::kLogRow))
            << tag << " pc " << pc;
        if (insn.op == static_cast<uint16_t>(BcOp::kForNext)) {
          EXPECT_FALSE(std::count(ivars.begin(), ivars.end(), insn.a))
              << tag << " pc " << pc << ": a parallel loop in the main stream";
        }
      }
    }
  }
  EXPECT_GT(par_loops, 0);
}

// The opcodes TPC-H never emits have templates too: kStrLen, kMallocArr and
// kStrSubstr — including a start past the end, a length past the end and
// an empty source — run native at every pc and agree with the VM bit for
// bit, AllocStats included.
TEST(JitTemplates, OpcodesTpchNeverEmitsMatchVm) {
  storage::Database db;
  storage::TableDef t;
  t.name = "W";
  t.columns = {{"s", storage::ColType::kStr}};
  storage::Table* words = db.AddTable(t);
  for (const char* w : {"", "a", "query", "compiler"}) {
    words->column(0).data.push_back(SlotS(w));
  }
  TypeFactory types;
  Function fn("f", &types);
  Builder b(&fn);
  Stmt* lens = b.Malloc(types.I64(), b.TableRows(0));
  b.ForRange(b.I64(0), b.TableRows(0), [&](Stmt* row) {
    Stmt* w = b.ColGet(0, 0, row, types.Str());
    b.ArrSet(lens, row, b.StrLen(w));
    b.EmitRow({b.StrSubstr(w, 1, 3), b.StrSubstr(w, 2, 100),
               b.StrSubstr(w, 40, 2), b.ArrGet(lens, row)});
  });

  BytecodeProgram prog = BytecodeCompiler(&db).Compile(fn);
  for (BcOp op : {BcOp::kStrLen, BcOp::kMallocArr, BcOp::kStrSubstr}) {
    EXPECT_GT(CountOp(prog, op), 0) << BcOpName(op) << " absent";
  }
  if (exec::jit::JitAvailable()) {
    auto jp = exec::jit::JitProgram::Compile(prog);
    ASSERT_NE(jp, nullptr);
    EXPECT_EQ(jp->num_native(), jp->total_pcs());
  }
  exec::Interpreter bc(&db, Bytecode());
  exec::Interpreter jit(&db, Jit());
  storage::ResultTable want = bc.Run(fn);
  storage::ResultTable got = jit.Run(fn);
  ExpectBitExact(got, want, "template-only opcodes");
  ExpectStatsEqual(jit.stats(), bc.stats(), "template-only opcodes");
  ASSERT_EQ(want.size(), 4u);
  const char* kWant[][3] = {
      {"", "", ""}, {"", "", ""}, {"uer", "ery", ""}, {"omp", "mpiler", ""}};
  for (size_t r = 0; r < 4; ++r) {
    for (size_t c = 0; c < 3; ++c) {
      EXPECT_STREQ(want.row(r)[c].s, kWant[r][c]) << "row " << r;
    }
  }
  EXPECT_EQ(want.row(3)[3].i, 8);
  EXPECT_EQ(bc.stats().heap_allocs, 1u);
}

// --------------------------------------------------------------------------
// Native templates for the hot families: hash probes, string comparisons,
// kLogRow, kEmit, and the allocating helper-call opcodes.
// --------------------------------------------------------------------------

std::vector<uint32_t> PcsOf(const BytecodeProgram& prog, BcOp op) {
  std::vector<uint32_t> pcs;
  for (size_t pc = 0; pc < prog.code.size(); ++pc) {
    if (prog.code[pc].op == static_cast<uint16_t>(op)) {
      pcs.push_back(static_cast<uint32_t>(pc));
    }
  }
  return pcs;
}

// `op` occurs in `prog`, and every pc of `prog` has native code.
void ExpectOpNative(const BytecodeProgram& prog,
                    const exec::jit::JitProgram& jp, BcOp op) {
  EXPECT_GT(CountOp(prog, op), 0) << BcOpName(op) << " absent from program";
  EXPECT_EQ(jp.num_native(), jp.total_pcs());
}

// GOEU probe loop over i64 keys: 1000 distinct keys grow the map through
// several rehashes (16 -> 1024+ buckets) while the inline probe template
// keeps finding through the live bucket array — resize mid-loop needs no
// invalidation because the mask and bucket base are re-read per probe.
TEST(JitNative, I64MapProbeInlinesAndSurvivesRehash) {
  storage::Database db;
  TypeFactory types;
  Function fn("f", &types);
  Builder b(&fn);
  Stmt* map = b.MapNew(types.I64(), types.I64());
  Stmt* total = b.VarNew(b.I64(0));
  b.ForRange(b.I64(0), b.I64(5000), [&](Stmt* i) {
    Stmt* k = b.Mod(i, b.I64(1000));
    Stmt* v = b.MapGetOrElseUpdate(map, k, [&] { return b.Mul(k, b.I64(3)); });
    b.VarAssign(total, b.Add(b.VarRead(total), v));
  });
  b.EmitRow({b.VarRead(total), b.MapSize(map)});

  BytecodeProgram prog = BytecodeCompiler(&db).Compile(fn);
  for (uint32_t pc : PcsOf(prog, BcOp::kMapFind)) {
    EXPECT_EQ(prog.code[pc].d, exec::kMapKeyI64);
  }
  if (exec::jit::JitAvailable()) {
    auto jp = exec::jit::JitProgram::Compile(prog);
    ASSERT_NE(jp, nullptr);
    ExpectOpNative(prog, *jp, BcOp::kMapFind);
    ExpectOpNative(prog, *jp, BcOp::kMapInsert);
    ExpectOpNative(prog, *jp, BcOp::kMapNodeVal);
    ExpectOpNative(prog, *jp, BcOp::kMapSize);
  }
  exec::Interpreter bc(&db, Bytecode());
  exec::Interpreter jit(&db, Jit());
  ExpectBitExact(jit.Run(fn), bc.Run(fn), "i64 map probe");
}

storage::Database StrKeyDb() {
  storage::Database db;
  storage::TableDef t;
  t.name = "S";
  t.columns = {{"k", storage::ColType::kStr},
               {"v", storage::ColType::kI64}};
  storage::Table* tt = db.AddTable(t);
  static const char* kNames[] = {"alpha", "beta", "gamma", "delta", "beta"};
  for (int i = 0; i < 200; ++i) {
    tt->column(0).data.push_back(SlotS(kNames[i % 5]));
    tt->column(1).data.push_back(SlotI(i));
  }
  return db;
}

// String-keyed maps take the *generic* probe variant (typed SlotHasher via
// helper call), flagged kMapKeyOther by the compiler.
TEST(JitNative, StringKeyProbeUsesGenericVariant) {
  storage::Database db = StrKeyDb();
  TypeFactory types;
  Function fn("f", &types);
  Builder b(&fn);
  Stmt* map = b.MapNew(types.Str(), types.I64());
  b.ForRange(b.I64(0), b.TableRows(0), [&](Stmt* row) {
    Stmt* k = b.ColGet(0, 0, row, types.Str());
    Stmt* cnt = b.MapGetOrElseUpdate(map, k, [&] { return b.I64(0); });
    (void)cnt;
    Stmt* probe = b.MapGetOrNull(map, k);
    b.If(b.Not(b.IsNull(probe)), [&] {});
  });
  b.EmitRow({b.MapSize(map)});

  BytecodeProgram prog = BytecodeCompiler(&db).Compile(fn);
  for (uint32_t pc : PcsOf(prog, BcOp::kMapFind)) {
    EXPECT_EQ(prog.code[pc].d, exec::kMapKeyOther);
  }
  if (exec::jit::JitAvailable()) {
    auto jp = exec::jit::JitProgram::Compile(prog);
    ASSERT_NE(jp, nullptr);
    ExpectOpNative(prog, *jp, BcOp::kMapFind);
    ExpectOpNative(prog, *jp, BcOp::kMapGetOrNull);
  }
  exec::Interpreter bc(&db, Bytecode());
  exec::Interpreter jit(&db, Jit());
  ExpectBitExact(jit.Run(fn), bc.Run(fn), "string key generic probe");
}

// Non-dict string comparisons against constants (strcmp-helper path, with
// the pointer-equality fast path for interned operands), plus kStrLike over
// the patterns the bytecode compiler pre-split — all native, bit-exact with
// the VM. The LIKE sweep covers the edge shapes of the '%'-only dialect
// (empty, wildcard-only, anchored at both ends, adjacent '%'s, a pattern
// longer than every input) on a second table, and holds each count on both
// engines against StrLike over the same rows.
TEST(JitNative, StringCompareTemplates) {
  storage::Database db = StrKeyDb();
  storage::TableDef lt;
  lt.name = "L";
  lt.columns = {{"s", storage::ColType::kStr}};
  storage::Table* words = db.AddTable(lt);
  static const char* kWords[] = {"",     "a",   "ab",  "abc",  "axbyc",
                                 "ba",   "cab", "abab", "acb", "aab",
                                 "a%b",  "bca"};
  for (const char* w : kWords) words->column(0).data.push_back(SlotS(w));
  const std::vector<std::string> patterns = {
      "", "%", "%%", "abc", "a%", "%a", "a%b%c", "a%%b", "abcabcabcabc"};

  TypeFactory types;
  Function fn("f", &types);
  Builder b(&fn);
  Stmt* eq_n = b.VarNew(b.I64(0));
  Stmt* like_n = b.VarNew(b.I64(0));
  Stmt* ptr_n = b.VarNew(b.I64(0));
  std::vector<Stmt*> sweep_n;
  for (size_t i = 0; i < patterns.size(); ++i) {
    sweep_n.push_back(b.VarNew(b.I64(0)));
  }
  auto count_if = [&](Stmt* cond, Stmt* var) {
    b.If(cond, [&] { b.VarAssign(var, b.Add(b.VarRead(var), b.I64(1))); });
  };
  b.ForRange(b.I64(0), b.TableRows(0), [&](Stmt* row) {
    Stmt* k = b.ColGet(0, 0, row, types.Str());
    // Non-dict path: content comparison against an unrelated constant.
    count_if(b.StrEq(k, b.StrC("beta")), eq_n);
    // Interned path: both operands are the same column read — the
    // template's pointer-equality fast path must still report equal.
    Stmt* k2 = b.ColGet(0, 0, row, types.Str());
    count_if(b.StrEq(k, k2), ptr_n);
    count_if(b.StrLike(k, "%t%a%"), like_n);
  });
  b.ForRange(b.I64(0), b.TableRows(1), [&](Stmt* row) {
    Stmt* w = b.ColGet(1, 0, row, types.Str());
    for (size_t i = 0; i < patterns.size(); ++i) {
      count_if(b.StrLike(w, patterns[i]), sweep_n[i]);
    }
  });
  std::vector<Stmt*> out = {b.VarRead(eq_n), b.VarRead(ptr_n),
                            b.VarRead(like_n)};
  for (Stmt* v : sweep_n) out.push_back(b.VarRead(v));
  b.EmitRow(out);

  BytecodeProgram prog = BytecodeCompiler(&db).Compile(fn);
  if (exec::jit::JitAvailable()) {
    auto jp = exec::jit::JitProgram::Compile(prog);
    ASSERT_NE(jp, nullptr);
    ExpectOpNative(prog, *jp, BcOp::kStrEq);
    ExpectOpNative(prog, *jp, BcOp::kStrLike);
  }
  exec::Interpreter bc(&db, Bytecode());
  exec::Interpreter jit(&db, Jit());
  storage::ResultTable want = bc.Run(fn);
  storage::ResultTable got = jit.Run(fn);
  ExpectBitExact(got, want, "string compares");
  EXPECT_EQ(want.row(0)[0].i, 80);   // "beta" at i%5 in {1,4}
  EXPECT_EQ(want.row(0)[1].i, 200);  // self-compare always true
  EXPECT_EQ(want.row(0)[2].i, 120);  // %t%a%: beta (x2 per cycle), delta
  for (size_t i = 0; i < patterns.size(); ++i) {
    int64_t expect = 0;
    for (const char* w : kWords) expect += StrLike(w, patterns[i]) ? 1 : 0;
    EXPECT_EQ(want.row(0)[3 + i].i, expect) << "pattern '" << patterns[i]
                                            << "'";
  }
}

// kLogRow grow path: an intrusive bucket-array build that prepends from an
// inner loop logs three touched slots per row, overflowing the
// one-entry-per-row reserve — the native append's grow helper must keep
// results and AllocStats bit-identical across engines and thread counts.
TEST(JitLogRow, InnerLoopPrependsGrowPastReserve) {
  storage::Database db = ScanDb();
  TypeFactory types;
  Function fn("f", &types);
  Builder b(&fn);
  const int64_t kBuckets = 64;
  const ir::Type* node = types.ExtendRecordWithSelfPtr(
      types.Record("Node", {{"v", types.I64()}}), "Node_il", "__next");
  Stmt* arr = b.ArrNew(node, b.I64(kBuckets));
  b.ForRange(b.I64(0), b.TableRows(0), [&](Stmt* row) {
    Stmt* k = b.ColGet(0, 0, row, types.I64());
    b.ForRange(b.I64(0), b.I64(3), [&](Stmt* j) {
      Stmt* slot = b.Mod(b.Add(b.Mul(k, b.I64(3)), j), b.I64(kBuckets));
      Stmt* rec = b.RecNew(
          node, {b.Add(b.Mul(row, b.I64(3)), j),
                 b.NullOf(node->record->fields[1].type)});
      b.RecSet(rec, 1, b.ArrGet(arr, slot));
      b.ArrSet(arr, slot, rec);
    });
  });
  b.ForRange(b.I64(0), b.I64(kBuckets), [&](Stmt* slot) {
    Stmt* cur = b.VarNew(b.ArrGet(arr, slot));
    b.While([&] { return b.Not(b.IsNull(b.VarRead(cur))); },
            [&] {
              Stmt* r = b.VarRead(cur);
              b.EmitRow({slot, b.RecGet(r, 0)});
              b.VarAssign(cur, b.RecGet(r, 1));
            });
  });

  ir::ParallelInfo par = ir::AnalyzeParallelism(fn);
  ASSERT_FALSE(par.loops.empty()) << ir::FormatRejections(par);
  ASSERT_EQ(par.loops[0].reductions.size(), 1u);
  EXPECT_EQ(par.loops[0].reductions[0].kind, ir::ParRedKind::kBucketArray);
  BytecodeProgram prog = BytecodeCompiler(&db).Compile(fn, &par);
  ASSERT_GE(CountOp(prog, BcOp::kLogRow), 1)
      << "the inner-loop prepend no longer logs touched slots; the "
         "grow-path coverage of this test is gone";

  exec::Interpreter ref(&db, Bytecode());
  storage::ResultTable want = ref.Run(fn);
  ASSERT_EQ(want.size(), 300u);
  for (int threads : {1, 4}) {
    InterpOptions o = Jit(threads);
    o.morsel_rows = 8;  // tiny morsels: reserve = 8 entries, logged = 24
    exec::Interpreter jit(&db, o);
    ExpectBitExact(jit.Run(fn), want, "log grow t" + std::to_string(threads));
    ExpectStatsEqual(jit.stats(), ref.stats(),
                     "log grow t" + std::to_string(threads));
  }
}

// QC_JIT_DISABLE degrades kJit to the plain bytecode VM — selecting the
// engine must stay safe (and correct) with the JIT forced off.
TEST(JitFallback, DisableKnobDegradesToBytecode) {
  ScopedEnv off("QC_JIT_DISABLE", "1");
  EXPECT_FALSE(exec::jit::JitAvailable());
  storage::Database db;
  TypeFactory types;
  Function fn("f", &types);
  Builder b(&fn);
  Stmt* sum = b.VarNew(b.I64(0));
  b.ForRange(b.I64(0), b.I64(50),
             [&](Stmt* i) { b.VarAssign(sum, b.Add(b.VarRead(sum), i)); });
  b.EmitRow({b.VarRead(sum)});
  exec::Interpreter jit(&db, Jit());
  EXPECT_EQ(jit.Run(fn).row(0)[0].i, 1225);
}

}  // namespace
}  // namespace qc
