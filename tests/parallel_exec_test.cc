// Morsel-driven parallel execution (exec/parallel.h): results must be
// BITWISE identical to the sequential engines — same row order, same f64
// bit patterns, same string contents — for every TPC-H query, at every
// tested thread count and morsel size, on both engines (bytecode VM and
// JIT). Every sum that runs in parallel is integral (TPC-H money is a
// scaled-int64 decimal) and a loop with an f64 sum runs sequentially, so
// these tests compare bit patterns, not canonical text.
//
// Figure 8 accounting is asserted too: AllocStats of a parallel run must
// equal the sequential run's exactly (AllocStats::MergeFrom + the merge
// phase's credits for transient per-morsel storage).
#include <gtest/gtest.h>

#include <string>
#include <thread>

#include "bit_exact.h"
#include "compiler/compiler.h"
#include "exec/interp.h"
#include "ir/builder.h"
#include "ir/ops.h"
#include "ir/parallel.h"
#include "lower/pipeline.h"
#include "tpch/datagen.h"
#include "tpch/queries.h"

namespace qc {
namespace {

using compiler::QueryCompiler;
using compiler::StackConfig;
using exec::InterpOptions;

InterpOptions Opts(InterpOptions::Engine e, int threads,
                   int64_t morsel_rows = 2048) {
  InterpOptions o;
  o.engine = e;
  o.num_threads = threads;
  o.morsel_rows = morsel_rows;
  return o;
}

class ParallelExecTpchTest : public ::testing::TestWithParam<int> {
 protected:
  static storage::Database* db() {
    static storage::Database* db =
        new storage::Database(tpch::MakeTpchDatabase(0.01));
    return db;
  }

  // Runs `fn` sequentially as the reference, then across engines x thread
  // counts x a second morsel size, asserting bitwise equality and exact
  // AllocStats agreement every time.
  static void CheckAllConfigs(const ir::Function& fn,
                              const std::string& tag) {
    exec::Interpreter ref(db(), Opts(InterpOptions::Engine::kBytecode, 1));
    storage::ResultTable want = ref.Run(fn);

    for (InterpOptions::Engine engine : kEngines) {
      const std::string name = EngineName(engine);
      exec::AllocStats seq_stats;
      for (int threads : {1, 2, 4}) {
        exec::Interpreter interp(db(), Opts(engine, threads));
        storage::ResultTable got = interp.Run(fn);
        std::string t =
            tag + " " + name + " threads=" + std::to_string(threads);
        ExpectBitExact(got, want, t);
        if (threads == 1) {
          seq_stats = interp.stats();
        } else {
          ExpectStatsEqual(interp.stats(), seq_stats, t);
        }
      }
      // An odd morsel size exercises boundary handling and many-morsel
      // merges; results must not depend on the decomposition.
      exec::Interpreter odd(db(), Opts(engine, 3, 777));
      storage::ResultTable got = odd.Run(fn);
      const std::string odd_tag = tag + " " + name + " morsel=777";
      ExpectBitExact(got, want, odd_tag);
      ExpectStatsEqual(odd.stats(), seq_stats, odd_tag);
    }
  }
};

// ScaLite[Map,List]: the pipelined lowering — generic hash maps,
// multimaps, and lists are the reduction state.
TEST_P(ParallelExecTpchTest, PipelinedBitExactAcrossThreads) {
  int q = GetParam();
  qplan::PlanPtr plan = tpch::MakeQuery(q);
  qplan::ResolvePlan(plan.get(), *db());
  ir::TypeFactory types;
  auto fn = lower::LowerPlanPipelined(*plan, *db(), &types,
                                      "q" + std::to_string(q));
  CheckAllConfigs(*fn, "Q" + std::to_string(q) + " L3");
}

// Full 5-level stack: direct-addressed group arrays, intrusive bucket
// arrays, pools — the specialized reduction shapes.
TEST_P(ParallelExecTpchTest, Level5BitExactAcrossThreads) {
  int q = GetParam();
  qplan::PlanPtr plan = tpch::MakeQuery(q);
  qplan::ResolvePlan(plan.get(), *db());
  ir::TypeFactory types;
  QueryCompiler qc(db(), &types);
  compiler::CompileResult res =
      qc.Compile(*plan, StackConfig::Level(5), "q" + std::to_string(q));
  CheckAllConfigs(*res.fn, "Q" + std::to_string(q) + " L5");
}

INSTANTIATE_TEST_SUITE_P(AllQueries, ParallelExecTpchTest,
                         ::testing::Range(1, 23));

// Hand-built global-aggregation shapes (sum / count / guarded min / max /
// a second, decimal-like sum of cents), exactly as lower/pipeline.cc
// lowers them: the scalar-reduction
// merges must fold the morsel accumulators correctly. Guards against the
// scalar paths regressing while the TPC-H suite happens not to exercise
// them (its scalar folds are shadowed by grouped shapes).
TEST(ParallelScalarReductionTest, SumCountMinMaxMatchSequential) {
  storage::Database db;
  ir::TypeFactory types;
  ir::Function fn("scalar_aggs", &types);
  ir::Builder b(&fn);
  ir::Stmt* sum = b.VarNew(b.I64(0));
  ir::Stmt* csum = b.VarNew(b.I64(0));
  ir::Stmt* cnt = b.VarNew(b.I64(0));
  ir::Stmt* mn = b.VarNew(b.I64(0));
  ir::Stmt* mx = b.VarNew(b.I64(0));
  const int64_t kRows = 100000;
  b.ForRange(b.I64(0), b.I64(kRows), [&](ir::Stmt* i) {
    b.If(b.Eq(b.Mod(i, b.I64(7)), b.I64(3)), [&] {
      ir::Stmt* n0 = b.VarRead(cnt);
      ir::Stmt* v = b.Mul(b.Sub(b.I64(50000), i), b.I64(3));
      b.VarAssign(sum, b.Add(b.VarRead(sum), v));
      b.VarAssign(csum, b.Add(b.VarRead(csum), b.Mul(v, b.I64(100))));
      b.If(b.Or(b.Eq(n0, b.I64(0)), b.Lt(v, b.VarRead(mn))),
           [&] { b.VarAssign(mn, v); });
      b.If(b.Or(b.Eq(n0, b.I64(0)), b.Gt(v, b.VarRead(mx))),
           [&] { b.VarAssign(mx, v); });
      b.VarAssign(cnt, b.Add(n0, b.I64(1)));
    });
  });
  b.EmitRow({b.VarRead(sum), b.VarRead(csum), b.VarRead(cnt), b.VarRead(mn),
             b.VarRead(mx)});

  // The loop must actually qualify, with all five scalar reductions.
  ir::ParallelInfo info = ir::AnalyzeParallelism(fn);
  ASSERT_EQ(info.loops.size(), 1u);
  ASSERT_EQ(info.loops[0].reductions.size(), 5u);

  int64_t want_sum = 0, want_csum = 0, want_cnt = 0, want_mn = 0, want_mx = 0;
  for (int64_t i = 0; i < kRows; ++i) {
    if (i % 7 != 3) continue;
    int64_t v = (50000 - i) * 3;
    want_sum += v;
    want_csum += v * 100;
    if (want_cnt == 0 || v < want_mn) want_mn = v;
    if (want_cnt == 0 || v > want_mx) want_mx = v;
    ++want_cnt;
  }

  for (InterpOptions::Engine engine : kEngines) {
    for (int threads : {1, 4}) {
      exec::Interpreter interp(&db, Opts(engine, threads, 512));
      storage::ResultTable r = interp.Run(fn);
      std::string t = std::string(EngineName(engine)) +
                      " threads=" + std::to_string(threads);
      ASSERT_EQ(r.size(), 1u) << t;
      EXPECT_EQ(r.row(0)[0].i, want_sum) << "sum, " << t;
      EXPECT_EQ(r.row(0)[1].i, want_csum) << "csum, " << t;
      EXPECT_EQ(r.row(0)[2].i, want_cnt) << "count, " << t;
      EXPECT_EQ(r.row(0)[3].i, want_mn) << "min, " << t;
      EXPECT_EQ(r.row(0)[4].i, want_mx) << "max, " << t;
    }
  }
}

// An f64 sum is not associative: morsel partial sums would not add up to
// the sequential rounding. A loop with one is rejected by name ("f64-sum",
// at its store) and runs sequentially, so every engine and thread count
// reproduces the one-thread bits: 1e17 + 1.0 rounds to 1e17, so row 0's
// 1e17 swallows the 1.0s of every row before the last row's -1e17, while
// any partial sum of later rows would keep them.
TEST(ParallelF64SumTest, LoopWithF64SumRunsSequentiallyAndExact) {
  storage::Database db;
  ir::TypeFactory types;
  ir::Function fn("f64_sum", &types);
  ir::Builder b(&fn);
  const int64_t kRows = 20000;
  ir::Stmt* fsum = b.VarNew(b.F64(0.0));
  ir::Stmt* cnt = b.VarNew(b.I64(0));
  ir::Stmt* loop = b.ForRange(b.I64(0), b.I64(kRows), [&](ir::Stmt* i) {
    // first = (i == 0), last = (i == kRows - 1), as integer arithmetic.
    ir::Stmt* first = b.Sub(b.I64(1), b.Div(b.Add(i, b.I64(kRows - 1)),
                                            b.I64(kRows)));
    ir::Stmt* last = b.Div(i, b.I64(kRows - 1));
    ir::Stmt* big = b.I64(100000000000000000);
    ir::Stmt* addend = b.Cast(
        b.Add(b.Mul(b.Sub(first, last), big),
              b.Sub(b.Sub(b.I64(1), first), last)),
        types.F64());
    b.VarAssign(fsum, b.Add(b.VarRead(fsum), addend));
    b.VarAssign(cnt, b.Add(b.VarRead(cnt), b.I64(1)));
  });
  b.EmitRow({b.VarRead(fsum), b.VarRead(cnt)});

  ir::ParallelInfo info = ir::AnalyzeParallelism(fn);
  EXPECT_TRUE(info.loops.empty());
  ASSERT_EQ(info.rejected.size(), 1u);
  const ir::ParReject& why = info.rejected[0];
  EXPECT_EQ(why.loop, loop);
  EXPECT_STREQ(why.rule, "f64-sum");
  ASSERT_NE(why.at, nullptr);
  EXPECT_STREQ(ir::OpName(why.at->op), "var_assign");

  exec::Interpreter ref(&db, Opts(InterpOptions::Engine::kBytecode, 1));
  storage::ResultTable want = ref.Run(fn);
  ASSERT_EQ(want.size(), 1u);
  EXPECT_EQ(want.row(0)[0].d, 0.0) << "row order swallows every 1.0";
  for (InterpOptions::Engine engine : kEngines) {
    exec::Interpreter interp(&db, Opts(engine, 4, 512));
    const std::string t = std::string(EngineName(engine)) + " threads=4";
    ExpectBitExact(interp.Run(fn), want, t);
    ExpectStatsEqual(interp.stats(), ref.stats(), t);
  }
}

// Skewed-key multimap build: a handful of hot keys whose value chains span
// every morsel. Locks the hash-part merge's per-key appends (each morsel's
// values of a key go onto the first creator's list in one pass) — the
// values must recombine in exact sequential row order, with AllocStats to
// the byte, at every thread
// count and for a decomposition into many morsels.
TEST(ParallelSkewedKeyTest, HotKeyChainsMergeInRowOrder) {
  storage::Database db;
  ir::TypeFactory types;
  ir::Function fn("skewed_mmap", &types);
  ir::Builder b(&fn);
  const ir::Type* i64 = types.I64();
  const int64_t kRows = 60000;
  const int64_t kKeys = 3;  // three hot chains, ~20k values each
  ir::Stmt* mm = b.MMapNew(i64, i64);
  b.ForRange(b.I64(0), b.I64(kRows), [&](ir::Stmt* i) {
    b.MMapAdd(mm, b.Mod(i, b.I64(kKeys)), b.Mul(i, b.I64(3)));
  });
  for (int64_t k = 0; k < kKeys; ++k) {
    ir::Stmt* vals = b.MMapGetOrNull(mm, b.I64(k));
    b.If(b.Not(b.IsNull(vals)), [&] {
      b.ListForeach(vals, [&](ir::Stmt* v) { b.EmitRow({v}); });
    });
  }

  // The build loop must qualify with the multimap reduction.
  ir::ParallelInfo info = ir::AnalyzeParallelism(fn);
  ASSERT_EQ(info.loops.size(), 1u);
  ASSERT_EQ(info.loops[0].reductions.size(), 1u);
  EXPECT_EQ(info.loops[0].reductions[0].kind, ir::ParRedKind::kMMap);

  exec::Interpreter ref(&db, Opts(InterpOptions::Engine::kBytecode, 1));
  storage::ResultTable want = ref.Run(fn);
  ASSERT_EQ(want.size(), static_cast<size_t>(kRows));
  for (InterpOptions::Engine engine : kEngines) {
    exec::AllocStats seq_stats;
    const char* name = EngineName(engine);
    for (int threads : {1, 2, 4}) {
      // Morsel size 509: ~118 morsels, so every hot chain is stitched from
      // over a hundred per-morsel fragments.
      exec::Interpreter interp(&db, Opts(engine, threads, 509));
      storage::ResultTable got = interp.Run(fn);
      std::string t = std::string("skewed ") + name + " threads=" +
                      std::to_string(threads);
      ExpectBitExact(got, want, t);
      if (threads == 1) {
        seq_stats = interp.stats();
      } else {
        ExpectStatsEqual(interp.stats(), seq_stats, t);
      }
    }
  }
}

// The slot-range merge of a direct-addressed group array: keys cover every
// slot — slot 0, slot size-1 and both sides of every part boundary for
// T in {2, 3, 4} included — and every slot is hit by rows of many morsels.
// Each group folds an integral sum (as a decimal column sums) of addends
// 1e17, -1e17 and 1 that only an exact merge keeps (in f64, 1e17 + 1.0
// rounds to 1e17), a min and a max whose candidates tie between -0.0 and
// 0.0 (only the first occurrence's sign may survive), and an integral
// count. Rows and AllocStats must match the sequential run
// bit for bit on both engines, at every thread count and morsel size.
TEST(ParallelSlotRangeMergeTest, BoundarySlotsFoldInRowOrder) {
  storage::Database db;
  ir::TypeFactory types;
  ir::Function fn("slot_ranges", &types);
  ir::Builder b(&fn);
  const ir::Type* f64 = types.F64();
  const ir::Type* agg = types.Record(
      "Agg", {{"key", types.I64()}, {"sum", types.I64()}, {"mn", f64},
              {"mx", f64}, {"cnt", types.I64()}});
  const int64_t kSlots = 1201;  // > 8 x 777: merged by slot range
  const int64_t kRows = 6000;
  ir::Stmt* arr = b.ArrNew(agg, b.I64(kSlots));
  ir::Stmt* create_store = nullptr;
  b.ForRange(b.I64(0), b.I64(kRows), [&](ir::Stmt* i) {
    ir::Stmt* key = b.Mod(b.Mul(i, b.I64(37)), b.I64(kSlots));
    // A slot's rows are i0 + t * kSlots: its t-th row adds 1e17, -1e17,
    // then 1 each.
    ir::Stmt* t = b.Div(i, b.I64(kSlots));
    ir::Stmt* is0 = b.Div(b.Sub(b.I64(4), t), b.I64(4));
    ir::Stmt* ge1 = b.Div(b.Add(t, b.I64(3)), b.I64(4));
    ir::Stmt* ge2 = b.Div(b.Add(t, b.I64(2)), b.I64(4));
    ir::Stmt* big = b.I64(100000000000000000);
    ir::Stmt* addend = b.Add(b.Mul(b.Sub(is0, b.Sub(ge1, ge2)), big), ge2);
    ir::Stmt* c = b.Mod(i, b.I64(3));
    ir::Stmt* lo_cand = b.Mul(b.Cast(b.Sub(c, b.I64(1)), f64), b.F64(0.0));
    ir::Stmt* hi_cand = b.Mul(b.Cast(b.Sub(b.I64(1), c), f64), b.F64(0.0));
    b.If(b.IsNull(b.ArrGet(arr, key)), [&] {
      ir::Stmt* rec = b.RecNew(
          agg, {key, b.I64(0), b.F64(0.0), b.F64(0.0), b.I64(0)});
      create_store = b.ArrSet(arr, key, rec);
    });
    ir::Stmt* h = b.ArrGet(arr, key);
    ir::Stmt* n0 = b.RecGet(h, 4);
    ir::Stmt* zero = b.I64(0);
    b.If(b.Or(b.Eq(n0, zero), b.Lt(lo_cand, b.RecGet(h, 2))),
         [&] { b.RecSet(h, 2, lo_cand); });
    b.If(b.Or(b.Eq(n0, zero), b.Gt(hi_cand, b.RecGet(h, 3))),
         [&] { b.RecSet(h, 3, hi_cand); });
    b.RecSet(h, 1, b.Add(b.RecGet(h, 1), addend));
    b.RecSet(h, 4, b.Add(n0, b.I64(1)));
  });
  b.ForRange(b.I64(0), b.I64(kSlots), [&](ir::Stmt* g) {
    ir::Stmt* h = b.ArrGet(arr, g);
    b.If(b.Not(b.IsNull(h)), [&] {
      b.EmitRow({b.RecGet(h, 0), b.RecGet(h, 1), b.RecGet(h, 2),
                 b.RecGet(h, 3), b.RecGet(h, 4)});
    });
  });

  // The aggregation loop qualifies with one group array whose min/max and
  // sums are recognized, and its create store logs the touched slot.
  ir::ParallelInfo info = ir::AnalyzeParallelism(fn);
  ASSERT_FALSE(info.loops.empty());
  const ir::ParLoop& pl = info.loops[0];
  ASSERT_EQ(pl.reductions.size(), 1u);
  const ir::ParReduction& red = pl.reductions[0];
  ASSERT_EQ(red.kind, ir::ParRedKind::kGroupArray);
  EXPECT_EQ(red.fields[1], ir::ParFold::kSumI);
  EXPECT_EQ(red.fields[2], ir::ParFold::kMin);
  EXPECT_EQ(red.fields[3], ir::ParFold::kMax);
  EXPECT_EQ(red.fields[4], ir::ParFold::kSumI);
  ASSERT_NE(create_store, nullptr);
  EXPECT_EQ(pl.touch[create_store->id], 0);

  exec::Interpreter ref(&db, Opts(InterpOptions::Engine::kBytecode, 1));
  storage::ResultTable want = ref.Run(fn);
  ASSERT_EQ(want.size(), static_cast<size_t>(kSlots));
  exec::AllocStats want_stats = ref.stats();
  for (InterpOptions::Engine engine : kEngines) {
    for (int threads : {1, 2, 3, 4}) {
      for (int64_t morsel : {1, 7, 777}) {
        exec::Interpreter interp(&db, Opts(engine, threads, morsel));
        storage::ResultTable got = interp.Run(fn);
        std::string t = std::string(EngineName(engine)) +
                        " threads=" + std::to_string(threads) +
                        " morsel=" + std::to_string(morsel);
        ExpectBitExact(got, want, t);
        ExpectStatsEqual(interp.stats(), want_stats, t);
      }
    }
  }
}

// The hash-part merge of hash maps and multimaps. A map aggregation mixes
// hot keys hit by every morsel, keys hit a few times and single-row keys.
// Each group folds an integral sum (a hot key's rows add 1e17, -1e17, then
// 1 each, which only an exact merge keeps), a min and a max whose
// candidates tie between -0.0 and 0.0, and an integral count. A second parallel loop aggregates into the same, already filled
// map, half into keys the first loop made. A multimap gets two or three
// values for each of 2,500 keys from rows far apart. The map is emitted in
// iteration order, which shows its entries() order, and the multimap key by
// key. Rows and AllocStats must match the sequential run bit for bit on
// both engines, at every thread count and morsel size.
TEST(ParallelMapMergeTest, KeysMergeByHashPartInRowOrder) {
  storage::Database db;
  ir::TypeFactory types;
  ir::Function fn("hash_parts", &types);
  ir::Builder b(&fn);
  const ir::Type* i64 = types.I64();
  const ir::Type* f64 = types.F64();
  const ir::Type* agg = types.Record(
      "Agg", {{"key", i64}, {"sum", i64}, {"mn", f64}, {"mx", f64},
              {"cnt", i64}});
  const int64_t kRows = 6000;
  const int64_t kMMapKeys = 2500;
  ir::Stmt* map = b.MapNew(i64, agg);
  ir::Stmt* mm = b.MMapNew(i64, i64);
  // One row's fold into the group of `key`: integral sum, guarded min/max
  // over -0.0/0.0 candidates (c in {0, 1, 2}) and count.
  auto fold = [&](ir::Stmt* key, ir::Stmt* addend, ir::Stmt* c) {
    ir::Stmt* h = b.MapGetOrElseUpdate(map, key, [&] {
      return b.RecNew(agg, {key, b.I64(0), b.F64(0.0), b.F64(0.0),
                            b.I64(0)});
    });
    ir::Stmt* lo_cand = b.Mul(b.Cast(b.Sub(c, b.I64(1)), f64), b.F64(0.0));
    ir::Stmt* hi_cand = b.Mul(b.Cast(b.Sub(b.I64(1), c), f64), b.F64(0.0));
    ir::Stmt* n0 = b.RecGet(h, 4);
    ir::Stmt* zero = b.I64(0);
    b.If(b.Or(b.Eq(n0, zero), b.Lt(lo_cand, b.RecGet(h, 2))),
         [&] { b.RecSet(h, 2, lo_cand); });
    b.If(b.Or(b.Eq(n0, zero), b.Gt(hi_cand, b.RecGet(h, 3))),
         [&] { b.RecSet(h, 3, hi_cand); });
    b.RecSet(h, 1, b.Add(b.RecGet(h, 1), addend));
    b.RecSet(h, 4, b.Add(n0, b.I64(1)));
  };
  b.ForRange(b.I64(0), b.I64(kRows), [&](ir::Stmt* i) {
    // r == 0: hot key i % 3; r == 1: key 10 + i % 997, hit once or twice;
    // r >= 2: single-row key 2000 + i.
    ir::Stmt* r = b.Mod(i, b.I64(4));
    ir::Stmt* one = b.I64(1);
    ir::Stmt* hot = b.Sub(one, b.Div(b.Add(r, b.I64(3)), b.I64(4)));
    ir::Stmt* single = b.Div(b.Add(r, b.I64(2)), b.I64(4));
    ir::Stmt* med = b.Sub(b.Sub(one, hot), single);
    ir::Stmt* key = b.Add(
        b.Add(b.Mul(hot, b.Mod(i, b.I64(3))),
              b.Mul(med, b.Add(b.I64(10), b.Mod(i, b.I64(997))))),
        b.Mul(single, b.Add(b.I64(2000), i)));
    // A hot key's t-th row adds 1e17, -1e17, then 1 (t = i / 12 < 1000);
    // every other row adds 1e17.
    ir::Stmt* t = b.Mul(hot, b.Div(i, b.I64(12)));
    ir::Stmt* ge1 = b.Div(b.Add(t, b.I64(999)), b.I64(1000));
    ir::Stmt* ge2 = b.Div(b.Add(t, b.I64(998)), b.I64(1000));
    ir::Stmt* big = b.I64(100000000000000000);
    ir::Stmt* addend =
        b.Add(b.Mul(b.Sub(b.Sub(one, ge1), b.Sub(ge1, ge2)), big), ge2);
    fold(key, addend, b.Mod(i, b.I64(3)));
  });
  b.ForRange(b.I64(0), b.I64(kRows / 2), [&](ir::Stmt* j) {
    // Even rows: keys 0..49 (the hot keys, medium keys and keys 3..9,
    // which the first loop never made); odd rows: new single-row keys.
    ir::Stmt* odd = b.Mod(j, b.I64(2));
    ir::Stmt* key =
        b.Add(b.Mul(b.Sub(b.I64(1), odd), b.Mod(b.Div(j, b.I64(2)), b.I64(50))),
              b.Mul(odd, b.Add(b.I64(100000), j)));
    ir::Stmt* addend = b.Sub(b.Mod(j, b.I64(7)), b.I64(3));
    fold(key, addend, b.Mod(j, b.I64(3)));
  });
  b.ForRange(b.I64(0), b.I64(kRows), [&](ir::Stmt* i) {
    b.MMapAdd(mm, b.Mod(b.Mul(i, b.I64(7)), b.I64(kMMapKeys)),
              b.Mul(i, b.I64(3)));
  });
  b.MapForeach(map, [&](ir::Stmt* k, ir::Stmt* v) {
    b.EmitRow({k, b.RecGet(v, 1), b.RecGet(v, 2), b.RecGet(v, 3),
               b.RecGet(v, 4)});
  });
  b.ForRange(b.I64(0), b.I64(kMMapKeys), [&](ir::Stmt* k) {
    ir::Stmt* vals = b.MMapGetOrNull(mm, k);
    b.If(b.Not(b.IsNull(vals)), [&] {
      b.ListForeach(vals, [&](ir::Stmt* v) {
        b.EmitRow({k, v, b.F64(0.0), b.F64(0.0), v});
      });
    });
  });

  // Both aggregation loops qualify with the map reduction; the build loop
  // with the multimap.
  ir::ParallelInfo info = ir::AnalyzeParallelism(fn);
  ASSERT_GE(info.loops.size(), 3u);
  for (int l = 0; l < 2; ++l) {
    const ir::ParLoop& pl = info.loops[l];
    ASSERT_EQ(pl.reductions.size(), 1u) << "loop " << l;
    const ir::ParReduction& red = pl.reductions[0];
    ASSERT_EQ(red.kind, ir::ParRedKind::kMap) << "loop " << l;
    EXPECT_EQ(red.fields[1], ir::ParFold::kSumI);
    EXPECT_EQ(red.fields[2], ir::ParFold::kMin);
    EXPECT_EQ(red.fields[3], ir::ParFold::kMax);
    EXPECT_EQ(red.fields[4], ir::ParFold::kSumI);
  }
  ASSERT_EQ(info.loops[2].reductions.size(), 1u);
  EXPECT_EQ(info.loops[2].reductions[0].kind, ir::ParRedKind::kMMap);

  exec::Interpreter ref(&db, Opts(InterpOptions::Engine::kBytecode, 1));
  storage::ResultTable want = ref.Run(fn);
  // Every map group and every multimap value is a row.
  ASSERT_EQ(want.size(), static_cast<size_t>(3 + 997 + 3000 + 7 + 1500 +
                                             kRows));
  exec::AllocStats want_stats = ref.stats();
  for (InterpOptions::Engine engine : kEngines) {
    for (int threads : {1, 2, 3, 4}) {
      for (int64_t morsel : {1, 7, 777}) {
        exec::Interpreter interp(&db, Opts(engine, threads, morsel));
        storage::ResultTable got = interp.Run(fn);
        std::string tag = std::string(EngineName(engine)) +
                          " threads=" + std::to_string(threads) +
                          " morsel=" + std::to_string(morsel);
        ExpectBitExact(got, want, tag);
        ExpectStatsEqual(interp.stats(), want_stats, tag);
      }
    }
  }
}

// Q13's outer-join count writes its group array from two create sites:
// in the order loop, and after it when no order matched. Both join one
// group-array reduction, so the customer loop qualifies, with both create
// stores logging touched slots. The runtime cuts its 1,500 rows at SF 0.01
// into morsels of at most max(512, rows / (2 x threads)) rows: results and
// AllocStats must be bit-exact at every level, engine, thread count and
// morsel size.
TEST(ParallelOuterJoinTest, Q13CustomerLoopQualifiesAndStaysBitExact) {
  storage::Database db = tpch::MakeTpchDatabase(0.01);
  qplan::PlanPtr plan = tpch::MakeQuery(13);
  qplan::ResolvePlan(plan.get(), db);
  {
    ir::TypeFactory types;
    QueryCompiler qc(&db, &types);
    compiler::CompileResult res =
        qc.Compile(*plan, StackConfig::Level(5), "q13");
    ir::ParallelInfo info = ir::AnalyzeParallelism(*res.fn);
    EXPECT_TRUE(info.rejected.empty()) << ir::FormatRejections(info);
    const ir::ParLoop* customers = nullptr;
    for (const ir::ParLoop& pl : info.loops) {
      for (const ir::ParReduction& r : pl.reductions) {
        if (r.kind == ir::ParRedKind::kGroupArray) customers = &pl;
      }
    }
    ASSERT_NE(customers, nullptr) << "Q13 L5 customer loop must qualify";
    ASSERT_EQ(customers->reductions.size(), 1u);
    int touch = 0;
    for (int red : customers->touch) {
      if (red < 0) continue;
      ++touch;
      EXPECT_EQ(red, 0);
    }
    EXPECT_EQ(touch, 2) << "one kTouch store per create site";
  }
  for (int level = 2; level <= 5; ++level) {
    ir::TypeFactory types;
    QueryCompiler qc(&db, &types);
    compiler::CompileResult res =
        qc.Compile(*plan, StackConfig::Level(level), "q13");
    exec::Interpreter ref(&db, Opts(InterpOptions::Engine::kBytecode, 1));
    storage::ResultTable want = ref.Run(*res.fn);
    exec::AllocStats want_stats = ref.stats();
    for (InterpOptions::Engine engine : kEngines) {
      for (int threads : {1, 2, 4}) {
        for (int64_t morsel : {97, 2048}) {
          exec::Interpreter interp(&db, Opts(engine, threads, morsel));
          storage::ResultTable got = interp.Run(*res.fn);
          std::string t = "Q13 L" + std::to_string(level) + " " +
                          EngineName(engine) + " threads=" +
                          std::to_string(threads) +
                          " morsel=" + std::to_string(morsel);
          ExpectBitExact(got, want, t);
          ExpectStatsEqual(interp.stats(), want_stats, t);
        }
      }
    }
  }
}

// Hand-built Q13 shapes pin which second create sites may join a group
// array. The base shape (the same record at a structurally equal slot,
// integral sums from both sites) qualifies. Every other variant must leave
// the loop sequential, rejected where the listing says; an f64 sum at
// either site rejects by name. All run bit-exact at four threads. The last
// two read an integral sum's running value per row, which a morsel sees as
// its partial sum.
TEST(ParallelOuterJoinTest, SecondCreateSiteRejections) {
  enum class Variant { kBase, kOtherInit, kOtherSlot, kF64BothSites,
                       kF64EachSite, kF64SecondSiteOnly, kMinMax,
                       kRunningField, kRunningVar };
  struct Case {
    Variant v;
    const char* name;
    const char* rule;  // expected rejection rule, null = qualifies
    const char* op;    // rule "visit": the op of the rejected statement
  };
  const Case kCases[] = {
      {Variant::kBase, "base", nullptr, nullptr},
      {Variant::kOtherInit, "other init arguments", "visit", "arr_set"},
      {Variant::kOtherSlot, "other slot index", "visit", "arr_set"},
      {Variant::kF64BothSites, "f64 sum from both sites", "f64-sum",
       "rec_set"},
      {Variant::kF64EachSite, "an f64 sum at each site", "f64-sum",
       "rec_set"},
      {Variant::kF64SecondSiteOnly, "an f64 sum at the second site only",
       "f64-sum", "rec_set"},
      {Variant::kMinMax, "min from one of two sites", "guards", nullptr},
      {Variant::kRunningField, "a running group count read", "reads",
       nullptr},
      {Variant::kRunningVar, "a running scalar count read", "reads",
       nullptr},
  };
  const int64_t kRows = 6000;
  const int64_t kKeys = 300;
  for (const Case& c : kCases) {
    storage::Database db;
    ir::TypeFactory types;
    ir::Function fn("outer_count", &types);
    ir::Builder b(&fn);
    const ir::Type* i64 = types.I64();
    const ir::Type* f64 = types.F64();
    const ir::Type* agg = types.Record(
        "Agg", {{"key", i64}, {"cnt", i64}, {"n", i64}, {"fa", f64},
                {"fb", f64}, {"mn", i64}});
    ir::Stmt* zero = b.I64(0);
    ir::Stmt* fzero = b.F64(0.0);
    ir::Stmt* arr = b.ArrNew(agg, b.I64(kKeys));
    ir::Stmt* seen = b.VarNew(b.I64(0));
    ir::Stmt* loop = b.ForRange(b.I64(0), b.I64(kRows), [&](ir::Stmt* i) {
      ir::Stmt* key = b.Add(b.Mod(b.Mul(i, b.I64(7)), b.I64(kKeys)),
                            b.I64(1));
      ir::Stmt* matched = b.VarNew(b.BoolC(false));
      auto create = [&](ir::Stmt* slot, ir::Stmt* key_init) {
        b.If(b.IsNull(b.ArrGet(arr, slot)), [&] {
          b.ArrSet(arr, slot,
                   b.RecNew(agg, {key_init, zero, zero, fzero, fzero, zero}));
        });
        return b.ArrGet(arr, slot);
      };
      // Rows i with i % 3 == 0 have no inner rows: only the second site.
      b.ForRange(b.I64(0), b.Mod(i, b.I64(3)), [&](ir::Stmt* j) {
        b.VarAssign(matched, b.BoolC(true));
        ir::Stmt* h = create(b.Sub(key, b.I64(1)), key);
        ir::Stmt* n0 = b.RecGet(h, 2);
        if (c.v == Variant::kMinMax) {
          ir::Stmt* w = b.Mod(b.Add(i, j), b.I64(11));
          b.If(b.Or(b.Eq(n0, b.I64(0)), b.Lt(w, b.RecGet(h, 5))),
               [&] { b.RecSet(h, 5, w); });
        }
        b.RecSet(h, 1, b.Add(b.RecGet(h, 1), b.I64(1)));
        if (c.v == Variant::kF64BothSites || c.v == Variant::kF64EachSite) {
          b.RecSet(h, 3, b.Add(b.RecGet(h, 3), b.F64(0.5)));
        }
        b.RecSet(h, 2, b.Add(n0, b.I64(1)));
      });
      b.If(b.Not(b.VarRead(matched)), [&] {
        ir::Stmt* slot = c.v == Variant::kOtherSlot
                             ? b.Mod(key, b.I64(kKeys))
                             : b.Sub(key, b.I64(1));
        ir::Stmt* h = create(slot, c.v == Variant::kOtherInit ? i : key);
        if (c.v == Variant::kF64BothSites) {
          b.RecSet(h, 3, b.Add(b.RecGet(h, 3), b.F64(0.25)));
        }
        if (c.v == Variant::kF64EachSite) {
          b.RecSet(h, 4, b.Add(b.RecGet(h, 4), b.F64(0.25)));
        }
        if (c.v == Variant::kF64SecondSiteOnly) {
          b.RecSet(h, 4, b.Add(b.RecGet(h, 4),
                               b.Mul(b.Cast(i, f64), b.F64(0.1))));
        }
        ir::Stmt* n = b.RecGet(h, 2);
        b.RecSet(h, 2, b.Add(n, b.I64(1)));
        if (c.v == Variant::kRunningField) {
          b.If(b.Eq(n, b.I64(5)),
               [&] { b.EmitRow({key, i, n, fzero, fzero, zero}); });
        }
        if (c.v == Variant::kRunningVar) {
          ir::Stmt* s0 = b.VarRead(seen);
          b.VarAssign(seen, b.Add(s0, b.I64(1)));
          b.If(b.Eq(s0, b.I64(50)),
               [&] { b.EmitRow({key, i, s0, fzero, fzero, zero}); });
        }
      });
    });
    b.ForRange(b.I64(0), b.I64(kKeys), [&](ir::Stmt* g) {
      ir::Stmt* h = b.ArrGet(arr, g);
      b.If(b.Not(b.IsNull(h)), [&] {
        b.EmitRow({b.RecGet(h, 0), b.RecGet(h, 1), b.RecGet(h, 2),
                   b.RecGet(h, 3), b.RecGet(h, 4), b.RecGet(h, 5)});
      });
    });

    ir::ParallelInfo info = ir::AnalyzeParallelism(fn);
    const ir::ParLoop* pl = info.Find(loop);
    if (c.rule == nullptr) {
      ASSERT_NE(pl, nullptr) << c.name << ": " << ir::FormatRejections(info);
      ASSERT_EQ(pl->reductions.size(), 1u) << c.name;
      EXPECT_EQ(pl->reductions[0].fields[1], ir::ParFold::kSumI) << c.name;
      EXPECT_EQ(pl->reductions[0].fields[2], ir::ParFold::kSumI) << c.name;
    } else {
      EXPECT_EQ(pl, nullptr) << c.name;
      ASSERT_FALSE(info.rejected.empty()) << c.name;
      const ir::ParReject& why = info.rejected[0];
      EXPECT_EQ(why.loop, loop) << c.name;
      EXPECT_STREQ(why.rule, c.rule) << c.name;
      if (c.op != nullptr) {
        ASSERT_NE(why.at, nullptr) << c.name;
        EXPECT_STREQ(ir::OpName(why.at->op), c.op) << c.name;
      }
    }

    exec::Interpreter ref(&db, Opts(InterpOptions::Engine::kBytecode, 1));
    storage::ResultTable want = ref.Run(fn);
    for (InterpOptions::Engine engine : kEngines) {
      exec::Interpreter interp(&db, Opts(engine, 4, 500));
      storage::ResultTable got = interp.Run(fn);
      const std::string t = std::string(c.name) + " " + EngineName(engine);
      ExpectBitExact(got, want, t);
      ExpectStatsEqual(interp.stats(), ref.stats(), t);
    }
  }
}

// Two 4-thread runs must produce identical bytes (scheduling independence).
TEST(ParallelDeterminismTest, FourThreadRunsIdentical) {
  storage::Database db = tpch::MakeTpchDatabase(0.01);
  for (int q : {1, 6, 3}) {
    qplan::PlanPtr plan = tpch::MakeQuery(q);
    qplan::ResolvePlan(plan.get(), db);
    ir::TypeFactory types;
    QueryCompiler qc(&db, &types);
    compiler::CompileResult res =
        qc.Compile(*plan, StackConfig::Level(5), "q" + std::to_string(q));
    exec::Interpreter a(&db, Opts(InterpOptions::Engine::kBytecode, 4, 1024));
    exec::Interpreter b(&db, Opts(InterpOptions::Engine::kBytecode, 4, 1024));
    storage::ResultTable ra = a.Run(*res.fn);
    storage::ResultTable rb = b.Run(*res.fn);
    ExpectBitExact(ra, rb, "determinism Q" + std::to_string(q));
    ExpectStatsEqual(a.stats(), b.stats(),
                     "determinism Q" + std::to_string(q));
  }
}

// Compile once, run anywhere: one Program, run by two threads at once,
// each driving its own Interpreter, at threads 1 and 4 on both engines.
// Every run must match the single-owner run of the same Program bit for
// bit, with equal AllocStats: all run state lives in each run's own
// RunState and register file, never in the shared JIT image. Q22 builds
// containers and interns substrings; Q3 ends in an ORDER BY sort.
TEST(SharedProgramTest, ConcurrentRunsMatchSingleOwnerRun) {
  storage::Database db = tpch::MakeTpchDatabase(0.01);
  for (int q : {22, 3}) {
    qplan::PlanPtr plan = tpch::MakeQuery(q);
    qplan::ResolvePlan(plan.get(), db);
    ir::TypeFactory types;
    QueryCompiler qc(&db, &types);
    compiler::CompileResult res =
        qc.Compile(*plan, StackConfig::Level(5), "q" + std::to_string(q));
    exec::Interpreter ref(&db);
    const storage::ResultTable want = ref.Run(*res.fn);
    std::string err;
    std::unique_ptr<const exec::Program> prog =
        exec::Program::Build(&db, *res.fn, &err);
    ASSERT_NE(prog, nullptr) << err;
    for (InterpOptions::Engine engine : kEngines) {
      for (int threads : {1, 4}) {
        const InterpOptions o = Opts(engine, threads);
        const std::string tag = "Q" + std::to_string(q) + " " +
                                EngineName(engine) + " threads=" +
                                std::to_string(threads);
        exec::Interpreter owner(&db);
        ExpectBitExact(owner.Run(*prog, o), want, tag + " single owner");
        struct Out {
          storage::ResultTable rows;
          exec::AllocStats stats;
        } out[2];
        std::thread runners[2];
        for (int i = 0; i < 2; ++i) {
          runners[i] = std::thread([&, i] {
            exec::Interpreter interp(&db);
            out[i].rows = interp.Run(*prog, o);
            out[i].stats = interp.stats();
          });
        }
        for (std::thread& t : runners) t.join();
        for (int i = 0; i < 2; ++i) {
          const std::string t = tag + " runner " + std::to_string(i);
          ExpectBitExact(out[i].rows, want, t);
          ExpectStatsEqual(out[i].stats, owner.stats(), t);
        }
      }
    }
  }
}

// Guard against the whole suite passing vacuously: the analysis must
// actually find parallelizable loops (with the expected reduction shapes)
// in the flagship queries, at both stack levels.
TEST(ParallelAnalysisTest, FlagshipLoopsQualify) {
  storage::Database db = tpch::MakeTpchDatabase(0.002);

  auto analyze = [&](int q, int level) {
    qplan::PlanPtr plan = tpch::MakeQuery(q);
    qplan::ResolvePlan(plan.get(), db);
    ir::TypeFactory types;
    if (level == 3) {
      auto fn = lower::LowerPlanPipelined(*plan, db, &types, "q");
      return ir::AnalyzeParallelism(*fn);
    }
    QueryCompiler qc(&db, &types);
    compiler::CompileResult res =
        qc.Compile(*plan, StackConfig::Level(level), "q");
    return ir::AnalyzeParallelism(*res.fn);
  };

  // Q6: global decimal sum — one loop, one integral kVarSumI reduction.
  {
    ir::ParallelInfo info = analyze(6, 5);
    ASSERT_EQ(info.loops.size(), 1u) << "Q6 L5 scan loop must qualify";
    const ir::ParLoop& pl = info.loops[0];
    ASSERT_EQ(pl.reductions.size(), 1u);
    EXPECT_EQ(pl.reductions[0].kind, ir::ParRedKind::kVarSumI);
  }
  // Q1 L5: direct-addressed group array with decimal-sum fields + count.
  {
    ir::ParallelInfo info = analyze(1, 5);
    bool found = false;
    for (const ir::ParLoop& pl : info.loops) {
      for (const ir::ParReduction& r : pl.reductions) {
        if (r.kind == ir::ParRedKind::kGroupArray) {
          found = true;
          int sum_i = 0;
          for (ir::ParFold f : r.fields) sum_i += f == ir::ParFold::kSumI;
          EXPECT_EQ(sum_i, 8) << "Q1's 7 decimal sums and the shared count";
        }
      }
    }
    EXPECT_TRUE(found) << "Q1 L5 aggregation scan must qualify";
  }
  // Q1 L3: generic hash-map grouping.
  {
    ir::ParallelInfo info = analyze(1, 3);
    bool found = false;
    for (const ir::ParLoop& pl : info.loops) {
      for (const ir::ParReduction& r : pl.reductions) {
        found |= r.kind == ir::ParRedKind::kMap;
      }
    }
    EXPECT_TRUE(found) << "Q1 L3 map aggregation must qualify";
  }
  // Q3 L5: intrusive bucket-array build + probe loop with map grouping.
  {
    ir::ParallelInfo info = analyze(3, 5);
    bool bucket = false, map = false;
    for (const ir::ParLoop& pl : info.loops) {
      for (const ir::ParReduction& r : pl.reductions) {
        bucket |= r.kind == ir::ParRedKind::kBucketArray;
        map |= r.kind == ir::ParRedKind::kMap;
      }
    }
    EXPECT_TRUE(bucket) << "Q3 L5 build loop must qualify";
    EXPECT_TRUE(map) << "Q3 L5 probe loop must qualify";
  }
  // Q3 L3: generic multimap build.
  {
    ir::ParallelInfo info = analyze(3, 3);
    bool mmap = false;
    for (const ir::ParLoop& pl : info.loops) {
      for (const ir::ParReduction& r : pl.reductions) {
        mmap |= r.kind == ir::ParRedKind::kMMap;
      }
    }
    EXPECT_TRUE(mmap) << "Q3 L3 multimap build must qualify";
  }
  // Q2 has a grouped min aggregate.
  {
    ir::ParallelInfo info = analyze(2, 5);
    bool min = false;
    for (const ir::ParLoop& pl : info.loops) {
      for (const ir::ParReduction& r : pl.reductions) {
        for (ir::ParFold f : r.fields) min |= f == ir::ParFold::kMin;
      }
    }
    EXPECT_TRUE(min) << "Q2 L5 min aggregation must qualify";
  }
}

// An f64 accumulate inside `b`: var = var + w or rec[f] = rec[f] + w in
// f64. Appends "<tag> x<id>" per hit to `out`.
void FindF64Sums(const ir::Block* b, const std::string& tag,
                 std::string* out) {
  for (const ir::Stmt* s : b->stmts) {
    bool store = s->op == ir::Op::kVarAssign || s->op == ir::Op::kRecSet;
    const ir::Stmt* val = store ? s->args[1] : nullptr;
    if (val != nullptr && val->op == ir::Op::kAdd &&
        val->type->kind == ir::TypeKind::kF64) {
      for (const ir::Stmt* a : val->args) {
        bool reread =
            s->op == ir::Op::kVarAssign
                ? a->op == ir::Op::kVarRead && a->args[0] == s->args[0]
                : a->op == ir::Op::kRecGet && a->args[0] == s->args[0] &&
                      a->aux0 == s->aux0;
        if (reread) *out += tag + " x" + std::to_string(s->id) + "\n";
      }
    }
    for (const ir::Block* nb : s->blocks) FindF64Sums(nb, tag, out);
  }
}

// The census behind the determinism contract: with every TPC-H money,
// rate and quantity column a decimal, no top-level loop of any query at
// any stack level sums into an f64 variable or record field, so none is
// rejected for one ("f64-sum") and every sum merges as a partial sum.
TEST(ParallelAnalysisTest, NoTpchLoopHasAnF64Sum) {
  storage::Database db = tpch::MakeTpchDatabase(0.002, 7);
  std::string found;
  for (int q = 1; q <= tpch::kNumQueries; ++q) {
    qplan::PlanPtr plan = tpch::MakeQuery(q);
    qplan::ResolvePlan(plan.get(), db);
    for (int level = 2; level <= 5; ++level) {
      ir::TypeFactory types;
      QueryCompiler qc(&db, &types);
      compiler::CompileResult res =
          qc.Compile(*plan, StackConfig::Level(level), "q");
      const std::string tag =
          "Q" + std::to_string(q) + " L" + std::to_string(level);
      for (const ir::Stmt* s : res.fn->body()->stmts) {
        if (s->op == ir::Op::kForRange) FindF64Sums(s->blocks[0], tag, &found);
      }
      for (const ir::ParReject& r :
           ir::AnalyzeParallelism(*res.fn).rejected) {
        if (std::string(r.rule) == "f64-sum") {
          found += tag + " rejected x" + std::to_string(r.loop->id) + "\n";
        }
      }
    }
  }
  EXPECT_EQ(found, "");
}

// The "why not parallel" listing of all 22 queries at level 5, on
// qc_verify's database (SF 0.002, seed 7): every top-level loop left
// sequential, with the statement or post-pass that rejected it. All are
// flag loops, which store `true` into an Array[bool] that no reduction
// shape covers; Q13's outer-join count (two create sites) is not among
// them. A change to this listing is a change to what runs in parallel.
TEST(ParallelAnalysisTest, WhyNotParallelListing) {
  storage::Database db = tpch::MakeTpchDatabase(0.002, 7);
  std::string listing;
  for (int q = 1; q <= tpch::kNumQueries; ++q) {
    qplan::PlanPtr plan = tpch::MakeQuery(q);
    qplan::ResolvePlan(plan.get(), db);
    ir::TypeFactory types;
    QueryCompiler qc(&db, &types);
    compiler::CompileResult res =
        qc.Compile(*plan, StackConfig::Level(5), "q" + std::to_string(q));
    listing += ir::FormatRejections(ir::AnalyzeParallelism(*res.fn),
                                    "Q" + std::to_string(q) + " ");
  }
  EXPECT_EQ(listing,
            "Q2 x20 visit at x27 arr_set\n"
            "Q2 x140 visit at x147 arr_set\n"
            "Q5 x18 visit at x25 arr_set\n"
            "Q8 x35 visit at x42 arr_set\n"
            "Q8 x94 visit at x101 arr_set\n"
            "Q9 x9 visit at x16 arr_set\n"
            "Q16 x12 visit at x52 arr_set\n"
            "Q17 x48 visit at x59 arr_set\n"
            "Q20 x62 visit at x72 arr_set\n");
}

}  // namespace
}  // namespace qc
