// Morsel-driven parallel execution (exec/parallel.h): results must be
// BITWISE identical to the sequential engines — same row order, same f64
// bit patterns, same string contents — for every TPC-H query, at every
// tested thread count and morsel size, on both engines (bytecode VM and
// JIT). The f64-addend replay makes this exact (not approximate) even for
// floating-point sums, so these tests compare bit patterns, not canonical
// text.
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
#include "ir/parallel.h"
#include "lower/pipeline.h"
#include "scoped_env.h"
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
// f64 sum), exactly as lower/pipeline.cc lowers them: the scalar-reduction
// merges must fold the morsel accumulators correctly. Guards against the
// scalar paths regressing while the TPC-H suite happens not to exercise
// them (its scalar folds are shadowed by grouped shapes).
TEST(ParallelScalarReductionTest, SumCountMinMaxMatchSequential) {
  storage::Database db;
  ir::TypeFactory types;
  ir::Function fn("scalar_aggs", &types);
  ir::Builder b(&fn);
  ir::Stmt* sum = b.VarNew(b.I64(0));
  ir::Stmt* fsum = b.VarNew(b.F64(0.0));
  ir::Stmt* cnt = b.VarNew(b.I64(0));
  ir::Stmt* mn = b.VarNew(b.I64(0));
  ir::Stmt* mx = b.VarNew(b.I64(0));
  const int64_t kRows = 100000;
  b.ForRange(b.I64(0), b.I64(kRows), [&](ir::Stmt* i) {
    b.If(b.Eq(b.Mod(i, b.I64(7)), b.I64(3)), [&] {
      ir::Stmt* n0 = b.VarRead(cnt);
      ir::Stmt* v = b.Mul(b.Sub(b.I64(50000), i), b.I64(3));
      b.VarAssign(sum, b.Add(b.VarRead(sum), v));
      b.VarAssign(fsum, b.Add(b.VarRead(fsum), b.Cast(v, types.F64())));
      b.If(b.Or(b.Eq(n0, b.I64(0)), b.Lt(v, b.VarRead(mn))),
           [&] { b.VarAssign(mn, v); });
      b.If(b.Or(b.Eq(n0, b.I64(0)), b.Gt(v, b.VarRead(mx))),
           [&] { b.VarAssign(mx, v); });
      b.VarAssign(cnt, b.Add(n0, b.I64(1)));
    });
  });
  b.EmitRow({b.VarRead(sum), b.VarRead(fsum), b.VarRead(cnt), b.VarRead(mn),
             b.VarRead(mx)});

  // The loop must actually qualify, with all five scalar reductions.
  ir::ParallelInfo info = ir::AnalyzeParallelism(fn);
  ASSERT_EQ(info.loops.size(), 1u);
  ASSERT_EQ(info.loops[0].reductions.size(), 5u);

  int64_t want_sum = 0, want_cnt = 0, want_mn = 0, want_mx = 0;
  double want_fsum = 0.0;
  for (int64_t i = 0; i < kRows; ++i) {
    if (i % 7 != 3) continue;
    int64_t v = (50000 - i) * 3;
    want_sum += v;
    want_fsum += static_cast<double>(v);
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
      EXPECT_EQ(r.row(0)[1].d, want_fsum) << "fsum, " << t;
      EXPECT_EQ(r.row(0)[2].i, want_cnt) << "count, " << t;
      EXPECT_EQ(r.row(0)[3].i, want_mn) << "min, " << t;
      EXPECT_EQ(r.row(0)[4].i, want_mx) << "max, " << t;
    }
  }
}

// Skewed-key multimap build: a handful of hot keys whose value chains span
// every morsel. Locks the ordered merge's per-key bulk append (one probe
// per key per morsel, RtMultiMap::AddAll) — the values must recombine in
// exact sequential row order, with AllocStats to the byte, at every thread
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
// Each group folds an f64 sum whose value depends on the order of its
// addends (1e17 + 1.0 rounds to 1e17), a min and a max whose candidates
// tie between -0.0 and 0.0 (only the first occurrence's sign may survive),
// and an integral count. Rows and AllocStats must match the sequential run
// bit for bit on both engines, at every thread count and morsel size.
TEST(ParallelSlotRangeMergeTest, BoundarySlotsFoldInRowOrder) {
  storage::Database db;
  ir::TypeFactory types;
  ir::Function fn("slot_ranges", &types);
  ir::Builder b(&fn);
  const ir::Type* f64 = types.F64();
  const ir::Type* agg = types.Record(
      "Agg", {{"key", types.I64()}, {"sum", f64}, {"mn", f64}, {"mx", f64},
              {"cnt", types.I64()}});
  const int64_t kSlots = 1201;  // > 8 x 777: merged by slot range
  const int64_t kRows = 6000;
  ir::Stmt* arr = b.ArrNew(agg, b.I64(kSlots));
  ir::Stmt* create_store = nullptr;
  b.ForRange(b.I64(0), b.I64(kRows), [&](ir::Stmt* i) {
    ir::Stmt* key = b.Mod(b.Mul(i, b.I64(37)), b.I64(kSlots));
    // A slot's rows are i0 + t * kSlots: its t-th row adds 1e17, -1e17,
    // then 1.0 each. In row order the 1.0s land after the cancellation
    // and survive; in any other order some fall below 1e17's spacing.
    ir::Stmt* t = b.Div(i, b.I64(kSlots));
    ir::Stmt* is0 = b.Div(b.Sub(b.I64(4), t), b.I64(4));
    ir::Stmt* ge1 = b.Div(b.Add(t, b.I64(3)), b.I64(4));
    ir::Stmt* ge2 = b.Div(b.Add(t, b.I64(2)), b.I64(4));
    ir::Stmt* big = b.I64(100000000000000000);
    ir::Stmt* addend = b.Cast(
        b.Add(b.Mul(b.Sub(is0, b.Sub(ge1, ge2)), big), ge2), f64);
    ir::Stmt* c = b.Mod(i, b.I64(3));
    ir::Stmt* lo_cand = b.Mul(b.Cast(b.Sub(c, b.I64(1)), f64), b.F64(0.0));
    ir::Stmt* hi_cand = b.Mul(b.Cast(b.Sub(b.I64(1), c), f64), b.F64(0.0));
    b.If(b.IsNull(b.ArrGet(arr, key)), [&] {
      ir::Stmt* rec = b.RecNew(
          agg, {key, b.F64(0.0), b.F64(0.0), b.F64(0.0), b.I64(0)});
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
  EXPECT_EQ(red.fields[1], ir::ParFold::kSumF);
  EXPECT_EQ(red.fields[2], ir::ParFold::kMin);
  EXPECT_EQ(red.fields[3], ir::ParFold::kMax);
  EXPECT_EQ(red.fields[4], ir::ParFold::kSumI);
  ASSERT_NE(create_store, nullptr);
  EXPECT_EQ(pl.actions[create_store->id], ir::ParAction::kTouch);
  EXPECT_EQ(pl.action_channel[create_store->id], 0);

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

// Compile once, run anywhere: one Program, built parallel, run by two
// threads at once, each driving its own Interpreter, at threads 1 and 4 on
// both engines. Every run must match the single-owner run of the same
// Program bit for bit, with equal AllocStats: all run state lives in each
// run's own RunState and register file, never in the shared JIT image.
// Q22 builds containers and interns substrings; Q3 ends in a (forced
// parallel) ORDER BY sort.
TEST(SharedProgramTest, ConcurrentRunsMatchSingleOwnerRun) {
  ScopedEnv min_rows("QC_PAR_SORT_MIN", "64");
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
        exec::Program::Build(&db, *res.fn, /*parallel=*/true, &err);
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

  // Q6: global f64 sum — one loop, one kVarSumF reduction with a log.
  {
    ir::ParallelInfo info = analyze(6, 5);
    ASSERT_EQ(info.loops.size(), 1u) << "Q6 L5 scan loop must qualify";
    const ir::ParLoop& pl = info.loops[0];
    ASSERT_EQ(pl.reductions.size(), 1u);
    EXPECT_EQ(pl.reductions[0].kind, ir::ParRedKind::kVarSumF);
    ASSERT_EQ(pl.logs.size(), 1u);
    EXPECT_EQ(pl.logs[0].values.size(), 1u);
  }
  // Q1 L5: direct-addressed group array with f64-sum fields + count.
  {
    ir::ParallelInfo info = analyze(1, 5);
    bool found = false;
    for (const ir::ParLoop& pl : info.loops) {
      for (const ir::ParReduction& r : pl.reductions) {
        if (r.kind == ir::ParRedKind::kGroupArray) {
          found = true;
          int sum_f = 0, sum_i = 0;
          for (ir::ParFold f : r.fields) {
            sum_f += f == ir::ParFold::kSumF;
            sum_i += f == ir::ParFold::kSumI;
          }
          EXPECT_EQ(sum_f, 7) << "Q1 has 7 f64 accumulator fields";
          EXPECT_GE(sum_i, 1) << "shared count field";
          EXPECT_FALSE(pl.logs.empty());
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

}  // namespace
}  // namespace qc
