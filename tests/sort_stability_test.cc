// The sort subsystem's contract (exec/runtime.h SortSlots + StableSortSlots
// + the src/jit/ native sort sites): every engine sorts through the same
// sequential stable merge core, so the output — including the relative
// order of equal keys — is identical across {bytecode VM, JIT} x threads
// {1, 2, 4}, and bit-identical to the pre-subsystem std::stable_sort
// engines. Duplicate-key inputs are the interesting case: only stability
// pins their output order.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "bit_exact.h"
#include "compiler/compiler.h"
#include "exec/interp.h"
#include "ir/builder.h"
#include "lower/pipeline.h"
#include "tpch/datagen.h"
#include "tpch/queries.h"

namespace qc {
namespace {

using compiler::QueryCompiler;
using compiler::StackConfig;
using exec::InterpOptions;
using ir::Stmt;

InterpOptions Opts(InterpOptions::Engine e, int threads,
                   int64_t morsel_rows = 2048) {
  InterpOptions o;
  o.engine = e;
  o.num_threads = threads;
  o.morsel_rows = morsel_rows;
  return o;
}

// Builds: a list of `rows` encoded (key, seq) values — key = (i * 7919) %
// `keys` so every key repeats many times, seq = i — appended by a scan
// loop (which itself qualifies for morsel parallelism), sorted by key
// ONLY, then emitted. Ties are broken by nothing: only stability fixes
// the output order (seq must stay ascending within each key).
std::unique_ptr<ir::Function> BuildDupKeySort(ir::TypeFactory* types,
                                              int64_t rows, int64_t keys,
                                              const std::string& name) {
  auto fn = std::make_unique<ir::Function>(name, types);
  ir::Builder b(fn.get());
  const ir::Type* i64 = types->I64();
  Stmt* enc = b.I64(1 << 20);  // value = key * 2^20 + seq
  Stmt* list = b.ListNew(i64);
  b.ForRange(b.I64(0), b.I64(rows), [&](Stmt* i) {
    Stmt* key = b.Mod(b.Mul(i, b.I64(7919)), b.I64(keys));
    b.ListAppend(list, b.Add(b.Mul(key, enc), i));
  });
  b.ListSortBy(list, [&](Stmt* x, Stmt* y) {
    return b.Lt(b.Div(x, enc), b.Div(y, enc));  // compares the key only
  });
  b.ListForeach(list, [&](Stmt* e) {
    b.EmitRow({b.Div(e, enc), b.Mod(e, enc)});
  });
  return fn;
}

TEST(SortStability, DuplicateKeysIdenticalAcrossEnginesAndThreads) {
  storage::Database db;
  ir::TypeFactory types;
  const int64_t kRows = 50000;
  const int64_t kKeys = 97;
  auto fn = BuildDupKeySort(&types, kRows, kKeys, "dup_key_sort");

  // Independent oracle: the stable sort of (key, seq) by key.
  std::vector<std::pair<int64_t, int64_t>> want;
  want.reserve(kRows);
  for (int64_t i = 0; i < kRows; ++i) {
    want.emplace_back((i * 7919) % kKeys, i);
  }
  std::stable_sort(want.begin(), want.end(),
                   [](const auto& a, const auto& b) {
                     return a.first < b.first;  // key only: ties untouched
                   });

  // Reference: the first cell of the matrix, VM at one thread.
  storage::ResultTable ref;
  exec::AllocStats ref_stats;
  bool have_ref = false;
  for (InterpOptions::Engine engine : kEngines) {
    for (int threads : {1, 2, 4}) {
      exec::Interpreter interp(&db, Opts(engine, threads, 512));
      storage::ResultTable got = interp.Run(*fn);
      std::string tag = std::string(EngineName(engine)) +
                        " threads=" + std::to_string(threads);
      ASSERT_EQ(got.size(), static_cast<size_t>(kRows)) << tag;
      for (size_t r = 0; r < got.size(); ++r) {
        ASSERT_EQ(got.row(r)[0].i, want[r].first)
            << tag << ": key row " << r;
        ASSERT_EQ(got.row(r)[1].i, want[r].second)
            << tag << ": tie order lost at row " << r;
      }
      if (!have_ref) {
        ref = std::move(got);
        ref_stats = interp.stats();
        have_ref = true;
      } else {
        ExpectBitExact(got, ref, tag);
        ExpectStatsEqual(interp.stats(), ref_stats, tag);
      }
    }
  }
}

TEST(SortStability, EmptyAndShortInputs) {
  storage::Database db;
  ir::TypeFactory types;
  // Empty input: the sort must be a no-op on every path.
  auto empty = BuildDupKeySort(&types, 0, 7, "empty_sort");
  // A few insertion-sorted base runs and one round of merges.
  auto small = BuildDupKeySort(&types, 300, 7, "short_sort");
  for (auto* fn : {empty.get(), small.get()}) {
    storage::ResultTable ref;
    bool have_ref = false;
    for (InterpOptions::Engine engine : kEngines) {
      for (int threads : {1, 4}) {
        exec::Interpreter interp(&db, Opts(engine, threads, 64));
        storage::ResultTable got = interp.Run(*fn);
        std::string tag = fn->name() + " " + EngineName(engine) + " threads=" +
                          std::to_string(threads);
        if (!have_ref) {
          ref = std::move(got);
          have_ref = true;
        } else {
          ExpectBitExact(got, ref, tag);
        }
      }
    }
    ASSERT_EQ(ref.size(),
              static_cast<size_t>(fn == empty.get() ? 0 : 300));
  }
}

// A sort of loop-local state inside a morsel-parallelized scan loop: the
// loop qualifies (ir/parallel.cc allows loop-local kListSortBy), so under
// threads > 1 the sort executes on worker threads, over each morsel's own
// register file and RunState, while the pool's scan batch is in flight.
// Every engine and thread count must produce the same bytes.
TEST(SortStability, InFragmentSortsBitExactOnWorkers) {
  storage::Database db;
  ir::TypeFactory types;
  ir::Function fn("in_loop_sort", &types);
  ir::Builder b(&fn);
  const ir::Type* i64 = types.I64();
  Stmt* sum = b.VarNew(b.I64(0));
  b.ForRange(b.I64(0), b.I64(20000), [&](Stmt* i) {
    Stmt* local = b.ListNew(i64);  // iteration-local: the loop qualifies
    for (int64_t m : {7, 5, 3, 11, 13, 2}) {
      b.ListAppend(local, b.Mod(i, b.I64(m)));
    }
    b.ListSortBy(local, [&](Stmt* x, Stmt* y) { return b.Lt(x, y); });
    b.VarAssign(sum, b.Add(b.VarRead(sum), b.ListGet(local, b.I64(4))));
  });
  b.EmitRow({b.VarRead(sum)});

  ir::ParallelInfo info = ir::AnalyzeParallelism(fn);
  ASSERT_EQ(info.loops.size(), 1u) << "the in-loop-sort scan must qualify";

  // The sort is compiled once, into the body fragment that every thread
  // count runs; the main stream holds only the loop's kParLoop header.
  {
    storage::Database cdb;
    exec::BytecodeProgram prog =
        exec::BytecodeCompiler(&cdb).Compile(fn, &info);
    ASSERT_EQ(prog.par_loops.size(), 1u);
    uint32_t frag_entry = prog.par_loops[0].entry;
    int main_sorts = 0, frag_sorts = 0;
    for (size_t pc = 0; pc < prog.code.size(); ++pc) {
      if (static_cast<exec::BcOp>(prog.code[pc].op) !=
          exec::BcOp::kListSort) {
        continue;
      }
      ++(pc < frag_entry ? main_sorts : frag_sorts);
    }
    EXPECT_EQ(main_sorts, 0);
    EXPECT_EQ(frag_sorts, 1);
  }

  storage::ResultTable ref;
  bool have_ref = false;
  for (InterpOptions::Engine engine : kEngines) {
    for (int threads : {1, 4}) {
      exec::Interpreter interp(&db, Opts(engine, threads, 512));
      storage::ResultTable got = interp.Run(fn);
      std::string tag = std::string("in-loop sort ") + EngineName(engine) +
                        " threads=" + std::to_string(threads);
      ASSERT_EQ(got.size(), 1u) << tag;
      if (!have_ref) {
        ref = std::move(got);
        have_ref = true;
      } else {
        ExpectBitExact(got, ref, tag);
      }
    }
  }
}

// The sort-heavy TPC-H queries (every ORDER BY shape the stack lowers:
// Q1/Q3/Q10/Q16/Q18), at both stack levels, all engines, threads {1,2,4}:
// bit-exact results and exact AllocStats vs the sequential bytecode VM.
class SortHeavyTpchTest : public ::testing::TestWithParam<int> {
 protected:
  static storage::Database* db() {
    static storage::Database* db =
        new storage::Database(tpch::MakeTpchDatabase(0.01));
    return db;
  }

  static void CheckAllConfigs(const ir::Function& fn,
                              const std::string& tag) {
    exec::Interpreter refi(db(), Opts(InterpOptions::Engine::kBytecode, 1));
    storage::ResultTable want = refi.Run(fn);
    for (InterpOptions::Engine engine : kEngines) {
      exec::AllocStats seq_stats;
      for (int threads : {1, 2, 4}) {
        exec::Interpreter interp(db(), Opts(engine, threads, 777));
        storage::ResultTable got = interp.Run(fn);
        std::string t = tag + " " + EngineName(engine) + " threads=" +
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
};

TEST_P(SortHeavyTpchTest, BothStackLevelsBitExact) {
  int q = GetParam();
  qplan::PlanPtr plan = tpch::MakeQuery(q);
  qplan::ResolvePlan(plan.get(), *db());
  {
    ir::TypeFactory types;
    auto fn = lower::LowerPlanPipelined(*plan, *db(), &types,
                                        "q" + std::to_string(q));
    CheckAllConfigs(*fn, "Q" + std::to_string(q) + " L3");
  }
  {
    ir::TypeFactory types;
    QueryCompiler qc(db(), &types);
    compiler::CompileResult res =
        qc.Compile(*plan, StackConfig::Level(5), "q" + std::to_string(q));
    CheckAllConfigs(*res.fn, "Q" + std::to_string(q) + " L5");
  }
}

INSTANTIATE_TEST_SUITE_P(OrderByQueries, SortHeavyTpchTest,
                         ::testing::Values(1, 3, 10, 16, 18));

}  // namespace
}  // namespace qc
