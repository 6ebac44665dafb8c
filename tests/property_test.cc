// Randomized property testing: generates random (but type-correct) query
// plans over the TPC-H schema — filters with random predicates, joins of
// random kind by an FK or by a two-column key whose columns repeat alone,
// then either a random grouped/global aggregation or a sort under a
// projection of a random column subset (of both sides after an inner
// join) — and checks that every stack level produces exactly the
// Volcano oracle's rows, and that the JIT at 1 and 4 threads matches the VM
// bit for bit, AllocStats included. The projection endings read build-side
// columns above a join, so they reach join and sort records that store only
// some columns.
#include <gtest/gtest.h>

#include "bit_exact.h"
#include "common/rng.h"
#include "compiler/compiler.h"
#include "exec/interp.h"
#include "tpch/datagen.h"
#include "volcano/volcano.h"

namespace qc {
namespace {

using namespace qc::qplan;  // NOLINT

storage::Database* Db() {
  static storage::Database* db =
      new storage::Database(tpch::MakeTpchDatabase(0.002, 21));
  return db;
}

struct TableInfo {
  const char* name;
  const char* int_col;   // low-cardinality integral column
  const char* f64_col;   // numeric measure
  double f64_hi;         // rough max for predicate constants
  const char* fk_col;    // FK column (nullptr if none)
  const char* fk_table;  // referenced table
  const char* fk_pk;     // referenced PK
};

const TableInfo kTables[] = {
    {"lineitem", "l_linenumber", "l_extendedprice", 90000.0, "l_orderkey",
     "orders", "o_orderkey"},
    {"orders", "o_shippriority", "o_totalprice", 300000.0, "o_custkey",
     "customer", "c_custkey"},
    {"customer", "c_nationkey", "c_acctbal", 9000.0, "c_nationkey", "nation",
     "n_nationkey"},
    {"partsupp", "ps_availqty", "ps_supplycost", 1000.0, "ps_partkey", "part",
     "p_partkey"},
    {"supplier", "s_nationkey", "s_acctbal", 9000.0, "s_nationkey", "nation",
     "n_nationkey"},
};

class RandomPlanTest : public ::testing::TestWithParam<int> {};

TEST_P(RandomPlanTest, AllConfigsMatchOracle) {
  Rng rng(GetParam());
  const TableInfo& t = kTables[rng.Uniform(0, std::size(kTables) - 1)];

  PlanPtr plan = ScanOp(t.name);
  // Random filter.
  if (rng.Uniform(0, 2) != 0) {
    double frac = rng.UniformDouble(0.2, 0.9);
    ExprPtr pred = Lt(Col(t.f64_col), F(t.f64_hi * frac));
    if (rng.Uniform(0, 1) == 0) {
      pred = And(pred, Gt(Col(t.f64_col), F(t.f64_hi * frac * 0.3)));
    }
    plan = SelectOp(std::move(plan), pred);
  }
  // Random join (inner / semi / anti): by the FK alone, or by the key
  // (fk_col, int_col) against a filtered, renamed copy of the table, whose
  // build rows repeat each of the two columns taken alone.
  std::vector<std::string> build_cols;  // what an inner join adds
  bool joined = false;
  if (t.fk_col != nullptr && rng.Uniform(0, 2) != 0) {
    JoinKind kinds[] = {JoinKind::kInner, JoinKind::kSemi, JoinKind::kAnti};
    JoinKind kind = kinds[rng.Uniform(0, 2)];
    if (rng.Uniform(0, 1) == 0) {
      plan = JoinOp(kind, std::move(plan), ScanOp(t.fk_table),
                    {Col(t.fk_col)}, {Col(t.fk_pk)});
      for (const auto& c :
           Db()->table(Db()->TableId(t.fk_table)).def().columns) {
        build_cols.push_back(c.name);
      }
    } else {
      double frac = rng.UniformDouble(0.2, 0.9);
      PlanPtr copy = ProjectOp(
          SelectOp(ScanOp(t.name), Lt(Col(t.f64_col), F(t.f64_hi * frac))),
          {{"b_fk", Col(t.fk_col)},
           {"b_int", Col(t.int_col)},
           {"b_f64", Col(t.f64_col)}});
      plan = JoinOp(kind, std::move(plan), std::move(copy),
                    {Col(t.fk_col), Col(t.int_col)},
                    {Col("b_fk"), Col("b_int")});
      build_cols = {"b_fk", "b_int", "b_f64"};
    }
    joined = kind == JoinKind::kInner;
  }
  // Random ending: a sort under a projection of random columns (sort keys
  // may be projected away), or a global or grouped aggregation.
  if (rng.Uniform(0, joined ? 1 : 3) == 0) {
    std::vector<std::string> cols;
    for (const auto& c : Db()->table(Db()->TableId(t.name)).def().columns) {
      cols.push_back(c.name);
    }
    if (joined) cols.insert(cols.end(), build_cols.begin(), build_cols.end());
    auto pick = [&] {
      return cols[rng.Uniform(0, static_cast<int64_t>(cols.size()) - 1)];
    };
    std::vector<SortKey> keys;
    for (int k = rng.Uniform(1, 2); k > 0; --k) {
      keys.push_back(SortKey{Col(pick()), rng.Uniform(0, 1) == 1});
    }
    std::vector<NamedExpr> proj;
    for (const std::string& c : cols) {
      if (rng.Uniform(0, 3) == 0) proj.push_back(NamedExpr{c, Col(c)});
    }
    if (proj.empty()) {
      std::string c = pick();
      proj.push_back(NamedExpr{c, Col(c)});
    }
    plan = ProjectOp(SortOp(std::move(plan), std::move(keys)),
                     std::move(proj));
  } else if (rng.Uniform(0, 1) == 0) {
    plan = AggOp(std::move(plan), {},
                 {Sum(Col(t.f64_col), "s"), Count("n"),
                  Min(Col(t.f64_col), "mn"), Max(Col(t.f64_col), "mx")});
  } else {
    plan = AggOp(std::move(plan), {{"g", Col(t.int_col)}},
                 {Sum(Col(t.f64_col), "s"), Count("n"),
                  Avg(Col(t.f64_col), "a")});
  }

  ResolvePlan(plan.get(), *Db());
  storage::ResultTable oracle = volcano::Execute(*plan, *Db());

  ir::TypeFactory types;
  compiler::QueryCompiler qc(Db(), &types);
  for (int levels = 2; levels <= 5; ++levels) {
    compiler::CompileResult res = qc.Compile(
        *plan, compiler::StackConfig::Level(levels), "rand");
    exec::Interpreter vm(Db());
    storage::ResultTable got = vm.Run(*res.fn);
    std::string diff;
    EXPECT_TRUE(got.SameRows(oracle, &diff))
        << "seed " << GetParam() << " level " << levels << "\n"
        << plan->ToString() << diff;
    for (int threads : {1, 4}) {
      exec::InterpOptions opts;
      opts.engine = exec::InterpOptions::Engine::kJit;
      opts.num_threads = threads;
      opts.morsel_rows = 1024;
      exec::Interpreter jit(Db(), opts);
      const std::string tag = "seed " + std::to_string(GetParam()) +
                              " level " + std::to_string(levels) +
                              " jit threads " + std::to_string(threads);
      ExpectBitExact(jit.Run(*res.fn), got, tag);
      ExpectStatsEqual(jit.stats(), vm.stats(), tag);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomPlanTest, ::testing::Range(0, 40));

}  // namespace
}  // namespace qc
