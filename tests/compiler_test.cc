// Tests for the stack pass manager: configuration presets map to the
// paper's Table 3 rows, phases appear in the unique lowering order
// (transformation cohesion), every phase output verifies at its level, and
// compilation is deterministic.
#include <gtest/gtest.h>

#include <functional>
#include <map>
#include <set>

#include "bit_exact.h"
#include "compiler/compiler.h"
#include "exec/interp.h"
#include "ir/printer.h"
#include "ir/verify.h"
#include "legobase/legobase.h"
#include "lower/expr_lower.h"
#include "tpch/datagen.h"
#include "tpch/queries.h"
#include "volcano/volcano.h"

namespace qc {
namespace {

using compiler::QueryCompiler;
using compiler::StackConfig;

storage::Database* Db() {
  static storage::Database* db =
      new storage::Database(tpch::MakeTpchDatabase(0.002, 17));
  return db;
}

TEST(StackConfig, PresetsMatchPaperRows) {
  StackConfig l2 = StackConfig::Level(2);
  EXPECT_FALSE(l2.string_dict);
  EXPECT_FALSE(l2.index_inference);
  EXPECT_FALSE(l2.hash_spec);
  EXPECT_FALSE(l2.pool_hoist);

  StackConfig l3 = StackConfig::Level(3);
  EXPECT_TRUE(l3.pool_hoist);
  EXPECT_TRUE(l3.scalar_repl);
  EXPECT_FALSE(l3.hash_spec);  // needs the 4th level

  StackConfig l4 = StackConfig::Level(4);
  EXPECT_TRUE(l4.hash_spec);
  EXPECT_TRUE(l4.index_inference);
  EXPECT_FALSE(l4.intrusive_lists);  // needs the 5th level

  StackConfig l5 = StackConfig::Level(5);
  EXPECT_TRUE(l5.intrusive_lists);

  StackConfig compliant = StackConfig::Compliant();
  EXPECT_FALSE(compliant.string_dict);
  EXPECT_FALSE(compliant.index_inference);
  EXPECT_FALSE(compliant.hash_spec);
  EXPECT_TRUE(compliant.pool_hoist);

  StackConfig lego = StackConfig::LegoBase();
  EXPECT_TRUE(lego.hash_spec);
  EXPECT_FALSE(lego.index_inference);  // the DBLAB/LB-only optimization
}

TEST(Compiler, PhasesFollowTheLoweringPath) {
  qplan::PlanPtr plan = tpch::MakeQuery(3);
  qplan::ResolvePlan(plan.get(), *Db());
  ir::TypeFactory types;
  QueryCompiler qc(Db(), &types);
  compiler::CompileResult res =
      qc.Compile(*plan, StackConfig::Level(5), "q3");

  std::vector<std::string> names;
  for (const auto& [n, ms] : res.phase_ms) names.push_back(n);
  // Cohesion: pipelining first, finalize last, index inference before
  // dictionaries (it exposes build-side columns to them), both before hash
  // specialization (inference consumes MultiMap patterns, dictionaries
  // unlock partitioned keys).
  ASSERT_GE(names.size(), 4u);
  EXPECT_EQ(names.front(), "pipelining");
  EXPECT_EQ(names.back(), "finalize");
  auto pos = [&](const std::string& n) {
    for (size_t i = 0; i < names.size(); ++i) {
      if (names[i] == n) return static_cast<int>(i);
    }
    return -1;
  };
  EXPECT_LT(pos("index-inference"), pos("string-dict"));
  EXPECT_LT(pos("string-dict"), pos("hash-specialization"));
  EXPECT_LT(pos("index-inference"), pos("hash-specialization"));
  EXPECT_LT(pos("hash-specialization"), pos("pool-hoisting"));
  EXPECT_GT(res.total_ms, 0.0);
}

TEST(Compiler, EveryConfigEndsAtCLite) {
  qplan::PlanPtr plan = tpch::MakeQuery(12);
  qplan::ResolvePlan(plan.get(), *Db());
  ir::TypeFactory types;
  QueryCompiler qc(Db(), &types);
  for (const StackConfig& cfg :
       {StackConfig::Level(2), StackConfig::Level(3), StackConfig::Level(4),
        StackConfig::Level(5), StackConfig::Compliant(),
        StackConfig::LegoBase()}) {
    compiler::CompileResult res = qc.Compile(*plan, cfg, "q12");
    EXPECT_TRUE(ir::VerifyLevel(*res.fn, ir::Level::kCLite, true).empty())
        << cfg.name;
  }
}

TEST(Compiler, DeterministicOutput) {
  qplan::PlanPtr plan = tpch::MakeQuery(6);
  qplan::ResolvePlan(plan.get(), *Db());
  ir::TypeFactory types;
  QueryCompiler qc(Db(), &types);
  compiler::CompileResult a = qc.Compile(*plan, StackConfig::Level(5), "q6");
  compiler::CompileResult b = qc.Compile(*plan, StackConfig::Level(5), "q6");
  EXPECT_EQ(ir::PrintFunction(*a.fn), ir::PrintFunction(*b.fn));
}

TEST(Compiler, HigherLevelsNeverAddGenericCollections) {
  // Moving up the stack can only *remove* generic library collections.
  qplan::PlanPtr plan = tpch::MakeQuery(4);
  qplan::ResolvePlan(plan.get(), *Db());
  ir::TypeFactory types;
  QueryCompiler qc(Db(), &types);
  auto count_lib = [&](int level) {
    compiler::CompileResult res =
        qc.Compile(*plan, StackConfig::Level(level), "q4");
    std::string text = ir::PrintFunction(*res.fn);
    int n = 0;
    size_t pos = 0;
    while ((pos = text.find("[lib]", pos)) != std::string::npos) {
      ++n;
      pos += 5;
    }
    return n;
  };
  int prev = count_lib(2);
  for (int level = 3; level <= 5; ++level) {
    int cur = count_lib(level);
    EXPECT_LE(cur, prev) << "level " << level;
    prev = cur;
  }
}

// One QueryCompiler (one TypeFactory) serving several queries: every
// lowering restarts its record-name counter, so Q3's `Key1`, `JoinTup*` and
// `AggRec*` names collide with Q1's. Each query must still get its own
// record shapes; aliasing them made hash probes read the wrong fields.
TEST(Compiler, SharedTypeFactoryKeepsRecordShapesApart) {
  ir::TypeFactory types;
  QueryCompiler qc(Db(), &types);
  const int queries[] = {1, 3, 6, 12};
  std::vector<qplan::PlanPtr> plans;
  std::vector<std::unique_ptr<ir::Function>> fns;
  for (int q : queries) {
    plans.push_back(tpch::MakeQuery(q));
    qplan::ResolvePlan(plans.back().get(), *Db());
    fns.push_back(qc.Compile(*plans.back(), StackConfig::Level(5),
                             "q" + std::to_string(q))
                      .fn);
  }
  for (size_t i = 0; i < fns.size(); ++i) {
    storage::ResultTable oracle = volcano::Execute(*plans[i], *Db());
    for (exec::InterpOptions::Engine engine : kEngines) {
      exec::InterpOptions opts;
      opts.engine = engine;
      exec::Interpreter interp(Db(), opts);
      storage::ResultTable got = interp.Run(*fns[i]);
      std::string diff;
      EXPECT_TRUE(got.SameRows(oracle, &diff))
          << "Q" << queries[i] << " " << EngineName(engine) << ": " << diff;
    }
  }
}

// Calls `fn` on every statement of `b`, nested blocks included.
void ForEachStmt(const ir::Block* b,
                 const std::function<void(const ir::Stmt*)>& fn) {
  for (const ir::Stmt* s : b->stmts) {
    fn(s);
    for (const ir::Block* nb : s->blocks) ForEachStmt(nb, fn);
  }
}

// Required-column pruning: a join build tuple or a sort record stores only
// what some operator reads. Over 22 queries and every stack configuration,
// each field of each JoinTup*/SortTup* record the final IR allocates is
// read by a rec_get, but for the intrusive-list link.
TEST(Compiler, NoStoredFieldIsDead) {
  int records = 0;
  for (int q = 1; q <= tpch::kNumQueries; ++q) {
    qplan::PlanPtr plan = tpch::MakeQuery(q);
    qplan::ResolvePlan(plan.get(), *Db());
    for (const StackConfig& cfg :
         {StackConfig::Level(2), StackConfig::Level(3), StackConfig::Level(4),
          StackConfig::Level(5), StackConfig::Compliant(),
          StackConfig::LegoBase()}) {
      ir::TypeFactory types;
      QueryCompiler qc(Db(), &types);
      compiler::CompileResult res =
          qc.Compile(*plan, cfg, "q" + std::to_string(q));
      std::set<const ir::RecordSchema*> allocated;
      std::map<const ir::RecordSchema*, std::set<int>> read;
      ForEachStmt(res.fn->body(), [&](const ir::Stmt* s) {
        if (s->op == ir::Op::kRecNew || s->op == ir::Op::kPoolRecNew) {
          allocated.insert(s->type->record);
        } else if (s->op == ir::Op::kRecGet) {
          const ir::Type* t = s->args[0]->type;
          if (t->kind == ir::TypeKind::kPtr) t = t->elem;
          read[t->record].insert(s->aux0);
        }
      });
      for (const ir::RecordSchema* rec : allocated) {
        if (rec->name.rfind("JoinTup", 0) != 0 &&
            rec->name.rfind("SortTup", 0) != 0) {
          continue;
        }
        ++records;
        for (size_t f = 0; f < rec->fields.size(); ++f) {
          const std::string& name = rec->fields[f].name;
          if (name == "__next") continue;
          EXPECT_EQ(read[rec].count(static_cast<int>(f)), 1u)
              << "Q" << q << " " << cfg.name << ": " << rec->name << "."
              << name << " is stored but never read";
        }
      }
    }
  }
  EXPECT_GT(records, 0);
}

// Composite join keys partition on one PK/FK pair, so at level 5 no TPC-H
// program allocates a MultiMap keyed by a record. Q9's partsupp join probes
// the load-time partition of ps_partkey and compares ps_suppkey per row:
// no loop over partsupp remains to build a MultiMap. Q20's join of
// partsupp with the grouped lineitem becomes a bucket array, like its
// supplier semi join: no MultiMap is left.
TEST(Compiler, CompositeJoinKeysPartitionOnOneColumn) {
  const int partsupp = Db()->TableId("partsupp");
  const int ps_partkey = Db()->table(partsupp).def().ColumnIndex("ps_partkey");
  for (int q = 1; q <= tpch::kNumQueries; ++q) {
    qplan::PlanPtr plan = tpch::MakeQuery(q);
    qplan::ResolvePlan(plan.get(), *Db());
    ir::TypeFactory types;
    QueryCompiler qc(Db(), &types);
    compiler::CompileResult res =
        qc.Compile(*plan, StackConfig::Level(5), "q" + std::to_string(q));
    int mmaps = 0, bucket_arrays = 0, partsupp_loops = 0, ps_buckets = 0;
    ForEachStmt(res.fn->body(), [&](const ir::Stmt* s) {
      if (s->op == ir::Op::kMMapNew) {
        ++mmaps;
        EXPECT_NE(s->type->key->kind, ir::TypeKind::kRecord)
            << "Q" << q << ": MultiMap keyed by " << s->type->key->record->name;
      } else if (s->op == ir::Op::kArrNew && s->sval == "bucket_array") {
        ++bucket_arrays;
      } else if (s->op == ir::Op::kForRange &&
                 s->args[1]->op == ir::Op::kTableRows &&
                 s->args[1]->aux0 == partsupp) {
        ++partsupp_loops;
      } else if ((s->op == ir::Op::kIdxBucketLen ||
                  s->op == ir::Op::kIdxBucketRow) &&
                 s->aux0 == partsupp && s->aux1 == ps_partkey) {
        ++ps_buckets;
      }
    });
    if (q == 9) {
      EXPECT_EQ(partsupp_loops, 0) << "Q9";
      EXPECT_EQ(ps_buckets, 2) << "Q9: idx_bucket_len and idx_bucket_row";
    } else if (q == 20) {
      EXPECT_EQ(mmaps, 0) << "Q20";
      EXPECT_EQ(bucket_arrays, 2) << "Q20";
    }
  }
}

// A CASE on a constant condition lowers to the taken arm alone: no var,
// no if, no var_read. An outer join's `matched` column is such a constant
// on each of its two paths, so no TPC-H program at level 5 branches on a
// constant (Q13's count did, twice).
TEST(Compiler, ConstantCaseLowersToItsArm) {
  using namespace qplan;  // NOLINT
  qplan::Schema schema = {{"a", ValType::kI64}, {"b", ValType::kI64}};
  for (bool cond : {true, false}) {
    ExprPtr e = Case(B(cond), Add(Col("a"), I(1)), Col("b"));
    Resolve(e, schema);
    ir::TypeFactory types;
    ir::Function fn("case", &types);
    ir::Builder b(&fn);
    std::vector<ir::Stmt*> row = {b.I64(10), b.I64(20)};
    ir::Stmt* v = lower::LowerExpr(b, e, row);
    if (cond) {
      EXPECT_EQ(v->op, ir::Op::kAdd);
    } else {
      EXPECT_EQ(v, row[1]);
    }
    ForEachStmt(fn.body(), [&](const ir::Stmt* s) {
      EXPECT_NE(s->op, ir::Op::kVarNew);
      EXPECT_NE(s->op, ir::Op::kIf);
      EXPECT_NE(s->op, ir::Op::kVarRead);
    });
  }
  for (int q = 1; q <= tpch::kNumQueries; ++q) {
    qplan::PlanPtr plan = tpch::MakeQuery(q);
    ResolvePlan(plan.get(), *Db());
    ir::TypeFactory types;
    QueryCompiler qc(Db(), &types);
    compiler::CompileResult res =
        qc.Compile(*plan, StackConfig::Level(5), "q" + std::to_string(q));
    ForEachStmt(res.fn->body(), [&](const ir::Stmt* s) {
      if (s->op != ir::Op::kIf) return;
      const ir::Stmt* c = s->args[0];
      EXPECT_FALSE(c->op == ir::Op::kConst && !ir::IsParam(c))
          << "Q" << q << " branches on a constant";
    });
  }
}

// A read of a column the needed-column analysis pruned aborts with a
// readable message in every build type; it never hands a null statement to
// the rest of the compiler.
TEST(CompilerDeathTest, PrunedColumnReadAborts) {
  qplan::Schema schema = {{"a", qplan::ValType::kI64},
                          {"b", qplan::ValType::kI64}};
  qplan::ExprPtr e = qplan::Add(qplan::Col("a"), qplan::Col("b"));
  qplan::Resolve(e, schema);
  ir::TypeFactory types;
  ir::Function fn("pruned", &types);
  ir::Builder b(&fn);
  std::vector<ir::Stmt*> row = {b.I64(1), nullptr};
  EXPECT_DEATH(lower::LowerExpr(b, e, row),
               "column b \\(#1 of 2\\) is not materialized");
}

TEST(LegoBase, MonolithicFacadeCompilesAndRuns) {
  qplan::PlanPtr plan = tpch::MakeQuery(14);
  qplan::ResolvePlan(plan.get(), *Db());
  ir::TypeFactory types;
  legobase::LegoBaseResult res =
      legobase::CompileMonolithic(*plan, Db(), &types, "q14");
  ASSERT_NE(res.fn, nullptr);
  EXPECT_TRUE(ir::VerifyLevel(*res.fn, ir::Level::kCLite, true).empty());
  EXPECT_GT(res.compile_ms, 0.0);
}

}  // namespace
}  // namespace qc
