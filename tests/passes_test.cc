// Unit tests for individual transformation passes: pool hoisting, scalar
// replacement, condition flattening, string dictionaries, value-range
// analysis, hash specialization and index inference — each checked on small
// hand-built IR or via golden substrings, independent of the TPC-H
// integration tests.
#include <gtest/gtest.h>

#include <functional>

#include "compiler/compiler.h"
#include "ir/builder.h"
#include "ir/printer.h"
#include "ir/verify.h"
#include "opt/cond_flatten.h"
#include "opt/dce.h"
#include "opt/hash_spec.h"
#include "opt/index_infer.h"
#include "opt/pool_hoist.h"
#include "opt/range.h"
#include "opt/scalar_repl.h"
#include "opt/string_dict.h"
#include "tpch/datagen.h"
#include "tpch/queries.h"

namespace qc {
namespace {

using ir::Builder;
using ir::Function;
using ir::Op;
using ir::Stmt;
using ir::TypeFactory;

// A small database: T(k i64 in [1,50] pk, grp i64 in [0,9] fk->G, name str,
// val f64) and G(gk i64 pk).
storage::Database MakeDb() {
  storage::Database db;
  storage::TableDef g;
  g.name = "G";
  g.columns = {{"gk", storage::ColType::kI64}};
  g.primary_key = 0;
  storage::Table* gt = db.AddTable(g);
  for (int i = 0; i < 10; ++i) gt->column(0).data.push_back(SlotI(i));

  storage::TableDef t;
  t.name = "T";
  t.columns = {{"k", storage::ColType::kI64},
               {"grp", storage::ColType::kI64},
               {"name", storage::ColType::kStr},
               {"val", storage::ColType::kF64}};
  t.primary_key = 0;
  t.foreign_keys = {storage::ForeignKey{1, "G", 0}};
  storage::Table* tt = db.AddTable(t);
  const char* names[] = {"alpha", "beta", "gamma", "delta"};
  for (int i = 1; i <= 50; ++i) {
    tt->column(0).data.push_back(SlotI(i));
    tt->column(1).data.push_back(SlotI(i % 10));
    tt->column(2).data.push_back(SlotS(tt->InternString(names[i % 4])));
    tt->column(3).data.push_back(SlotD(i * 1.5));
  }
  return db;
}

bool Contains(const std::string& text, const std::string& needle) {
  return text.find(needle) != std::string::npos;
}

TEST(PoolHoist, RecordsMoveToPools) {
  storage::Database db = MakeDb();
  TypeFactory types;
  Function fn("f", &types);
  Builder b(&fn);
  const ir::Type* rec = types.Record("R", {{"a", types.I64()}});
  b.ForRange(b.I64(0), b.I64(10), [&](Stmt* i) {
    Stmt* r = b.RecNew(rec, {i});
    b.EmitRow({b.RecGet(r, 0)});
  });
  auto out = opt::HoistMemoryAllocations(fn, db);
  std::string text = ir::PrintFunction(*out);
  EXPECT_TRUE(Contains(text, "pool_new")) << text;
  EXPECT_TRUE(Contains(text, "pool_rec_new")) << text;
  EXPECT_FALSE(Contains(text, " rec_new")) << text;
  // The pool is hoisted to the top, before the loop.
  EXPECT_LT(text.find("pool_new"), text.find("for(")) << text;
  ir::CheckFunction(*out);
}

TEST(ScalarRepl, NonEscapingRecordDisappears) {
  TypeFactory types;
  Function fn("f", &types);
  Builder b(&fn);
  const ir::Type* rec =
      types.Record("P", {{"a", types.I64()}, {"b", types.I64()}});
  Stmt* r = b.RecNew(rec, {b.I64(3), b.I64(4)});
  b.EmitRow({b.Add(b.RecGet(r, 0), b.RecGet(r, 1))});
  auto out = opt::ScalarReplacement(fn);
  opt::DeadCodeElimination(out.get());
  std::string text = ir::PrintFunction(*out);
  EXPECT_FALSE(Contains(text, "rec_new")) << text;
  EXPECT_FALSE(Contains(text, "rec_get")) << text;
}

TEST(ScalarRepl, EscapingRecordStays) {
  TypeFactory types;
  Function fn("f", &types);
  Builder b(&fn);
  const ir::Type* rec = types.Record("Q", {{"a", types.I64()}});
  Stmt* lst = b.ListNew(rec);
  Stmt* r = b.RecNew(rec, {b.I64(3)});
  b.ListAppend(lst, r);  // escapes into a collection
  b.ListForeach(lst, [&](Stmt* e) { b.EmitRow({b.RecGet(e, 0)}); });
  auto out = opt::ScalarReplacement(fn);
  opt::DeadCodeElimination(out.get());
  EXPECT_TRUE(Contains(ir::PrintFunction(*out), "rec_new"));
}

TEST(ScalarRepl, MutatedRecordStays) {
  TypeFactory types;
  Function fn("f", &types);
  Builder b(&fn);
  const ir::Type* rec = types.Record("M", {{"a", types.I64()}});
  Stmt* r = b.RecNew(rec, {b.I64(3)});
  b.RecSet(r, 0, b.I64(4));
  b.EmitRow({b.RecGet(r, 0)});
  auto out = opt::ScalarReplacement(fn);
  opt::DeadCodeElimination(out.get());
  EXPECT_TRUE(Contains(ir::PrintFunction(*out), "rec_new"));
}

TEST(CondFlatten, AndBecomesBitAnd) {
  TypeFactory types;
  Function fn("f", &types);
  Builder b(&fn);
  Stmt* c = b.And(b.BoolC(true), b.BoolC(false));
  b.If(c, [&] { b.EmitRow({b.I64(1)}); });
  auto out = opt::FlattenConditions(fn);
  std::string text = ir::PrintFunction(*out);
  EXPECT_TRUE(Contains(text, "bitand")) << text;
  EXPECT_FALSE(Contains(text, "= and(")) << text;
}

TEST(RangeAnalysis, PropagatesCatalogAndArithmetic) {
  storage::Database db = MakeDb();
  TypeFactory types;
  Function fn("f", &types);
  Builder b(&fn);
  Stmt* captured_col = nullptr;
  Stmt* captured_expr = nullptr;
  Stmt* captured_f64 = nullptr;
  b.ForRange(b.I64(0), b.TableRows(1), [&](Stmt* i) {
    captured_col = b.ColGet(1, 0, i, types.I64());  // T.k in [1,50]
    captured_expr = b.Add(b.Mul(captured_col, b.I64(2)), b.I64(5));
    captured_f64 = b.ColGet(1, 3, i, types.F64());
    b.EmitRow({captured_expr});
  });
  opt::RangeAnalysis ra(fn, &db);
  opt::ValueRange r1 = ra.Of(captured_col);
  ASSERT_TRUE(r1.known);
  EXPECT_EQ(r1.lo, 1);
  EXPECT_EQ(r1.hi, 50);
  opt::ValueRange r2 = ra.Of(captured_expr);
  ASSERT_TRUE(r2.known);
  EXPECT_EQ(r2.lo, 7);
  EXPECT_EQ(r2.hi, 105);
  EXPECT_FALSE(ra.Of(captured_f64).known);
}

TEST(RangeAnalysis, RecordFieldsUnionConstructionSites) {
  storage::Database db = MakeDb();
  TypeFactory types;
  Function fn("f", &types);
  Builder b(&fn);
  const ir::Type* rec = types.Record("RR", {{"a", types.I64()}});
  Stmt* r1 = b.RecNew(rec, {b.I64(10)});
  Stmt* r2 = b.RecNew(rec, {b.I64(90)});
  Stmt* g = b.RecGet(r1, 0);
  b.EmitRow({g, b.RecGet(r2, 0)});
  opt::RangeAnalysis ra(fn, &db);
  opt::ValueRange r = ra.Of(g);
  ASSERT_TRUE(r.known);
  EXPECT_EQ(r.lo, 10);
  EXPECT_EQ(r.hi, 90);
}

TEST(StringDict, EqualityBecomesCodeCompare) {
  storage::Database db = MakeDb();
  TypeFactory types;
  Function fn("f", &types);
  Builder b(&fn);
  b.ForRange(b.I64(0), b.TableRows(1), [&](Stmt* i) {
    Stmt* name = b.ColGet(1, 2, i, types.Str());
    b.If(b.StrEq(name, b.StrC("beta")), [&] { b.EmitRow({i}); });
  });
  auto out = opt::ApplyStringDictionaries(fn, &db);
  opt::DeadCodeElimination(out.get());
  std::string text = ir::PrintFunction(*out);
  EXPECT_TRUE(Contains(text, "col_dict")) << text;
  EXPECT_FALSE(Contains(text, "str_eq")) << text;
}

TEST(StringDict, AbsentConstantIsStaticallyDecided) {
  storage::Database db = MakeDb();
  TypeFactory types;
  Function fn("f", &types);
  Builder b(&fn);
  b.ForRange(b.I64(0), b.TableRows(1), [&](Stmt* i) {
    Stmt* name = b.ColGet(1, 2, i, types.Str());
    b.If(b.StrEq(name, b.StrC("no-such-value")), [&] { b.EmitRow({i}); });
  });
  auto out = opt::ApplyStringDictionaries(fn, &db);
  opt::DeadCodeElimination(out.get());
  std::string text = ir::PrintFunction(*out);
  // The branch can never fire: no dictionary read is even needed.
  EXPECT_FALSE(Contains(text, "col_dict")) << text;
  EXPECT_FALSE(Contains(text, "str_eq")) << text;
}

TEST(StringDict, PrefixBecomesOrderedRange) {
  storage::Database db = MakeDb();
  TypeFactory types;
  Function fn("f", &types);
  Builder b(&fn);
  b.ForRange(b.I64(0), b.TableRows(1), [&](Stmt* i) {
    Stmt* name = b.ColGet(1, 2, i, types.Str());
    b.If(b.StrStartsWith(name, b.StrC("g")), [&] { b.EmitRow({i}); });
  });
  auto out = opt::ApplyStringDictionaries(fn, &db);
  std::string text = ir::PrintFunction(*out);
  EXPECT_TRUE(Contains(text, "col_dict")) << text;
  EXPECT_TRUE(Contains(text, "ge(")) << text;
  EXPECT_TRUE(Contains(text, "le(")) << text;
}

// Aggregation over a small-range key must become a direct-addressed array.
TEST(HashSpec, SmallRangeAggBecomesArray) {
  storage::Database db = MakeDb();
  TypeFactory types;
  Function fn("f", &types);
  Builder b(&fn);
  const ir::Type* agg = types.Record(
      "A", {{"g", types.I64()}, {"sum", types.F64()}, {"n", types.I64()}});
  Stmt* map = b.MapNew(types.I64(), agg);
  b.ForRange(b.I64(0), b.TableRows(1), [&](Stmt* i) {
    Stmt* grp = b.ColGet(1, 1, i, types.I64());  // [0,9]
    Stmt* val = b.ColGet(1, 3, i, types.F64());
    Stmt* rec = b.MapGetOrElseUpdate(map, grp, [&] {
      return b.RecNew(agg, {grp, b.F64(0), b.I64(0)});
    });
    b.RecSet(rec, 1, b.Add(b.RecGet(rec, 1), val));
    b.RecSet(rec, 2, b.Add(b.RecGet(rec, 2), b.I64(1)));
  });
  b.MapForeach(map, [&](Stmt* /*k*/, Stmt* rec) {
    b.EmitRow({b.RecGet(rec, 0), b.RecGet(rec, 1)});
  });
  auto out = opt::SpecializeHashStructures(fn, &db);
  opt::DeadCodeElimination(out.get());
  std::string text = ir::PrintFunction(*out);
  EXPECT_TRUE(Contains(text, "arr_new")) << text;
  EXPECT_FALSE(Contains(text, "map_new")) << text;
  EXPECT_FALSE(Contains(text, "map_get_or_else_update")) << text;
  ir::CheckLevel(*out, ir::Level::kList);
}

TEST(HashSpec, UnboundedKeyStaysGeneric) {
  storage::Database db = MakeDb();
  TypeFactory types;
  Function fn("f", &types);
  Builder b(&fn);
  const ir::Type* agg = types.Record(
      "B", {{"g", types.F64()}, {"n", types.I64()}});
  // f64 keys have no usable range: must stay a generic hash table.
  Stmt* map = b.MapNew(types.F64(), agg);
  b.ForRange(b.I64(0), b.TableRows(1), [&](Stmt* i) {
    Stmt* v = b.ColGet(1, 3, i, types.F64());
    Stmt* rec = b.MapGetOrElseUpdate(
        map, v, [&] { return b.RecNew(agg, {v, b.I64(0)}); });
    b.RecSet(rec, 1, b.Add(b.RecGet(rec, 1), b.I64(1)));
  });
  b.MapForeach(map, [&](Stmt* /*k*/, Stmt* rec) {
    b.EmitRow({b.RecGet(rec, 0)});
  });
  auto out = opt::SpecializeHashStructures(fn, &db);
  EXPECT_TRUE(Contains(ir::PrintFunction(*out), "map_new"));
}

// Build a join-shaped function: build side scans table T keyed on column c.
std::unique_ptr<Function> JoinShape(TypeFactory* types, int key_col) {
  auto fn = std::make_unique<Function>("f", types);
  Builder b(fn.get());
  const ir::Type* tup =
      types->Record("JT" + std::to_string(key_col),
                    {{"k", types->I64()}, {"val", types->F64()}});
  Stmt* mm = b.MMapNew(types->I64(), tup);
  b.ForRange(b.I64(0), b.TableRows(1), [&](Stmt* i) {
    Stmt* key = b.ColGet(1, key_col, i, types->I64());
    Stmt* val = b.ColGet(1, 3, i, types->F64());
    b.If(b.Gt(val, b.F64(10.0)), [&] {
      Stmt* rec = b.RecNew(tup, {key, val});
      b.MMapAdd(mm, key, rec);
    });
  });
  // Probe with G.gk.
  b.ForRange(b.I64(0), b.TableRows(0), [&](Stmt* g) {
    Stmt* gk = b.ColGet(0, 0, g, types->I64());
    Stmt* lst = b.MMapGetOrNull(mm, gk);
    b.If(b.Not(b.IsNull(lst)), [&] {
      b.ListForeach(lst, [&](Stmt* rec) {
        b.EmitRow({gk, b.RecGet(rec, 1)});
      });
    });
  });
  return fn;
}

TEST(IndexInference, FkBuildScanBecomesPartitionedIndex) {
  storage::Database db = MakeDb();
  TypeFactory types;
  auto fn = JoinShape(&types, /*key_col=*/1);  // T.grp is a FK
  auto out = opt::InferIndexes(*fn, &db);
  opt::DeadCodeElimination(out.get());
  std::string text = ir::PrintFunction(*out);
  EXPECT_TRUE(Contains(text, "idx_bucket_len")) << text;
  EXPECT_TRUE(Contains(text, "idx_bucket_row")) << text;
  EXPECT_FALSE(Contains(text, "mmap_new")) << text;
  // The build-side filter survives inside the probe loop (Fig. 7c).
  EXPECT_TRUE(Contains(text, "gt(")) << text;
  ir::CheckFunction(*out);
}

TEST(IndexInference, PkBuildScanBecomesRowLookup) {
  storage::Database db = MakeDb();
  TypeFactory types;
  auto fn = JoinShape(&types, /*key_col=*/0);  // T.k is the PK
  auto out = opt::InferIndexes(*fn, &db);
  opt::DeadCodeElimination(out.get());
  std::string text = ir::PrintFunction(*out);
  EXPECT_TRUE(Contains(text, "idx_pk_row")) << text;
  EXPECT_FALSE(Contains(text, "idx_bucket_len")) << text;
  EXPECT_FALSE(Contains(text, "mmap_new")) << text;
}

TEST(IndexInference, NonKeyColumnIsLeftAlone) {
  storage::Database db = MakeDb();
  TypeFactory types;
  // Key column 3 is val (f64, not annotated): not eligible... use col 2
  // (name, str) is not integral either; use a non-annotated i64: none in T,
  // so re-use grp but drop the FK annotation.
  storage::Database db2;
  storage::TableDef g = db.table(0).def();
  storage::TableDef t = db.table(1).def();
  t.foreign_keys.clear();
  t.primary_key = -1;
  storage::Table* gt = db2.AddTable(g);
  storage::Table* tt = db2.AddTable(t);
  for (int64_t r = 0; r < db.table(0).rows(); ++r) {
    gt->column(0).data.push_back(db.table(0).column(0).data[r]);
  }
  for (int64_t r = 0; r < db.table(1).rows(); ++r) {
    for (size_t c = 0; c < 4; ++c) {
      Slot v = db.table(1).column(static_cast<int>(c)).data[r];
      if (c == 2) v = SlotS(tt->InternString(v.s));
      tt->column(static_cast<int>(c)).data.push_back(v);
    }
  }
  auto fn = JoinShape(&types, 1);
  auto out = opt::InferIndexes(*fn, &db2);
  EXPECT_TRUE(Contains(ir::PrintFunction(*out), "mmap_new"));
}

// --------------------------------------------------------------------------
// Pass order at level 4+: index inference runs before string dictionaries,
// so the predicates it inlines from a build side become code compares.
// These pin the IR shapes that order (and the join-residual split and build
// flags) produce on TPC-H, and fail if the passes drift back.
// --------------------------------------------------------------------------

class TpchShape : public ::testing::Test {
 protected:
  static storage::Database* Db() {
    static storage::Database* db =
        new storage::Database(tpch::MakeTpchDatabase(0.002, 5));
    return db;
  }

  std::unique_ptr<Function> CompileL5(int q) {
    qplan::PlanPtr plan = tpch::MakeQuery(q);
    qplan::ResolvePlan(plan.get(), *Db());
    compiler::QueryCompiler qc(Db(), &types_);
    return qc
        .Compile(*plan, compiler::StackConfig::Level(5),
                 "q" + std::to_string(q))
        .fn;
  }

  static int Col(const char* table, const char* column) {
    return Db()->table(Db()->TableId(table)).def().ColumnIndex(column);
  }
  static bool IsCol(const Stmt* s, Op op, const char* table,
                    const char* column) {
    return s->op == op && s->aux0 == Db()->TableId(table) &&
           s->aux1 == Col(table, column);
  }

  // Calls `fn(s, ancestors)` for every statement, `ancestors` being the
  // block-carrying statements enclosing it, outermost first.
  static void Walk(const ir::Block* b, std::vector<const Stmt*>* ancestors,
                   const std::function<void(const Stmt*,
                                            const std::vector<const Stmt*>&)>&
                       fn) {
    for (const Stmt* s : b->stmts) {
      fn(s, *ancestors);
      ancestors->push_back(s);
      for (const ir::Block* nb : s->blocks) Walk(nb, ancestors, fn);
      ancestors->pop_back();
    }
  }
  static void WalkFn(const Function& f,
                     const std::function<void(const Stmt*,
                                              const std::vector<const Stmt*>&)>&
                         fn) {
    std::vector<const Stmt*> ancestors;
    Walk(f.body(), &ancestors, fn);
  }

  // True if `s` computes from a statement satisfying `pred`.
  static bool DependsOn(const Stmt* s,
                        const std::function<bool(const Stmt*)>& pred) {
    if (pred(s)) return true;
    for (const Stmt* a : s->args) {
      if (DependsOn(a, pred)) return true;
    }
    return false;
  }

  TypeFactory types_;
};

TEST_F(TpchShape, Q19ComparesDictionaryCodesNotStrings) {
  std::unique_ptr<Function> fn = CompileL5(19);
  int str_cmps_on_dict_cols = 0, dict_reads = 0;
  WalkFn(*fn, [&](const Stmt* s, const std::vector<const Stmt*>&) {
    if (s->op == Op::kColDict) ++dict_reads;
    if (s->op != Op::kStrEq && s->op != Op::kStrNe) return;
    for (const Stmt* a : s->args) {
      if (a->op == Op::kColGet &&
          Db()->Stats(a->aux0, a->aux1).distinct <= opt::kDictMaxDistinct) {
        ++str_cmps_on_dict_cols;
      }
    }
  });
  EXPECT_EQ(str_cmps_on_dict_cols, 0) << ir::PrintFunction(*fn);
  // l_shipmode, l_shipinstruct, p_brand and p_container.
  EXPECT_GE(dict_reads, 4) << ir::PrintFunction(*fn);
}

TEST_F(TpchShape, Q19TestsProbeOnlyConjunctsBeforeThePartLookup) {
  std::unique_ptr<Function> fn = CompileL5(19);
  int lookups = 0;
  WalkFn(*fn, [&](const Stmt* s, const std::vector<const Stmt*>& anc) {
    if (!IsCol(s, Op::kIdxPkRow, "part", "p_partkey")) return;
    ++lookups;
    bool guarded_by = false;
    for (const Stmt* a : anc) {
      if (a->op != Op::kIf) continue;
      guarded_by |= DependsOn(a->args[0], [](const Stmt* t) {
        return IsCol(t, Op::kColDict, "lineitem", "l_shipmode");
      }) && DependsOn(a->args[0], [](const Stmt* t) {
        return IsCol(t, Op::kColDict, "lineitem", "l_shipinstruct");
      });
    }
    EXPECT_TRUE(guarded_by) << ir::PrintFunction(*fn);
  });
  EXPECT_EQ(lookups, 1) << ir::PrintFunction(*fn);
}

TEST_F(TpchShape, Q9EvaluatesContainsOncePerPartRow) {
  std::unique_ptr<Function> fn = CompileL5(9);
  int contains = 0, in_lineitem_loop = 0;
  WalkFn(*fn, [&](const Stmt* s, const std::vector<const Stmt*>& anc) {
    if (s->op != Op::kStrContains) return;
    ++contains;
    for (const Stmt* a : anc) {
      if (a->op == Op::kForRange && a->args[1]->op == Op::kTableRows &&
          a->args[1]->aux0 == Db()->TableId("lineitem")) {
        ++in_lineitem_loop;
      }
    }
  });
  EXPECT_EQ(contains, 1) << ir::PrintFunction(*fn);
  EXPECT_EQ(in_lineitem_loop, 0) << ir::PrintFunction(*fn);
}

}  // namespace
}  // namespace qc
