// Semantics preservation across the whole stack: every TPC-H query compiled
// under every stack configuration (2..5 levels, TPC-H compliant, LegoBase
// baseline) must produce exactly the rows the Volcano oracle produces.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <functional>

#include "bit_exact.h"
#include "cgen/cc_driver.h"
#include "cgen/emit.h"
#include "compiler/compiler.h"
#include "exec/interp.h"
#include "ir/printer.h"
#include "tpch/datagen.h"
#include "tpch/queries.h"
#include "volcano/volcano.h"

namespace qc {
namespace {

using compiler::QueryCompiler;
using compiler::StackConfig;

std::vector<StackConfig> AllConfigs() {
  return {StackConfig::Level(2), StackConfig::Level(3), StackConfig::Level(4),
          StackConfig::Level(5), StackConfig::Compliant(),
          StackConfig::LegoBase()};
}

class StackEquivalenceTest : public ::testing::TestWithParam<int> {
 public:
  static storage::Database* db() {
    static storage::Database* db =
        new storage::Database(tpch::MakeTpchDatabase(0.002, 7));
    return db;
  }
};

TEST_P(StackEquivalenceTest, AllConfigsMatchOracle) {
  int q = GetParam();
  qplan::PlanPtr plan = tpch::MakeQuery(q);
  qplan::ResolvePlan(plan.get(), *db());
  storage::ResultTable oracle = volcano::Execute(*plan, *db());

  ir::TypeFactory types;
  QueryCompiler qc(db(), &types);
  for (const StackConfig& cfg : AllConfigs()) {
    compiler::CompileResult res =
        qc.Compile(*plan, cfg, "q" + std::to_string(q) + "_" + cfg.name);
    exec::Interpreter interp(db());
    storage::ResultTable got = interp.Run(*res.fn);
    std::string diff;
    EXPECT_TRUE(got.SameRows(oracle, &diff))
        << "Q" << q << " config " << cfg.name << ": " << diff;
  }
}

INSTANTIATE_TEST_SUITE_P(AllQueries, StackEquivalenceTest,
                         ::testing::Range(1, 23));

// Join residuals split into probe-only conjuncts (tested before the lookup
// for inner and semi joins) and the rest (tested per match). TPC-H has no
// semi or anti join with a probe-only conjunct, so these hand-built plans
// mix probe-only, build-only and cross-side conjuncts over every join kind
// and key shape: a PK probe, a filtered PK and FK-bucket build (the
// flag-array probe), and a composite key partitioned on ps_partkey. Every
// residual divides by a column that is zero on some rows; a hoisted
// conjunct now evaluates that division on rows without a match too.
using qplan::ExprPtr;
using qplan::JoinKind;
using qplan::PlanPtr;

struct ResidualCase {
  const char* name;
  JoinKind kind;
  int shape;
};

PlanPtr ResidualPlan(const ResidualCase& c) {
  using namespace qplan;  // NOLINT
  PlanPtr probe, build;
  std::vector<ExprPtr> lkeys, rkeys;
  ExprPtr residual;
  std::vector<std::string> out;
  switch (c.shape) {
    case 0:    // orders -> customer by PK, unfiltered build
    case 1:    // orders -> customer by PK, filtered build
    case 2: {  // as 0 with an always-false probe-only conjunct
      probe = ScanOp("orders");
      build = ScanOp("customer");
      if (c.shape == 1) {
        build = SelectOp(std::move(build),
                         Ne(Col("c_mktsegment"), S("BUILDING")));
      }
      lkeys = {Col("o_custkey")};
      rkeys = {Col("c_custkey")};
      // 1000 / (o_orderkey % 3) is 0 whenever the divisor is.
      residual = AllOf(
          {Ge(DivE(I(1000), Mod(Col("o_orderkey"), I(3))), I(500)),
           Gt(Col("c_acctbal"), F(0.0)),
           Ne(Mod(Col("o_orderkey"), I(5)), Mod(Col("c_nationkey"), I(5))),
           InStr(Col("o_orderpriority"), {"1-URGENT", "2-HIGH", "3-MEDIUM"})});
      if (c.shape == 2) residual = And(Lt(Col("o_totalprice"), F(-1.0)),
                                       residual);
      out = {"o_orderkey", "o_totalprice"};
      if (c.kind == JoinKind::kInner || c.kind == JoinKind::kLeftOuter) {
        out.push_back("c_acctbal");
      }
      break;
    }
    case 3: {  // lineitem -> partsupp by the ps_partkey FK, filtered build
      probe = ScanOp("lineitem");
      build = SelectOp(ScanOp("partsupp"), Lt(Col("ps_supplycost"), F(500.0)));
      lkeys = {Col("l_partkey")};
      rkeys = {Col("ps_partkey")};
      // No probe-only conjunct: every join kind probes once per lineitem
      // row, so all of them take the flag-array probe.
      residual = AllOf(
          {Eq(Col("l_suppkey"), Col("ps_suppkey")),
           Ge(DivE(Col("ps_availqty"), Sub(Col("l_linenumber"), I(1))),
              I(1500)),
           Gt(Col("ps_availqty"), I(1000))});
      out = {"l_orderkey", "l_linenumber"};
      if (c.kind == JoinKind::kInner || c.kind == JoinKind::kLeftOuter) {
        out.push_back("ps_availqty");
      }
      break;
    }
    default: {  // lineitem -> partsupp by a composite key
      probe = ScanOp("lineitem");
      build = ScanOp("partsupp");
      lkeys = {Col("l_partkey"), Col("l_suppkey")};
      rkeys = {Col("ps_partkey"), Col("ps_suppkey")};
      residual = AllOf(
          {Ge(Mod(I(1000), Sub(Col("l_linenumber"), I(1))), I(1)),
           Lt(Mul(Col("l_quantity"), F(100.0)), Col("ps_availqty")),
           Eq(Col("l_returnflag"), S("N"))});
      out = {"l_orderkey", "l_linenumber"};
      if (c.kind == JoinKind::kInner || c.kind == JoinKind::kLeftOuter) {
        out.push_back("ps_supplycost");
      }
      break;
    }
  }
  if (c.kind == JoinKind::kLeftOuter) out.push_back("matched");
  std::vector<NamedExpr> proj;
  for (const std::string& n : out) proj.push_back(NamedExpr{n, Col(n)});
  return ProjectOp(JoinOp(c.kind, std::move(probe), std::move(build),
                          std::move(lkeys), std::move(rkeys), residual),
                   std::move(proj));
}

std::vector<ResidualCase> ResidualCases() {
  const std::pair<JoinKind, const char*> kinds[] = {
      {JoinKind::kInner, "inner"},
      {JoinKind::kSemi, "semi"},
      {JoinKind::kAnti, "anti"},
      {JoinKind::kLeftOuter, "outer"}};
  std::vector<ResidualCase> cases;
  for (const auto& [kind, name] : kinds) {
    for (int shape = 0; shape < 5; ++shape) {
      cases.push_back(ResidualCase{name, kind, shape});
    }
  }
  return cases;
}

class ResidualSplitTest : public ::testing::TestWithParam<ResidualCase> {};

TEST_P(ResidualSplitTest, EveryLevelEngineAndThreadCountMatchesOracle) {
  const ResidualCase& c = GetParam();
  storage::Database* db = StackEquivalenceTest::db();
  PlanPtr plan = ResidualPlan(c);
  qplan::ResolvePlan(plan.get(), *db);
  storage::ResultTable oracle = volcano::Execute(*plan, *db);
  for (int level = 2; level <= 5; ++level) {
    ir::TypeFactory types;
    QueryCompiler qc(db, &types);
    compiler::CompileResult res =
        qc.Compile(*plan, StackConfig::Level(level), "residual");
    for (exec::InterpOptions::Engine engine : kEngines) {
      for (int threads : {1, 4}) {
        exec::InterpOptions opts;
        opts.engine = engine;
        opts.num_threads = threads;
        opts.morsel_rows = 1024;
        exec::Interpreter interp(db, opts);
        storage::ResultTable got = interp.Run(*res.fn);
        std::string diff;
        EXPECT_TRUE(got.SameRows(oracle, &diff))
            << c.name << " shape " << c.shape << " level " << level << " "
            << EngineName(engine) << " threads " << threads << ": " << diff;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    JoinKindsAndShapes, ResidualSplitTest, ::testing::ValuesIn(ResidualCases()),
    [](const ::testing::TestParamInfo<ResidualCase>& p) {
      return std::string(p.param.name) + "_shape" +
             std::to_string(p.param.shape);
    });

// Required-column pruning at its edges: each plan stores fewer fields than
// its input has, in the shapes most likely to read a pruned column. The
// record count pins what the pipelined lowering stores (the build tuple of
// the join, or the sort record). Every plan runs at L2-L5 on both engines
// at 1 and 4 threads, bit-exact and with equal AllocStats, and through the
// generated C; ordered plans compare in order.
struct PruneCase {
  const char* name;
  PlanPtr (*make)();
  bool ordered;
  const char* record;  // "JoinTup" or "SortTup"
  size_t fields;       // fields of that record, links included
};

void PrintTo(const PruneCase& c, std::ostream* os) { *os << c.name; }

// Only `matched` (inside a CASE) and a left column are read above the
// outer join: the build tuple stores no field.
PlanPtr OuterMatchedOnly() {
  using namespace qplan;  // NOLINT
  PlanPtr oj = JoinOp(JoinKind::kLeftOuter, ScanOp("orders"),
                      SelectOp(ScanOp("customer"),
                               Ne(Col("c_mktsegment"), S("BUILDING"))),
                      {Col("o_custkey")}, {Col("c_custkey")});
  return AggOp(std::move(oj), {NamedExpr{"p", Col("o_orderpriority")}},
               {Sum(Case(Col("matched"), I(1), I(0)), "hits"), Count("n")});
}

// The residual reads ps_suppkey and ps_availqty, which the output drops;
// unmatched rows pad only the stored columns.
PlanPtr ResidualReadsDroppedColumn() {
  using namespace qplan;  // NOLINT
  PlanPtr oj = JoinOp(
      JoinKind::kLeftOuter, ScanOp("lineitem"), ScanOp("partsupp"),
      {Col("l_partkey")}, {Col("ps_partkey")},
      And(Eq(Col("l_suppkey"), Col("ps_suppkey")),
          Gt(Col("ps_availqty"), I(1000))));
  return ProjectOp(std::move(oj),
                   {NamedExpr{"l_orderkey", Col("l_orderkey")},
                    NamedExpr{"l_linenumber", Col("l_linenumber")},
                    NamedExpr{"ps_supplycost", Col("ps_supplycost")},
                    NamedExpr{"matched", Col("matched")}});
}

// The sort keys are projected away above the sort, which must still store
// them.
PlanPtr SortKeyProjectedAway() {
  using namespace qplan;  // NOLINT
  PlanPtr sorted = SortOp(
      SelectOp(ScanOp("customer"), Gt(Col("c_acctbal"), F(0.0))),
      {Asc(Col("c_nationkey")), Desc(Col("c_acctbal")),
       Asc(Col("c_custkey"))});
  return ProjectOp(std::move(sorted), {NamedExpr{"c_name", Col("c_name")}});
}

PlanPtr LimitOverSort() {
  using namespace qplan;  // NOLINT
  PlanPtr top = LimitOp(SortOp(ScanOp("orders"), {Desc(Col("o_totalprice")),
                                                  Asc(Col("o_orderkey"))}),
                        10);
  return ProjectOp(std::move(top),
                   {NamedExpr{"o_orderkey", Col("o_orderkey")},
                    NamedExpr{"o_orderdate", Col("o_orderdate")}});
}

// A composite-key semi or anti join without a residual partitions on
// ps_partkey (part has more rows than supplier): its build tuple stores
// only ps_suppkey, the other key, which each match compares.
PlanPtr CompositeExistence(JoinKind kind) {
  using namespace qplan;  // NOLINT
  PlanPtr j = JoinOp(kind, ScanOp("lineitem"),
                     SelectOp(ScanOp("partsupp"),
                              Lt(Col("ps_availqty"), I(5000))),
                     {Col("l_partkey"), Col("l_suppkey")},
                     {Col("ps_partkey"), Col("ps_suppkey")});
  return ProjectOp(std::move(j),
                   {NamedExpr{"l_orderkey", Col("l_orderkey")},
                    NamedExpr{"l_linenumber", Col("l_linenumber")}});
}
PlanPtr CompositeSemi() { return CompositeExistence(JoinKind::kSemi); }
PlanPtr CompositeAnti() { return CompositeExistence(JoinKind::kAnti); }

const PruneCase kPruneCases[] = {
    {"outer_matched_only", OuterMatchedOnly, false, "JoinTup", 0},
    {"residual_reads_dropped_column", ResidualReadsDroppedColumn, false,
     "JoinTup", 3},
    {"sort_key_projected_away", SortKeyProjectedAway, true, "SortTup", 4},
    {"limit_over_sort", LimitOverSort, true, "SortTup", 3},
    {"composite_semi", CompositeSemi, false, "JoinTup", 1},
    {"composite_anti", CompositeAnti, false, "JoinTup", 1},
};

std::vector<std::string> RowText(const std::vector<std::string>& rows,
                                 bool ordered) {
  std::vector<std::string> out = rows;
  if (!ordered) std::sort(out.begin(), out.end());
  return out;
}

std::vector<std::string> RowText(const storage::ResultTable& t, bool ordered) {
  std::vector<std::string> rows;
  for (size_t i = 0; i < t.size(); ++i) rows.push_back(t.RowToString(i));
  return RowText(rows, ordered);
}

// Fields of the first `prefix`* record the function allocates, or -1.
int StoredFields(const ir::Block* b, const std::string& prefix) {
  for (const ir::Stmt* s : b->stmts) {
    if ((s->op == ir::Op::kRecNew || s->op == ir::Op::kPoolRecNew) &&
        s->type->record->name.rfind(prefix, 0) == 0) {
      return static_cast<int>(s->type->record->fields.size());
    }
    for (const ir::Block* nb : s->blocks) {
      int n = StoredFields(nb, prefix);
      if (n >= 0) return n;
    }
  }
  return -1;
}

std::string PruneWorkDir() {
  const char* t = std::getenv("TMPDIR");
  return std::string(t != nullptr ? t : "/tmp") + "/qcstack_prune_test";
}

// Runs `plan` at L2-L5 on both engines at 1 and 4 threads, bit-exact and
// with equal AllocStats, and through the generated C where `c++` exists;
// every level matches Volcano's rows (in order when `ordered`). `check`
// sees each level's program before it runs.
void ExpectEveryLevelEngineAndCMatchVolcano(
    const std::string& name, const PlanPtr& plan, bool ordered,
    const std::function<void(int, const ir::Function&)>& check) {
  storage::Database* db = StackEquivalenceTest::db();
  storage::ResultTable oracle = volcano::Execute(*plan, *db);
  std::vector<std::string> want = RowText(oracle, ordered);
  ASSERT_FALSE(want.empty()) << name;
  const bool have_cc = std::system("command -v c++ >/dev/null 2>&1") == 0;
  if (have_cc) {
    ASSERT_EQ(std::system(("mkdir -p " + PruneWorkDir()).c_str()), 0);
    db->ExportBinary(PruneWorkDir());
  }
  for (int level = 2; level <= 5; ++level) {
    const std::string lt = name + " L" + std::to_string(level);
    ir::TypeFactory types;
    QueryCompiler qc(db, &types);
    compiler::CompileResult res =
        qc.Compile(*plan, StackConfig::Level(level), "edge");
    check(level, *res.fn);
    exec::Interpreter ref(db);
    storage::ResultTable base = ref.Run(*res.fn);
    EXPECT_EQ(RowText(base, ordered), want) << lt << " vs Volcano";
    for (exec::InterpOptions::Engine engine : kEngines) {
      for (int threads : {1, 4}) {
        exec::InterpOptions opts;
        opts.engine = engine;
        opts.num_threads = threads;
        opts.morsel_rows = 1024;
        exec::Interpreter interp(db, opts);
        const std::string t = lt + " " + EngineName(engine) + " threads " +
                              std::to_string(threads);
        ExpectBitExact(interp.Run(*res.fn), base, t);
        ExpectStatsEqual(interp.stats(), ref.stats(), t);
      }
    }
    if (!have_cc) continue;
    std::string src = cgen::EmitProgram(*res.fn, *db, PruneWorkDir());
    db->ExportAux(PruneWorkDir());
    cgen::CcDriver driver(PruneWorkDir());
    std::string error;
    std::string bin = driver.Compile(name + "_l" + std::to_string(level), src,
                                     nullptr, &error);
    ASSERT_FALSE(bin.empty()) << lt << " generated C:\n" << error;
    cgen::RunOutput out = driver.Run(bin);
    ASSERT_TRUE(out.ok) << lt << " generated C: " << out.error;
    EXPECT_EQ(RowText(out.row_text, ordered), want) << lt << " generated C";
  }
}

class PruneEdgeTest : public ::testing::TestWithParam<PruneCase> {};

TEST_P(PruneEdgeTest, EveryLevelEngineThreadCountAndTheCMatchVolcano) {
  const PruneCase& c = GetParam();
  PlanPtr plan = c.make();
  qplan::ResolvePlan(plan.get(), *StackEquivalenceTest::db());
  ExpectEveryLevelEngineAndCMatchVolcano(
      c.name, plan, c.ordered, [&](int level, const ir::Function& fn) {
        if (level != 2) return;
        EXPECT_EQ(StoredFields(fn.body(), c.record),
                  static_cast<int>(c.fields))
            << c.name << " L2 " << c.record << " fields";
      });
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, PruneEdgeTest, ::testing::ValuesIn(kPruneCases),
    [](const ::testing::TestParamInfo<PruneCase>& p) {
      return std::string(p.param.name);
    });

// Composite join keys at their edges. A key with a PK or FK pair keys the
// MultiMap by that pair alone and compares the other pairs per match; a
// key without one stays a key record. Each shape runs as an inner, semi,
// anti and left-outer join through ExpectEveryLevelEngineAndCMatchVolcano.
// The partsupp builds hold several rows per ps_partkey that differ in
// ps_suppkey, and their filter leaves probes whose bucket has no row with
// their ps_suppkey.
struct CompositeCase {
  const char* name;
  JoinKind kind;
  int shape;
};

void PrintTo(const CompositeCase& c, std::ostream* os) {
  *os << c.name << " shape " << c.shape;
}

enum CompositeShape {
  kSharedPartition,  // lineitem -> filtered partsupp, FK pair listed second
  kWithResidual,     // as above, with probe-only, build-only, cross conjuncts
  kStringKey,        // orders -> orders by (priority string, o_custkey FK)
  kAggregateBuild,   // Q20's shape: partsupp -> lineitem grouped by its keys
  kNoKeyColumn,      // customers by (segment, nation % 5): a key record
  kNumCompositeShapes
};

const char* const kCompositeShapeNames[] = {
    "shared_partition", "with_residual", "string_key", "aggregate_build",
    "no_key_column"};

PlanPtr CompositePlan(const CompositeCase& c) {
  using namespace qplan;  // NOLINT
  PlanPtr probe, build;
  std::vector<ExprPtr> lkeys, rkeys;
  ExprPtr residual;
  std::vector<std::string> out;
  std::string build_out;  // a build column read above the join
  switch (c.shape) {
    case kSharedPartition:
    case kWithResidual:
      probe = ScanOp("lineitem");
      build = SelectOp(ScanOp("partsupp"), Lt(Col("ps_availqty"), I(5000)));
      lkeys = {Col("l_suppkey"), Col("l_partkey")};
      rkeys = {Col("ps_suppkey"), Col("ps_partkey")};
      if (c.shape == kWithResidual) {
        residual = AllOf(
            {Ne(Col("l_returnflag"), S("R")), Gt(Col("ps_availqty"), I(2000)),
             Lt(Col("l_extendedprice"), Mul(Col("ps_supplycost"), I(20)))});
      }
      out = {"l_orderkey", "l_linenumber"};
      build_out = "ps_availqty";
      break;
    case kStringKey:
      probe = ScanOp("orders");
      build = ProjectOp(
          SelectOp(ScanOp("orders"),
                   Lt(Col("o_orderdate"), D(MakeDate(1995, 1, 1)))),
          {NamedExpr{"b_priority", Col("o_orderpriority")},
           NamedExpr{"b_custkey", Col("o_custkey")},
           NamedExpr{"b_total", Col("o_totalprice")}});
      lkeys = {Col("o_orderpriority"), Col("o_custkey")};
      rkeys = {Col("b_priority"), Col("b_custkey")};
      out = {"o_orderkey"};
      build_out = "b_total";
      break;
    case kAggregateBuild:
      probe = ScanOp("partsupp");
      build = AggOp(SelectOp(ScanOp("lineitem"),
                             Between(Col("l_shipdate"),
                                     D(MakeDate(1994, 1, 1)),
                                     D(MakeDate(1995, 1, 1)))),
                    {NamedExpr{"q_partkey", Col("l_partkey")},
                     NamedExpr{"q_suppkey", Col("l_suppkey")}},
                    {Sum(Col("l_quantity"), "sum_qty")});
      lkeys = {Col("ps_partkey"), Col("ps_suppkey")};
      rkeys = {Col("q_partkey"), Col("q_suppkey")};
      residual = Gt(Col("ps_availqty"), Mul(F(0.5), Col("sum_qty")));
      out = {"ps_partkey", "ps_suppkey"};
      build_out = "sum_qty";
      break;
    default:
      probe = ScanOp("customer");
      build = ProjectOp(
          SelectOp(ScanOp("customer"), Lt(Col("c_acctbal"), F(0.0))),
          {NamedExpr{"b_segment", Col("c_mktsegment")},
           NamedExpr{"b_nation5", Mod(Col("c_nationkey"), I(5))},
           NamedExpr{"b_custkey", Col("c_custkey")}});
      lkeys = {Col("c_mktsegment"), Mod(Col("c_nationkey"), I(5))};
      rkeys = {Col("b_segment"), Col("b_nation5")};
      out = {"c_custkey"};
      build_out = "b_custkey";
      break;
  }
  if (c.kind == JoinKind::kInner || c.kind == JoinKind::kLeftOuter) {
    out.push_back(build_out);
  }
  if (c.kind == JoinKind::kLeftOuter) out.push_back("matched");
  std::vector<NamedExpr> proj;
  for (const std::string& n : out) proj.push_back(NamedExpr{n, Col(n)});
  return ProjectOp(JoinOp(c.kind, std::move(probe), std::move(build),
                          std::move(lkeys), std::move(rkeys), residual),
                   std::move(proj));
}

std::vector<CompositeCase> CompositeCases() {
  const std::pair<JoinKind, const char*> kinds[] = {
      {JoinKind::kInner, "inner"},
      {JoinKind::kSemi, "semi"},
      {JoinKind::kAnti, "anti"},
      {JoinKind::kLeftOuter, "outer"}};
  std::vector<CompositeCase> cases;
  for (const auto& [kind, name] : kinds) {
    for (int shape = 0; shape < kNumCompositeShapes; ++shape) {
      cases.push_back(CompositeCase{name, kind, shape});
    }
  }
  return cases;
}

// MultiMaps the program allocates, and those of them keyed by a record.
std::pair<int, int> MultiMaps(const ir::Block* b) {
  std::pair<int, int> n{0, 0};
  for (const ir::Stmt* s : b->stmts) {
    if (s->op == ir::Op::kMMapNew) {
      ++n.first;
      if (s->type->key->kind == ir::TypeKind::kRecord) ++n.second;
    }
    for (const ir::Block* nb : s->blocks) {
      std::pair<int, int> k = MultiMaps(nb);
      n.first += k.first;
      n.second += k.second;
    }
  }
  return n;
}

class CompositeKeyTest : public ::testing::TestWithParam<CompositeCase> {};

// A partitioned key is one i64 at L2 and leaves no MultiMap at L5 (an
// index or a bucket array replaces it); the record key stays at every level.
TEST_P(CompositeKeyTest, EveryLevelEngineThreadCountAndTheCMatchVolcano) {
  const CompositeCase& c = GetParam();
  const std::string name =
      std::string(c.name) + "_" + kCompositeShapeNames[c.shape];
  PlanPtr plan = CompositePlan(c);
  qplan::ResolvePlan(plan.get(), *StackEquivalenceTest::db());
  const bool record_key = c.shape == kNoKeyColumn;
  ExpectEveryLevelEngineAndCMatchVolcano(
      name, plan, false, [&](int level, const ir::Function& fn) {
        std::pair<int, int> mm = MultiMaps(fn.body());
        if (record_key) {
          EXPECT_EQ(mm, std::make_pair(1, 1)) << name << " L" << level;
        } else if (level == 2) {
          EXPECT_EQ(mm, std::make_pair(1, 0)) << name << " L2";
        } else if (level == 5) {
          EXPECT_EQ(mm, std::make_pair(0, 0)) << name << " L5";
        }
      });
}

INSTANTIATE_TEST_SUITE_P(
    JoinKindsAndShapes, CompositeKeyTest,
    ::testing::ValuesIn(CompositeCases()),
    [](const ::testing::TestParamInfo<CompositeCase>& p) {
      return std::string(p.param.name) + "_" +
             kCompositeShapeNames[p.param.shape];
    });

}  // namespace
}  // namespace qc
