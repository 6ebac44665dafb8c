// Exact decimals (qplan::ValType::kDec): the typing rules, their lowering to
// int64 IR ops on every engine, and the overflow policy — a plan whose exact
// arithmetic may leave int64 is rejected when it is resolved, before any
// engine runs it, and the largest sum that fits is exact on the bytecode VM
// and the JIT at 1 and 4 threads, on Volcano and in the generated C.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <string>
#include <vector>

#include "bit_exact.h"
#include "cgen/cc_driver.h"
#include "cgen/emit.h"
#include "compiler/compiler.h"
#include "ir/parallel.h"
#include "qplan/plan.h"
#include "volcano/volcano.h"

namespace qc {
namespace {

using compiler::QueryCompiler;
using compiler::StackConfig;
using exec::InterpOptions;
using qplan::ValType;
using namespace qc::qplan;  // NOLINT — plan-builder DSL

TEST(DecimalTyping, ScalesAlignAddAndLiteralsBecomeDecimals) {
  const Schema s = {{"p", ValType::Dec(3)},
                    {"d", ValType::Dec(2)},
                    {"q", ValType::kI64},
                    {"f", ValType::kF64}};
  ExprPtr rev = Mul(Col("p"), Sub(F(1.0), Col("d")));
  Resolve(rev, s);
  EXPECT_EQ(rev->type, ValType::Dec(5));
  EXPECT_EQ(rev->kids[1]->type, ValType::Dec(2));
  EXPECT_EQ(rev->kids[1]->kids[0]->type, ValType::Dec(0));
  EXPECT_EQ(rev->kids[1]->kids[0]->ival, 1);

  ExprPtr band = Ge(Col("d"), F(0.05));
  Resolve(band, s);
  EXPECT_EQ(band->kids[1]->type, ValType::Dec(2));
  EXPECT_EQ(band->kids[1]->ival, 5);

  ExprPtr tiny = Mul(Col("d"), F(0.0001));
  Resolve(tiny, s);
  EXPECT_EQ(tiny->type, ValType::Dec(6));
  EXPECT_EQ(tiny->kids[1]->ival, 1);

  ExprPtr mixed_int = Add(Col("d"), Col("q"));
  Resolve(mixed_int, s);
  EXPECT_EQ(mixed_int->type, ValType::Dec(2));

  // Division, and a mix with an f64 operand, leave the decimals.
  ExprPtr ratio = DivE(Col("p"), Col("d"));
  Resolve(ratio, s);
  EXPECT_EQ(ratio->type, ValType::kF64);
  ExprPtr with_f64 = Add(Col("d"), Col("f"));
  Resolve(with_f64, s);
  EXPECT_EQ(with_f64->type, ValType::kF64);
  ExprPtr f64_lit = Mul(F(0.2), Col("f"));
  Resolve(f64_lit, s);
  EXPECT_EQ(f64_lit->kids[0]->type, ValType::kF64);

  // A CASE of a decimal and a float literal stays a decimal.
  ExprPtr c = Case(Gt(Col("q"), I(0)), Col("p"), F(0.0));
  Resolve(c, s);
  EXPECT_EQ(c->type, ValType::Dec(3));
}

// One table "acct": id, a scale-2 balance, a scale-3 price, a 2-decimal
// rate and a group.
storage::Database AcctDb(const std::vector<int64_t>& cents) {
  storage::Database db;
  storage::TableDef t;
  t.name = "acct";
  t.columns = {{"id", storage::ColType::kI64},
               {"bal", storage::ColType::kDec, 2},
               {"price", storage::ColType::kDec, 3},
               {"rate", storage::ColType::kDec, 2},
               {"grp", storage::ColType::kI64}};
  t.primary_key = 0;
  storage::Table* tt = db.AddTable(t);
  for (size_t i = 0; i < cents.size(); ++i) {
    int64_t r = static_cast<int64_t>(i);
    tt->column(0).data.push_back(SlotI(r));
    tt->column(1).data.push_back(SlotI(cents[i]));
    tt->column(2).data.push_back(SlotI(1000 + r * 1237 % 99991));
    tt->column(3).data.push_back(SlotI(r % 11));
    tt->column(4).data.push_back(SlotI(r % 5));
  }
  return db;
}

PlanPtr TotalPlan() {
  return AggOp(ScanOp("acct"), {}, {Sum(Col("bal"), "total"), Count("n")});
}

std::string WorkDir() {
  const char* t = std::getenv("TMPDIR");
  return std::string(t != nullptr ? t : "/tmp") + "/qcstack_decimal_test";
}

std::vector<std::string> SortedRows(const storage::ResultTable& t) {
  std::vector<std::string> rows;
  for (size_t i = 0; i < t.size(); ++i) rows.push_back(t.RowToString(i));
  std::sort(rows.begin(), rows.end());
  return rows;
}

// Runs a resolved plan on Volcano, on the VM and the JIT at 1 and 4 threads
// at every stack level (bit for bit against the first IR run), and in the
// generated C (row text against Volcano). Returns Volcano's result.
storage::ResultTable RunEverywhere(const Plan& plan, storage::Database* db,
                                   const std::string& tag) {
  storage::ResultTable oracle = volcano::Execute(plan, *db);
  std::vector<std::string> want_rows = SortedRows(oracle);
  const int mkdir_rc = std::system(("mkdir -p " + WorkDir()).c_str());
  EXPECT_EQ(mkdir_rc, 0);
  db->ExportBinary(WorkDir());
  for (int level = 2; level <= 5; ++level) {
    const std::string lt = tag + " L" + std::to_string(level);
    ir::TypeFactory types;
    QueryCompiler qc(db, &types);
    compiler::CompileResult res =
        qc.Compile(plan, StackConfig::Level(level), "dec");
    exec::Interpreter ref(db);
    storage::ResultTable want = ref.Run(*res.fn);
    EXPECT_EQ(SortedRows(want), want_rows) << lt << " vs Volcano";
    for (InterpOptions::Engine engine : kEngines) {
      for (int threads : {1, 4}) {
        InterpOptions o;
        o.engine = engine;
        o.num_threads = threads;
        o.morsel_rows = 8;  // small tables still fan out
        exec::Interpreter interp(db, o);
        const std::string t = lt + " " + EngineName(engine) + " threads=" +
                              std::to_string(threads);
        ExpectBitExact(interp.Run(*res.fn), want, t);
        ExpectStatsEqual(interp.stats(), ref.stats(), t);
      }
    }
    std::string src = cgen::EmitProgram(*res.fn, *db, WorkDir());
    db->ExportAux(WorkDir());
    cgen::CcDriver driver(WorkDir());
    double compile_ms = 0;
    std::string error;
    std::string bin = driver.Compile("dec_l" + std::to_string(level), src,
                                     &compile_ms, &error);
    if (bin.empty()) {
      ADD_FAILURE() << lt << " generated C failed to compile:\n" << error;
      continue;
    }
    cgen::RunOutput out = driver.Run(bin);
    EXPECT_TRUE(out.ok) << lt << " " << out.error;
    std::vector<std::string> c_rows = out.row_text;
    std::sort(c_rows.begin(), c_rows.end());
    EXPECT_EQ(c_rows, want_rows) << lt << " generated C vs Volcano";
  }
  return oracle;
}

// The global sum loop runs morsel-parallel: decimal sums are integral.
TEST(DecimalExec, DecimalSumsRunInParallelAndAgreeEverywhere) {
  std::vector<int64_t> cents;
  for (int i = 0; i < 400; ++i) cents.push_back((i * 7919) % 200001 - 100000);
  storage::Database db = AcctDb(cents);
  PlanPtr plan = AggOp(
      SelectOp(ScanOp("acct"), Ge(Col("rate"), F(0.03))),
      {NamedExpr{"grp", Col("grp")}},
      {Sum(Col("bal"), "total"),
       Sum(Mul(Col("price"), Sub(F(1.0), Col("rate"))), "net"),
       Sum(Case(Gt(Col("bal"), F(0.0)), Col("bal"), F(0.0)), "credit"),
       Avg(Col("price"), "avg_price"), Min(Col("bal"), "low"),
       Max(Col("price"), "high"), Count("n")});
  ResolvePlan(plan.get(), db);
  EXPECT_EQ(plan->schema[2].type, ValType::Dec(5));  // net
  EXPECT_EQ(plan->schema[4].type, ValType::kF64);    // avg_price
  ir::TypeFactory types;
  QueryCompiler qc(&db, &types);
  compiler::CompileResult res = qc.Compile(*plan, StackConfig::Level(5), "d");
  ir::ParallelInfo info = ir::AnalyzeParallelism(*res.fn);
  EXPECT_TRUE(info.rejected.empty()) << ir::FormatRejections(info);

  storage::ResultTable got = RunEverywhere(*plan, &db, "grouped");
  // Group 0's exact totals, computed here.
  int64_t total = 0, net = 0;
  for (size_t i = 0; i < cents.size(); i += 5) {
    if (static_cast<int64_t>(i) % 11 < 3) continue;
    total += cents[i];
    net += (1000 + static_cast<int64_t>(i) * 1237 % 99991) *
           (100 - static_cast<int64_t>(i) % 11);
  }
  bool found = false;
  for (size_t r = 0; r < got.size(); ++r) {
    if (got.row(r)[0].i != 0) continue;
    found = true;
    EXPECT_EQ(got.row(r)[1].d, static_cast<double>(total) / 100.0);
    EXPECT_EQ(got.row(r)[2].d, static_cast<double>(net) / 100000.0);
  }
  EXPECT_TRUE(found);
}

// The overflow policy. 92 balances of 1e17 cents may sum past int64 (the
// static bound is rows x max |value|), so resolving the plan aborts with a
// readable message before any engine could wrap; ExactOverflow names the
// sum. 90 balances near 1e17 cents fit, and their sum is exact on every
// engine, thread count and level, and in the generated C.
TEST(DecimalOverflow, SumBeyondInt64IsRejectedAndTheLargestThatFitsIsExact) {
  std::vector<int64_t> fits;
  int64_t exact = 0;
  for (int i = 0; i < 90; ++i) {
    fits.push_back(100000000000000000 - i * 977);
    exact += fits.back();
  }
  storage::Database fit_db = AcctDb(fits);
  PlanPtr plan = TotalPlan();
  ResolvePlan(plan.get(), fit_db);
  EXPECT_EQ(ExactOverflow(*plan, fit_db), "");

  storage::Database over_db =
      AcctDb(std::vector<int64_t>(92, 100000000000000000));
  std::string why = ExactOverflow(*plan, over_db);
  EXPECT_NE(why.find("SUM total over 92 rows"), std::string::npos) << why;
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        PlanPtr p = TotalPlan();
        ResolvePlan(p.get(), over_db);
      },
      "exact arithmetic may overflow: SUM total");

  // A per-row product beyond int64 is rejected the same way.
  PlanPtr product = ProjectOp(
      ScanOp("acct"), {NamedExpr{"sq", Mul(Col("bal"), Col("bal"))}});
  EXPECT_DEATH(ResolvePlan(product.get(), fit_db),
               "exact arithmetic may overflow: \\(bal \\* bal\\)");

  storage::ResultTable got = RunEverywhere(*plan, &fit_db, "largest sum");
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got.row(0)[0].d, static_cast<double>(exact) / 100.0);
  EXPECT_EQ(got.row(0)[1].i, 90);
}

}  // namespace
}  // namespace qc
