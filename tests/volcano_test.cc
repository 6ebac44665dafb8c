// Direct semantics tests for the Volcano oracle itself on hand-computed
// minis — since every compiled configuration is checked against the oracle,
// the oracle's own operator semantics need independent coverage.
#include <gtest/gtest.h>

#include "qplan/plan.h"
#include "storage/database.h"
#include "volcano/volcano.h"

namespace qc {
namespace {

using namespace qc::qplan;  // NOLINT

storage::Database MakeDb() {
  storage::Database db;
  storage::TableDef l;
  l.name = "L";
  l.columns = {{"id", storage::ColType::kI64},
               {"grp", storage::ColType::kI64},
               {"v", storage::ColType::kF64}};
  storage::Table* lt = db.AddTable(l);
  // id: 1..6, grp: 0,1,0,1,0,1 v: 10,20,30,40,50,60
  for (int i = 0; i < 6; ++i) {
    lt->column(0).data.push_back(SlotI(i + 1));
    lt->column(1).data.push_back(SlotI(i % 2));
    lt->column(2).data.push_back(SlotD((i + 1) * 10.0));
  }
  storage::TableDef r;
  r.name = "R";
  r.columns = {{"key", storage::ColType::kI64},
               {"tag", storage::ColType::kStr}};
  storage::Table* rt = db.AddTable(r);
  // keys 1,2,2,9
  int64_t keys[] = {1, 2, 2, 9};
  const char* tags[] = {"one", "two", "two2", "nine"};
  for (int i = 0; i < 4; ++i) {
    rt->column(0).data.push_back(SlotI(keys[i]));
    rt->column(1).data.push_back(SlotS(rt->InternString(tags[i])));
  }
  return db;
}

TEST(Volcano, SelectProject) {
  storage::Database db = MakeDb();
  PlanPtr p = ProjectOp(SelectOp(ScanOp("L"), Gt(Col("v"), F(25.0))),
                        {{"double_v", Mul(Col("v"), F(2.0))}});
  ResolvePlan(p.get(), db);
  storage::ResultTable r = volcano::Execute(*p, db);
  ASSERT_EQ(r.size(), 4u);  // v in {30,40,50,60}
  EXPECT_EQ(r.row(0)[0].d, 60.0);
}

TEST(Volcano, InnerJoinMultiplicity) {
  storage::Database db = MakeDb();
  // L.id joins R.key: id=1 -> 1 match, id=2 -> 2 matches, others 0 (except 9
  // not present in L). Expect 3 rows.
  PlanPtr p = JoinOp(JoinKind::kInner, ScanOp("L"), ScanOp("R"), {Col("id")},
                     {Col("key")});
  ResolvePlan(p.get(), db);
  EXPECT_EQ(volcano::Execute(*p, db).size(), 3u);
}

TEST(Volcano, SemiAntiPartitionTheInput) {
  storage::Database db = MakeDb();
  PlanPtr semi = JoinOp(JoinKind::kSemi, ScanOp("L"), ScanOp("R"),
                        {Col("id")}, {Col("key")});
  PlanPtr anti = JoinOp(JoinKind::kAnti, ScanOp("L"), ScanOp("R"),
                        {Col("id")}, {Col("key")});
  ResolvePlan(semi.get(), db);
  ResolvePlan(anti.get(), db);
  size_t ns = volcano::Execute(*semi, db).size();
  size_t na = volcano::Execute(*anti, db).size();
  EXPECT_EQ(ns, 2u);  // ids 1 and 2 (semi emits each left row once)
  EXPECT_EQ(na, 4u);
  EXPECT_EQ(ns + na, 6u);  // partition of L
}

TEST(Volcano, OuterJoinPadsAndFlags) {
  storage::Database db = MakeDb();
  PlanPtr p = JoinOp(JoinKind::kLeftOuter, ScanOp("L"), ScanOp("R"),
                     {Col("id")}, {Col("key")});
  ResolvePlan(p.get(), db);
  storage::ResultTable r = volcano::Execute(*p, db);
  // 3 matched rows + 4 unmatched left rows.
  ASSERT_EQ(r.size(), 7u);
  int matched = 0;
  for (size_t i = 0; i < r.size(); ++i) {
    // Last column is the generated `matched` flag.
    matched += static_cast<int>(r.row(i).back().i);
  }
  EXPECT_EQ(matched, 3);
}

TEST(Volcano, ResidualPredicateFiltersPairs) {
  storage::Database db = MakeDb();
  PlanPtr p = JoinOp(JoinKind::kInner, ScanOp("L"), ScanOp("R"), {Col("id")},
                     {Col("key")}, Ne(Col("tag"), S("two")));
  ResolvePlan(p.get(), db);
  EXPECT_EQ(volcano::Execute(*p, db).size(), 2u);  // drops the "two" pair
}

TEST(Volcano, GroupedAggregates) {
  storage::Database db = MakeDb();
  PlanPtr p = AggOp(ScanOp("L"), {{"grp", Col("grp")}},
                    {Sum(Col("v"), "s"), Count("n"), Min(Col("v"), "mn"),
                     Max(Col("v"), "mx"), Avg(Col("v"), "a")});
  ResolvePlan(p.get(), db);
  storage::ResultTable r = volcano::Execute(*p, db);
  ASSERT_EQ(r.size(), 2u);
  for (size_t i = 0; i < 2; ++i) {
    int64_t grp = r.row(i)[0].i;
    double sum = r.row(i)[1].d;
    int64_t n = r.row(i)[2].i;
    EXPECT_EQ(n, 3);
    if (grp == 0) {
      EXPECT_DOUBLE_EQ(sum, 10 + 30 + 50);
      EXPECT_DOUBLE_EQ(r.row(i)[3].d, 10.0);   // min
      EXPECT_DOUBLE_EQ(r.row(i)[4].d, 50.0);   // max
      EXPECT_DOUBLE_EQ(r.row(i)[5].d, 30.0);   // avg
    } else {
      EXPECT_DOUBLE_EQ(sum, 20 + 40 + 60);
    }
  }
}

TEST(Volcano, GlobalAggOnEmptyInputYieldsZeroRow) {
  storage::Database db = MakeDb();
  PlanPtr p = AggOp(SelectOp(ScanOp("L"), Gt(Col("v"), F(1e9))), {},
                    {Sum(Col("v"), "s"), Count("n")});
  ResolvePlan(p.get(), db);
  storage::ResultTable r = volcano::Execute(*p, db);
  ASSERT_EQ(r.size(), 1u);
  EXPECT_DOUBLE_EQ(r.row(0)[0].d, 0.0);
  EXPECT_EQ(r.row(0)[1].i, 0);
}

// SUM/AVG over an f64 column of negative values: the integral accumulator
// must never see the doubles' bit patterns (three -2.0s added as int64
// overflow, which the ASan+UBSan build aborts on).
TEST(Volcano, SumOfNegativeF64Column) {
  storage::Database db;
  storage::TableDef t;
  t.name = "N";
  t.columns = {{"x", storage::ColType::kF64}};
  storage::Table* nt = db.AddTable(t);
  for (int i = 0; i < 4; ++i) nt->column(0).data.push_back(SlotD(-2.0));
  PlanPtr p =
      AggOp(ScanOp("N"), {}, {Sum(Col("x"), "s"), Avg(Col("x"), "a")});
  ResolvePlan(p.get(), db);
  storage::ResultTable r = volcano::Execute(*p, db);
  ASSERT_EQ(r.size(), 1u);
  EXPECT_DOUBLE_EQ(r.row(0)[0].d, -8.0);
  EXPECT_DOUBLE_EQ(r.row(0)[1].d, -2.0);
}

TEST(Volcano, SortStableAndDirectional) {
  storage::Database db = MakeDb();
  PlanPtr p = SortOp(ScanOp("L"), {Asc(Col("grp")), Desc(Col("v"))});
  ResolvePlan(p.get(), db);
  storage::ResultTable r = volcano::Execute(*p, db);
  ASSERT_EQ(r.size(), 6u);
  // grp 0 first with v descending 50,30,10 then grp 1 with 60,40,20.
  EXPECT_DOUBLE_EQ(r.row(0)[2].d, 50.0);
  EXPECT_DOUBLE_EQ(r.row(1)[2].d, 30.0);
  EXPECT_DOUBLE_EQ(r.row(2)[2].d, 10.0);
  EXPECT_DOUBLE_EQ(r.row(3)[2].d, 60.0);
}

TEST(Volcano, LimitTruncates) {
  storage::Database db = MakeDb();
  PlanPtr p = LimitOp(SortOp(ScanOp("L"), {Desc(Col("v"))}), 2);
  ResolvePlan(p.get(), db);
  storage::ResultTable r = volcano::Execute(*p, db);
  ASSERT_EQ(r.size(), 2u);
  EXPECT_DOUBLE_EQ(r.row(0)[2].d, 60.0);
  EXPECT_DOUBLE_EQ(r.row(1)[2].d, 50.0);
}

TEST(Volcano, CaseAndStringPredicates) {
  storage::Database db = MakeDb();
  PlanPtr p = ProjectOp(
      SelectOp(ScanOp("R"), StartsWith(Col("tag"), "two")),
      {{"flag", Case(Eq(Col("tag"), S("two")), I(1), I(0))}});
  ResolvePlan(p.get(), db);
  storage::ResultTable r = volcano::Execute(*p, db);
  ASSERT_EQ(r.size(), 2u);
  EXPECT_EQ(r.row(0)[0].i + r.row(1)[0].i, 1);  // exactly one exact match
}

TEST(Volcano, KeylessJoinIsCrossProductWithResidual) {
  storage::Database db = MakeDb();
  PlanPtr avg = AggOp(ScanOp("L"), {}, {Avg(Col("v"), "av")});
  PlanPtr p = JoinOp(JoinKind::kInner, ScanOp("L"), std::move(avg), {}, {},
                     Gt(Col("v"), Col("av")));
  ResolvePlan(p.get(), db);
  // avg = 35; rows with v > 35: 40, 50, 60.
  EXPECT_EQ(volcano::Execute(*p, db).size(), 3u);
}

}  // namespace
}  // namespace qc
