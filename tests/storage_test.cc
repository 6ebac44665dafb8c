// Unit and property tests for the storage layer: order-preserving
// dictionaries, CSR partitioned indexes, PK indexes, statistics, and result
// comparison.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <type_traits>

#include "common/rng.h"
#include "storage/database.h"
#include "storage/result.h"

namespace qc::storage {
namespace {

Database MakeDb(int rows, uint64_t seed) {
  Database db;
  TableDef t;
  t.name = "T";
  t.columns = {{"k", ColType::kI64}, {"s", ColType::kStr}};
  t.primary_key = -1;
  Table* tt = db.AddTable(t);
  Rng rng(seed);
  const char* words[] = {"kiwi", "apple", "fig", "banana", "date", "cherry"};
  for (int i = 0; i < rows; ++i) {
    tt->column(0).data.push_back(SlotI(rng.Uniform(0, 19)));
    tt->column(1).data.push_back(
        SlotS(tt->InternString(words[rng.Uniform(0, 5)])));
  }
  return db;
}

class DictionaryProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(DictionaryProperty, OrderPreservingAndComplete) {
  Database db = MakeDb(200, GetParam());
  const StringDictionary& d = db.Dictionary(0, 1);
  // Codes are the ranks of the sorted distinct values.
  EXPECT_TRUE(
      std::is_sorted(d.sorted_values.begin(), d.sorted_values.end()));
  // Every row decodes back to its original string, and string order equals
  // code order (the §5.3 invariant).
  const Table& t = db.table(0);
  for (int64_t r = 0; r < t.rows(); ++r) {
    int32_t code = d.codes[r];
    ASSERT_GE(code, 0);
    EXPECT_EQ(d.sorted_values[code], t.column(1).data[r].s);
  }
  for (int64_t a = 0; a < t.rows(); ++a) {
    for (int64_t b = a + 1; b < std::min<int64_t>(t.rows(), a + 10); ++b) {
      int cmp = std::strcmp(t.column(1).data[a].s, t.column(1).data[b].s);
      int code_cmp = d.codes[a] < d.codes[b] ? -1
                     : d.codes[a] > d.codes[b] ? 1
                                               : 0;
      EXPECT_EQ(cmp < 0, code_cmp < 0);
      EXPECT_EQ(cmp == 0, code_cmp == 0);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DictionaryProperty,
                         ::testing::Values(1, 2, 3, 42, 99));

TEST(Dictionary, PrefixRange) {
  Database db = MakeDb(100, 5);
  const StringDictionary& d = db.Dictionary(0, 1);
  auto [lo, hi] = d.PrefixRange("ba");  // banana
  ASSERT_LE(lo, hi);
  for (int32_t c = lo; c <= hi; ++c) {
    EXPECT_EQ(d.sorted_values[c].rfind("ba", 0), 0u);
  }
  auto [lo2, hi2] = d.PrefixRange("zzz");
  EXPECT_GT(lo2, hi2);  // empty
  EXPECT_EQ(d.CodeOf("banana") >= 0, true);
  EXPECT_EQ(d.CodeOf("not-present"), -1);
}

class PartitionProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(PartitionProperty, BucketsPartitionAllRows) {
  Database db = MakeDb(300, GetParam());
  const PartitionedIndex& idx = db.Partition(0, 0);
  const Table& t = db.table(0);
  // Every row appears in exactly the bucket of its key.
  int64_t total = 0;
  for (int64_t k = 0; k <= idx.max_key; ++k) {
    int64_t len = idx.BucketLen(k);
    total += len;
    for (int64_t j = 0; j < len; ++j) {
      int64_t row = idx.BucketRow(k, j);
      EXPECT_EQ(t.column(0).data[row].i, k);
    }
  }
  EXPECT_EQ(total, t.rows());
  // Out-of-range keys yield empty buckets, not UB.
  EXPECT_EQ(idx.BucketLen(-5), 0);
  EXPECT_EQ(idx.BucketLen(idx.max_key + 100), 0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PartitionProperty,
                         ::testing::Values(7, 8, 9, 1234));

TEST(PkIndex, DenseLookup) {
  Database db;
  TableDef t;
  t.name = "P";
  t.columns = {{"id", ColType::kI64}};
  t.primary_key = 0;
  Table* tt = db.AddTable(t);
  for (int i = 10; i < 20; ++i) tt->column(0).data.push_back(SlotI(i));
  const PkIndex& idx = db.PrimaryIndex(0, 0);
  for (int i = 10; i < 20; ++i) EXPECT_EQ(idx.RowOf(i), i - 10);
  EXPECT_EQ(idx.RowOf(5), -1);   // sparse hole
  EXPECT_EQ(idx.RowOf(-1), -1);  // below range
  EXPECT_EQ(idx.RowOf(25), -1);  // above range
}

TEST(Stats, MinMaxDistinct) {
  Database db = MakeDb(500, 3);
  const ColumnStats& st = db.Stats(0, 0);
  EXPECT_GE(st.min_i64, 0);
  EXPECT_LE(st.max_i64, 19);
  EXPECT_LE(st.distinct, 20);
  EXPECT_GT(st.distinct, 1);
  const ColumnStats& ss = db.Stats(0, 1);
  EXPECT_EQ(ss.distinct, 6);
}

TEST(Stats, LoadSideTimeIsCharged) {
  Database db = MakeDb(100, 3);
  double before = db.load_side_ms();
  db.Dictionary(0, 1);
  db.Partition(0, 0);
  EXPECT_GE(db.load_side_ms(), before);
}

TEST(ResultTable, CanonicalTextAndComparison) {
  ResultTable a({ColType::kI64, ColType::kF64, ColType::kStr, ColType::kDate});
  a.AddRow({SlotI(5), SlotD(3.14159), SlotS(a.InternString("hi")),
            SlotI(19980902)});
  EXPECT_EQ(a.RowToString(0), "5|3.14|hi|1998-09-02");

  ResultTable b({ColType::kI64, ColType::kF64, ColType::kStr, ColType::kDate});
  b.AddRow({SlotI(5), SlotD(3.141), SlotS(b.InternString("hi")),
            SlotI(19980902)});
  EXPECT_TRUE(a.SameRows(b));  // equal at 2 decimals

  ResultTable c({ColType::kI64});
  c.AddRow({SlotI(1)});
  c.AddRow({SlotI(2)});
  ResultTable d({ColType::kI64});
  d.AddRow({SlotI(2)});
  d.AddRow({SlotI(1)});
  EXPECT_TRUE(c.SameRows(d));  // multiset semantics
  ResultTable e({ColType::kI64});
  e.AddRow({SlotI(3)});
  std::string diff;
  EXPECT_FALSE(c.SameRows(e, &diff));
  EXPECT_FALSE(diff.empty());
}

// A copy would alias the source's interned strings, so the table is
// move-only; the move is noexcept so containers of results relocate by move.
static_assert(!std::is_copy_constructible_v<ResultTable>);
static_assert(std::is_nothrow_move_constructible_v<ResultTable>);

TEST(ResultTable, InternedStringsSurviveMoveFromDeadSource) {
  ResultTable moved;
  {
    ResultTable src({ColType::kStr});
    src.AddRow({SlotS(src.InternString("a string longer than SSO capacity"))});
    src.AddRow({SlotS(src.InternString("short"))});
    moved = std::move(src);
  }
  ASSERT_EQ(moved.size(), 2u);
  EXPECT_STREQ(moved.row(0)[0].s, "a string longer than SSO capacity");
  EXPECT_STREQ(moved.row(1)[0].s, "short");
}

TEST(ResultTable, InternedStringsSurviveGrowth) {
  ResultTable r({ColType::kStr});
  std::vector<const char*> ptrs;
  for (int i = 0; i < 100; ++i) {
    ptrs.push_back(r.InternString("s" + std::to_string(i)));
  }
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(std::string(ptrs[i]), "s" + std::to_string(i));
  }
}

}  // namespace
}  // namespace qc::storage
