// Property tests for the synthetic TPC-H generator: determinism, scaling,
// referential integrity of every declared foreign key, the date-ordering
// correlations the queries rely on, and the presence of the value domains
// behind each query's predicates.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <set>
#include <string>

#include "common/date.h"
#include "common/str.h"
#include "tpch/datagen.h"

namespace qc {
namespace {

storage::Database* Db() {
  static storage::Database* db =
      new storage::Database(tpch::MakeTpchDatabase(0.005, 42));
  return db;
}

TEST(Datagen, DeterministicUnderSeed) {
  storage::Database a = tpch::MakeTpchDatabase(0.002, 9);
  storage::Database b = tpch::MakeTpchDatabase(0.002, 9);
  for (int t = 0; t < a.num_tables(); ++t) {
    ASSERT_EQ(a.table(t).rows(), b.table(t).rows());
    for (size_t c = 0; c < a.table(t).num_columns(); ++c) {
      const auto& ca = a.table(t).column(static_cast<int>(c));
      const auto& cb = b.table(t).column(static_cast<int>(c));
      for (int64_t r = 0; r < a.table(t).rows(); ++r) {
        if (ca.def.type == storage::ColType::kStr) {
          ASSERT_STREQ(ca.data[r].s, cb.data[r].s);
        } else {
          ASSERT_EQ(ca.data[r].i, cb.data[r].i);
        }
      }
    }
  }
}

TEST(Datagen, CardinalitiesScale) {
  storage::Database small = tpch::MakeTpchDatabase(0.002);
  storage::Database big = tpch::MakeTpchDatabase(0.01);
  EXPECT_EQ(small.table(small.TableId("nation")).rows(), 25);
  EXPECT_EQ(small.table(small.TableId("region")).rows(), 5);
  EXPECT_GT(big.table(big.TableId("lineitem")).rows(),
            small.table(small.TableId("lineitem")).rows() * 3);
  // partsupp is exactly 4 rows per part.
  EXPECT_EQ(big.table(big.TableId("partsupp")).rows(),
            big.table(big.TableId("part")).rows() * 4);
}

// Every declared foreign key refers to an existing primary key value.
TEST(Datagen, ReferentialIntegrity) {
  storage::Database& db = *Db();
  for (int t = 0; t < db.num_tables(); ++t) {
    const storage::TableDef& def = db.table(t).def();
    for (const storage::ForeignKey& fk : def.foreign_keys) {
      int ref = db.TableId(fk.ref_table);
      ASSERT_GE(ref, 0);
      std::set<int64_t> keys;
      const auto& ref_col = db.table(ref).column(fk.ref_column);
      for (const Slot& s : ref_col.data) keys.insert(s.i);
      const auto& col = db.table(t).column(fk.column);
      for (const Slot& s : col.data) {
        ASSERT_TRUE(keys.count(s.i) != 0)
            << def.name << "." << def.columns[fk.column].name << " -> "
            << fk.ref_table << " dangling key " << s.i;
      }
    }
  }
}

TEST(Datagen, LineitemDateCorrelations) {
  storage::Database& db = *Db();
  int li = db.TableId("lineitem");
  int ord = db.TableId("orders");
  const auto& t = db.table(li);
  // Map order key -> order date (dense keys).
  std::vector<int64_t> odate(db.table(ord).rows() + 1, 0);
  for (int64_t r = 0; r < db.table(ord).rows(); ++r) {
    odate[db.table(ord).column(0).data[r].i] =
        db.table(ord).column(4).data[r].i;
  }
  for (int64_t r = 0; r < t.rows(); ++r) {
    int64_t ok = t.column(0).data[r].i;
    Date ship = static_cast<Date>(t.column(10).data[r].i);
    Date receipt = static_cast<Date>(t.column(12).data[r].i);
    ASSERT_GT(ship, static_cast<Date>(odate[ok]));  // shipped after ordered
    ASSERT_GT(receipt, ship);                       // received after shipped
  }
}

TEST(Datagen, ReturnFlagAndStatusDomains) {
  storage::Database& db = *Db();
  const auto& t = db.table(db.TableId("lineitem"));
  std::set<std::string> flags, statuses;
  for (int64_t r = 0; r < t.rows(); ++r) {
    flags.insert(t.column(8).data[r].s);
    statuses.insert(t.column(9).data[r].s);
  }
  for (const auto& f : flags) {
    EXPECT_TRUE(f == "R" || f == "A" || f == "N") << f;
  }
  for (const auto& s : statuses) EXPECT_TRUE(s == "O" || s == "F") << s;
  EXPECT_GE(flags.size(), 2u);
}

// Each query's headline predicate must select a non-trivial subset.
TEST(Datagen, PredicateDomainsPopulated) {
  storage::Database& db = *Db();
  {
    // Q19/Q12/Q14 string domains.
    const auto& li = db.table(db.TableId("lineitem"));
    int air = 0, person = 0;
    for (int64_t r = 0; r < li.rows(); ++r) {
      air += std::string(li.column(14).data[r].s) == "AIR";
      person +=
          std::string(li.column(13).data[r].s) == "DELIVER IN PERSON";
    }
    EXPECT_GT(air, 0);
    EXPECT_GT(person, 0);
  }
  {
    // Q9 '%green%' and Q20 'forest%' part names.
    const auto& p = db.table(db.TableId("part"));
    int green = 0, forest = 0;
    for (int64_t r = 0; r < p.rows(); ++r) {
      green += StrContains(p.column(1).data[r].s, "green");
      forest += StrStartsWith(p.column(1).data[r].s, "forest");
    }
    EXPECT_GT(green, 0);
    EXPECT_GT(forest, 0);
  }
  {
    // Q13 comment marker and one-third customers without orders.
    const auto& o = db.table(db.TableId("orders"));
    int special = 0;
    std::set<int64_t> custs;
    for (int64_t r = 0; r < o.rows(); ++r) {
      special += StrLike(o.column(8).data[r].s, "%special%requests%");
      custs.insert(o.column(1).data[r].i);
    }
    EXPECT_GT(special, 0);
    for (int64_t c : custs) EXPECT_NE(c % 3, 0);
  }
  {
    // Q16 supplier complaints.
    const auto& s = db.table(db.TableId("supplier"));
    int complaints = 0;
    for (int64_t r = 0; r < s.rows(); ++r) {
      complaints += StrLike(s.column(6).data[r].s, "%Customer%Complaints%");
    }
    EXPECT_GT(complaints, 0);
  }
  {
    // Q6's discount band (0.05..0.07) and quantity bound (< 24), read as
    // decimals: hundredths and whole units.
    const auto& li = db.table(db.TableId("lineitem"));
    ASSERT_EQ(li.column(4).def.type, storage::ColType::kDec);
    ASSERT_EQ(li.column(6).def.scale, 2);
    int q6 = 0;
    for (int64_t r = 0; r < li.rows(); ++r) {
      int64_t disc = li.column(6).data[r].i;
      q6 += disc >= 5 && disc <= 7 && li.column(4).data[r].i < 24;
    }
    EXPECT_GT(q6, 0);
    EXPECT_LT(q6, li.rows());
  }
  {
    // Q22's positive account balances, in cents.
    const auto& c = db.table(db.TableId("customer"));
    int positive = 0;
    for (int64_t r = 0; r < c.rows(); ++r) positive += c.column(5).data[r].i > 0;
    EXPECT_GT(positive, 0);
    EXPECT_LT(positive, c.rows());
  }
  {
    // Q22 phone country codes are two digits derived from the nation.
    const auto& c = db.table(db.TableId("customer"));
    for (int64_t r = 0; r < std::min<int64_t>(c.rows(), 50); ++r) {
      std::string phone = c.column(4).data[r].s;
      int code = std::stoi(phone.substr(0, 2));
      EXPECT_EQ(code, c.column(3).data[r].i + 10);
    }
  }
}

// The decimal columns hold exactly what the f64 columns before them held:
// every cell is llround(old x 10^scale), where `old` is the double the
// generator used to store. p_retailprice and l_extendedprice are
// recomputed here with the old formulas; every column is also pinned by a
// checksum of the old generator's values (SF 0.01, seed 1), and the one
// money column that stays f64, o_totalprice, by a checksum of its bits.
TEST(Datagen, DecimalsEqualTheOldDoubles) {
  storage::Database db = tpch::MakeTpchDatabase(0.01, 1);
  auto col = [&](const char* t, const char* c) -> const storage::Column& {
    const storage::Table& tab = db.table(db.TableId(t));
    return tab.column(tab.def().ColumnIndex(c));
  };
  // The old formulas: retail = cents / 100.0 from the part key, extended
  // price = quantity * retail / 10.0 (three decimals).
  auto old_retail = [](int64_t part) {
    return (90000 + ((part / 10) % 20001) + 100 * (part % 1000)) / 100.0;
  };
  const storage::Column& retail = col("part", "p_retailprice");
  for (size_t r = 0; r < retail.data.size(); ++r) {
    ASSERT_EQ(retail.data[r].i,
              std::llround(old_retail(static_cast<int64_t>(r) + 1) * 100))
        << "part row " << r;
  }
  const storage::Column& qty = col("lineitem", "l_quantity");
  const storage::Column& part = col("lineitem", "l_partkey");
  const storage::Column& ext = col("lineitem", "l_extendedprice");
  for (size_t r = 0; r < ext.data.size(); ++r) {
    double old = static_cast<double>(qty.data[r].i) *
                 old_retail(part.data[r].i) / 10.0;
    ASSERT_EQ(ext.data[r].i, std::llround(old * 1000)) << "lineitem row " << r;
  }

  struct Pinned {
    const char* table;
    const char* column;
    int scale;  // -1: an f64 column, hashed by its bits
    size_t rows;
    uint64_t hash;
  };
  // FNV-1a over llround(old x 10^scale), taken from the f64 generator.
  const Pinned kPinned[] = {
      {"supplier", "s_acctbal", 2, 100, 0x8166b634620e8e74ull},
      {"customer", "c_acctbal", 2, 1500, 0x2350e8d03adf709eull},
      {"part", "p_retailprice", 2, 2000, 0x0ea24b991271e10bull},
      {"partsupp", "ps_supplycost", 2, 8000, 0x7cbfead9424ed0ccull},
      {"lineitem", "l_quantity", 0, 59970, 0xde5549546c1c78fdull},
      {"lineitem", "l_extendedprice", 3, 59970, 0x6b5bc76249b7fe59ull},
      {"lineitem", "l_discount", 2, 59970, 0x975082db8219ea1full},
      {"lineitem", "l_tax", 2, 59970, 0xda050f000076bd40ull},
      {"orders", "o_totalprice", -1, 15000, 0x2566ee4e0ddd9770ull},
  };
  for (const Pinned& p : kPinned) {
    const storage::Column& c = col(p.table, p.column);
    if (p.scale < 0) {
      EXPECT_EQ(c.def.type, storage::ColType::kF64) << p.column;
    } else {
      EXPECT_EQ(c.def.type, storage::ColType::kDec) << p.column;
      EXPECT_EQ(c.def.scale, p.scale) << p.column;
    }
    ASSERT_EQ(c.data.size(), p.rows) << p.column;
    uint64_t h = 1469598103934665603ull;
    for (const Slot& s : c.data) {
      uint64_t v;
      std::memcpy(&v, &s, sizeof(v));
      h = (h ^ v) * 1099511628211ull;
    }
    EXPECT_EQ(h, p.hash) << p.table << "." << p.column;
  }
}

TEST(Datagen, PrimaryKeysAreDense) {
  storage::Database& db = *Db();
  for (const char* name : {"part", "supplier", "customer", "orders"}) {
    const auto& t = db.table(db.TableId(name));
    for (int64_t r = 0; r < t.rows(); ++r) {
      ASSERT_EQ(t.column(0).data[r].i, r + 1) << name;
    }
  }
}

}  // namespace
}  // namespace qc
