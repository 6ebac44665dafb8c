#include "tpch/datagen.h"

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "common/date.h"
#include "common/rng.h"
#include "tpch/schema.h"

namespace qc::tpch {

namespace {

// --- dbgen vocabularies -------------------------------------------------------

const char* kRegions[] = {"AFRICA", "AMERICA", "ASIA", "EUROPE",
                          "MIDDLE EAST"};

struct NationDef {
  const char* name;
  int region;
};
// The 25 nations with dbgen's nation->region mapping.
const NationDef kNations[] = {
    {"ALGERIA", 0},     {"ARGENTINA", 1}, {"BRAZIL", 1},
    {"CANADA", 1},      {"EGYPT", 4},     {"ETHIOPIA", 0},
    {"FRANCE", 3},      {"GERMANY", 3},   {"INDIA", 2},
    {"INDONESIA", 2},   {"IRAN", 4},      {"IRAQ", 4},
    {"JAPAN", 2},       {"JORDAN", 4},    {"KENYA", 0},
    {"MOROCCO", 0},     {"MOZAMBIQUE", 0},{"PERU", 1},
    {"CHINA", 2},       {"ROMANIA", 3},   {"SAUDI ARABIA", 4},
    {"VIETNAM", 2},     {"RUSSIA", 3},    {"UNITED KINGDOM", 3},
    {"UNITED STATES", 1}};

// dbgen's P_NAME color words (Q9 '%green%', Q20 'forest%').
const char* kColors[] = {
    "almond",    "antique",   "aquamarine", "azure",     "beige",
    "bisque",    "black",     "blanched",   "blue",      "blush",
    "brown",     "burlywood", "burnished",  "chartreuse","chiffon",
    "chocolate", "coral",     "cornflower", "cornsilk",  "cream",
    "cyan",      "dark",      "deep",       "dim",       "dodger",
    "drab",      "firebrick", "floral",     "forest",    "frosted",
    "gainsboro", "ghost",     "goldenrod",  "green",     "grey",
    "honeydew",  "hot",       "indian",     "ivory",     "khaki",
    "lace",      "lavender",  "lawn",       "lemon",     "light",
    "lime",      "linen",     "magenta",    "maroon",    "medium"};

const char* kTypeSyllable1[] = {"STANDARD", "SMALL", "MEDIUM",
                                "LARGE",    "ECONOMY", "PROMO"};
const char* kTypeSyllable2[] = {"ANODIZED", "BURNISHED", "PLATED",
                                "POLISHED", "BRUSHED"};
const char* kTypeSyllable3[] = {"TIN", "NICKEL", "BRASS", "STEEL", "COPPER"};

const char* kContainerSyllable1[] = {"SM", "LG", "MED", "JUMBO", "WRAP"};
const char* kContainerSyllable2[] = {"CASE", "BOX", "BAG", "JAR",
                                     "PKG", "PACK", "CAN", "DRUM"};

const char* kSegments[] = {"AUTOMOBILE", "BUILDING", "FURNITURE", "MACHINERY",
                           "HOUSEHOLD"};
const char* kPriorities[] = {"1-URGENT", "2-HIGH", "3-MEDIUM",
                             "4-NOT SPECIFIED", "5-LOW"};
const char* kShipModes[] = {"REG AIR", "AIR", "RAIL", "SHIP",
                            "TRUCK", "MAIL", "FOB"};
const char* kShipInstructs[] = {"DELIVER IN PERSON", "COLLECT COD", "NONE",
                                "TAKE BACK RETURN"};

const char* kWords[] = {
    "carefully", "quickly", "furiously", "slyly",     "blithely", "ironic",
    "final",     "regular", "express",   "bold",      "pending",  "even",
    "silent",    "unusual", "daring",    "deposits",  "packages", "accounts",
    "requests",  "ideas",   "platelets", "theodolites", "instructions",
    "dependencies", "foxes", "pinto",    "beans",     "sleep",    "nag",
    "haggle",    "wake",    "among",     "about",     "above"};

constexpr Date kStartDate = MakeDate(1992, 1, 1);
constexpr Date kEndDate = MakeDate(1998, 8, 2);
constexpr Date kCurrentDate = MakeDate(1995, 6, 17);

class Generator {
 public:
  Generator(storage::Database* db, const GenConfig& cfg)
      : db_(db), rng_(cfg.seed), sf_(cfg.scale_factor) {}

  void Run() {
    GenRegion();
    GenNation();
    GenSupplier();
    GenCustomer();
    GenPart();
    GenPartSupp();
    GenOrdersAndLineitem();
  }

 private:
  storage::Table& T(const char* name) {
    return db_->table(db_->TableId(name));
  }

  const char* Str(storage::Table& t, const std::string& s) {
    return t.InternString(s);
  }

  std::string RandomText(int words) {
    std::string s;
    for (int i = 0; i < words; ++i) {
      if (i > 0) s.push_back(' ');
      s += kWords[rng_.Uniform(0, std::size(kWords) - 1)];
    }
    return s;
  }

  // A money amount in cents (a scale-2 decimal).
  int64_t Money(double lo, double hi) {
    return rng_.Uniform(static_cast<int64_t>(lo * 100),
                        static_cast<int64_t>(hi * 100));
  }

  Date RandomDate(Date lo, Date hi) {
    return OrdinalToDate(
        static_cast<int>(rng_.Uniform(DateToOrdinal(lo), DateToOrdinal(hi))));
  }

  std::string Phone(int64_t nationkey) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%02d-%03d-%03d-%04d",
                  static_cast<int>(nationkey) + 10,
                  static_cast<int>(rng_.Uniform(100, 999)),
                  static_cast<int>(rng_.Uniform(100, 999)),
                  static_cast<int>(rng_.Uniform(1000, 9999)));
    return buf;
  }

  void GenRegion() {
    storage::Table& t = T("region");
    for (int i = 0; i < 5; ++i) {
      t.column(0).data.push_back(SlotI(i));
      t.column(1).data.push_back(SlotS(Str(t, kRegions[i])));
      t.column(2).data.push_back(SlotS(Str(t, RandomText(5))));
    }
  }

  void GenNation() {
    storage::Table& t = T("nation");
    for (int i = 0; i < 25; ++i) {
      t.column(0).data.push_back(SlotI(i));
      t.column(1).data.push_back(SlotS(Str(t, kNations[i].name)));
      t.column(2).data.push_back(SlotI(kNations[i].region));
      t.column(3).data.push_back(SlotS(Str(t, RandomText(6))));
    }
  }

  void GenSupplier() {
    storage::Table& t = T("supplier");
    int64_t n = std::max<int64_t>(10, static_cast<int64_t>(10000 * sf_));
    num_suppliers_ = n;
    for (int64_t i = 1; i <= n; ++i) {
      char name[32];
      std::snprintf(name, sizeof(name), "Supplier#%09lld",
                    static_cast<long long>(i));
      int64_t nation = rng_.Uniform(0, 24);
      t.column(0).data.push_back(SlotI(i));
      t.column(1).data.push_back(SlotS(Str(t, name)));
      t.column(2).data.push_back(SlotS(Str(t, RandomText(3))));
      t.column(3).data.push_back(SlotI(nation));
      t.column(4).data.push_back(SlotS(Str(t, Phone(nation))));
      t.column(5).data.push_back(SlotI(Money(-999.99, 9999.99)));
      // A deterministic ~3% of suppliers carry the Q16 complaint marker
      // (deterministic so the predicate is populated at every scale).
      std::string comment = RandomText(6);
      if (i % 37 == 5) {
        comment += " Customer unhappy Complaints";
      }
      t.column(6).data.push_back(SlotS(Str(t, comment)));
    }
  }

  void GenCustomer() {
    storage::Table& t = T("customer");
    int64_t n = std::max<int64_t>(50, static_cast<int64_t>(150000 * sf_));
    num_customers_ = n;
    for (int64_t i = 1; i <= n; ++i) {
      char name[32];
      std::snprintf(name, sizeof(name), "Customer#%09lld",
                    static_cast<long long>(i));
      int64_t nation = rng_.Uniform(0, 24);
      t.column(0).data.push_back(SlotI(i));
      t.column(1).data.push_back(SlotS(Str(t, name)));
      t.column(2).data.push_back(SlotS(Str(t, RandomText(3))));
      t.column(3).data.push_back(SlotI(nation));
      t.column(4).data.push_back(SlotS(Str(t, Phone(nation))));
      t.column(5).data.push_back(SlotI(Money(-999.99, 9999.99)));
      t.column(6).data.push_back(
          SlotS(Str(t, kSegments[rng_.Uniform(0, 4)])));
      t.column(7).data.push_back(SlotS(Str(t, RandomText(8))));
    }
  }

  void GenPart() {
    storage::Table& t = T("part");
    int64_t n = std::max<int64_t>(40, static_cast<int64_t>(200000 * sf_));
    num_parts_ = n;
    for (int64_t i = 1; i <= n; ++i) {
      // p_name: five color words, matching dbgen.
      std::string pname;
      for (int w = 0; w < 5; ++w) {
        if (w > 0) pname.push_back(' ');
        pname += kColors[rng_.Uniform(0, std::size(kColors) - 1)];
      }
      int m = static_cast<int>(rng_.Uniform(1, 5));
      int nbr = static_cast<int>(rng_.Uniform(1, 5));
      char mfgr[32], brand[32];
      std::snprintf(mfgr, sizeof(mfgr), "Manufacturer#%d", m);
      std::snprintf(brand, sizeof(brand), "Brand#%d%d", m, nbr);
      std::string type = std::string(kTypeSyllable1[rng_.Uniform(0, 5)]) +
                         " " + kTypeSyllable2[rng_.Uniform(0, 4)] + " " +
                         kTypeSyllable3[rng_.Uniform(0, 4)];
      std::string container =
          std::string(kContainerSyllable1[rng_.Uniform(0, 4)]) + " " +
          kContainerSyllable2[rng_.Uniform(0, 7)];
      t.column(0).data.push_back(SlotI(i));
      t.column(1).data.push_back(SlotS(Str(t, pname)));
      t.column(2).data.push_back(SlotS(Str(t, mfgr)));
      t.column(3).data.push_back(SlotS(Str(t, brand)));
      t.column(4).data.push_back(SlotS(Str(t, type)));
      t.column(5).data.push_back(SlotI(rng_.Uniform(1, 50)));
      t.column(6).data.push_back(SlotS(Str(t, container)));
      // dbgen: retailprice derived from the key.
      int64_t cents = 90000 + ((i / 10) % 20001) + 100 * (i % 1000);
      t.column(7).data.push_back(SlotI(cents));
      t.column(8).data.push_back(SlotS(Str(t, RandomText(4))));
    }
  }

  void GenPartSupp() {
    storage::Table& t = T("partsupp");
    for (int64_t p = 1; p <= num_parts_; ++p) {
      for (int j = 0; j < 4; ++j) {
        // dbgen's supplier spread for a part.
        int64_t s = 1 + (p + j * (num_suppliers_ / 4 +
                                  (p - 1) / num_suppliers_)) %
                            num_suppliers_;
        t.column(0).data.push_back(SlotI(p));
        t.column(1).data.push_back(SlotI(s));
        t.column(2).data.push_back(SlotI(rng_.Uniform(1, 9999)));
        t.column(3).data.push_back(SlotI(Money(1.00, 1000.00)));
        t.column(4).data.push_back(SlotS(Str(t, RandomText(10))));
      }
    }
  }

  void GenOrdersAndLineitem() {
    storage::Table& o = T("orders");
    storage::Table& l = T("lineitem");
    int64_t n = std::max<int64_t>(150, static_cast<int64_t>(1500000 * sf_));
    for (int64_t i = 1; i <= n; ++i) {
      // dbgen never assigns orders to customers with custkey % 3 == 0, which
      // keeps Q13's zero-order bucket and Q22's anti-join non-trivial.
      int64_t cust = rng_.Uniform(1, num_customers_);
      while (cust % 3 == 0) cust = rng_.Uniform(1, num_customers_);
      Date odate = RandomDate(kStartDate, DateAddDays(kEndDate, -151));
      int nlines = static_cast<int>(rng_.Uniform(1, 7));

      double total = 0;
      int fcount = 0;
      for (int ln = 1; ln <= nlines; ++ln) {
        int64_t part = rng_.Uniform(1, num_parts_);
        // Supplier from the part's partsupp entries so joins through
        // partsupp (Q9/Q20) find matches.
        int j = static_cast<int>(rng_.Uniform(0, 3));
        int64_t supp = 1 + (part + j * (num_suppliers_ / 4 +
                                        (part - 1) / num_suppliers_)) %
                               num_suppliers_;
        // Decimals: quantity (scale 0), extended price in tenths of a cent
        // (scale 3: quantity * retail cents / 10 dollars), discount and
        // tax in hundredths. o_totalprice stays the double it always was.
        int64_t qty = rng_.Uniform(1, 50);
        int64_t retail_cents =
            90000 + ((part / 10) % 20001) + 100 * (part % 1000);
        int64_t disc_pct = rng_.Uniform(0, 10);
        int64_t tax_pct = rng_.Uniform(0, 8);
        double extprice =
            static_cast<double>(qty) * (retail_cents / 100.0) / 10.0;
        double discount = disc_pct / 100.0;
        double tax = tax_pct / 100.0;
        Date shipdate = DateAddDays(odate, static_cast<int>(rng_.Uniform(1, 121)));
        Date commitdate =
            DateAddDays(odate, static_cast<int>(rng_.Uniform(30, 90)));
        Date receiptdate =
            DateAddDays(shipdate, static_cast<int>(rng_.Uniform(1, 30)));
        const char* returnflag =
            receiptdate <= kCurrentDate
                ? (rng_.Uniform(0, 1) == 0 ? "R" : "A")
                : "N";
        const char* linestatus = shipdate > kCurrentDate ? "O" : "F";
        if (linestatus[0] == 'F') ++fcount;
        total += extprice * (1 + tax) * (1 - discount);

        l.column(0).data.push_back(SlotI(i));
        l.column(1).data.push_back(SlotI(part));
        l.column(2).data.push_back(SlotI(supp));
        l.column(3).data.push_back(SlotI(ln));
        l.column(4).data.push_back(SlotI(qty));
        l.column(5).data.push_back(SlotI(qty * retail_cents));
        l.column(6).data.push_back(SlotI(disc_pct));
        l.column(7).data.push_back(SlotI(tax_pct));
        l.column(8).data.push_back(SlotS(Str(l, returnflag)));
        l.column(9).data.push_back(SlotS(Str(l, linestatus)));
        l.column(10).data.push_back(SlotI(shipdate));
        l.column(11).data.push_back(SlotI(commitdate));
        l.column(12).data.push_back(SlotI(receiptdate));
        l.column(13).data.push_back(
            SlotS(Str(l, kShipInstructs[rng_.Uniform(0, 3)])));
        l.column(14).data.push_back(
            SlotS(Str(l, kShipModes[rng_.Uniform(0, 6)])));
        l.column(15).data.push_back(SlotS(Str(l, RandomText(4))));
      }

      const char* status =
          fcount == nlines ? "F" : (fcount == 0 ? "O" : "P");
      char clerk[32];
      std::snprintf(clerk, sizeof(clerk), "Clerk#%09d",
                    static_cast<int>(rng_.Uniform(1, 1000)));
      // ~2% of order comments carry the Q13 'special ... requests' marker.
      std::string comment = RandomText(6);
      if (rng_.Uniform(0, 49) == 0) {
        comment += " special packages requests";
      }
      o.column(0).data.push_back(SlotI(i));
      o.column(1).data.push_back(SlotI(cust));
      o.column(2).data.push_back(SlotS(Str(o, status)));
      o.column(3).data.push_back(SlotD(total));
      o.column(4).data.push_back(SlotI(odate));
      o.column(5).data.push_back(SlotS(Str(o, kPriorities[rng_.Uniform(0, 4)])));
      o.column(6).data.push_back(SlotS(Str(o, clerk)));
      o.column(7).data.push_back(SlotI(0));
      o.column(8).data.push_back(SlotS(Str(o, comment)));
    }
  }

  storage::Database* db_;
  Rng rng_;
  double sf_;
  int64_t num_suppliers_ = 0;
  int64_t num_customers_ = 0;
  int64_t num_parts_ = 0;
};

}  // namespace

void Generate(storage::Database* db, const GenConfig& config) {
  Generator(db, config).Run();
}

storage::Database MakeTpchDatabase(double scale_factor, uint64_t seed) {
  storage::Database db;
  AddTpchSchema(&db);
  GenConfig cfg;
  cfg.scale_factor = scale_factor;
  cfg.seed = seed;
  Generate(&db, cfg);
  return db;
}

}  // namespace qc::tpch
