#include "tpch/schema.h"

namespace qc::tpch {

using storage::ColType;
using storage::ForeignKey;
using storage::TableDef;

namespace {

TableDef Region() {
  TableDef t;
  t.name = "region";
  t.columns = {{"r_regionkey", ColType::kI64},
               {"r_name", ColType::kStr},
               {"r_comment", ColType::kStr}};
  t.primary_key = 0;
  return t;
}

TableDef Nation() {
  TableDef t;
  t.name = "nation";
  t.columns = {{"n_nationkey", ColType::kI64},
               {"n_name", ColType::kStr},
               {"n_regionkey", ColType::kI64},
               {"n_comment", ColType::kStr}};
  t.primary_key = 0;
  t.foreign_keys = {ForeignKey{2, "region", 0}};
  return t;
}

TableDef Supplier() {
  TableDef t;
  t.name = "supplier";
  t.columns = {{"s_suppkey", ColType::kI64},   {"s_name", ColType::kStr},
               {"s_address", ColType::kStr},   {"s_nationkey", ColType::kI64},
               {"s_phone", ColType::kStr},     {"s_acctbal", ColType::kDec, 2},
               {"s_comment", ColType::kStr}};
  t.primary_key = 0;
  t.foreign_keys = {ForeignKey{3, "nation", 0}};
  return t;
}

TableDef Customer() {
  TableDef t;
  t.name = "customer";
  t.columns = {{"c_custkey", ColType::kI64},    {"c_name", ColType::kStr},
               {"c_address", ColType::kStr},    {"c_nationkey", ColType::kI64},
               {"c_phone", ColType::kStr},      {"c_acctbal", ColType::kDec, 2},
               {"c_mktsegment", ColType::kStr}, {"c_comment", ColType::kStr}};
  t.primary_key = 0;
  t.foreign_keys = {ForeignKey{3, "nation", 0}};
  return t;
}

TableDef Part() {
  TableDef t;
  t.name = "part";
  t.columns = {{"p_partkey", ColType::kI64},
               {"p_name", ColType::kStr},
               {"p_mfgr", ColType::kStr},
               {"p_brand", ColType::kStr},
               {"p_type", ColType::kStr},
               {"p_size", ColType::kI64},
               {"p_container", ColType::kStr},
               {"p_retailprice", ColType::kDec, 2},
               {"p_comment", ColType::kStr}};
  t.primary_key = 0;
  return t;
}

TableDef PartSupp() {
  TableDef t;
  t.name = "partsupp";
  t.columns = {{"ps_partkey", ColType::kI64},
               {"ps_suppkey", ColType::kI64},
               {"ps_availqty", ColType::kI64},
               {"ps_supplycost", ColType::kDec, 2},
               {"ps_comment", ColType::kStr}};
  t.unique_key = {0, 1};
  t.foreign_keys = {ForeignKey{0, "part", 0}, ForeignKey{1, "supplier", 0}};
  return t;
}

TableDef Orders() {
  TableDef t;
  t.name = "orders";
  t.columns = {{"o_orderkey", ColType::kI64},
               {"o_custkey", ColType::kI64},
               {"o_orderstatus", ColType::kStr},
               // A sum of rounded products in double (datagen.cc); no
               // query sums it, Q18 outputs and sorts it.
               {"o_totalprice", ColType::kF64},
               {"o_orderdate", ColType::kDate},
               {"o_orderpriority", ColType::kStr},
               {"o_clerk", ColType::kStr},
               {"o_shippriority", ColType::kI64},
               {"o_comment", ColType::kStr}};
  t.primary_key = 0;
  t.foreign_keys = {ForeignKey{1, "customer", 0}};
  return t;
}

TableDef Lineitem() {
  TableDef t;
  t.name = "lineitem";
  t.columns = {{"l_orderkey", ColType::kI64},
               {"l_partkey", ColType::kI64},
               {"l_suppkey", ColType::kI64},
               {"l_linenumber", ColType::kI64},
               {"l_quantity", ColType::kDec, 0},
               {"l_extendedprice", ColType::kDec, 3},
               {"l_discount", ColType::kDec, 2},
               {"l_tax", ColType::kDec, 2},
               {"l_returnflag", ColType::kStr},
               {"l_linestatus", ColType::kStr},
               {"l_shipdate", ColType::kDate},
               {"l_commitdate", ColType::kDate},
               {"l_receiptdate", ColType::kDate},
               {"l_shipinstruct", ColType::kStr},
               {"l_shipmode", ColType::kStr},
               {"l_comment", ColType::kStr}};
  t.unique_key = {0, 3};
  t.foreign_keys = {ForeignKey{0, "orders", 0}, ForeignKey{1, "part", 0},
                    ForeignKey{2, "supplier", 0}};
  return t;
}

}  // namespace

void AddTpchSchema(storage::Database* db) {
  db->AddTable(Region());
  db->AddTable(Nation());
  db->AddTable(Supplier());
  db->AddTable(Customer());
  db->AddTable(Part());
  db->AddTable(PartSupp());
  db->AddTable(Orders());
  db->AddTable(Lineitem());
}

}  // namespace qc::tpch
