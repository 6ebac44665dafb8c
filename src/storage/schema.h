// Logical schema: table and column definitions with primary/foreign key
// annotations. The paper's index-inference and partitioning optimizations
// (Appendix B.1) are driven entirely by these schema annotations plus
// load-time statistics.
#ifndef QC_STORAGE_SCHEMA_H_
#define QC_STORAGE_SCHEMA_H_

#include <string>
#include <vector>

namespace qc::storage {

// kDec columns hold exact decimals as int64 counts of 10^-scale units.
enum class ColType { kI64, kF64, kStr, kDate, kDec };

const char* ColTypeName(ColType t);

struct ColumnDef {
  std::string name;
  ColType type = ColType::kI64;
  int scale = 0;  // kDec only
};

struct ForeignKey {
  int column = -1;            // column index in this table
  std::string ref_table;      // referenced table name
  int ref_column = -1;        // referenced column index (its PK)
};

struct TableDef {
  std::string name;
  std::vector<ColumnDef> columns;
  int primary_key = -1;  // single-column integer PK, or -1
  // Columns that together identify a row, for a table without a
  // single-column PK (partsupp, lineitem); bounds join cardinalities.
  std::vector<int> unique_key;
  std::vector<ForeignKey> foreign_keys;

  int ColumnIndex(const std::string& cname) const;
  bool IsForeignKey(int column) const;
};

}  // namespace qc::storage

#endif  // QC_STORAGE_SCHEMA_H_
