#include "storage/schema.h"

namespace qc::storage {

const char* ColTypeName(ColType t) {
  switch (t) {
    case ColType::kI64: return "i64";
    case ColType::kF64: return "f64";
    case ColType::kStr: return "str";
    case ColType::kDate: return "date";
    case ColType::kDec: return "dec";
  }
  return "?";
}

int TableDef::ColumnIndex(const std::string& cname) const {
  for (size_t i = 0; i < columns.size(); ++i) {
    if (columns[i].name == cname) return static_cast<int>(i);
  }
  return -1;
}

bool TableDef::IsForeignKey(int column) const {
  for (const ForeignKey& fk : foreign_keys) {
    if (fk.column == column) return true;
  }
  return false;
}

}  // namespace qc::storage
