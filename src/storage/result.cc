#include "storage/result.h"

#include <algorithm>
#include <cstdio>
#include <sstream>

#include "common/date.h"

namespace qc::storage {

const char* ResultTable::InternString(const std::string& s) {
  owned_strings_.push_back(std::make_unique<std::string>(s));
  return owned_strings_.back()->c_str();
}

std::string ResultTable::RowToString(size_t i) const {
  std::ostringstream out;
  const std::vector<Slot>& r = rows_[i];
  for (size_t c = 0; c < r.size(); ++c) {
    if (c > 0) out << "|";
    ColType t = c < types_.size() ? types_[c] : ColType::kI64;
    switch (t) {
      case ColType::kI64:
        out << r[c].i;
        break;
      case ColType::kF64:
      case ColType::kDec: {  // a result never holds a decimal (ToColType)
        char buf[64];
        std::snprintf(buf, sizeof(buf), "%.2f", r[c].d);
        out << buf;
        break;
      }
      case ColType::kStr:
        out << (r[c].s != nullptr ? r[c].s : "<null>");
        break;
      case ColType::kDate:
        out << FormatDate(static_cast<Date>(r[c].i));
        break;
    }
  }
  return out.str();
}

std::string ResultTable::ToString(size_t max_rows) const {
  std::ostringstream out;
  for (size_t i = 0; i < rows_.size() && i < max_rows; ++i) {
    out << RowToString(i) << "\n";
  }
  if (rows_.size() > max_rows) {
    out << "... (" << rows_.size() - max_rows << " more rows)\n";
  }
  return out.str();
}

bool ResultTable::SameRows(const ResultTable& other, std::string* diff) const {
  std::vector<std::string> a, b;
  a.reserve(rows_.size());
  b.reserve(other.rows_.size());
  for (size_t i = 0; i < rows_.size(); ++i) a.push_back(RowToString(i));
  for (size_t i = 0; i < other.rows_.size(); ++i) {
    b.push_back(other.RowToString(i));
  }
  std::sort(a.begin(), a.end());
  std::sort(b.begin(), b.end());
  if (a == b) return true;
  if (diff != nullptr) {
    std::ostringstream out;
    out << "row-count " << a.size() << " vs " << b.size() << "\n";
    size_t shown = 0;
    for (const std::string& r : a) {
      if (!std::binary_search(b.begin(), b.end(), r) && shown++ < 5) {
        out << "  only-left:  " << r << "\n";
      }
    }
    shown = 0;
    for (const std::string& r : b) {
      if (!std::binary_search(a.begin(), a.end(), r) && shown++ < 5) {
        out << "  only-right: " << r << "\n";
      }
    }
    *diff = out.str();
  }
  return false;
}

}  // namespace qc::storage
