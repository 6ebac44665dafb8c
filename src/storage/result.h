// Query result container plus the comparison helpers the test suite uses to
// check compiled results against the Volcano oracle.
#ifndef QC_STORAGE_RESULT_H_
#define QC_STORAGE_RESULT_H_

#include <memory>
#include <string>
#include <vector>

#include "common/value.h"
#include "storage/schema.h"

namespace qc::storage {

// Move-only: string slots point into the table's own interned storage, so a
// copy would alias the source's strings and dangle once the source dies.
class ResultTable {
 public:
  ResultTable() = default;
  explicit ResultTable(std::vector<ColType> types)
      : types_(std::move(types)) {}
  ResultTable(const ResultTable&) = delete;
  ResultTable& operator=(const ResultTable&) = delete;
  ResultTable(ResultTable&&) noexcept = default;
  ResultTable& operator=(ResultTable&&) noexcept = default;

  void SetTypes(std::vector<ColType> types) { types_ = std::move(types); }
  const std::vector<ColType>& types() const { return types_; }

  void AddRow(std::vector<Slot> row) { rows_.push_back(std::move(row)); }
  size_t size() const { return rows_.size(); }
  const std::vector<Slot>& row(size_t i) const { return rows_[i]; }

  // Strings appended to a result may point into transient memory; this
  // copies them into storage owned by the result.
  const char* InternString(const std::string& s);

  // Canonical text form of one row: doubles printed to 2 decimals (TPC-H
  // money semantics; every engine computes them bit for bit alike, so no
  // rounding slack is needed), dates as yyyy-mm-dd.
  std::string RowToString(size_t i) const;
  std::string ToString(size_t max_rows = 100) const;

  // Multiset equality on canonical row text. Query-level ordering is checked
  // separately by the sort unit tests; multiset comparison keeps the oracle
  // check robust to tie-breaking differences.
  bool SameRows(const ResultTable& other, std::string* diff = nullptr) const;

 private:
  std::vector<ColType> types_;
  std::vector<std::vector<Slot>> rows_;
  // One heap string each: interned c_str() pointers must survive later
  // insertions and moves of the table (SSO strings relocate with their
  // container), and a vector keeps the move noexcept.
  std::vector<std::unique_ptr<std::string>> owned_strings_;
};

}  // namespace qc::storage

#endif  // QC_STORAGE_RESULT_H_
