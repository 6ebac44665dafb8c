#include "storage/database.h"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <cstring>
#include <set>
#include <unordered_set>

#include "common/timer.h"

namespace qc::storage {

const char* Table::InternString(const std::string& s) {
  char* mem = static_cast<char*>(strings_.Allocate(s.size() + 1, 1));
  std::memcpy(mem, s.c_str(), s.size() + 1);
  return mem;
}

size_t Table::MemoryBytes() const {
  size_t total = strings_.bytes_reserved();
  for (const Column& c : columns_) total += c.data.size() * sizeof(Slot);
  return total;
}

int32_t StringDictionary::CodeOf(const std::string& value) const {
  auto it = std::lower_bound(sorted_values.begin(), sorted_values.end(), value);
  if (it == sorted_values.end() || *it != value) return -1;
  return static_cast<int32_t>(it - sorted_values.begin());
}

std::pair<int32_t, int32_t> StringDictionary::PrefixRange(
    const std::string& prefix) const {
  auto lo = std::lower_bound(sorted_values.begin(), sorted_values.end(), prefix);
  std::string hi_key = prefix;
  // Smallest string strictly greater than every prefix-extension.
  hi_key.push_back(static_cast<char>(0x7f));
  auto hi = std::upper_bound(sorted_values.begin(), sorted_values.end(), hi_key);
  return {static_cast<int32_t>(lo - sorted_values.begin()),
          static_cast<int32_t>(hi - sorted_values.begin()) - 1};
}

Table* Database::AddTable(TableDef def) {
  by_name_[def.name] = static_cast<int>(tables_.size());
  tables_.push_back(std::make_unique<Table>(std::move(def)));
  return tables_.back().get();
}

int Database::TableId(const std::string& name) const {
  auto it = by_name_.find(name);
  return it == by_name_.end() ? -1 : it->second;
}

const StringDictionary& Database::Dictionary(int table, int column) {
  auto key = std::make_pair(table, column);
  auto it = dicts_.find(key);
  if (it != dicts_.end()) return it->second;
  Timer t;
  const Column& col = tables_[table]->column(column);
  assert(col.def.type == ColType::kStr);
  std::set<std::string> distinct;
  for (const Slot& s : col.data) distinct.insert(s.s);
  StringDictionary dict;
  dict.sorted_values.assign(distinct.begin(), distinct.end());
  dict.codes.reserve(col.data.size());
  for (const Slot& s : col.data) dict.codes.push_back(dict.CodeOf(s.s));
  load_side_ms_ += t.ElapsedMs();
  return dicts_[key] = std::move(dict);
}

bool Database::HasDictionary(int table, int column) const {
  return dicts_.count(std::make_pair(table, column)) != 0;
}

const PartitionedIndex& Database::Partition(int table, int column) {
  auto key = std::make_pair(table, column);
  auto it = partitions_.find(key);
  if (it != partitions_.end()) return it->second;
  Timer t;
  const Column& col = tables_[table]->column(column);
  PartitionedIndex idx;
  for (const Slot& s : col.data) idx.max_key = std::max(idx.max_key, s.i);
  idx.offsets.assign(idx.max_key + 2, 0);
  for (const Slot& s : col.data) ++idx.offsets[s.i + 1];
  for (size_t i = 1; i < idx.offsets.size(); ++i) {
    idx.offsets[i] += idx.offsets[i - 1];
  }
  idx.rows.resize(col.data.size());
  std::vector<int64_t> cursor(idx.offsets.begin(), idx.offsets.end() - 1);
  for (int64_t r = 0; r < static_cast<int64_t>(col.data.size()); ++r) {
    idx.rows[cursor[col.data[r].i]++] = r;
  }
  load_side_ms_ += t.ElapsedMs();
  return partitions_[key] = std::move(idx);
}

const PkIndex& Database::PrimaryIndex(int table, int column) {
  auto key = std::make_pair(table, column);
  auto it = pk_indexes_.find(key);
  if (it != pk_indexes_.end()) return it->second;
  Timer t;
  const Column& col = tables_[table]->column(column);
  PkIndex idx;
  for (const Slot& s : col.data) idx.max_key = std::max(idx.max_key, s.i);
  idx.row_of.assign(idx.max_key + 1, -1);
  for (int64_t r = 0; r < static_cast<int64_t>(col.data.size()); ++r) {
    idx.row_of[col.data[r].i] = r;
  }
  load_side_ms_ += t.ElapsedMs();
  return pk_indexes_[key] = std::move(idx);
}

const ColumnStats& Database::Stats(int table, int column) {
  auto key = std::make_pair(table, column);
  auto it = stats_.find(key);
  if (it != stats_.end()) return it->second;
  Timer t;
  const Column& col = tables_[table]->column(column);
  ColumnStats st;
  if (col.def.type == ColType::kStr) {
    st.distinct = static_cast<int64_t>(Dictionary(table, column)
                                           .sorted_values.size());
  } else {
    std::unordered_set<int64_t> seen;
    bool first = true;
    for (const Slot& s : col.data) {
      int64_t v = s.i;  // an f64's bit pattern
      if (first || v < st.min_i64) st.min_i64 = v;
      if (first || v > st.max_i64) st.max_i64 = v;
      first = false;
      seen.insert(v);
    }
    st.distinct = static_cast<int64_t>(seen.size());
  }
  load_side_ms_ += t.ElapsedMs();
  return stats_[key] = st;
}

size_t Database::MemoryBytes() const {
  size_t total = 0;
  for (const auto& t : tables_) total += t->MemoryBytes();
  for (const auto& [k, d] : dicts_) {
    total += d.codes.size() * sizeof(int32_t);
    for (const auto& s : d.sorted_values) total += s.size() + 1;
  }
  for (const auto& [k, p] : partitions_) {
    total += (p.offsets.size() + p.rows.size()) * sizeof(int64_t);
  }
  for (const auto& [k, p] : pk_indexes_) {
    total += p.row_of.size() * sizeof(int64_t);
  }
  return total;
}

void Database::ExportBinary(const std::string& dir) const {
  for (const auto& t : tables_) {
    const std::string base = dir + "/" + t->def().name;
    {
      FILE* f = std::fopen((base + ".meta").c_str(), "w");
      if (f == nullptr) continue;
      std::fprintf(f, "%lld\n", static_cast<long long>(t->rows()));
      std::fclose(f);
    }
    for (size_t c = 0; c < t->num_columns(); ++c) {
      const Column& col = t->column(static_cast<int>(c));
      FILE* f = std::fopen((base + "." + col.def.name + ".bin").c_str(), "wb");
      if (f == nullptr) continue;
      if (col.def.type == ColType::kStr) {
        for (const Slot& s : col.data) {
          uint32_t len = static_cast<uint32_t>(std::strlen(s.s));
          std::fwrite(&len, sizeof(len), 1, f);
          std::fwrite(s.s, 1, len, f);
        }
      } else {
        for (const Slot& s : col.data) std::fwrite(&s.i, sizeof(int64_t), 1, f);
      }
      std::fclose(f);
    }
  }
}

void Database::ExportAux(const std::string& dir) const {
  auto write_vec = [&](const std::string& path, const void* data,
                       size_t bytes) {
    FILE* f = std::fopen(path.c_str(), "wb");
    if (f == nullptr) return;
    std::fwrite(data, 1, bytes, f);
    std::fclose(f);
  };
  auto base = [&](int t, int c) {
    return dir + "/" + tables_[t]->def().name + "." +
           tables_[t]->def().columns[c].name;
  };
  for (const auto& [key, d] : dicts_) {
    write_vec(base(key.first, key.second) + ".dict.bin", d.codes.data(),
              d.codes.size() * sizeof(int32_t));
  }
  for (const auto& [key, p] : partitions_) {
    write_vec(base(key.first, key.second) + ".part.off.bin", p.offsets.data(),
              p.offsets.size() * sizeof(int64_t));
    write_vec(base(key.first, key.second) + ".part.rows.bin", p.rows.data(),
              p.rows.size() * sizeof(int64_t));
  }
  for (const auto& [key, p] : pk_indexes_) {
    write_vec(base(key.first, key.second) + ".pk.bin", p.row_of.data(),
              p.row_of.size() * sizeof(int64_t));
  }
}

}  // namespace qc::storage
