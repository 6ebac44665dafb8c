#include "ir/type.h"

#include <cstdlib>
#include <string>

namespace qc::ir {

const char* TypeKindName(TypeKind k) {
  switch (k) {
    case TypeKind::kVoid: return "void";
    case TypeKind::kBool: return "bool";
    case TypeKind::kI32: return "i32";
    case TypeKind::kI64: return "i64";
    case TypeKind::kF64: return "f64";
    case TypeKind::kStr: return "str";
    case TypeKind::kDate: return "date";
    case TypeKind::kRecord: return "record";
    case TypeKind::kArray: return "array";
    case TypeKind::kList: return "list";
    case TypeKind::kMap: return "map";
    case TypeKind::kMMap: return "mmap";
    case TypeKind::kPtr: return "ptr";
    case TypeKind::kPool: return "pool";
  }
  return "?";
}

int RecordSchema::FieldIndex(const std::string& fname) const {
  for (size_t i = 0; i < fields.size(); ++i) {
    if (fields[i].name == fname) return static_cast<int>(i);
  }
  return -1;
}

std::string Type::ToString() const {
  switch (kind) {
    case TypeKind::kRecord:
      return record->name;
    case TypeKind::kArray:
      return "Array[" + elem->ToString() + "]";
    case TypeKind::kList:
      return "List[" + elem->ToString() + "]";
    case TypeKind::kMap:
      return "HashMap[" + key->ToString() + "," + value->ToString() + "]";
    case TypeKind::kMMap:
      return "MultiMap[" + key->ToString() + "," + value->ToString() + "]";
    case TypeKind::kPtr:
      return "Ptr[" + elem->ToString() + "]";
    case TypeKind::kPool:
      return "Pool[" + elem->ToString() + "]";
    default:
      return TypeKindName(kind);
  }
}

TypeFactory::TypeFactory() {
  void_ = Make(TypeKind::kVoid);
  bool_ = Make(TypeKind::kBool);
  i32_ = Make(TypeKind::kI32);
  i64_ = Make(TypeKind::kI64);
  f64_ = Make(TypeKind::kF64);
  str_ = Make(TypeKind::kStr);
  date_ = Make(TypeKind::kDate);
}

const Type* TypeFactory::Make(TypeKind kind, const Type* a, const Type* b) {
  storage_.push_back(Type{});
  Type& t = storage_.back();
  t.kind = kind;
  switch (kind) {
    case TypeKind::kArray:
    case TypeKind::kList:
    case TypeKind::kPtr:
    case TypeKind::kPool:
      t.elem = a;
      break;
    case TypeKind::kMap:
    case TypeKind::kMMap:
      t.key = a;
      t.value = b;
      break;
    default:
      break;
  }
  return &t;
}

const Type* TypeFactory::Array(const Type* elem) {
  auto key = std::make_tuple(static_cast<int>(TypeKind::kArray), elem,
                             static_cast<const Type*>(nullptr));
  auto it = derived_.find(key);
  if (it != derived_.end()) return it->second;
  return derived_[key] = Make(TypeKind::kArray, elem);
}

const Type* TypeFactory::List(const Type* elem) {
  auto key = std::make_tuple(static_cast<int>(TypeKind::kList), elem,
                             static_cast<const Type*>(nullptr));
  auto it = derived_.find(key);
  if (it != derived_.end()) return it->second;
  return derived_[key] = Make(TypeKind::kList, elem);
}

const Type* TypeFactory::Map(const Type* key_t, const Type* value_t) {
  auto key = std::make_tuple(static_cast<int>(TypeKind::kMap), key_t, value_t);
  auto it = derived_.find(key);
  if (it != derived_.end()) return it->second;
  return derived_[key] = Make(TypeKind::kMap, key_t, value_t);
}

const Type* TypeFactory::MMap(const Type* key_t, const Type* value_t) {
  auto key =
      std::make_tuple(static_cast<int>(TypeKind::kMMap), key_t, value_t);
  auto it = derived_.find(key);
  if (it != derived_.end()) return it->second;
  return derived_[key] = Make(TypeKind::kMMap, key_t, value_t);
}

const Type* TypeFactory::Ptr(const Type* elem) {
  auto key = std::make_tuple(static_cast<int>(TypeKind::kPtr), elem,
                             static_cast<const Type*>(nullptr));
  auto it = derived_.find(key);
  if (it != derived_.end()) return it->second;
  return derived_[key] = Make(TypeKind::kPtr, elem);
}

const Type* TypeFactory::Pool(const Type* elem) {
  auto key = std::make_tuple(static_cast<int>(TypeKind::kPool), elem,
                             static_cast<const Type*>(nullptr));
  auto it = derived_.find(key);
  if (it != derived_.end()) return it->second;
  return derived_[key] = Make(TypeKind::kPool, elem);
}

// A record name is a hint, not an identity: one factory can serve several
// independently lowered queries whose name counters collide. A name is
// reused only for an identical field list; otherwise the first free (or
// matching) `name_k` is taken, so struct names stay unique in cgen.
const Type* TypeFactory::Record(const std::string& name,
                                std::vector<Field> fields) {
  std::string unique = name;
  for (int k = 1;; ++k) {
    auto it = records_.find(unique);
    if (it == records_.end()) break;
    if (it->second->record->fields == fields) return it->second;
    unique = name + "_" + std::to_string(k);
  }
  schemas_.push_back(RecordSchema{unique, std::move(fields)});
  storage_.push_back(Type{});
  Type& t = storage_.back();
  t.kind = TypeKind::kRecord;
  t.record = &schemas_.back();
  return records_[unique] = &t;
}

// `base` names are unique per field list (Record above), so the derived
// name identifies the extension.
const Type* TypeFactory::ExtendRecordWithSelfPtr(const Type* base,
                                                 const std::string& name,
                                                 const std::string& field_name) {
  auto it = records_.find(name);
  if (it != records_.end()) return it->second;
  const Type* t = Record(name, base->record->fields);
  // Patch in the self-referential link after the type exists.
  RecordSchema* schema = const_cast<RecordSchema*>(t->record);
  schema->fields.push_back(Field{field_name, Ptr(t)});
  return t;
}

const Type* TypeFactory::FindRecord(const std::string& name) const {
  auto it = records_.find(name);
  return it == records_.end() ? nullptr : it->second;
}

}  // namespace qc::ir
