// Interned types for the ANF IR. Every DSL level in the stack shares this
// type system; levels differ only in which *operations* they may use (see
// ir/ops.h and ir/verify.h).
//
// Scalars occupy one 8-byte runtime slot (common/value.h). Records are
// fixed-shape tuples of slots; collections (Array/List/HashMap/MultiMap) are
// opaque handles whose element/key/value types are tracked here so the
// lowering passes can specialize them.
#ifndef QC_IR_TYPE_H_
#define QC_IR_TYPE_H_

#include <cstdint>
#include <deque>
#include <map>
#include <string>
#include <vector>

namespace qc::ir {

enum class TypeKind : uint8_t {
  kVoid,
  kBool,
  kI32,
  kI64,
  kF64,
  kStr,     // NUL-terminated char*, arena-owned
  kDate,    // int32 yyyymmdd (common/date.h)
  kRecord,  // fixed tuple of fields
  kArray,   // fixed-capacity array of elem
  kList,    // growable sequence of elem            (ScaLite[List] and above)
  kMap,     // HashMap key->value                   (ScaLite[Map,List] only)
  kMMap,    // MultiMap key->List[value]            (ScaLite[Map,List] only)
  kPtr,     // C-level pointer to elem              (C.Lite only)
  kPool,    // C-level memory pool of record elems  (C.Lite only)
};

const char* TypeKindName(TypeKind k);

struct Type;

// A named record field.
struct Field {
  std::string name;
  const Type* type;

  bool operator==(const Field& o) const {
    return name == o.name && type == o.type;
  }
};

// A record shape. Interned by name in the TypeFactory; lowering passes may
// derive new shapes (e.g. appending an intrusive `next` pointer field).
struct RecordSchema {
  std::string name;
  std::vector<Field> fields;

  int FieldIndex(const std::string& fname) const;
};

struct Type {
  TypeKind kind = TypeKind::kVoid;
  const Type* elem = nullptr;          // Array/List/Ptr/Pool element
  const Type* key = nullptr;           // Map/MMap key
  const Type* value = nullptr;         // Map/MMap value
  const RecordSchema* record = nullptr;  // Record shape

  bool IsNumeric() const {
    return kind == TypeKind::kI32 || kind == TypeKind::kI64 ||
           kind == TypeKind::kF64 || kind == TypeKind::kDate;
  }
  bool IsIntegral() const {
    return kind == TypeKind::kI32 || kind == TypeKind::kI64 ||
           kind == TypeKind::kDate;
  }
  bool IsPointerLike() const {
    return kind == TypeKind::kRecord || kind == TypeKind::kPtr ||
           kind == TypeKind::kList || kind == TypeKind::kArray;
  }

  std::string ToString() const;
};

// Interns types so pointer equality is type equality.
class TypeFactory {
 public:
  TypeFactory();

  const Type* Void() const { return void_; }
  const Type* Bool() const { return bool_; }
  const Type* I32() const { return i32_; }
  const Type* I64() const { return i64_; }
  const Type* F64() const { return f64_; }
  const Type* Str() const { return str_; }
  const Type* DateT() const { return date_; }

  const Type* Array(const Type* elem);
  const Type* List(const Type* elem);
  const Type* Map(const Type* key, const Type* value);
  const Type* MMap(const Type* key, const Type* value);
  const Type* Ptr(const Type* elem);
  const Type* Pool(const Type* elem);

  // Creates (or returns the previously created) record shape named `name`.
  // A name already taken by a different field list gets a `_k` suffix, so
  // the returned type's name may differ from `name`.
  const Type* Record(const std::string& name, std::vector<Field> fields);
  // Returns the existing record type with this name, or nullptr.
  const Type* FindRecord(const std::string& name) const;

  // Copy of `base` named `name` with an appended field `field_name` whose
  // type is a pointer to the new record itself (intrusive-list links).
  const Type* ExtendRecordWithSelfPtr(const Type* base,
                                      const std::string& name,
                                      const std::string& field_name);

 private:
  const Type* Make(TypeKind kind, const Type* a = nullptr,
                   const Type* b = nullptr);

  std::deque<Type> storage_;
  std::deque<RecordSchema> schemas_;
  std::map<std::tuple<int, const Type*, const Type*>, const Type*> derived_;
  std::map<std::string, const Type*> records_;
  const Type *void_, *bool_, *i32_, *i64_, *f64_, *str_, *date_;
};

}  // namespace qc::ir

#endif  // QC_IR_TYPE_H_
