// Operation set of the ANF IR. Each DSL level of the stack (Section 4 of the
// paper) is a *subset* of these operations:
//
//   level 3  ScaLite[Map, List]  — everything except Ptr/Pool/Malloc
//   level 2  ScaLite[List]       — level 3 minus HashMap/MultiMap ops
//   level 1  ScaLite             — level 2 minus List ops
//   level 0  C.Lite ("C.Scala")  — level 1 plus Malloc/Pool/Ptr ops
//
// Every op carries [min_level, max_level]: the range of levels where the
// construct may appear. Lowerings eliminate ops whose min_level is above the
// target level (expressibility principle: going down never loses
// expressiveness; constructs only ever *disappear* downwards, except the
// C-only memory ops that appear at the very bottom).
//
// Ops also carry two independent properties used by the generic machinery:
//   effect — statement must be kept even if its value is unused (DCE), and
//            acts as an ordering barrier.
//   cse    — two statements with identical op/args/payload compute the same
//            value and may be shared (given dominance). Memory reads
//            (RecGet, ArrGet, VarRead...) are side-effect-free but NOT
//            CSE-able because interleaved writes may change their value.
#ifndef QC_IR_OPS_H_
#define QC_IR_OPS_H_

#include <cstdint>

namespace qc::ir {

// X(name, mnemonic, effect, cse, min_level, max_level)
#define QC_OP_LIST(X)                                          \
  /* literals */                                               \
  X(kConst, "const", false, true, 0, 3)                        \
  X(kNull, "null", false, true, 0, 3)                          \
  /* arithmetic (i32/i64/f64/date) */                          \
  X(kAdd, "add", false, true, 0, 3)                            \
  X(kSub, "sub", false, true, 0, 3)                            \
  X(kMul, "mul", false, true, 0, 3)                            \
  X(kDiv, "div", false, true, 0, 3)                            \
  X(kMod, "mod", false, true, 0, 3)                            \
  X(kNeg, "neg", false, true, 0, 3)                            \
  X(kCast, "cast", false, true, 0, 3)                          \
  /* comparisons -> bool */                                    \
  X(kEq, "eq", false, true, 0, 3)                              \
  X(kNe, "ne", false, true, 0, 3)                              \
  X(kLt, "lt", false, true, 0, 3)                              \
  X(kLe, "le", false, true, 0, 3)                              \
  X(kGt, "gt", false, true, 0, 3)                              \
  X(kGe, "ge", false, true, 0, 3)                              \
  /* booleans */                                               \
  X(kAnd, "and", false, true, 0, 3)                            \
  X(kOr, "or", false, true, 0, 3)                              \
  X(kNot, "not", false, true, 0, 3)                            \
  X(kBitAnd, "bitand", false, true, 0, 3)                      \
  /* strings */                                                \
  X(kStrEq, "str_eq", false, true, 0, 3)                       \
  X(kStrNe, "str_ne", false, true, 0, 3)                       \
  X(kStrLt, "str_lt", false, true, 0, 3)                       \
  X(kStrStartsWith, "str_starts_with", false, true, 0, 3)      \
  X(kStrEndsWith, "str_ends_with", false, true, 0, 3)          \
  X(kStrContains, "str_contains", false, true, 0, 3)           \
  X(kStrLike, "str_like", false, true, 0, 3)                   \
  X(kStrLen, "str_len", false, true, 0, 3)                     \
  X(kStrSubstr, "str_substr", false, true, 0, 3)               \
  /* mutable variables */                                      \
  X(kVarNew, "var", true, false, 0, 3)                         \
  X(kVarRead, "var_read", false, false, 0, 3)                  \
  X(kVarAssign, "var_assign", true, false, 0, 3)               \
  /* structured control flow */                                \
  X(kIf, "if", true, false, 0, 3)                              \
  X(kForRange, "for", true, false, 0, 3)                       \
  X(kWhile, "while", true, false, 0, 3)                        \
  /* records */                                                \
  X(kRecNew, "rec_new", true, false, 0, 3)                     \
  X(kRecGet, "rec_get", false, false, 0, 3)                    \
  X(kRecSet, "rec_set", true, false, 0, 3)                     \
  /* arrays */                                                 \
  X(kArrNew, "arr_new", true, false, 0, 3)                     \
  X(kArrGet, "arr_get", false, false, 0, 3)                    \
  X(kArrSet, "arr_set", true, false, 0, 3)                     \
  X(kArrLen, "arr_len", false, false, 0, 3)                    \
  X(kArrSortBy, "arr_sort_by", true, false, 0, 3)              \
  /* lists — ScaLite[List] and above */                        \
  X(kListNew, "list_new", true, false, 2, 3)                   \
  X(kListAppend, "list_append", true, false, 2, 3)             \
  X(kListForeach, "list_foreach", true, false, 2, 3)           \
  X(kListSize, "list_size", false, false, 2, 3)                \
  X(kListGet, "list_get", false, false, 2, 3)                  \
  X(kListSortBy, "list_sort_by", true, false, 2, 3)            \
  /* hash maps — ScaLite[Map, List] only */                    \
  X(kMapNew, "map_new", true, false, 3, 3)                     \
  X(kMapGetOrElseUpdate, "map_get_or_else_update", true, false, 3, 3) \
  X(kMapGetOrNull, "map_get_or_null", false, false, 3, 3)      \
  X(kMapForeach, "map_foreach", true, false, 3, 3)             \
  X(kMapSize, "map_size", false, false, 3, 3)                  \
  /* multimaps — ScaLite[Map, List] only */                    \
  X(kMMapNew, "mmap_new", true, false, 3, 3)                   \
  X(kMMapAdd, "mmap_add", true, false, 3, 3)                   \
  X(kMMapGetOrNull, "mmap_get_or_null", false, false, 3, 3)    \
  /* null tests */                                             \
  X(kIsNull, "is_null", false, false, 0, 3)                    \
  /* C.Lite memory management — bottom level only. A pool      \
     record is allocated and initialized in one statement:     \
     pool hoisting turns each rec_new into a pool_rec_new      \
     (args: pool, fields). */                                  \
  X(kMalloc, "malloc", true, false, 0, 0)                      \
  X(kFree, "free", true, false, 0, 0)                          \
  X(kPoolNew, "pool_new", true, false, 0, 0)                   \
  X(kPoolRecNew, "pool_rec_new", true, false, 0, 0)            \
  /* base table access (catalog-resolved; aux0=table, aux1=column) */ \
  X(kTableRows, "table_rows", false, true, 0, 3)               \
  X(kColGet, "col_get", false, true, 0, 3)                     \
  X(kColDict, "col_dict", false, true, 0, 3)                   \
  /* load-time partitioned indexes (automatic index inference) */ \
  X(kIdxBucketLen, "idx_bucket_len", false, true, 0, 3)        \
  X(kIdxBucketRow, "idx_bucket_row", false, true, 0, 3)        \
  X(kIdxPkRow, "idx_pk_row", false, true, 0, 3)                \
  /* result emission */                                        \
  X(kEmit, "emit", true, false, 0, 3)

enum class Op : uint8_t {
#define QC_OP_ENUM(name, mnem, effect, cse, minl, maxl) name,
  QC_OP_LIST(QC_OP_ENUM)
#undef QC_OP_ENUM
      kNumOps
};

struct OpInfo {
  const char* mnemonic;
  bool effect;
  bool cse;
  int min_level;
  int max_level;
};

const OpInfo& GetOpInfo(Op op);
inline const char* OpName(Op op) { return GetOpInfo(op).mnemonic; }
inline bool OpHasEffect(Op op) { return GetOpInfo(op).effect; }
inline bool OpIsCseable(Op op) { return GetOpInfo(op).cse; }

}  // namespace qc::ir

#endif  // QC_IR_OPS_H_
