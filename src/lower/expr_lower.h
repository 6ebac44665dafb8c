// Lowers QPlan scalar expressions to ANF IR, given the IR symbols of the
// current row. Shared by the pipelining lowering (lower/pipeline.cc) and the
// naive template expansion (lower/naive.cc). Decimals lower to the i64 ops:
// + and - align scales by a constant multiply, * adds scales, and only avg,
// / and a mix with an f64 operand convert to f64 (ToF64), so no engine
// needs a decimal opcode.
#ifndef QC_LOWER_EXPR_LOWER_H_
#define QC_LOWER_EXPR_LOWER_H_

#include <vector>

#include "ir/builder.h"
#include "qplan/expr.h"
#include "qplan/plan.h"

namespace qc::lower {

// Maps a QPlan value type to the IR type.
const ir::Type* LowerValType(ir::TypeFactory* types, qplan::ValType t);

// Emits IR computing `e` over `row` (one symbol per input-schema column,
// positions matching the schema the expression was resolved against; null
// for a column the pipelining pruned). Reading a null column aborts with a
// readable message.
ir::Stmt* LowerExpr(ir::Builder& b, const qplan::ExprPtr& e,
                    const std::vector<ir::Stmt*>& row);

// Zero/default value of a type (used for outer-join padding).
ir::Stmt* DefaultValue(ir::Builder& b, const ir::Type* t);

// `x` of type `t` as f64: an integer casts, a decimal also divides by
// 10^scale.
ir::Stmt* ToF64(ir::Builder& b, ir::Stmt* x, qplan::ValType t);

// Accumulator type of an aggregate: i64 for count; for sum and avg the
// argument's type, so an exact argument sums in int64 (a partial sum that
// merges in any order) and only the finished avg converts to f64.
const ir::Type* AggAccType(ir::TypeFactory* types, const qplan::AggSpec& a);

// A finished avg of `n` (> 0) rows: ToF64 of the sum, divided by n.
ir::Stmt* AvgOf(ir::Builder& b, ir::Stmt* sum, qplan::ValType arg,
                ir::Stmt* n);

// Emits one result row of `schema`; decimal columns leave as f64.
void EmitResult(ir::Builder& b, const std::vector<ir::Stmt*>& row,
                const qplan::Schema& schema);

}  // namespace qc::lower

#endif  // QC_LOWER_EXPR_LOWER_H_
