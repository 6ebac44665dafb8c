#include "lower/expr_lower.h"

#include <cstdio>
#include <cstdlib>

namespace qc::lower {

using ir::Builder;
using ir::Stmt;
using ir::Type;
using qplan::ExprKind;
using qplan::ExprPtr;
using qplan::ValType;

const Type* LowerValType(ir::TypeFactory* types, ValType t) {
  switch (t.kind) {
    case ValType::kI64:
    case ValType::kDec: return types->I64();
    case ValType::kF64: return types->F64();
    case ValType::kStr: return types->Str();
    case ValType::kDate: return types->DateT();
    case ValType::kBool: return types->Bool();
  }
  return types->I64();
}

Stmt* DefaultValue(Builder& b, const Type* t) {
  switch (t->kind) {
    case ir::TypeKind::kF64: return b.F64(0.0);
    case ir::TypeKind::kStr: return b.StrC("");
    case ir::TypeKind::kBool: return b.BoolC(false);
    case ir::TypeKind::kDate: return b.DateC(0);
    case ir::TypeKind::kI32:
    case ir::TypeKind::kI64: return b.I64(0);
    default: return b.NullOf(t);
  }
}

Stmt* ToF64(Builder& b, Stmt* x, ValType t) {
  if (t == ValType::kF64) return x;
  Stmt* d = b.Cast(x, b.types()->F64());
  if (t.kind != ValType::kDec || t.scale == 0) return d;
  return b.Div(d, b.F64(static_cast<double>(qplan::Pow10(t.scale))));
}

const Type* AggAccType(ir::TypeFactory* types, const qplan::AggSpec& a) {
  if (a.fn == qplan::AggFn::kCount) return types->I64();
  return LowerValType(types, a.arg->type);
}

Stmt* AvgOf(Builder& b, Stmt* sum, ValType arg, Stmt* n) {
  return b.Div(ToF64(b, sum, arg), b.Cast(n, b.types()->F64()));
}

void EmitResult(Builder& b, const std::vector<Stmt*>& row,
                const qplan::Schema& schema) {
  std::vector<Stmt*> out = row;
  for (size_t i = 0; i < out.size(); ++i) {
    if (schema[i].type.kind == ValType::kDec) {
      out[i] = ToF64(b, out[i], schema[i].type);
    }
  }
  b.EmitRow(out);
}

namespace {

// Lowers kid `i` of `e` and converts it to `to`: a decimal target rescales
// an exact operand by a constant multiply, or a literal at compile time
// (but for a product, whose scales add); an f64 target converts a decimal.
// Every other operand is left to the builder's promotion.
Stmt* LowerAs(Builder& b, const ExprPtr& e, size_t i,
              const std::vector<Stmt*>& row, ValType to) {
  const ExprPtr& kid = e->kids[i];
  ValType from = kid->type;
  int up = to.kind == ValType::kDec && e->kind != ExprKind::kMul
               ? to.scale - qplan::ScaleOf(from)
               : 0;
  if (up > 0 && (kid->kind == ExprKind::kIntLit ||
                 kid->kind == ExprKind::kFloatLit)) {
    return b.I64(kid->ival * qplan::Pow10(up));  // scaled at compile time
  }
  Stmt* x = LowerExpr(b, kid, row);
  if (up > 0) return b.Mul(x, b.I64(qplan::Pow10(up)));
  if (to == ValType::kF64 && from.kind == ValType::kDec) return ToF64(b, x, from);
  return x;
}

// String comparisons are expressed with the minimal primitive set
// {str_eq, str_ne, str_lt} so the string-dictionary pass has few shapes to
// rewrite (Table 2).
Stmt* LowerStrCmp(Builder& b, ExprKind kind, Stmt* x, Stmt* y) {
  switch (kind) {
    case ExprKind::kEq: return b.StrEq(x, y);
    case ExprKind::kNe: return b.StrNe(x, y);
    case ExprKind::kLt: return b.StrLt(x, y);
    case ExprKind::kGt: return b.StrLt(y, x);
    case ExprKind::kLe: return b.Not(b.StrLt(y, x));
    case ExprKind::kGe: return b.Not(b.StrLt(x, y));
    default: std::abort();
  }
}

}  // namespace

Stmt* LowerExpr(Builder& b, const ExprPtr& e, const std::vector<Stmt*>& row) {
  switch (e->kind) {
    case ExprKind::kCol:
      if (e->col_idx < 0 || static_cast<size_t>(e->col_idx) >= row.size() ||
          row[e->col_idx] == nullptr) {
        // A wrong needed-column set must stop here, not as a null
        // statement deeper in the compiler.
        std::fprintf(stderr,
                     "lowering error: column %s (#%d of %zu) is not "
                     "materialized in this row\n",
                     e->name.c_str(), e->col_idx, row.size());
        std::abort();
      }
      return row[e->col_idx];
    case ExprKind::kIntLit: return b.I64(e->ival);
    case ExprKind::kFloatLit:
      return e->type.kind == ValType::kDec ? b.I64(e->ival) : b.F64(e->fval);
    case ExprKind::kStrLit: return b.StrC(e->name);
    case ExprKind::kDateLit: return b.DateC(static_cast<int32_t>(e->ival));
    case ExprKind::kBoolLit: return b.BoolC(e->ival != 0);

    case ExprKind::kAdd:
      return b.Add(LowerAs(b, e, 0, row, e->type),
                   LowerAs(b, e, 1, row, e->type));
    case ExprKind::kSub:
      return b.Sub(LowerAs(b, e, 0, row, e->type),
                   LowerAs(b, e, 1, row, e->type));
    case ExprKind::kMul:
      return b.Mul(LowerAs(b, e, 0, row, e->type),
                   LowerAs(b, e, 1, row, e->type));
    case ExprKind::kDiv:
      return b.Div(LowerAs(b, e, 0, row, e->type),
                   LowerAs(b, e, 1, row, e->type));
    case ExprKind::kMod:
      return b.Mod(LowerExpr(b, e->kids[0], row), LowerExpr(b, e->kids[1], row));
    case ExprKind::kNeg:
      return b.Neg(LowerExpr(b, e->kids[0], row));

    case ExprKind::kEq:
    case ExprKind::kNe:
    case ExprKind::kLt:
    case ExprKind::kLe:
    case ExprKind::kGt:
    case ExprKind::kGe: {
      if (e->kids[0]->type == ValType::kStr) {
        Stmt* x = LowerExpr(b, e->kids[0], row);
        Stmt* y = LowerExpr(b, e->kids[1], row);
        return LowerStrCmp(b, e->kind, x, y);
      }
      ValType ct = qplan::CommonType(e->kids[0]->type, e->kids[1]->type);
      Stmt* x = LowerAs(b, e, 0, row, ct);
      Stmt* y = LowerAs(b, e, 1, row, ct);
      switch (e->kind) {
        case ExprKind::kEq: return b.Eq(x, y);
        case ExprKind::kNe: return b.Ne(x, y);
        case ExprKind::kLt: return b.Lt(x, y);
        case ExprKind::kLe: return b.Le(x, y);
        case ExprKind::kGt: return b.Gt(x, y);
        case ExprKind::kGe: return b.Ge(x, y);
        default: std::abort();
      }
    }

    case ExprKind::kAnd:
      return b.And(LowerExpr(b, e->kids[0], row),
                   LowerExpr(b, e->kids[1], row));
    case ExprKind::kOr:
      return b.Or(LowerExpr(b, e->kids[0], row),
                  LowerExpr(b, e->kids[1], row));
    case ExprKind::kNot:
      return b.Not(LowerExpr(b, e->kids[0], row));

    case ExprKind::kLike:
      return b.StrLike(LowerExpr(b, e->kids[0], row), e->name);
    case ExprKind::kStartsWith:
      return b.StrStartsWith(LowerExpr(b, e->kids[0], row), b.StrC(e->name));
    case ExprKind::kEndsWith:
      return b.StrEndsWith(LowerExpr(b, e->kids[0], row), b.StrC(e->name));
    case ExprKind::kContains:
      return b.StrContains(LowerExpr(b, e->kids[0], row), b.StrC(e->name));

    case ExprKind::kCase: {
      // CASE lowers to a mutable variable assigned in both branches: kIf in
      // the IR is statement-only, conditional *values* go through vars. A
      // constant condition (an outer join's `matched`) lowers to its arm.
      const Type* t = LowerValType(b.types(), e->type);
      Stmt* cond = LowerExpr(b, e->kids[0], row);
      if (cond->op == ir::Op::kConst && !ir::IsParam(cond)) {
        return b.Cast(LowerAs(b, e, cond->ival != 0 ? 1 : 2, row, e->type), t);
      }
      Stmt* var = b.VarNew(DefaultValue(b, t));
      b.If(
          cond,
          [&] {
            Stmt* v = b.Cast(LowerAs(b, e, 1, row, e->type), t);
            b.VarAssign(var, v);
          },
          [&] {
            Stmt* v = b.Cast(LowerAs(b, e, 2, row, e->type), t);
            b.VarAssign(var, v);
          });
      return b.VarRead(var);
    }

    case ExprKind::kYearOf: {
      Stmt* d = LowerExpr(b, e->kids[0], row);
      return b.Div(b.Cast(d, b.types()->I64()), b.I64(10000));
    }
    case ExprKind::kSubstr:
      return b.StrSubstr(LowerExpr(b, e->kids[0], row), e->aux0, e->aux1);
  }
  std::abort();
}

}  // namespace qc::lower
