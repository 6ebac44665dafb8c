#include "qplan/expr.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace qc::qplan {

const char* ValTypeName(ValType t) {
  switch (t.kind) {
    case ValType::kI64: return "i64";
    case ValType::kF64: return "f64";
    case ValType::kStr: return "str";
    case ValType::kDate: return "date";
    case ValType::kBool: return "bool";
    case ValType::kDec: return "dec";
  }
  return "?";
}

bool IsExactNumeric(ValType t) {
  return t.kind != ValType::kF64 && t.kind != ValType::kStr;
}

int64_t Pow10(int scale) {
  int64_t p = 1;
  for (int i = 0; i < scale; ++i) p *= 10;
  return p;
}

int SchemaIndex(const Schema& s, const std::string& name) {
  for (size_t i = 0; i < s.size(); ++i) {
    if (s[i].name == name) return static_cast<int>(i);
  }
  return -1;
}

namespace {

[[noreturn]] void Fail(const std::string& msg) {
  std::fprintf(stderr, "qplan expression error: %s\n", msg.c_str());
  std::abort();
}

bool IsNumeric(ValType t) {
  return t == ValType::kI64 || t == ValType::kF64 || t == ValType::kDate ||
         t.kind == ValType::kDec;
}

// A float literal next to a decimal operand becomes a decimal literal of
// the smallest scale that holds it exactly, so `1.0 - l_discount` or
// `l_discount >= 0.05` stays integral. A literal no scale holds stays f64.
void CoerceLiteral(const ExprPtr& lit, ValType other) {
  if (lit->kind != ExprKind::kFloatLit || other.kind != ValType::kDec) return;
  for (int s = 0; s <= 9; ++s) {
    double p = static_cast<double>(Pow10(s));
    double v = std::nearbyint(lit->fval * p);
    if (std::fabs(v) < 1e15 && v / p == lit->fval) {
      lit->type = ValType::Dec(s);
      lit->ival = static_cast<int64_t>(v);
      return;
    }
  }
}

// Coerces either side of a binary numeric operation toward the other.
void CoercePair(const ExprPtr& a, const ExprPtr& b) {
  CoerceLiteral(a, b->type);
  CoerceLiteral(b, a->type);
}

ExprPtr MakeExpr(ExprKind k, std::vector<ExprPtr> kids = {}) {
  auto e = std::make_shared<Expr>();
  e->kind = k;
  e->kids = std::move(kids);
  return e;
}

}  // namespace

ValType CommonType(ValType a, ValType b) {
  if (a == ValType::kF64 || b == ValType::kF64) return ValType::kF64;
  if (a.kind == ValType::kDec || b.kind == ValType::kDec) {
    if (a == ValType::kDate || b == ValType::kDate) {
      Fail("date arithmetic with a decimal");
    }
    return ValType::Dec(std::max(ScaleOf(a), ScaleOf(b)));
  }
  return ValType::kI64;
}

void Resolve(const ExprPtr& e, const Schema& schema) {
  for (const ExprPtr& k : e->kids) Resolve(k, schema);
  switch (e->kind) {
    case ExprKind::kCol: {
      int idx = SchemaIndex(schema, e->name);
      if (idx < 0) Fail("unknown column '" + e->name + "'");
      e->col_idx = idx;
      e->type = schema[idx].type;
      break;
    }
    case ExprKind::kIntLit: e->type = ValType::kI64; break;
    case ExprKind::kFloatLit: e->type = ValType::kF64; break;
    case ExprKind::kStrLit: e->type = ValType::kStr; break;
    case ExprKind::kDateLit: e->type = ValType::kDate; break;
    case ExprKind::kBoolLit: e->type = ValType::kBool; break;
    case ExprKind::kAdd:
    case ExprKind::kSub:
    case ExprKind::kMul:
    case ExprKind::kDiv:
    case ExprKind::kMod: {
      CoercePair(e->kids[0], e->kids[1]);
      ValType a = e->kids[0]->type, b = e->kids[1]->type;
      if (!IsNumeric(a) || !IsNumeric(b)) {
        Fail("arithmetic on non-numeric operands");
      }
      e->type = CommonType(a, b);
      if (e->type.kind != ValType::kDec) break;
      if (e->kind == ExprKind::kMul) {
        e->type = ValType::Dec(ScaleOf(a) + ScaleOf(b));
      } else if (e->kind == ExprKind::kDiv) {
        e->type = ValType::kF64;
      } else if (e->kind == ExprKind::kMod) {
        Fail("modulo of a decimal");
      }
      if (e->type.scale > 18) Fail("decimal scale above 18");
      break;
    }
    case ExprKind::kNeg:
      e->type = e->kids[0]->type;
      break;
    case ExprKind::kEq:
    case ExprKind::kNe:
    case ExprKind::kLt:
    case ExprKind::kLe:
    case ExprKind::kGt:
    case ExprKind::kGe: {
      ValType a = e->kids[0]->type, b = e->kids[1]->type;
      bool both_str = a == ValType::kStr && b == ValType::kStr;
      bool both_num = IsNumeric(a) && IsNumeric(b);
      if (!both_str && !both_num) Fail("incomparable operand types");
      if (both_num) {
        CoercePair(e->kids[0], e->kids[1]);
        CommonType(e->kids[0]->type, e->kids[1]->type);  // date vs dec
      }
      e->type = ValType::kBool;
      break;
    }
    case ExprKind::kAnd:
    case ExprKind::kOr:
      if (e->kids[0]->type != ValType::kBool ||
          e->kids[1]->type != ValType::kBool) {
        Fail("boolean connective on non-boolean operands");
      }
      e->type = ValType::kBool;
      break;
    case ExprKind::kNot:
      if (e->kids[0]->type != ValType::kBool) Fail("NOT on non-boolean");
      e->type = ValType::kBool;
      break;
    case ExprKind::kLike:
    case ExprKind::kStartsWith:
    case ExprKind::kEndsWith:
    case ExprKind::kContains:
      if (e->kids[0]->type != ValType::kStr) Fail("LIKE on non-string");
      e->type = ValType::kBool;
      break;
    case ExprKind::kCase: {
      if (e->kids[0]->type != ValType::kBool) Fail("CASE condition not bool");
      CoercePair(e->kids[1], e->kids[2]);
      ValType t = e->kids[1]->type, f = e->kids[2]->type;
      if (t == f) {
        e->type = t;
      } else if (IsNumeric(t) && IsNumeric(f)) {
        e->type = CommonType(t, f);
      } else {
        Fail("CASE branches with incompatible types");
      }
      break;
    }
    case ExprKind::kYearOf:
      if (e->kids[0]->type != ValType::kDate) Fail("YEAR of non-date");
      e->type = ValType::kI64;
      break;
    case ExprKind::kSubstr:
      if (e->kids[0]->type != ValType::kStr) Fail("SUBSTR of non-string");
      e->type = ValType::kStr;
      break;
  }
}

std::string Expr::ToString() const {
  switch (kind) {
    case ExprKind::kCol: return name;
    case ExprKind::kIntLit: return std::to_string(ival);
    case ExprKind::kFloatLit: return std::to_string(fval);
    case ExprKind::kStrLit: return "'" + name + "'";
    case ExprKind::kDateLit: return FormatDate(static_cast<Date>(ival));
    case ExprKind::kBoolLit: return ival != 0 ? "true" : "false";
    case ExprKind::kAdd: return "(" + kids[0]->ToString() + " + " + kids[1]->ToString() + ")";
    case ExprKind::kSub: return "(" + kids[0]->ToString() + " - " + kids[1]->ToString() + ")";
    case ExprKind::kMul: return "(" + kids[0]->ToString() + " * " + kids[1]->ToString() + ")";
    case ExprKind::kDiv: return "(" + kids[0]->ToString() + " / " + kids[1]->ToString() + ")";
    case ExprKind::kMod: return "(" + kids[0]->ToString() + " % " + kids[1]->ToString() + ")";
    case ExprKind::kNeg: return "(-" + kids[0]->ToString() + ")";
    case ExprKind::kEq: return "(" + kids[0]->ToString() + " == " + kids[1]->ToString() + ")";
    case ExprKind::kNe: return "(" + kids[0]->ToString() + " != " + kids[1]->ToString() + ")";
    case ExprKind::kLt: return "(" + kids[0]->ToString() + " < " + kids[1]->ToString() + ")";
    case ExprKind::kLe: return "(" + kids[0]->ToString() + " <= " + kids[1]->ToString() + ")";
    case ExprKind::kGt: return "(" + kids[0]->ToString() + " > " + kids[1]->ToString() + ")";
    case ExprKind::kGe: return "(" + kids[0]->ToString() + " >= " + kids[1]->ToString() + ")";
    case ExprKind::kAnd: return "(" + kids[0]->ToString() + " && " + kids[1]->ToString() + ")";
    case ExprKind::kOr: return "(" + kids[0]->ToString() + " || " + kids[1]->ToString() + ")";
    case ExprKind::kNot: return "!(" + kids[0]->ToString() + ")";
    case ExprKind::kLike: return kids[0]->ToString() + " LIKE '" + name + "'";
    case ExprKind::kStartsWith: return kids[0]->ToString() + " STARTSWITH '" + name + "'";
    case ExprKind::kEndsWith: return kids[0]->ToString() + " ENDSWITH '" + name + "'";
    case ExprKind::kContains: return kids[0]->ToString() + " CONTAINS '" + name + "'";
    case ExprKind::kCase:
      return "CASE(" + kids[0]->ToString() + ", " + kids[1]->ToString() +
             ", " + kids[2]->ToString() + ")";
    case ExprKind::kYearOf: return "YEAR(" + kids[0]->ToString() + ")";
    case ExprKind::kSubstr:
      return "SUBSTR(" + kids[0]->ToString() + ", " + std::to_string(aux0) +
             ", " + std::to_string(aux1) + ")";
  }
  return "?";
}

ExprPtr Col(const std::string& name) {
  auto e = MakeExpr(ExprKind::kCol);
  e->name = name;
  return e;
}
ExprPtr I(int64_t v) {
  auto e = MakeExpr(ExprKind::kIntLit);
  e->ival = v;
  return e;
}
ExprPtr F(double v) {
  auto e = MakeExpr(ExprKind::kFloatLit);
  e->fval = v;
  return e;
}
ExprPtr S(const std::string& v) {
  auto e = MakeExpr(ExprKind::kStrLit);
  e->name = v;
  return e;
}
ExprPtr D(Date v) {
  auto e = MakeExpr(ExprKind::kDateLit);
  e->ival = v;
  return e;
}
ExprPtr B(bool v) {
  auto e = MakeExpr(ExprKind::kBoolLit);
  e->ival = v ? 1 : 0;
  return e;
}

ExprPtr Add(ExprPtr a, ExprPtr b) { return MakeExpr(ExprKind::kAdd, {a, b}); }
ExprPtr Sub(ExprPtr a, ExprPtr b) { return MakeExpr(ExprKind::kSub, {a, b}); }
ExprPtr Mul(ExprPtr a, ExprPtr b) { return MakeExpr(ExprKind::kMul, {a, b}); }
ExprPtr DivE(ExprPtr a, ExprPtr b) { return MakeExpr(ExprKind::kDiv, {a, b}); }
ExprPtr Mod(ExprPtr a, ExprPtr b) { return MakeExpr(ExprKind::kMod, {a, b}); }
ExprPtr Neg(ExprPtr a) { return MakeExpr(ExprKind::kNeg, {a}); }

ExprPtr Eq(ExprPtr a, ExprPtr b) { return MakeExpr(ExprKind::kEq, {a, b}); }
ExprPtr Ne(ExprPtr a, ExprPtr b) { return MakeExpr(ExprKind::kNe, {a, b}); }
ExprPtr Lt(ExprPtr a, ExprPtr b) { return MakeExpr(ExprKind::kLt, {a, b}); }
ExprPtr Le(ExprPtr a, ExprPtr b) { return MakeExpr(ExprKind::kLe, {a, b}); }
ExprPtr Gt(ExprPtr a, ExprPtr b) { return MakeExpr(ExprKind::kGt, {a, b}); }
ExprPtr Ge(ExprPtr a, ExprPtr b) { return MakeExpr(ExprKind::kGe, {a, b}); }

ExprPtr Between(ExprPtr x, ExprPtr lo_incl, ExprPtr hi_excl) {
  return And(Ge(x, lo_incl), Lt(x, hi_excl));
}

ExprPtr And(ExprPtr a, ExprPtr b) { return MakeExpr(ExprKind::kAnd, {a, b}); }
ExprPtr Or(ExprPtr a, ExprPtr b) { return MakeExpr(ExprKind::kOr, {a, b}); }
ExprPtr Not(ExprPtr a) { return MakeExpr(ExprKind::kNot, {a}); }

ExprPtr AllOf(std::vector<ExprPtr> es) {
  ExprPtr acc = es.at(0);
  for (size_t i = 1; i < es.size(); ++i) acc = And(acc, es[i]);
  return acc;
}
ExprPtr AnyOf(std::vector<ExprPtr> es) {
  ExprPtr acc = es.at(0);
  for (size_t i = 1; i < es.size(); ++i) acc = Or(acc, es[i]);
  return acc;
}
ExprPtr InStr(ExprPtr e, const std::vector<std::string>& values) {
  std::vector<ExprPtr> eqs;
  eqs.reserve(values.size());
  for (const std::string& v : values) eqs.push_back(Eq(e, S(v)));
  return AnyOf(std::move(eqs));
}

ExprPtr Like(ExprPtr a, const std::string& pattern) {
  auto e = MakeExpr(ExprKind::kLike, {a});
  e->name = pattern;
  return e;
}
ExprPtr StartsWith(ExprPtr a, const std::string& prefix) {
  auto e = MakeExpr(ExprKind::kStartsWith, {a});
  e->name = prefix;
  return e;
}
ExprPtr EndsWith(ExprPtr a, const std::string& suffix) {
  auto e = MakeExpr(ExprKind::kEndsWith, {a});
  e->name = suffix;
  return e;
}
ExprPtr Contains(ExprPtr a, const std::string& infix) {
  auto e = MakeExpr(ExprKind::kContains, {a});
  e->name = infix;
  return e;
}

ExprPtr Case(ExprPtr cond, ExprPtr then_v, ExprPtr else_v) {
  return MakeExpr(ExprKind::kCase, {cond, then_v, else_v});
}
ExprPtr YearOf(ExprPtr date) { return MakeExpr(ExprKind::kYearOf, {date}); }
ExprPtr Substr(ExprPtr s, int start0, int len) {
  auto e = MakeExpr(ExprKind::kSubstr, {s});
  e->aux0 = start0;
  e->aux1 = len;
  return e;
}

}  // namespace qc::qplan
