// Scalar expression trees of the QPlan DSL (the paper's relational-algebra
// front-end, Fig. 4b). Expressions are built with the helper constructors at
// the bottom, resolved against an operator's input schema (name -> column
// index + type), evaluated by the Volcano oracle, and lowered to ANF IR by
// the pipelining transformation.
#ifndef QC_QPLAN_EXPR_H_
#define QC_QPLAN_EXPR_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/date.h"

namespace qc::qplan {

// A value type. kDec is an exact decimal with a static scale: the value is
// an int64 count of 10^-scale units (TPC-H money, rates and quantities).
// Decimal arithmetic stays integral — + and - align scales, * adds them —
// and only avg, / and a mix with an f64 operand convert to f64.
struct ValType {
  enum Kind : uint8_t { kI64, kF64, kStr, kDate, kBool, kDec };
  Kind kind;
  int scale;  // kDec only: at most 18, so 10^scale fits int64

  // Implicit, so ValType::kF64 etc. are types.
  constexpr ValType(Kind k = kI64, int s = 0) : kind(k), scale(s) {}  // NOLINT
  static constexpr ValType Dec(int s) { return ValType(kDec, s); }
  friend bool operator==(ValType a, ValType b) {
    return a.kind == b.kind && a.scale == b.scale;
  }
  friend bool operator!=(ValType a, ValType b) { return !(a == b); }
};

const char* ValTypeName(ValType t);

// True for the types held as an exact int64 (i64, date, bool, decimal).
bool IsExactNumeric(ValType t);
// Scale of an exact value: an integer is a decimal of scale 0.
inline int ScaleOf(ValType t) { return t.kind == ValType::kDec ? t.scale : 0; }
// 10^scale as an int64.
int64_t Pow10(int scale);
// Common type of two numeric operands of +, -, a comparison or a CASE:
// f64 wins, then the decimal of the larger scale, else i64. Aborts on a
// date mixed with a decimal.
ValType CommonType(ValType a, ValType b);

enum class ExprKind {
  kCol,
  kIntLit,
  kFloatLit,
  kStrLit,
  kDateLit,
  kBoolLit,
  kAdd,
  kSub,
  kMul,
  kDiv,
  kMod,
  kNeg,
  kEq,
  kNe,
  kLt,
  kLe,
  kGt,
  kGe,
  kAnd,
  kOr,
  kNot,
  kLike,
  kStartsWith,
  kEndsWith,
  kContains,
  kCase,    // kids: cond, then, else — value-typed conditional
  kYearOf,  // extract year from a date
  kSubstr,  // substring(str, aux0 /*0-based start*/, aux1 /*len*/)
};

struct Expr;
using ExprPtr = std::shared_ptr<Expr>;

struct Expr {
  ExprKind kind;
  std::vector<ExprPtr> kids;

  std::string name;   // kCol column name / kStrLit and kLike payload
  // kIntLit / kDateLit / kBoolLit payload, and a kFloatLit's scaled value
  // once Resolve has typed it as a decimal (next to a decimal operand).
  int64_t ival = 0;
  double fval = 0.0;  // kFloatLit payload
  int aux0 = 0, aux1 = 0;  // kSubstr start/len

  // Filled in by Resolve():
  ValType type = ValType::kI64;
  int col_idx = -1;  // kCol binding

  std::string ToString() const;
};

// One column of an operator's schema.
struct OutCol {
  std::string name;
  ValType type;
};
using Schema = std::vector<OutCol>;

int SchemaIndex(const Schema& s, const std::string& name);

// Resolves column references and computes types, in place. Aborts with a
// readable message on unknown columns or type errors.
void Resolve(const ExprPtr& e, const Schema& schema);

// --- constructors ------------------------------------------------------------

ExprPtr Col(const std::string& name);
ExprPtr I(int64_t v);
ExprPtr F(double v);
ExprPtr S(const std::string& v);
ExprPtr D(Date v);
ExprPtr B(bool v);

ExprPtr Add(ExprPtr a, ExprPtr b);
ExprPtr Sub(ExprPtr a, ExprPtr b);
ExprPtr Mul(ExprPtr a, ExprPtr b);
ExprPtr DivE(ExprPtr a, ExprPtr b);
ExprPtr Mod(ExprPtr a, ExprPtr b);
ExprPtr Neg(ExprPtr a);

ExprPtr Eq(ExprPtr a, ExprPtr b);
ExprPtr Ne(ExprPtr a, ExprPtr b);
ExprPtr Lt(ExprPtr a, ExprPtr b);
ExprPtr Le(ExprPtr a, ExprPtr b);
ExprPtr Gt(ExprPtr a, ExprPtr b);
ExprPtr Ge(ExprPtr a, ExprPtr b);
// a <= x < b
ExprPtr Between(ExprPtr x, ExprPtr lo_incl, ExprPtr hi_excl);

ExprPtr And(ExprPtr a, ExprPtr b);
ExprPtr Or(ExprPtr a, ExprPtr b);
ExprPtr Not(ExprPtr a);
// Conjunction / disjunction of a list (must be non-empty).
ExprPtr AllOf(std::vector<ExprPtr> es);
ExprPtr AnyOf(std::vector<ExprPtr> es);
// e IN (v1, v2, ...) over string literals.
ExprPtr InStr(ExprPtr e, const std::vector<std::string>& values);

ExprPtr Like(ExprPtr a, const std::string& pattern);
ExprPtr StartsWith(ExprPtr a, const std::string& prefix);
ExprPtr EndsWith(ExprPtr a, const std::string& suffix);
ExprPtr Contains(ExprPtr a, const std::string& infix);

ExprPtr Case(ExprPtr cond, ExprPtr then_v, ExprPtr else_v);
ExprPtr YearOf(ExprPtr date);
ExprPtr Substr(ExprPtr s, int start0, int len);

}  // namespace qc::qplan

#endif  // QC_QPLAN_EXPR_H_
