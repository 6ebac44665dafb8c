// The overflow policy of exact arithmetic. Decimals and integers are int64,
// and signed overflow is undefined behaviour in C++ and in the generated C,
// so no engine may ever wrap. The bound is static and costs nothing at run
// time: interval arithmetic over column min/max, and every SUM bounded by
// its input's row bound times its addend's largest magnitude. A join whose
// key covers a unique key of one side (a PK, a table's unique_key, a GROUP
// BY's keys) emits at most as many rows as the other side.
#include <algorithm>
#include <cmath>
#include <map>
#include <set>
#include <sstream>

#include "qplan/plan.h"

namespace qc::qplan {

namespace {

// A closed interval, in double so the bound itself never overflows.
struct Iv {
  bool known = false;
  double lo = 0, hi = 0;
};

Iv Span(double a, double b) { return Iv{true, std::min(a, b), std::max(a, b)}; }
Iv Hull(Iv a, Iv b) {
  if (!a.known || !b.known) return {};
  return Span(std::min(a.lo, b.lo), std::max(a.hi, b.hi));
}
Iv Times(Iv a, double f) { return a.known ? Span(a.lo * f, a.hi * f) : Iv{}; }
double Magnitude(Iv a) { return std::max(std::fabs(a.lo), std::fabs(a.hi)); }

// A column: a base column read on first use (table >= 0), or a computed
// interval.
struct Col {
  int table = -1, column = -1;
  Iv iv;
};

struct Rel {
  double rows = 0;
  std::vector<std::set<std::string>> keys;  // each unique; {} = one row
  std::vector<Col> cols;
};

class Bounds {
 public:
  explicit Bounds(const storage::Database& db) : db_(db) {}
  const std::string& error() const { return error_; }

  Rel Of(const Plan& p) {
    Rel r;
    switch (p.kind) {
      case PlanKind::kScan: {
        const storage::Table& t = db_.table(p.table_id);
        const storage::TableDef& def = t.def();
        r.rows = static_cast<double>(t.rows());
        for (size_t c = 0; c < def.columns.size(); ++c) {
          r.cols.push_back(Col{p.table_id, static_cast<int>(c), {}});
        }
        if (def.primary_key >= 0) {
          r.keys.push_back({def.columns[def.primary_key].name});
        }
        std::set<std::string> k;
        for (int c : def.unique_key) k.insert(def.columns[c].name);
        if (!k.empty()) r.keys.push_back(k);
        return r;
      }
      case PlanKind::kSelect:
        r = Of(*p.children[0]);
        Visit(p.predicate, r.cols);
        return r;
      case PlanKind::kProject: {
        Rel in = Of(*p.children[0]);
        r.rows = in.rows;
        std::map<std::string, std::string> renamed;
        for (const NamedExpr& ne : p.projections) {
          r.cols.push_back(Column(ne.expr, in.cols));
          if (ne.expr->kind == ExprKind::kCol) renamed[ne.expr->name] = ne.name;
        }
        for (const std::set<std::string>& k : in.keys) {
          std::set<std::string> out;
          for (const std::string& c : k) {
            if (renamed.count(c) != 0) out.insert(renamed[c]);
          }
          if (out.size() == k.size()) r.keys.push_back(out);
        }
        return r;
      }
      case PlanKind::kJoin: return Join(p);
      case PlanKind::kAgg: return Agg(p);
      case PlanKind::kSort:
        r = Of(*p.children[0]);
        for (const SortKey& k : p.sort_keys) Visit(k.expr, r.cols);
        return r;
      case PlanKind::kLimit: return Of(*p.children[0]);
    }
    return r;
  }

 private:
  static bool Unique(const Rel& side, const std::vector<ExprPtr>& keys) {
    std::set<std::string> names;
    for (const ExprPtr& k : keys) {
      if (k->kind == ExprKind::kCol) names.insert(k->name);
    }
    for (const std::set<std::string>& u : side.keys) {
      if (std::includes(names.begin(), names.end(), u.begin(), u.end())) {
        return true;
      }
    }
    return false;
  }

  Rel Join(const Plan& p) {
    Rel l = Of(*p.children[0]);
    Rel r = Of(*p.children[1]);
    for (const ExprPtr& k : p.left_keys) Visit(k, l.cols);
    for (const ExprPtr& k : p.right_keys) Visit(k, r.cols);
    std::vector<Col> concat = l.cols;
    concat.insert(concat.end(), r.cols.begin(), r.cols.end());
    if (p.predicate != nullptr) Visit(p.predicate, concat);
    if (p.join_kind == JoinKind::kSemi || p.join_kind == JoinKind::kAnti) {
      return l;
    }
    bool outer = p.join_kind == JoinKind::kLeftOuter;
    Rel out;
    if (Unique(r, p.right_keys)) {
      out.rows = l.rows;
      out.keys = l.keys;
    } else if (!outer && Unique(l, p.left_keys)) {
      out.rows = r.rows;
      out.keys = r.keys;
    } else {
      out.rows = l.rows * std::max(r.rows, 1.0);
    }
    out.cols = std::move(concat);
    if (outer) {
      // An unmatched row pads the right side with defaults (0 for numbers)
      // and appends the `matched` flag.
      for (size_t c = l.cols.size(); c < out.cols.size(); ++c) {
        out.cols[c] = Col{-1, -1, Hull(Range(out.cols[c]), Span(0, 0))};
      }
      out.cols.push_back(Col{-1, -1, Span(0, 1)});
    }
    return out;
  }

  Rel Agg(const Plan& p) {
    Rel in = Of(*p.children[0]);
    Rel r;
    r.rows = p.group_by.empty() ? 1 : in.rows;
    std::set<std::string> key;
    for (const NamedExpr& g : p.group_by) {
      r.cols.push_back(Column(g.expr, in.cols));
      key.insert(g.name);
    }
    r.keys.push_back(key);
    for (const AggSpec& a : p.aggs) {
      if (a.fn == AggFn::kCount) {
        r.cols.push_back(Col{-1, -1, Span(0, in.rows)});
      } else if (!IsExactNumeric(a.arg->type)) {
        Visit(a.arg, in.cols);
        r.cols.push_back({});
      } else if (a.fn == AggFn::kMin || a.fn == AggFn::kMax) {
        r.cols.push_back(Column(a.arg, in.cols));
      } else {
        // SUM, and AVG's running sum: every input row may land in one group.
        Iv s = Hull(Times(Expr(a.arg, in.cols), in.rows), Span(0, 0));
        std::ostringstream what;
        what << "SUM " << a.name << " over " << in.rows << " rows of "
             << a.arg->ToString();
        Check(s, what.str());
        r.cols.push_back(Col{-1, -1, a.fn == AggFn::kSum ? s : Iv{}});
      }
    }
    return r;
  }

  // A plain column stays a lazy reference; anything else is computed.
  Col Column(const ExprPtr& e, const std::vector<Col>& cols) {
    if (e->kind == ExprKind::kCol) return cols[e->col_idx];
    return Col{-1, -1, Expr(e, cols)};
  }

  Iv Range(const Col& c) {
    if (c.table < 0) return c.iv;
    auto key = std::make_pair(c.table, c.column);
    auto it = base_.find(key);
    if (it != base_.end()) return it->second;
    const storage::Column& col = db_.table(c.table).column(c.column);
    Iv iv;
    if (col.def.type != storage::ColType::kF64 &&
        col.def.type != storage::ColType::kStr) {
      int64_t lo = 0, hi = 0;
      if (!col.data.empty()) lo = hi = col.data[0].i;
      for (const Slot& s : col.data) {
        lo = std::min(lo, s.i);
        hi = std::max(hi, s.i);
      }
      iv = Span(static_cast<double>(lo), static_cast<double>(hi));
    }
    return base_[key] = iv;
  }

  // int64 holds [-2^63, 2^63); stay a little inside, as the bound is
  // computed in double.
  void Check(Iv iv, const std::string& what) {
    if (!error_.empty() || !iv.known || Magnitude(iv) < 9.2e18) return;
    std::ostringstream o;
    o << what << ": |value| may reach " << Magnitude(iv) << ", beyond int64";
    error_ = o.str();
  }

  // Checks the exact arithmetic inside `e` without reading the columns
  // that feed no arithmetic (a filter's plain column compares).
  void Visit(const ExprPtr& e, const std::vector<Col>& cols) {
    if (e->kind == ExprKind::kCol || e->kids.empty()) return;
    bool cmp = e->type == ValType::kBool && e->kids.size() == 2 &&
               ScaleOf(e->kids[0]->type) != ScaleOf(e->kids[1]->type);
    bool arith = IsExactNumeric(e->type) && e->type != ValType::kBool;
    if (cmp || arith) {
      Expr(e, cols);
    } else {
      for (const ExprPtr& k : e->kids) Visit(k, cols);
    }
  }

  // Value interval of exact expression `e` (unknown otherwise); checks
  // every exact node, and the rescaled operands of a comparison, against
  // int64.
  Iv Expr(const ExprPtr& e, const std::vector<Col>& cols) {
    if (!IsExactNumeric(e->type)) {
      Visit(e, cols);
      return {};
    }
    std::vector<Iv> k;
    for (const ExprPtr& kid : e->kids) k.push_back(Expr(kid, cols));
    // Kid i aligned to scale `to` (+, -, CASE branches, comparisons).
    auto at = [&](size_t i, int to) {
      return Times(k[i], static_cast<double>(
                             Pow10(to - ScaleOf(e->kids[i]->type))));
    };
    Iv r = Span(0, 1);  // comparisons, connectives, string predicates
    switch (e->kind) {
      case ExprKind::kCol: r = Range(cols[e->col_idx]); break;
      case ExprKind::kIntLit:
      case ExprKind::kFloatLit:
      case ExprKind::kDateLit:
      case ExprKind::kBoolLit:
        r = Span(e->ival, e->ival);
        break;
      case ExprKind::kAdd:
      case ExprKind::kSub: {
        Iv a = at(0, ScaleOf(e->type)), b = at(1, ScaleOf(e->type));
        if (!a.known || !b.known) return {};
        r = e->kind == ExprKind::kAdd ? Span(a.lo + b.lo, a.hi + b.hi)
                                      : Span(a.lo - b.hi, a.hi - b.lo);
        break;
      }
      case ExprKind::kMul:
        if (!k[0].known || !k[1].known) return {};
        r = Hull(Span(k[0].lo * k[1].lo, k[0].lo * k[1].hi),
                 Span(k[0].hi * k[1].lo, k[0].hi * k[1].hi));
        break;
      case ExprKind::kDiv:
      case ExprKind::kMod:
      case ExprKind::kYearOf: {
        // Integer division never grows the dividend's magnitude.
        if (!k[0].known) return {};
        r = Span(-Magnitude(k[0]), Magnitude(k[0]));
        break;
      }
      case ExprKind::kNeg:
        r = Times(k[0], -1);
        break;
      case ExprKind::kCase:
        r = Hull(at(1, ScaleOf(e->type)), at(2, ScaleOf(e->type)));
        break;
      default:
        if (e->kids.size() == 2 && IsExactNumeric(e->kids[0]->type) &&
            IsExactNumeric(e->kids[1]->type)) {
          int to = std::max(ScaleOf(e->kids[0]->type),
                            ScaleOf(e->kids[1]->type));
          Check(at(0, to), e->ToString());
          Check(at(1, to), e->ToString());
        }
        break;
    }
    Check(r, e->ToString());
    return r;
  }

  const storage::Database& db_;
  std::map<std::pair<int, int>, Iv> base_;
  std::string error_;
};

}  // namespace

std::string ExactOverflow(const Plan& plan, const storage::Database& db) {
  Bounds b(db);
  b.Of(plan);
  return b.error();
}

}  // namespace qc::qplan
