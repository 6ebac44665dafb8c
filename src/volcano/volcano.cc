#include "volcano/volcano.h"

#include <algorithm>
#include <cassert>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/str.h"

namespace qc::volcano {

using qplan::AggFn;
using qplan::Expr;
using qplan::ExprKind;
using qplan::ExprPtr;
using qplan::JoinKind;
using qplan::Plan;
using qplan::PlanKind;
using qplan::Schema;
using qplan::ValType;

namespace {

using Row = std::vector<Slot>;

// The IR engines' lower::ToF64, operation for operation.
double ToF64(ValType t, Slot v) {
  if (t == ValType::kF64) return v.d;
  double d = static_cast<double>(v.i);
  if (t.kind == ValType::kDec && t.scale > 0) {
    d /= static_cast<double>(qplan::Pow10(t.scale));
  }
  return d;
}

struct Relation {
  const Schema* schema = nullptr;
  std::vector<Row> rows;
};

class Evaluator {
 public:
  explicit Evaluator(storage::Database& db) : db_(db) {}

  Relation Eval(const Plan& plan) {
    switch (plan.kind) {
      case PlanKind::kScan: return EvalScan(plan);
      case PlanKind::kSelect: return EvalSelect(plan);
      case PlanKind::kProject: return EvalProject(plan);
      case PlanKind::kJoin: return EvalJoin(plan);
      case PlanKind::kAgg: return EvalAgg(plan);
      case PlanKind::kSort: return EvalSort(plan);
      case PlanKind::kLimit: return EvalLimit(plan);
    }
    std::abort();
  }

  const char* Intern(const std::string& s) {
    strings_.push_back(s);
    return strings_.back().c_str();
  }

 private:
  // --- expression evaluation ------------------------------------------------

  // An exact value of `e` rescaled to `scale` (the IR's constant multiply).
  static int64_t Align(const ExprPtr& e, const Slot& v, int scale) {
    int s = qplan::ScaleOf(e->type);
    return scale > s ? v.i * qplan::Pow10(scale - s) : v.i;
  }

  Slot EvalExpr(const ExprPtr& e, const Row& row) {
    switch (e->kind) {
      case ExprKind::kCol: return row[e->col_idx];
      case ExprKind::kIntLit:
      case ExprKind::kDateLit:
      case ExprKind::kBoolLit: return SlotI(e->ival);
      case ExprKind::kFloatLit:
        return e->type.kind == ValType::kDec ? SlotI(e->ival) : SlotD(e->fval);
      case ExprKind::kStrLit: return SlotS(e->name.c_str());
      case ExprKind::kAdd:
      case ExprKind::kSub:
      case ExprKind::kMul:
      case ExprKind::kDiv:
      case ExprKind::kMod: {
        Slot a = EvalExpr(e->kids[0], row);
        Slot b = EvalExpr(e->kids[1], row);
        if (e->type == ValType::kF64) {
          double x = ToF64(e->kids[0]->type, a), y = ToF64(e->kids[1]->type, b);
          switch (e->kind) {
            case ExprKind::kAdd: return SlotD(x + y);
            case ExprKind::kSub: return SlotD(x - y);
            case ExprKind::kMul: return SlotD(x * y);
            case ExprKind::kDiv: return SlotD(x / y);
            default: std::abort();
          }
        }
        if (e->type.kind == ValType::kDec && e->kind != ExprKind::kMul) {
          a = SlotI(Align(e->kids[0], a, e->type.scale));
          b = SlotI(Align(e->kids[1], b, e->type.scale));
        }
        switch (e->kind) {
          case ExprKind::kAdd: return SlotI(a.i + b.i);
          case ExprKind::kSub: return SlotI(a.i - b.i);
          case ExprKind::kMul: return SlotI(a.i * b.i);
          // Integer division by zero is 0, as in every IR engine.
          case ExprKind::kDiv: return SlotI(b.i == 0 ? 0 : a.i / b.i);
          case ExprKind::kMod: return SlotI(b.i == 0 ? 0 : a.i % b.i);
          default: std::abort();
        }
      }
      case ExprKind::kNeg: {
        Slot a = EvalExpr(e->kids[0], row);
        return e->type == ValType::kF64 ? SlotD(-a.d) : SlotI(-a.i);
      }
      case ExprKind::kEq:
      case ExprKind::kNe:
      case ExprKind::kLt:
      case ExprKind::kLe:
      case ExprKind::kGt:
      case ExprKind::kGe: {
        Slot a = EvalExpr(e->kids[0], row);
        Slot b = EvalExpr(e->kids[1], row);
        int cmp;
        if (e->kids[0]->type == ValType::kStr) {
          cmp = std::strcmp(a.s, b.s);
        } else if (e->kids[0]->type == ValType::kF64 ||
                   e->kids[1]->type == ValType::kF64) {
          double x = ToF64(e->kids[0]->type, a), y = ToF64(e->kids[1]->type, b);
          cmp = x < y ? -1 : (x > y ? 1 : 0);
        } else {
          int scale = qplan::ScaleOf(
              qplan::CommonType(e->kids[0]->type, e->kids[1]->type));
          int64_t x = Align(e->kids[0], a, scale);
          int64_t y = Align(e->kids[1], b, scale);
          cmp = x < y ? -1 : (x > y ? 1 : 0);
        }
        bool r = false;
        switch (e->kind) {
          case ExprKind::kEq: r = cmp == 0; break;
          case ExprKind::kNe: r = cmp != 0; break;
          case ExprKind::kLt: r = cmp < 0; break;
          case ExprKind::kLe: r = cmp <= 0; break;
          case ExprKind::kGt: r = cmp > 0; break;
          case ExprKind::kGe: r = cmp >= 0; break;
          default: break;
        }
        return SlotI(r ? 1 : 0);
      }
      case ExprKind::kAnd:
        return SlotI(EvalExpr(e->kids[0], row).i != 0 &&
                             EvalExpr(e->kids[1], row).i != 0
                         ? 1
                         : 0);
      case ExprKind::kOr:
        return SlotI(EvalExpr(e->kids[0], row).i != 0 ||
                             EvalExpr(e->kids[1], row).i != 0
                         ? 1
                         : 0);
      case ExprKind::kNot:
        return SlotI(EvalExpr(e->kids[0], row).i == 0 ? 1 : 0);
      case ExprKind::kLike:
        return SlotI(StrLike(EvalExpr(e->kids[0], row).s, e->name));
      case ExprKind::kStartsWith:
        return SlotI(
            StrStartsWith(EvalExpr(e->kids[0], row).s, e->name.c_str()));
      case ExprKind::kEndsWith:
        return SlotI(
            StrEndsWith(EvalExpr(e->kids[0], row).s, e->name.c_str()));
      case ExprKind::kContains:
        return SlotI(
            StrContains(EvalExpr(e->kids[0], row).s, e->name.c_str()));
      case ExprKind::kCase: {
        bool c = EvalExpr(e->kids[0], row).i != 0;
        const ExprPtr& branch = c ? e->kids[1] : e->kids[2];
        Slot v = EvalExpr(branch, row);
        if (e->type == ValType::kF64) return SlotD(ToF64(branch->type, v));
        if (e->type.kind == ValType::kDec) {
          return SlotI(Align(branch, v, e->type.scale));
        }
        return v;
      }
      case ExprKind::kYearOf:
        return SlotI(EvalExpr(e->kids[0], row).i / 10000);
      case ExprKind::kSubstr: {
        const char* s = EvalExpr(e->kids[0], row).s;
        size_t from = 0;
        size_t n = SubstrClamp(s, e->aux0, e->aux1, &from);
        return SlotS(Intern(std::string(s + from, n)));
      }
    }
    std::abort();
  }

  // --- operators -------------------------------------------------------------

  Relation EvalScan(const Plan& plan) {
    Relation out;
    out.schema = &plan.schema;
    const storage::Table& t = db_.table(plan.table_id);
    out.rows.reserve(t.rows());
    for (int64_t r = 0; r < t.rows(); ++r) {
      Row row(t.num_columns());
      for (size_t c = 0; c < t.num_columns(); ++c) {
        row[c] = t.column(static_cast<int>(c)).data[r];
      }
      out.rows.push_back(std::move(row));
    }
    return out;
  }

  Relation EvalSelect(const Plan& plan) {
    Relation in = Eval(*plan.children[0]);
    Relation out;
    out.schema = &plan.schema;
    for (Row& r : in.rows) {
      if (EvalExpr(plan.predicate, r).i != 0) out.rows.push_back(std::move(r));
    }
    return out;
  }

  Relation EvalProject(const Plan& plan) {
    Relation in = Eval(*plan.children[0]);
    Relation out;
    out.schema = &plan.schema;
    out.rows.reserve(in.rows.size());
    for (const Row& r : in.rows) {
      Row nr;
      nr.reserve(plan.projections.size());
      for (const auto& ne : plan.projections) {
        nr.push_back(EvalExpr(ne.expr, r));
      }
      out.rows.push_back(std::move(nr));
    }
    return out;
  }

  std::string KeyOf(const std::vector<ExprPtr>& keys, const Row& row) {
    std::string k;
    for (const ExprPtr& e : keys) {
      Slot v = EvalExpr(e, row);
      if (e->type == ValType::kStr) {
        k.append(v.s);
        k.push_back('\0');
      } else {
        k.append(reinterpret_cast<const char*>(&v.i), sizeof(v.i));
      }
    }
    return k;
  }

  Relation EvalJoin(const Plan& plan) {
    Relation left = Eval(*plan.children[0]);
    Relation right = Eval(*plan.children[1]);
    Relation out;
    out.schema = &plan.schema;

    // Build on the right side, probe with the left (keeps semi/anti simple).
    std::unordered_map<std::string, std::vector<size_t>> table;
    for (size_t i = 0; i < right.rows.size(); ++i) {
      table[KeyOf(plan.right_keys, right.rows[i])].push_back(i);
    }

    size_t right_width = plan.children[1]->schema.size();
    for (const Row& lrow : left.rows) {
      auto it = table.find(KeyOf(plan.left_keys, lrow));
      bool any = false;
      if (it != table.end()) {
        for (size_t ri : it->second) {
          const Row& rrow = right.rows[ri];
          if (plan.predicate != nullptr) {
            Row concat = lrow;
            concat.insert(concat.end(), rrow.begin(), rrow.end());
            if (EvalExpr(plan.predicate, concat).i == 0) continue;
          }
          any = true;
          if (plan.join_kind == JoinKind::kInner ||
              plan.join_kind == JoinKind::kLeftOuter) {
            Row nr = lrow;
            nr.insert(nr.end(), rrow.begin(), rrow.end());
            if (plan.join_kind == JoinKind::kLeftOuter) nr.push_back(SlotI(1));
            out.rows.push_back(std::move(nr));
          } else if (plan.join_kind == JoinKind::kSemi) {
            break;  // one witness suffices
          }
        }
      }
      switch (plan.join_kind) {
        case JoinKind::kSemi:
          if (any) out.rows.push_back(lrow);
          break;
        case JoinKind::kAnti:
          if (!any) out.rows.push_back(lrow);
          break;
        case JoinKind::kLeftOuter:
          if (!any) {
            Row nr = lrow;
            for (size_t c = 0; c < right_width; ++c) {
              ValType t = plan.children[1]->schema[c].type;
              nr.push_back(t == ValType::kStr ? SlotS(Intern(""))
                                              : SlotI(0));
            }
            nr.push_back(SlotI(0));  // matched = false
            out.rows.push_back(std::move(nr));
          }
          break;
        case JoinKind::kInner:
          break;
      }
    }
    return out;
  }

  Relation EvalAgg(const Plan& plan) {
    Relation in = Eval(*plan.children[0]);
    Relation out;
    out.schema = &plan.schema;

    struct Group {
      Row key_values;
      std::vector<Slot> acc;  // sum / min / max, f64 or int64 by type
      std::vector<int64_t> count;
      bool seen = false;
    };

    std::unordered_map<std::string, Group> groups;
    std::vector<std::string> order;  // deterministic output order

    std::vector<ExprPtr> key_exprs;
    for (const auto& g : plan.group_by) key_exprs.push_back(g.expr);

    for (const Row& r : in.rows) {
      std::string key = KeyOf(key_exprs, r);
      auto [it, inserted] = groups.try_emplace(key);
      Group& g = it->second;
      if (inserted) {
        order.push_back(key);
        for (const auto& ge : plan.group_by) {
          Slot v = EvalExpr(ge.expr, r);
          if (ge.expr->type == ValType::kStr) v = SlotS(Intern(v.s));
          g.key_values.push_back(v);
        }
        g.acc.assign(plan.aggs.size(), SlotI(0));
        g.count.assign(plan.aggs.size(), 0);
      }
      for (size_t a = 0; a < plan.aggs.size(); ++a) {
        const qplan::AggSpec& spec = plan.aggs[a];
        if (spec.fn == AggFn::kCount) {
          ++g.count[a];
          continue;
        }
        Slot v = EvalExpr(spec.arg, r);
        bool is_f = spec.arg->type == ValType::kF64;
        Slot& acc = g.acc[a];
        auto less = [&](Slot x, Slot y) { return is_f ? x.d < y.d : x.i < y.i; };
        switch (spec.fn) {
          case AggFn::kSum:
          case AggFn::kAvg:
            if (is_f) {
              acc.d += v.d;
            } else {
              acc.i += v.i;
            }
            break;
          case AggFn::kMin:
            if (g.count[a] == 0 || less(v, acc)) acc = v;
            break;
          case AggFn::kMax:
            if (g.count[a] == 0 || less(acc, v)) acc = v;
            break;
          case AggFn::kCount:
            break;
        }
        ++g.count[a];
      }
    }

    // Global aggregation produces a zero row even on empty input.
    if (plan.group_by.empty() && groups.empty()) {
      Group g;
      g.acc.assign(plan.aggs.size(), SlotI(0));
      g.count.assign(plan.aggs.size(), 0);
      groups[""] = g;
      order.push_back("");
    }

    for (const std::string& key : order) {
      Group& g = groups[key];
      Row r = g.key_values;
      for (size_t a = 0; a < plan.aggs.size(); ++a) {
        const qplan::AggSpec& spec = plan.aggs[a];
        switch (spec.fn) {
          case AggFn::kCount:
            r.push_back(SlotI(g.count[a]));
            break;
          case AggFn::kAvg:
            // lower::AvgOf: the sum as f64, then divided by the count.
            r.push_back(SlotD(g.count[a] == 0
                                  ? 0.0
                                  : ToF64(spec.arg->type, g.acc[a]) /
                                        static_cast<double>(g.count[a])));
            break;
          default:
            r.push_back(g.acc[a]);
        }
      }
      out.rows.push_back(std::move(r));
    }
    return out;
  }

  Relation EvalSort(const Plan& plan) {
    Relation in = Eval(*plan.children[0]);
    Relation out;
    out.schema = &plan.schema;
    out.rows = std::move(in.rows);
    std::stable_sort(
        out.rows.begin(), out.rows.end(), [&](const Row& a, const Row& b) {
          for (const qplan::SortKey& k : plan.sort_keys) {
            Slot va = EvalExpr(k.expr, a);
            Slot vb = EvalExpr(k.expr, b);
            int cmp;
            if (k.expr->type == ValType::kStr) {
              cmp = std::strcmp(va.s, vb.s);
            } else if (k.expr->type == ValType::kF64) {
              cmp = va.d < vb.d ? -1 : (va.d > vb.d ? 1 : 0);
            } else {
              cmp = va.i < vb.i ? -1 : (va.i > vb.i ? 1 : 0);
            }
            if (cmp != 0) return k.desc ? cmp > 0 : cmp < 0;
          }
          return false;
        });
    return out;
  }

  Relation EvalLimit(const Plan& plan) {
    Relation in = Eval(*plan.children[0]);
    if (plan.limit >= 0 &&
        in.rows.size() > static_cast<size_t>(plan.limit)) {
      in.rows.resize(plan.limit);
    }
    in.schema = &plan.schema;
    return in;
  }

  storage::Database& db_;
  std::deque<std::string> strings_;
};

}  // namespace

storage::ResultTable Execute(const qplan::Plan& plan, storage::Database& db) {
  Evaluator ev(db);
  Relation rel = ev.Eval(plan);
  std::vector<storage::ColType> types;
  for (const auto& c : plan.schema) types.push_back(qplan::ToColType(c.type));
  storage::ResultTable out(types);
  for (const Row& r : rel.rows) {
    std::vector<Slot> row = r;
    for (size_t c = 0; c < row.size(); ++c) {
      if (plan.schema[c].type == ValType::kStr) {
        row[c] = SlotS(out.InternString(row[c].s));
      } else if (plan.schema[c].type.kind == ValType::kDec) {
        row[c] = SlotD(ToF64(plan.schema[c].type, row[c]));
      }
    }
    out.AddRow(std::move(row));
  }
  return out;
}

}  // namespace qc::volcano
