#include "qplan/plan.h"

#include <cstdio>
#include <cstdlib>
#include <sstream>

namespace qc::qplan {

const char* JoinKindName(JoinKind k) {
  switch (k) {
    case JoinKind::kInner: return "inner";
    case JoinKind::kLeftOuter: return "leftouter";
    case JoinKind::kSemi: return "semi";
    case JoinKind::kAnti: return "anti";
  }
  return "?";
}

namespace {

[[noreturn]] void Fail(const std::string& msg) {
  std::fprintf(stderr, "qplan error: %s\n", msg.c_str());
  std::abort();
}

PlanPtr MakePlan(PlanKind k) {
  auto p = std::make_unique<Plan>();
  p->kind = k;
  return p;
}

}  // namespace

ValType FromColumn(const storage::ColumnDef& c) {
  switch (c.type) {
    case storage::ColType::kI64: return ValType::kI64;
    case storage::ColType::kF64: return ValType::kF64;
    case storage::ColType::kStr: return ValType::kStr;
    case storage::ColType::kDate: return ValType::kDate;
    case storage::ColType::kDec: return ValType::Dec(c.scale);
  }
  return ValType::kI64;
}

storage::ColType ToColType(ValType t) {
  switch (t.kind) {
    case ValType::kI64:
    case ValType::kBool: return storage::ColType::kI64;
    case ValType::kF64:
    case ValType::kDec: return storage::ColType::kF64;
    case ValType::kStr: return storage::ColType::kStr;
    case ValType::kDate: return storage::ColType::kDate;
  }
  return storage::ColType::kI64;
}

PlanPtr ScanOp(const std::string& table) {
  auto p = MakePlan(PlanKind::kScan);
  p->table = table;
  return p;
}

PlanPtr SelectOp(PlanPtr child, ExprPtr predicate) {
  auto p = MakePlan(PlanKind::kSelect);
  p->children.push_back(std::move(child));
  p->predicate = std::move(predicate);
  return p;
}

PlanPtr ProjectOp(PlanPtr child, std::vector<NamedExpr> projections) {
  auto p = MakePlan(PlanKind::kProject);
  p->children.push_back(std::move(child));
  p->projections = std::move(projections);
  return p;
}

PlanPtr JoinOp(JoinKind kind, PlanPtr left, PlanPtr right,
               std::vector<ExprPtr> left_keys, std::vector<ExprPtr> right_keys,
               ExprPtr residual) {
  auto p = MakePlan(PlanKind::kJoin);
  p->join_kind = kind;
  p->children.push_back(std::move(left));
  p->children.push_back(std::move(right));
  p->left_keys = std::move(left_keys);
  p->right_keys = std::move(right_keys);
  p->predicate = std::move(residual);
  return p;
}

PlanPtr AggOp(PlanPtr child, std::vector<NamedExpr> group_by,
              std::vector<AggSpec> aggs) {
  auto p = MakePlan(PlanKind::kAgg);
  p->children.push_back(std::move(child));
  p->group_by = std::move(group_by);
  p->aggs = std::move(aggs);
  return p;
}

PlanPtr SortOp(PlanPtr child, std::vector<SortKey> keys) {
  auto p = MakePlan(PlanKind::kSort);
  p->children.push_back(std::move(child));
  p->sort_keys = std::move(keys);
  return p;
}

PlanPtr LimitOp(PlanPtr child, int64_t n) {
  auto p = MakePlan(PlanKind::kLimit);
  p->children.push_back(std::move(child));
  p->limit = n;
  return p;
}

namespace {

void ResolveNode(Plan* plan, const storage::Database& db) {
  for (auto& c : plan->children) ResolveNode(c.get(), db);
  switch (plan->kind) {
    case PlanKind::kScan: {
      plan->table_id = db.TableId(plan->table);
      if (plan->table_id < 0) Fail("unknown table '" + plan->table + "'");
      const storage::TableDef& def = db.table(plan->table_id).def();
      plan->schema.clear();
      for (const auto& c : def.columns) {
        plan->schema.push_back(OutCol{c.name, FromColumn(c)});
      }
      break;
    }
    case PlanKind::kSelect: {
      plan->schema = plan->children[0]->schema;
      Resolve(plan->predicate, plan->schema);
      if (plan->predicate->type != ValType::kBool) {
        Fail("selection predicate is not boolean");
      }
      break;
    }
    case PlanKind::kProject: {
      const Schema& in = plan->children[0]->schema;
      plan->schema.clear();
      for (auto& ne : plan->projections) {
        Resolve(ne.expr, in);
        plan->schema.push_back(OutCol{ne.name, ne.expr->type});
      }
      break;
    }
    case PlanKind::kJoin: {
      const Schema& l = plan->children[0]->schema;
      const Schema& r = plan->children[1]->schema;
      if (plan->left_keys.size() != plan->right_keys.size()) {
        Fail("join key arity mismatch");
      }
      for (auto& k : plan->left_keys) Resolve(k, l);
      for (auto& k : plan->right_keys) Resolve(k, r);
      for (size_t i = 0; i < plan->left_keys.size(); ++i) {
        ValType a = plan->left_keys[i]->type;
        ValType b = plan->right_keys[i]->type;
        bool ok = (a == b) || (a != ValType::kStr && b != ValType::kStr);
        // Keys hash and compare as raw slots: a decimal key joins only an
        // exact key of the same scale.
        bool dec = a.kind == ValType::kDec || b.kind == ValType::kDec;
        if (!ok || (dec && (!IsExactNumeric(a) || !IsExactNumeric(b) ||
                            ScaleOf(a) != ScaleOf(b)))) {
          Fail("join key type mismatch");
        }
      }
      Schema concat = l;
      concat.insert(concat.end(), r.begin(), r.end());
      if (plan->join_kind == JoinKind::kLeftOuter) {
        concat.push_back(OutCol{"matched", ValType::kBool});
      }
      if (plan->predicate != nullptr) {
        // Residual predicate sees the concatenated schema (left ++ right) so
        // it can compare columns across sides (e.g. Q21's s <> t).
        Schema residual_schema = l;
        residual_schema.insert(residual_schema.end(), r.begin(), r.end());
        Resolve(plan->predicate, residual_schema);
        if (plan->predicate->type != ValType::kBool) {
          Fail("join residual is not boolean");
        }
      }
      if (plan->join_kind == JoinKind::kSemi ||
          plan->join_kind == JoinKind::kAnti) {
        plan->schema = l;
      } else {
        plan->schema = std::move(concat);
      }
      break;
    }
    case PlanKind::kAgg: {
      const Schema& in = plan->children[0]->schema;
      plan->schema.clear();
      for (auto& g : plan->group_by) {
        Resolve(g.expr, in);
        plan->schema.push_back(OutCol{g.name, g.expr->type});
      }
      for (auto& a : plan->aggs) {
        ValType t = ValType::kI64;
        if (a.fn == AggFn::kCount) {
          t = ValType::kI64;
        } else {
          if (a.arg == nullptr) Fail("aggregate missing argument");
          Resolve(a.arg, in);
          t = a.arg->type;
          if (a.fn == AggFn::kAvg) t = ValType::kF64;
        }
        plan->schema.push_back(OutCol{a.name, t});
      }
      break;
    }
    case PlanKind::kSort: {
      plan->schema = plan->children[0]->schema;
      for (auto& k : plan->sort_keys) Resolve(k.expr, plan->schema);
      break;
    }
    case PlanKind::kLimit: {
      plan->schema = plan->children[0]->schema;
      break;
    }
  }
}

}  // namespace

void ResolvePlan(Plan* plan, const storage::Database& db) {
  ResolveNode(plan, db);
  std::string overflow = ExactOverflow(*plan, db);
  if (!overflow.empty()) Fail("exact arithmetic may overflow: " + overflow);
}

std::string Plan::ToString(int indent) const {
  std::ostringstream out;
  std::string pad(indent * 2, ' ');
  out << pad;
  switch (kind) {
    case PlanKind::kScan:
      out << "Scan(" << table << ")";
      break;
    case PlanKind::kSelect:
      out << "Select(" << predicate->ToString() << ")";
      break;
    case PlanKind::kProject: {
      out << "Project(";
      for (size_t i = 0; i < projections.size(); ++i) {
        if (i > 0) out << ", ";
        out << projections[i].name << "=" << projections[i].expr->ToString();
      }
      out << ")";
      break;
    }
    case PlanKind::kJoin: {
      out << "HashJoin[" << JoinKindName(join_kind) << "](";
      for (size_t i = 0; i < left_keys.size(); ++i) {
        if (i > 0) out << ", ";
        out << left_keys[i]->ToString() << "=" << right_keys[i]->ToString();
      }
      if (predicate != nullptr) out << " if " << predicate->ToString();
      out << ")";
      break;
    }
    case PlanKind::kAgg: {
      out << "Agg(by=[";
      for (size_t i = 0; i < group_by.size(); ++i) {
        if (i > 0) out << ", ";
        out << group_by[i].name;
      }
      out << "], aggs=[";
      for (size_t i = 0; i < aggs.size(); ++i) {
        if (i > 0) out << ", ";
        out << aggs[i].name;
      }
      out << "])";
      break;
    }
    case PlanKind::kSort: {
      out << "Sort(";
      for (size_t i = 0; i < sort_keys.size(); ++i) {
        if (i > 0) out << ", ";
        out << sort_keys[i].expr->ToString()
            << (sort_keys[i].desc ? " desc" : " asc");
      }
      out << ")";
      break;
    }
    case PlanKind::kLimit:
      out << "Limit(" << limit << ")";
      break;
  }
  out << "\n";
  for (const auto& c : children) out << c->ToString(indent + 1);
  return out.str();
}

}  // namespace qc::qplan
