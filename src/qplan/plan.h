// Physical query plans of the QPlan DSL: the operator algebra found in
// commercial systems (scan, select, project, hash joins including semi-,
// anti- and outer variants, hash aggregation, sort, limit) — sufficient for
// all 22 TPC-H queries (§4.1 of the paper).
#ifndef QC_QPLAN_PLAN_H_
#define QC_QPLAN_PLAN_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "qplan/expr.h"
#include "storage/database.h"

namespace qc::qplan {

enum class PlanKind { kScan, kSelect, kProject, kJoin, kAgg, kSort, kLimit };

enum class JoinKind { kInner, kLeftOuter, kSemi, kAnti };

const char* JoinKindName(JoinKind k);

struct NamedExpr {
  std::string name;
  ExprPtr expr;
};

enum class AggFn { kSum, kCount, kMin, kMax, kAvg };

struct AggSpec {
  AggFn fn;
  ExprPtr arg;  // null for kCount
  std::string name;
};

struct SortKey {
  ExprPtr expr;
  bool desc = false;
};

struct Plan;
using PlanPtr = std::unique_ptr<Plan>;

struct Plan {
  PlanKind kind;
  std::vector<PlanPtr> children;

  // kScan
  std::string table;
  int table_id = -1;

  // kSelect predicate / kJoin residual predicate (over concatenated schema)
  ExprPtr predicate;

  // kProject
  std::vector<NamedExpr> projections;

  // kJoin. Keys are expressions over the respective child schemas; the
  // output schema is left ++ right for inner/outer (outer additionally
  // appends a bool column named `matched`), left only for semi/anti.
  JoinKind join_kind = JoinKind::kInner;
  std::vector<ExprPtr> left_keys, right_keys;

  // kAgg. Empty group_by = global aggregation producing exactly one row.
  std::vector<NamedExpr> group_by;
  std::vector<AggSpec> aggs;

  // kSort
  std::vector<SortKey> sort_keys;

  // kLimit
  int64_t limit = -1;

  // Filled in by ResolvePlan():
  Schema schema;

  std::string ToString(int indent = 0) const;
};

// --- constructors ------------------------------------------------------------

PlanPtr ScanOp(const std::string& table);
PlanPtr SelectOp(PlanPtr child, ExprPtr predicate);
PlanPtr ProjectOp(PlanPtr child, std::vector<NamedExpr> projections);
PlanPtr JoinOp(JoinKind kind, PlanPtr left, PlanPtr right,
               std::vector<ExprPtr> left_keys, std::vector<ExprPtr> right_keys,
               ExprPtr residual = nullptr);
PlanPtr AggOp(PlanPtr child, std::vector<NamedExpr> group_by,
              std::vector<AggSpec> aggs);
PlanPtr SortOp(PlanPtr child, std::vector<SortKey> keys);
PlanPtr LimitOp(PlanPtr child, int64_t n);

inline AggSpec Sum(ExprPtr e, const std::string& name) {
  return AggSpec{AggFn::kSum, std::move(e), name};
}
inline AggSpec Count(const std::string& name) {
  return AggSpec{AggFn::kCount, nullptr, name};
}
inline AggSpec Min(ExprPtr e, const std::string& name) {
  return AggSpec{AggFn::kMin, std::move(e), name};
}
inline AggSpec Max(ExprPtr e, const std::string& name) {
  return AggSpec{AggFn::kMax, std::move(e), name};
}
inline AggSpec Avg(ExprPtr e, const std::string& name) {
  return AggSpec{AggFn::kAvg, std::move(e), name};
}

inline SortKey Asc(ExprPtr e) { return SortKey{std::move(e), false}; }
inline SortKey Desc(ExprPtr e) { return SortKey{std::move(e), true}; }

// Resolves table ids, column references and output schemas bottom-up, then
// checks ExactOverflow. Aborts with a readable message on errors (plans are
// developer-authored), before any engine runs the plan.
void ResolvePlan(Plan* plan, const storage::Database& db);

// The overflow policy of exact (i64 and decimal) arithmetic (bounds.cc):
// empty when interval arithmetic over `db`'s column min/max proves that
// every exact expression and every SUM of the typed `plan` fits int64 —
// a SUM bounded by its input's row bound times its addend's magnitude —
// else a description of the first value that may not.
std::string ExactOverflow(const Plan& plan, const storage::Database& db);

// The type of a base-table column.
ValType FromColumn(const storage::ColumnDef& c);

// Maps a ValType to the result-table column type. A decimal leaves the
// plan as f64 (value / 10^scale, converted once per result row).
storage::ColType ToColType(ValType t);

}  // namespace qc::qplan

#endif  // QC_QPLAN_PLAN_H_
