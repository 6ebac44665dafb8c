// Pipelining: the lowering from QPlan to ScaLite[Map, List] (§5.1).
//
// The implementation is the push-engine / producer-consumer encoding (Fig. 6
// of the paper): each operator is a producer that invokes its consumer
// continuation once per row, so operator boundaries are fused away and no
// intermediate collections are materialized except where the algebra demands
// it (hash tables of joins and aggregations, sort buffers). This is the
// transformation the paper reports as "Pipelining in QPlan: 0 LoC" in Scala
// because the operator encoding *is* the transformation; here it is the
// plan-to-IR lowering itself.
//
// Each operator materializes only the columns an ancestor reads: a
// top-down needed-columns analysis runs once before any IR is emitted (the
// root needs its whole schema, each operator adds what its own expressions
// read, a join splits its need between its children). Scans read only
// needed columns and projections compute only needed outputs; a join's
// build record stores only the right columns read above the join, by its
// residual or by its per-match key tests, and a sort record the needed
// columns plus the sort keys'. Rows keep their schema positions, with a
// null entry for a pruned column, and a record's fields are its kept
// columns in schema order, so every stored field is one that some operator
// reads.
//
// A join keyed by two or more column pairs partitions on one of them, as
// LegoBase does: an integral pair whose column is a declared PK or FK (traced
// through the operators that copy it) keys the MultiMap alone, preferring the
// column that identifies rows of the largest table, and each match compares
// the other pairs. The specialization passes then treat it like any single
// integral key. Without such a pair the key stays a record.
//
// The emitted IR is at DSL level 3 (ScaLite[Map, List]): abstract HashMap /
// MultiMap / List constructs that later lowerings specialize.
#ifndef QC_LOWER_PIPELINE_H_
#define QC_LOWER_PIPELINE_H_

#include <memory>
#include <string>

#include "ir/stmt.h"
#include "qplan/plan.h"
#include "storage/database.h"

namespace qc::lower {

// `plan` must be resolved. The returned function verifies at
// Level::kMapList.
std::unique_ptr<ir::Function> LowerPlanPipelined(const qplan::Plan& plan,
                                                 storage::Database& db,
                                                 ir::TypeFactory* types,
                                                 const std::string& name);

// Annotation convention produced by this lowering and consumed by the
// data-structure specialization passes: kMapNew.aux0 is the field index of
// the grouping key inside the aggregation record (0 for single integral
// keys), or -1; kMapNew.aux1 is the number of grouping fields.

}  // namespace qc::lower

#endif  // QC_LOWER_PIPELINE_H_
