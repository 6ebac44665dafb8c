// Parallelizability analysis over numbered ANF statements.
//
// A top-level kForRange scan loop can be executed morsel-parallel (HyPer
// style: the row range is split into morsels dispatched to a worker pool)
// when every effect its body has on pre-loop state is one of a small set of
// *reduction* shapes the merge phase knows how to recombine:
//
//   * scalar accumulator folds over a mutable variable
//     (sum / count, and min/max guarded by the shared count variable — the
//     shapes lower/pipeline.cc produces for global aggregation),
//   * grouped aggregation through a generic HashMap (kMapGetOrElseUpdate
//     + per-field accumulate clusters) or through a direct-addressed group
//     array (the hash_spec output: arr_get + is_null-create + accumulates),
//   * hash-join builds: kMMapAdd of an iteration-built record, or the
//     intrusive prepend into a bucket array (rec.next = bucket[k];
//     bucket[k] = rec),
//   * appends of iteration-built values to a pre-loop List, and
//   * result emission (kEmit).
//
// Everything else in the body must be pure, control flow, iteration-local
// state, or a read of pre-loop state that the loop never mutates. A loop
// that does not fit runs sequentially — the analysis is strictly
// conservative and never changes semantics.
//
// Determinism contract: the executors guarantee that a morsel-parallel run
// produces *bitwise identical* results to the sequential engine, for any
// thread count and morsel size. Every fold the analysis accepts is exact:
// integral sums (integers and scale-int64 decimals, qplan::ValType::kDec)
// are associative, so each morsel's partial sum merges in any order, and
// first-occurrence min/max merge through the shared count. An f64 sum is
// not associative, so a loop with one is rejected (rule "f64-sum") and runs
// sequentially, exact by construction. No TPC-H loop has one: every money
// column is a decimal.
//
// Group and bucket arrays are direct-addressed, so their merge works slot
// by slot: the stores that fill a private array are marked in
// ParLoop::touch, and the executors fold only the logged slots, each slot
// in morsel order. A group
// array may have two create sites (an outer join's count creates its group
// in the match loop and again after it when no row matched) when both
// create the same record in the same slot; each site's store is marked.
#ifndef QC_IR_PARALLEL_H_
#define QC_IR_PARALLEL_H_

#include <cstdint>
#include <string>
#include <vector>

#include "ir/stmt.h"

namespace qc::ir {

// Merge rule for one field of a group record.
enum class ParFold : uint8_t {
  kKeepFirst,  // group key / init-only field: the first creator's value
  kSumI,       // exact integral sum: main += morsel partial
  kMin,        // first-occurrence min, guarded by the shared count field
  kMax,
};

enum class ParRedKind : uint8_t {
  kVarSumI,      // integral sum variable (also the shared row count)
  kVarMin,       // min variable guarded by count_var
  kVarMax,
  kList,         // append-only list
  kMap,          // generic hash-map grouped aggregation
  kMMap,         // generic multimap join build
  kGroupArray,   // direct-addressed group array (hash_spec aggregation)
  kBucketArray,  // intrusive bucket array (hash_spec join build)
};

// One privatized pre-loop object and how worker-local copies merge back.
struct ParReduction {
  ParRedKind kind;
  const Stmt* target = nullptr;     // pre-loop definition being privatized

  // Scalar accumulators.
  const Stmt* count_var = nullptr;  // shared count read by min/max guards
  bool is_f64 = false;              // kVarMin/kVarMax comparison width

  // Group records (kMap / kGroupArray).
  std::vector<ParFold> fields;      // one entry per record field
  std::vector<bool> field_is_f64;
  int n_field = -1;                 // count field read by min/max guards
  bool pool_rec = false;            // group records are pool allocations

  // Arrays (kGroupArray / kBucketArray).
  const Stmt* size = nullptr;       // kConst capacity of the array
  int next_field = -1;              // kBucketArray: intrusive link field
};

// Everything the executors need to run one top-level kForRange in parallel.
struct ParLoop {
  const Stmt* loop = nullptr;
  std::vector<ParReduction> reductions;
  bool has_emit = false;
  // Indexed by statement id (size = Function::num_stmts() at analysis
  // time): the array reduction whose touched-slot log a morsel appends the
  // store's slot index to, after executing it, else -1. Marks the
  // group-array create stores and the bucket-array prepend store, so the
  // merge visits only the slots a morsel wrote, never the whole array.
  std::vector<int> touch;
};

// Why a top-level kForRange runs sequentially: the statement whose visit
// failed (rule "visit", or "f64-sum" for a sum into an f64 accumulator),
// or the post-pass that rejected the loop ("guards", "inits", "reads";
// "no-effect" when the body has no reduction and no emit).
struct ParReject {
  const Stmt* loop = nullptr;
  const Stmt* at = nullptr;  // rules "visit" and "f64-sum" only
  const char* rule = nullptr;
};

struct ParallelInfo {
  std::vector<ParLoop> loops;
  std::vector<ParReject> rejected;  // every other top-level kForRange

  const ParLoop* Find(const Stmt* loop) const {
    for (const ParLoop& pl : loops) {
      if (pl.loop == loop) return &pl;
    }
    return nullptr;
  }
};

// Analyzes every top-level kForRange of `fn`. Loops absent from the result
// must run sequentially. `fn` must be verified and densely numbered.
ParallelInfo AnalyzeParallelism(const Function& fn);

// The "why not parallel" listing: one line per rejected loop,
// "<prefix>x<loop> <rule>" plus " at x<id> <op>" for a failed visit.
std::string FormatRejections(const ParallelInfo& info,
                             const std::string& prefix = "");

}  // namespace qc::ir

#endif  // QC_IR_PARALLEL_H_
