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
// thread count and morsel size. Exact integer folds and first-occurrence
// min/max merge cleanly per morsel; the one non-associative case — f64
// sums — is handled by logging the per-row addends (ParLogChannel) during
// the parallel phase and replaying the additions in global row order during
// the merge, so floating-point results keep the exact sequential rounding.
//
// Group and bucket arrays are direct-addressed, so their merge works slot
// by slot: the stores that fill a private array are marked kTouch, and the
// executors fold only the logged slots, each slot in morsel order.
#ifndef QC_IR_PARALLEL_H_
#define QC_IR_PARALLEL_H_

#include <cstdint>
#include <vector>

#include "ir/stmt.h"

namespace qc::ir {

// Per-statement behavior when the surrounding loop body runs over a morsel.
enum class ParAction : uint8_t {
  kNormal = 0,  // execute as-is (against morsel-private state)
  kSkip,        // folded into a logged f64-sum cluster; do not execute
  kLog,         // append one entry to the designated addend log channel
  // Execute, then append the store's slot index to the touched-slot log of
  // the array reduction named by action_channel. Marks the group-array
  // create store and the bucket-array prepend store: the merge then visits
  // only the slots a morsel wrote, never the whole private array.
  kTouch,
};

// Merge rule for one field of a group record.
enum class ParFold : uint8_t {
  kKeepFirst,  // group key / init-only field: the first creator's value
  kSumI,       // exact integral sum: main += morsel partial
  kSumF,       // f64 sum: replayed from the addend log, field never stored
  kMin,        // first-occurrence min, guarded by the shared count field
  kMax,
};

// One ordered f64-addend log. During a morsel run, executing `append_at`
// appends [handle?, values...] to the channel instead of storing the sums;
// the merge replays `main[field] += value` in morsel (= row) order.
struct ParLogChannel {
  const Stmt* append_at = nullptr;  // kRecSet / kVarAssign that logs
  // Group identification, logged as the entry's first slot: for group
  // arrays the array index (array_red >= 0 names the reduction — replay is
  // a direct load, no hashing); for hash maps the morsel-local record
  // pointer (map_red >= 0 names the kMap reduction whose hash parts the
  // merge routes the entry to).
  const Stmt* handle = nullptr;     // null for scalar channels
  int array_red = -1;
  int map_red = -1;
  const Stmt* var = nullptr;        // accumulator variable (scalar channels)
  // Distinct addend statements logged per entry (a statement feeding two
  // sum fields is logged once), and per target field the index of its
  // addend in `values`.
  std::vector<const Stmt*> values;
  std::vector<int> fields;     // record fields, in store order (grouped)
  std::vector<int> value_idx;  // parallel to fields: index into values
  size_t Stride() const { return values.size() + (handle != nullptr ? 1 : 0); }
};

enum class ParRedKind : uint8_t {
  kVarSumI,      // integral sum variable (also the shared row count)
  kVarSumF,      // f64 sum variable — merged via a log channel
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
  int log_channel = -1;             // kVarSumF: its addend channel
  bool is_f64 = false;              // kVarMin/kVarMax comparison width

  // Group records (kMap / kGroupArray).
  std::vector<ParFold> fields;      // one entry per record field
  std::vector<bool> field_is_f64;
  int n_field = -1;                 // count field read by min/max guards
  bool pool_rec = false;            // group records are pool allocations

  // Arrays (kGroupArray / kBucketArray).
  const Stmt* size = nullptr;       // kConst capacity of the array
  const Stmt* group_index = nullptr;  // kGroupArray: the slot-index stmt
  int next_field = -1;              // kBucketArray: intrusive link field
};

// Everything the executors need to run one top-level kForRange in parallel.
struct ParLoop {
  const Stmt* loop = nullptr;
  std::vector<ParReduction> reductions;
  std::vector<ParLogChannel> logs;
  bool has_emit = false;
  // Indexed by statement id (size = Function::num_stmts() at analysis time).
  std::vector<ParAction> actions;
  // kLog -> addend channel index, kTouch -> reduction index, else -1.
  std::vector<int> action_channel;
};

struct ParallelInfo {
  std::vector<ParLoop> loops;

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

}  // namespace qc::ir

#endif  // QC_IR_PARALLEL_H_
