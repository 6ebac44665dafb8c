// Runtime data structures backing the IR interpreter.
//
// Two families exist deliberately:
//   * the *generic* chained hash table / multimap with one heap node per
//     entry and type-driven key hashing — the GLib stand-in whose
//     abstraction overhead (function calls, pointer chasing, per-entry
//     allocation, §B.2) the specialization passes exist to remove; and
//   * plain vectors/arenas for arrays, lists and pools — what specialized
//     code lowers to.
// An AllocStats instance threads through everything so Figure 8 (memory
// consumption) can be reproduced.
#ifndef QC_EXEC_RUNTIME_H_
#define QC_EXEC_RUNTIME_H_

#include <cstdint>
#include <cstring>
#include <deque>
#include <string>
#include <vector>

#include "common/arena.h"
#include "common/hash.h"
#include "common/value.h"
#include "ir/type.h"

namespace qc::exec {

struct AllocStats {
  size_t heap_bytes = 0;    // per-object heap allocations (records, nodes)
  size_t heap_allocs = 0;   // number of individual allocations
  size_t pool_bytes = 0;    // bump-arena bytes (pooled allocations)
  size_t vector_bytes = 0;  // array/list backing storage

  size_t TotalBytes() const { return heap_bytes + pool_bytes + vector_bytes; }

  // Folds a worker-local accounting into this one (the parallel epilogue).
  // Together with the merge phase's CreditHeap/CreditVector calls for
  // storage that only existed transiently (duplicate per-morsel group
  // records, per-morsel hash nodes and list buffers), totals stay exactly
  // what a sequential run reports — Figure 8 is engine- and
  // thread-count-independent.
  void MergeFrom(const AllocStats& o) {
    heap_bytes += o.heap_bytes;
    heap_allocs += o.heap_allocs;
    pool_bytes += o.pool_bytes;
    vector_bytes += o.vector_bytes;
  }
  void CreditHeap(size_t bytes, size_t allocs) {
    heap_bytes -= bytes;
    heap_allocs -= allocs;
  }
  void CreditPool(size_t bytes) { pool_bytes -= bytes; }
  void CreditVector(size_t bytes) { vector_bytes -= bytes; }
};

// Growable list of slots. Generic lists model the library List of
// ScaLite[List]; after list specialization the same storage is reached
// through plain array ops instead.
struct RtList {
  std::vector<Slot> items;
};

// Strict-weak-order over slots: the interface of the sort core below.
// parallel::SortSlots implements it over a comparator subroutine (run by
// the VM, or as the JIT's stitched native segment) and decorates it with
// GovernedCmp. Distinct instances must be usable concurrently — the
// parallel sort gives every worker task its own instance over a private
// register file.
class SlotCmp {
 public:
  virtual ~SlotCmp() = default;
  virtual bool Less(Slot a, Slot b) = 0;
};

// The shared sort core: every engine's ORDER BY goes through these, so the
// output ordering — including the order of equal keys — is identical across
// {VM, JIT} x any thread count by construction.
//
// StableSortSlots is a stable merge sort (insertion-sort base runs, then
// bottom-up ordered merges through one scratch buffer). Stability pins the
// output uniquely for any comparator that is a strict weak order, which is
// the same guarantee std::stable_sort gave the engines before; the explicit
// core exists so the JIT can drive its native comparator segment from plain
// C++ instead of re-entering the VM dispatch loop per comparison.
//
// The scratch overload merges through caller-provided storage of at least
// `n` slots (the parallel sort slices one full-size buffer across its
// concurrent chunk sorts); the two-argument form allocates its own.
void StableSortSlots(Slot* data, int64_t n, SlotCmp& cmp);
void StableSortSlots(Slot* data, int64_t n, SlotCmp& cmp, Slot* scratch);

// Stable ordered merge of the adjacent sorted runs src[lo, mid) and
// src[mid, hi) into dst[lo, hi): ties take the left (earlier) run, which is
// what makes merging per-worker sorted runs reproduce the full stable sort
// for any run decomposition (exec/parallel.h SortSlots).
void MergeSortedRuns(const Slot* src, int64_t lo, int64_t mid, int64_t hi,
                     Slot* dst, SlotCmp& cmp);

// Fixed array of slots.
struct RtArray {
  std::vector<Slot> data;
};

// Type-directed hashing/equality over one slot. Records hash their scalar
// fields; strings hash their contents.
class SlotHasher {
 public:
  explicit SlotHasher(const ir::Type* type) : type_(type) {}

  uint64_t Hash(Slot v) const { return HashTyped(type_, v); }
  bool Equal(Slot a, Slot b) const { return EqualTyped(type_, a, b); }

 private:
  static uint64_t HashTyped(const ir::Type* t, Slot v);
  static bool EqualTyped(const ir::Type* t, Slot a, Slot b);
  const ir::Type* type_;
};

// Generic chained hash map (the GLib analogue): per-node heap allocation,
// load-factor-driven rehashing.
class RtHashMap {
 public:
  struct Node {
    Slot key;
    Slot value;
    Node* next;
  };

  RtHashMap(const ir::Type* key_type, AllocStats* stats)
      : hasher_(key_type), stats_(stats) {
    buckets_.assign(16, nullptr);
  }
  ~RtHashMap();

  RtHashMap(const RtHashMap&) = delete;
  RtHashMap& operator=(const RtHashMap&) = delete;

  // Returns the node for `key`, or nullptr.
  Node* Find(Slot key) const;
  // Inserts (key must not be present) and returns the new node.
  Node* Insert(Slot key, Slot value);
  size_t size() const { return size_; }

  // In insertion order (deterministic iteration for reproducible output).
  const std::vector<Node*>& entries() const { return entries_; }

  // Byte offsets of the bucket-pointer and insertion-order vectors inside a
  // live map object, for the JIT's native hash-probe and entry-iteration
  // templates (src/jit/templates.cc). Probed from an instance — never
  // assumed — so a layout change makes the probe fail (and the program run
  // on the VM) instead of reading garbage.
  static size_t BucketsOffsetForJit();
  static size_t EntriesOffsetForJit();

 private:
  void MaybeRehash();

  SlotHasher hasher_;
  AllocStats* stats_;
  std::vector<Node*> buckets_;
  std::vector<Node*> entries_;
  size_t size_ = 0;
};

// Generic multimap: hash map from key to an owned RtList of values.
class RtMultiMap {
 public:
  RtMultiMap(const ir::Type* key_type, AllocStats* stats)
      : map_(key_type, stats), stats_(stats) {}

  RtList* GetOrNull(Slot key) const {
    RtHashMap::Node* n = map_.Find(key);
    return n == nullptr ? nullptr : static_cast<RtList*>(n->value.p);
  }

  void Add(Slot key, Slot value);

  // Bulk variant for the parallel ordered merge: one key lookup (and at
  // most one insert) per (key, morsel) instead of one Find per merged
  // value, so merging a long value chain is O(values) even when the key's
  // hash chain is long (skewed keys). Appends one value at a time so the
  // list's capacity growth — and with it AllocStats::vector_bytes — stays
  // bitwise identical to the sequential per-row Add path.
  void AddAll(Slot key, const Slot* values, size_t count);

  // Key-grouped contents in first-insertion order (the parallel merge walks
  // worker-local multimaps through this).
  const RtHashMap& key_map() const { return map_; }

  // Byte offset of the embedded key map (JIT probe, see RtHashMap).
  static size_t MapOffsetForJit();

 private:
  RtHashMap map_;
  AllocStats* stats_;
  std::deque<RtList> lists_;
};

struct GovState;  // exec/governor.h

// Record storage: a record value is a Slot* pointing at `n` slots. Heap
// records model GC allocations (one heap allocation each); pool records are
// bump allocations.
class RecordHeap {
 public:
  explicit RecordHeap(AllocStats* stats) : stats_(stats) {}
  ~RecordHeap();

  Slot* AllocHeap(size_t fields);
  Slot* AllocPool(size_t fields);

  // Binds the governor state that injected allocation failures
  // (QC_FAULT=alloc_heap/alloc_pool) report to. The allocation itself still
  // succeeds — the query aborts with kResourceFailure at the next
  // safepoint, modelling an allocator that fails softly against a reserve.
  void SetGovernor(GovState* gov) { gov_ = gov; }

  // Frees every record (heap and pooled). AllocStats are left untouched —
  // they account for lifetime totals (Figure 8).
  void Reset();

 private:
  AllocStats* stats_;
  GovState* gov_ = nullptr;
  std::vector<Slot*> heap_records_;
  Arena pool_{1 << 18};
};

}  // namespace qc::exec

#endif  // QC_EXEC_RUNTIME_H_
