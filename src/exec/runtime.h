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
// SortComparator implements it over a comparator subroutine (run by the VM,
// or as the JIT's stitched native segment) and SortSlots decorates it with
// GovernedCmp.
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
void StableSortSlots(Slot* data, int64_t n, SlotCmp& cmp);

// Executes the subroutine at `entry` over the register file `regs` through
// its kRet: the VM passes its interpreter, the JIT its stitched native code.
using RunSubroutine = void (*)(const void* ctx, Slot* regs, uint32_t entry);

// The comparator subroutine of one kArrSort/kListSort, run over the live
// register file of the sorting context: each Less writes the two parameter
// registers, runs the subroutine and reads the result register.
struct SortComparator final : SlotCmp {
  Slot* regs = nullptr;          // live register file of the sorting context
  const uint32_t* ps = nullptr;  // {param0, param1, result} registers
  uint32_t entry = 0;            // subroutine entry pc
  RunSubroutine run = nullptr;
  const void* ctx = nullptr;     // run's first argument

  bool Less(Slot a, Slot b) override {
    regs[ps[0]] = a;
    regs[ps[1]] = b;
    run(ctx, regs, entry);
    return regs[ps[2]].i != 0;
  }
};

struct GovState;  // exec/governor.h

// The kArrSort/kListSort driver, shared by the VM's sort handler and the
// JIT's native sort helper: a stable sort of data[0, n) on the calling
// thread, the comparator wrapped in GovernedCmp so that once the query
// trips the sort drains in linear time.
void SortSlots(GovState* gov, SortComparator& cmp, Slot* data, int64_t n);

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

  // The bucket count is a power of two of at least kMinBuckets, so the
  // hash part Hash(key) & (kMinBuckets - 1) picks a fixed set of buckets at
  // every table size: the parallel merge (exec/parallel.cc) merges one such
  // part per task, and parts never share a bucket.
  static constexpr size_t kMinBuckets = 16;

  RtHashMap(const ir::Type* key_type, AllocStats* stats)
      : hasher_(key_type), stats_(stats) {
    buckets_.assign(kMinBuckets, nullptr);
  }
  ~RtHashMap();

  RtHashMap(const RtHashMap&) = delete;
  RtHashMap& operator=(const RtHashMap&) = delete;

  // Returns the node for `key`, or nullptr.
  Node* Find(Slot key) const { return Find(key, hasher_.Hash(key)); }
  // The same, for a key whose hasher().Hash is `hash`.
  Node* Find(Slot key, uint64_t hash) const;
  // Inserts (key must not be present) and returns the new node.
  Node* Insert(Slot key, Slot value);
  size_t size() const { return size_; }
  const SlotHasher& hasher() const { return hasher_; }

  // The parallel merge (exec/parallel.cc) inserts without Insert, moving
  // nodes over from morsel-private maps: Release empties a map and hands
  // its nodes, in entries() order, to the caller, who deletes those it
  // does not link elsewhere. Reserve grows the bucket array to the count
  // `n` entries reach through Insert. Link puts node `n`, whose key hashes
  // to `hash`, at the head of its bucket; tasks linking disjoint hash parts
  // may run concurrently. Append adds a linked node to entries(), which the
  // map then owns; accounting it is the caller's. A merge that reserved for
  // more entries than it kept calls Shrink: if size() entries reach fewer
  // buckets through Insert, the map takes an empty array of that size and
  // hands the full one back in `old` (else Shrink returns false), and
  // Relink moves the chains of hash part `part` of `old` into it, parts
  // again concurrently.
  std::vector<Node*> Release();
  void Reserve(size_t n);
  void Link(Node* n, uint64_t hash) {
    Node*& head = buckets_[hash & (buckets_.size() - 1)];
    n->next = head;
    head = n;
  }
  void Append(Node* n) {
    entries_.push_back(n);
    ++size_;
  }
  bool Shrink(std::vector<Node*>* old);
  void Relink(const std::vector<Node*>& old, size_t part);

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
  void Rehash(size_t buckets);

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

  // Appends `v` to `list`, accounting its capacity growth to `stats`. Add
  // grows a list one value at a time, and the parallel merge appends a
  // morsel's values through this too, so vector_bytes takes the same
  // capacity steps on every path (a ranged insert may size the buffer
  // differently).
  static void Append(RtList* list, Slot v, AllocStats* stats);

  // Key-grouped contents in first-insertion order; the node values are the
  // RtList* of each key. The parallel merge builds the main multimap's
  // keys through the non-const overload.
  const RtHashMap& key_map() const { return map_; }
  RtHashMap& key_map() { return map_; }

  // Takes ownership of the value lists of `from`, a morsel's private
  // multimap: the parallel merge points each key that a morsel created
  // first at that morsel's list and appends the later morsels' values to
  // it. The lists move as one block, so their addresses stay valid.
  void AdoptLists(RtMultiMap& from);

  // Byte offset of the embedded key map (JIT probe, see RtHashMap).
  static size_t MapOffsetForJit();

 private:
  RtHashMap map_;
  AllocStats* stats_;
  std::deque<RtList> lists_;
  // A deque: unlike a vector's, its growth never moves (or, for want of a
  // noexcept move, copies) the adopted lists.
  std::deque<std::deque<RtList>> adopted_;
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
