#include "exec/runtime.h"

#include <algorithm>
#include <cstdlib>

#include "common/fault.h"
#include "exec/governor.h"

namespace qc::exec {

namespace {

// Base-case width of the merge sort. Runs of this size are insertion-sorted
// in place; larger inputs pay one scratch buffer and log2(n/kSortRunWidth)
// merge passes.
constexpr int64_t kSortRunWidth = 24;

// Stable insertion sort of data[lo, hi): equal elements never cross.
void InsertionSortSlots(Slot* data, int64_t lo, int64_t hi, SlotCmp& cmp) {
  for (int64_t i = lo + 1; i < hi; ++i) {
    Slot v = data[i];
    int64_t j = i;
    while (j > lo && cmp.Less(v, data[j - 1])) {
      data[j] = data[j - 1];
      --j;
    }
    data[j] = v;
  }
}

// Stable ordered merge of the adjacent sorted runs src[lo, mid) and
// src[mid, hi) into dst[lo, hi).
void MergeSortedRuns(const Slot* src, int64_t lo, int64_t mid, int64_t hi,
                     Slot* dst, SlotCmp& cmp) {
  int64_t i = lo;
  int64_t j = mid;
  int64_t k = lo;
  while (i < mid && j < hi) {
    // The right element advances only when strictly less: ties keep the
    // left run's (earlier) elements first — the stability invariant.
    if (cmp.Less(src[j], src[i])) {
      dst[k++] = src[j++];
    } else {
      dst[k++] = src[i++];
    }
  }
  while (i < mid) dst[k++] = src[i++];
  while (j < hi) dst[k++] = src[j++];
}

void StableSortSlots(Slot* data, int64_t n, SlotCmp& cmp, Slot* scratch) {
  if (n < 2) return;
  for (int64_t lo = 0; lo < n; lo += kSortRunWidth) {
    InsertionSortSlots(data, lo, std::min(lo + kSortRunWidth, n), cmp);
  }
  if (n <= kSortRunWidth) return;
  // Bottom-up merges, ping-ponging between the data and the scratch buffer.
  Slot* src = data;
  Slot* dst = scratch;
  for (int64_t w = kSortRunWidth; w < n; w *= 2) {
    for (int64_t lo = 0; lo < n; lo += 2 * w) {
      int64_t mid = std::min(lo + w, n);
      int64_t hi = std::min(lo + 2 * w, n);
      MergeSortedRuns(src, lo, mid, hi, dst, cmp);  // mid == hi: plain copy
    }
    std::swap(src, dst);
  }
  if (src != data) std::memcpy(data, src, static_cast<size_t>(n) * sizeof(Slot));
}

// Insert doubles the buckets before an insert finds all of them used, so
// n entries end with the least power of two >= n, and at least
// kMinBuckets.
size_t BucketsFor(size_t n) {
  size_t buckets = RtHashMap::kMinBuckets;
  while (buckets < n) buckets *= 2;
  return buckets;
}

}  // namespace

void StableSortSlots(Slot* data, int64_t n, SlotCmp& cmp) {
  if (n <= kSortRunWidth) {
    InsertionSortSlots(data, 0, n, cmp);
    return;
  }
  // Runtime scratch, not accounted — std::stable_sort's internal buffer
  // was not either.
  std::vector<Slot> scratch(static_cast<size_t>(n));
  StableSortSlots(data, n, cmp, scratch.data());
}

void SortSlots(GovState* gov, SortComparator& cmp, Slot* data, int64_t n) {
  GovernedCmp governed(cmp, gov);
  StableSortSlots(data, n, governed);
}

uint64_t SlotHasher::HashTyped(const ir::Type* t, Slot v) {
  switch (t->kind) {
    case ir::TypeKind::kStr:
      return HashCStr(v.s);
    case ir::TypeKind::kRecord: {
      uint64_t h = kRecordHashSeed;
      const Slot* fields = static_cast<const Slot*>(v.p);
      const auto& defs = t->record->fields;
      for (size_t i = 0; i < defs.size(); ++i) {
        h = HashCombine(h, HashTyped(defs[i].type, fields[i]));
      }
      return h;
    }
    default:
      return HashMix(static_cast<uint64_t>(v.i));
  }
}

bool SlotHasher::EqualTyped(const ir::Type* t, Slot a, Slot b) {
  switch (t->kind) {
    case ir::TypeKind::kStr:
      return std::strcmp(a.s, b.s) == 0;
    case ir::TypeKind::kRecord: {
      const Slot* fa = static_cast<const Slot*>(a.p);
      const Slot* fb = static_cast<const Slot*>(b.p);
      const auto& defs = t->record->fields;
      for (size_t i = 0; i < defs.size(); ++i) {
        if (!EqualTyped(defs[i].type, fa[i], fb[i])) return false;
      }
      return true;
    }
    default:
      return a.i == b.i;
  }
}

RtHashMap::~RtHashMap() {
  for (Node* n : entries_) delete n;
}

RtHashMap::Node* RtHashMap::Find(Slot key, uint64_t hash) const {
  Node* n = buckets_[hash & (buckets_.size() - 1)];
  while (n != nullptr) {
    if (hasher_.Equal(n->key, key)) return n;
    n = n->next;
  }
  return nullptr;
}

RtHashMap::Node* RtHashMap::Insert(Slot key, Slot value) {
  if (size_ >= buckets_.size()) Rehash(buckets_.size() * 2);
  uint64_t h = hasher_.Hash(key);
  size_t b = h & (buckets_.size() - 1);
  Node* n = new Node{key, value, buckets_[b]};
  stats_->heap_bytes += sizeof(Node);
  ++stats_->heap_allocs;
  buckets_[b] = n;
  entries_.push_back(n);
  ++size_;
  return n;
}

size_t RtHashMap::BucketsOffsetForJit() {
  // Constructing with null type/stats is safe: neither is touched before
  // the first Insert, and this instance never inserts.
  RtHashMap m(nullptr, nullptr);
  return static_cast<size_t>(
      reinterpret_cast<const unsigned char*>(&m.buckets_) -
      reinterpret_cast<const unsigned char*>(&m));
}

size_t RtHashMap::EntriesOffsetForJit() {
  RtHashMap m(nullptr, nullptr);
  return static_cast<size_t>(
      reinterpret_cast<const unsigned char*>(&m.entries_) -
      reinterpret_cast<const unsigned char*>(&m));
}

size_t RtMultiMap::MapOffsetForJit() {
  RtMultiMap m(nullptr, nullptr);
  return static_cast<size_t>(
      reinterpret_cast<const unsigned char*>(&m.map_) -
      reinterpret_cast<const unsigned char*>(&m));
}

std::vector<RtHashMap::Node*> RtHashMap::Release() {
  std::vector<Node*> nodes = std::move(entries_);
  entries_.clear();
  buckets_.assign(kMinBuckets, nullptr);
  size_ = 0;
  return nodes;
}

void RtHashMap::Reserve(size_t n) {
  size_t buckets = BucketsFor(n);
  if (buckets > buckets_.size()) Rehash(buckets);
}

bool RtHashMap::Shrink(std::vector<Node*>* old) {
  size_t buckets = BucketsFor(size_);
  if (buckets >= buckets_.size()) return false;
  *old = std::move(buckets_);
  buckets_.assign(buckets, nullptr);
  return true;
}

void RtHashMap::Relink(const std::vector<Node*>& old, size_t part) {
  // Both sizes are powers of two, so a chain of `old` lands whole in the
  // bucket its index keeps below the new size.
  size_t mask = buckets_.size() - 1;
  for (size_t b = part; b < old.size(); b += kMinBuckets) {
    for (Node* n = old[b]; n != nullptr;) {
      Node* next = n->next;
      n->next = buckets_[b & mask];
      buckets_[b & mask] = n;
      n = next;
    }
  }
}

void RtHashMap::Rehash(size_t buckets) {
  std::vector<Node*> nb(buckets, nullptr);
  for (Node* n : entries_) {
    size_t b = hasher_.Hash(n->key) & (nb.size() - 1);
    n->next = nb[b];
    nb[b] = n;
  }
  buckets_ = std::move(nb);
}

void RtMultiMap::Add(Slot key, Slot value) {
  RtHashMap::Node* n = map_.Find(key);
  RtList* list;
  if (n == nullptr) {
    lists_.emplace_back();
    list = &lists_.back();
    map_.Insert(key, SlotP(list));
  } else {
    list = static_cast<RtList*>(n->value.p);
  }
  Append(list, value, stats_);
}

void RtMultiMap::Append(RtList* list, Slot v, AllocStats* stats) {
  size_t before = list->items.capacity();
  list->items.push_back(v);
  stats->vector_bytes += (list->items.capacity() - before) * sizeof(Slot);
}

void RtMultiMap::AdoptLists(RtMultiMap& from) {
  adopted_.push_back(std::move(from.lists_));
  from.lists_.clear();
}

RecordHeap::~RecordHeap() {
  for (Slot* r : heap_records_) ::free(r);
}

void RecordHeap::Reset() {
  for (Slot* r : heap_records_) ::free(r);
  heap_records_.clear();
  pool_.Reset();
}

Slot* RecordHeap::AllocHeap(size_t fields) {
  if (FaultPoint("alloc_heap") && gov_ != nullptr) gov_->TripResource();
  Slot* r = static_cast<Slot*>(::malloc(fields * sizeof(Slot)));
  heap_records_.push_back(r);
  stats_->heap_bytes += fields * sizeof(Slot);
  ++stats_->heap_allocs;
  return r;
}

Slot* RecordHeap::AllocPool(size_t fields) {
  if (FaultPoint("alloc_pool") && gov_ != nullptr) gov_->TripResource();
  stats_->pool_bytes += fields * sizeof(Slot);
  return static_cast<Slot*>(pool_.Allocate(fields * sizeof(Slot)));
}

}  // namespace qc::exec
