#include "exec/parallel.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <system_error>

#include "common/fault.h"
#include "exec/bytecode.h"
#include "telemetry/log.h"
#include "telemetry/trace.h"

namespace qc::exec::parallel {

namespace {

// Cap on the summed capacity of the private arrays in flight, one set per
// worker (direct-addressed group tables can be sized by the key range;
// beyond this, the loop falls back to sequential execution).
constexpr int64_t kPrivateArrayBudget = 128ll << 20;

// Arrays of at most morsel_rows / kOrderedMergeRatio slots fold in the
// ordered merge; larger ones by slot range after the scan.
constexpr int64_t kOrderedMergeRatio = 8;

// Chunks of consecutive morsels per thread in a loop with a ranged array.
constexpr int64_t kChunksPerThread = 2;

// A loop is cut into at least kMinMorselsPerThread morsels per thread, each
// of at least kMinMorselRows rows, so a loop of fewer than two morsel_rows
// morsels per thread still spreads over the pool (Q13 and Q22 scan 15,000
// customers at SF 0.1, and a Q13 row probes the customer's orders). A loop
// that already has that many morsels keeps morsel_rows.
constexpr int64_t kMinMorselsPerThread = 2;
constexpr int64_t kMinMorselRows = 512;

// Hash parts of the map and multimap merge. A key's part is its hash &
// (kHashParts - 1), and every bucket index of the main table keeps those
// bits, so a part task owns its buckets at any table size.
constexpr int kHashPartBits = 4;
constexpr int kHashParts = 1 << kHashPartBits;
static_assert(kHashParts == RtHashMap::kMinBuckets,
              "a hash part must own whole buckets at every table size");

bool SlotLess(Slot a, Slot b, bool is_f64) {
  return is_f64 ? a.d < b.d : a.i < b.i;
}

int FindReduction(const ir::ParLoop& plan, const ir::Stmt* target) {
  for (size_t i = 0; i < plan.reductions.size(); ++i) {
    if (plan.reductions[i].target == target) return static_cast<int>(i);
  }
  return -1;
}

// Folds a duplicate morsel-local group record into the surviving one.
// Min/max fields go first: their guard reads the main count before this
// morsel's contribution is added, mirroring the sequential fold.
void CombineGroupRec(Slot* main_rec, const Slot* m_rec,
                     const ir::ParReduction& red) {
  int64_t m_n = red.n_field >= 0 ? m_rec[red.n_field].i : 1;
  int64_t main_n = red.n_field >= 0 ? main_rec[red.n_field].i : 1;
  for (size_t f = 0; f < red.fields.size(); ++f) {
    if (red.fields[f] != ir::ParFold::kMin &&
        red.fields[f] != ir::ParFold::kMax) {
      continue;
    }
    if (m_n <= 0) continue;
    bool take;
    if (main_n == 0) {
      take = true;
    } else if (red.fields[f] == ir::ParFold::kMin) {
      take = SlotLess(m_rec[f], main_rec[f], red.field_is_f64[f]);
    } else {
      take = SlotLess(main_rec[f], m_rec[f], red.field_is_f64[f]);
    }
    if (take) main_rec[f] = m_rec[f];
  }
  for (size_t f = 0; f < red.fields.size(); ++f) {
    if (red.fields[f] == ir::ParFold::kSumI) main_rec[f].i += m_rec[f].i;
  }
}

// Accounting credit for a discarded duplicate group record.
void CreditGroupRec(AllocStats* stats, const ir::ParReduction& red) {
  size_t bytes = red.fields.size() * sizeof(Slot);
  if (red.pool_rec) {
    stats->CreditPool(bytes);
  } else {
    stats->CreditHeap(bytes, 1);
  }
}

// Runs every task index of [0, count) of a merge phase on the pool with the
// caller thread stealing, each in a `merge` span whose arg `arg` is the
// index, then synchronizes. Wait() establishes the happens-before edge the
// next phase needs to read this phase's output.
void RunTasks(Engine& eng, int count, uint64_t trace_session,
              const char* arg, const std::function<void(int)>& task) {
  std::function<void(int)> traced = [&](int t) {
    int64_t ts = trace_session != 0 ? telemetry::TraceNowNs() : 0;
    task(t);
    if (trace_session != 0) {
      telemetry::TraceRecord(trace_session, "merge", "par", ts,
                             telemetry::TraceNowNs() - ts, arg, t);
    }
  };
  eng.pool.Begin(count, traced);
  int t;
  while ((t = eng.pool.TrySteal()) >= 0) traced(t);
  eng.pool.Wait();
}

// The private arrays of a loop's array reductions, one set per worker in
// flight. A chunk of morsels claims a set, runs against it, and compacts it
// back to all-null (CompactChunk) before releasing it, so every set is
// zero-filled once — by the first worker that claims it — and then reused.
class ArraySets {
 public:
  ArraySets(const ParLoopCode& plc, const Slot* regs, int max_sets)
      : plc_(plc), regs_(regs), sets_(max_sets) {}

  std::vector<RtArray>* Claim() {
    int idx;
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (!free_.empty()) {
        std::vector<RtArray>* set = free_.back();
        free_.pop_back();
        return set;
      }
      idx = used_++;
    }
    // At most one set per thread is ever in flight.
    if (idx >= static_cast<int>(sets_.size())) {
      std::fprintf(stderr, "parallel: more private array sets than threads\n");
      std::abort();
    }
    std::vector<RtArray>& set = sets_[idx];
    set.resize(plc_.red_regs.size());
    for (size_t i = 0; i < set.size(); ++i) {
      if (plc_.touched_log[i] < 0) continue;
      set[i].data.assign(regs_[plc_.red_size_regs[i]].i, SlotI(0));
    }
    return &set;
  }

  void Release(std::vector<RtArray>* set) {
    std::lock_guard<std::mutex> lock(mu_);
    free_.push_back(set);
  }

 private:
  const ParLoopCode& plc_;
  const Slot* regs_;
  std::vector<std::vector<RtArray>> sets_;  // sized up front: never moves
  std::mutex mu_;
  std::vector<std::vector<RtArray>*> free_;
  int used_ = 0;
};

// Splits the slots [0, size) of an array into `parts` contiguous parts,
// with one multiply and shift per slot: an integer division per entry
// would cost more than folding it.
class SlotSplit {
 public:
  SlotSplit(int64_t size, int parts)
      : mult_(size > 0 ? (static_cast<uint64_t>(parts) << 32) /
                             static_cast<uint64_t>(size)
                       : 0) {}
  // k * mult_ < parts * 2^32 for every k < size: no overflow.
  int Part(int64_t k) const {
    return static_cast<int>((static_cast<uint64_t>(k) * mult_) >> 32);
  }

 private:
  uint64_t mult_;
};

// Groups `src`, entries of `stride` slots, into `parts` parts by the part
// `part_of` gives their first slot, keeping the entry order within each
// part.
template <typename PartOf>
void Partition(std::vector<Slot>&& src, size_t stride, int parts,
               PartOf part_of, SlotParts* out) {
  size_t n = src.size() / stride * stride;
  out->off.assign(parts + 1, 0);
  if (parts == 1) {
    out->off[1] = n;
    out->data = std::move(src);
    return;
  }
  for (size_t e = 0; e < n; e += stride) {
    out->off[part_of(src[e]) + 1] += stride;
  }
  for (int p = 0; p < parts; ++p) out->off[p + 1] += out->off[p];
  std::vector<size_t> pos(out->off.begin(), out->off.end() - 1);
  out->data.resize(n);
  for (size_t e = 0; e < n; e += stride) {
    size_t& at = pos[part_of(src[e])];
    std::memcpy(&out->data[at], &src[e], stride * sizeof(Slot));
    at += stride;
  }
  src = std::vector<Slot>();
}

// The same, by slot part of `split`: entries keyed by an array slot.
void PartitionBySlot(std::vector<Slot>&& src, size_t stride,
                     const SlotSplit& split, int parts, SlotParts* out) {
  Partition(std::move(src), stride, parts,
            [&](Slot k) { return split.Part(k.i); }, out);
}

size_t FoldStride(const ir::ParReduction& red) {
  return red.kind == ir::ParRedKind::kBucketArray ? 3 : 2;
}

// Chunk end, on the worker that ran it: moves the slots that the chunk's
// morsels `ran` touched out of the private arrays `arrs` into the first
// morsel's entry lists — (slot, record) per group-array slot, (slot, chain
// head, chain tail) per bucket-array slot — re-nulling each slot. The
// entries of a ranged array, and each morsel's slot-keyed addend logs that
// replay with it, are split into `parts` slot parts for the slot-range
// merge.
void CompactChunk(const ParLoopCode& plc, const std::vector<char>& ranged,
                  int parts, const std::vector<MorselState*>& ran,
                  std::vector<RtArray>& arrs) {
  if (ran.empty()) return;
  const ir::ParLoop& plan = *plc.plan;
  auto split = [&](int red) {
    return SlotSplit(static_cast<int64_t>(arrs[red].data.size()), parts);
  };
  ran[0]->folds.resize(plan.reductions.size());
  for (size_t i = 0; i < plan.reductions.size(); ++i) {
    if (plc.touched_log[i] < 0) continue;
    const ir::ParReduction& red = plan.reductions[i];
    Slot* arr = arrs[i].data.data();
    bool bucket = red.kind == ir::ParRedKind::kBucketArray;
    size_t n_touched = 0;
    for (MorselState* ms : ran) {
      n_touched += ms->logs[plc.touched_log[i]].size();
    }
    std::vector<Slot> entries;
    entries.reserve(FoldStride(red) * n_touched);
    for (MorselState* ms : ran) {
      std::vector<Slot>& touched = ms->logs[plc.touched_log[i]];
      for (Slot k : touched) {
        Slot head = arr[k.i];
        // A slot is logged once per store (a bucket once per prepend):
        // later entries find it already moved out.
        if (head.p == nullptr) continue;
        arr[k.i] = SlotP(nullptr);
        entries.push_back(k);
        entries.push_back(head);
        if (bucket) {
          Slot* tail = static_cast<Slot*>(head.p);
          while (tail[red.next_field].p != nullptr) {
            tail = static_cast<Slot*>(tail[red.next_field].p);
          }
          entries.push_back(SlotP(tail));
        }
      }
      touched = std::vector<Slot>();
    }
    PartitionBySlot(std::move(entries), FoldStride(red),
                    split(static_cast<int>(i)), ranged[i] ? parts : 1,
                    &ran[0]->folds[i]);
  }
  for (MorselState* ms : ran) {
    ms->replays.resize(plan.logs.size());
    for (size_t c = 0; c < plan.logs.size(); ++c) {
      const ir::ParLogChannel& ch = plan.logs[c];
      if (ch.array_red < 0 || !ranged[ch.array_red]) continue;
      PartitionBySlot(std::move(ms->logs[c]), ch.Stride(),
                      split(ch.array_red), parts, &ms->replays[c]);
    }
  }
}

// Folds the entries [e, end) of array reduction `red` (CompactChunk) into
// the main array. Credits discarded duplicate records to `stats`; returns
// the number of slots folded.
int64_t FoldEntries(const ir::ParReduction& red, Slot* main, const Slot* e,
                    const Slot* end, AllocStats* stats) {
  bool bucket = red.kind == ir::ParRedKind::kBucketArray;
  int64_t folded = (end - e) / static_cast<int64_t>(FoldStride(red));
  for (; e < end; e += FoldStride(red)) {
    Slot& mn = main[e[0].i];
    Slot mv = e[1];
    if (bucket) {
      // Sequential builds prepend, so later rows sit in front: prepending
      // each morsel's chain, morsels in order, reproduces the sequential
      // chain.
      static_cast<Slot*>(e[2].p)[red.next_field] = mn;
      mn = mv;
    } else if (mn.p == nullptr) {
      mn = mv;  // adopt the morsel's record (its heap stays alive)
    } else {
      CombineGroupRec(static_cast<Slot*>(mn.p),
                      static_cast<const Slot*>(mv.p), red);
      CreditGroupRec(stats, red);
    }
  }
  return folded;
}

// Replays the addend entries [e, end) of channel `ch` in order against the
// merged records, `rec_of` mapping an entry's handle to its record.
template <typename RecOf>
void ReplayEntries(const ir::ParLogChannel& ch, const Slot* e,
                   const Slot* end, RecOf rec_of) {
  for (; e + ch.Stride() <= end; e += ch.Stride()) {
    Slot* rec = rec_of(e[0]);
    for (size_t j = 0; j < ch.fields.size(); ++j) {
      rec[ch.fields[j]].d += e[1 + ch.value_idx[j]].d;
    }
  }
}

// The slot-keyed entries of a group array: the handle is the slot.
void ReplaySlotLog(const ir::ParLogChannel& ch, const Slot* main,
                   const Slot* e, const Slot* end) {
  ReplayEntries(ch, e, end,
                [&](Slot k) { return static_cast<Slot*>(main[k.i].p); });
}

Slot* ArrayData(const ParLoopCode& plc, const Slot* regs, int red) {
  return static_cast<RtArray*>(regs[plc.red_regs[red]].p)->data.data();
}

// One task of the slot-range merge: folds slot part `part` of every ranged
// array reduction over all morsels, in morsel order, then replays that
// part's slot-keyed f64 addends, also in morsel (= row) order, so each
// slot sees exactly the sequential fold. Parts share no slot, record or
// chain, so they run concurrently; accounting credits go to `stats`.
// Returns the number of slots folded.
int64_t MergeSlotPart(const ParLoopCode& plc, const Slot* main_regs,
                      const std::vector<char>& ranged,
                      const std::vector<std::unique_ptr<MorselState>>& ms,
                      int part, AllocStats* stats) {
  const ir::ParLoop& plan = *plc.plan;
  int64_t folded = 0;
  for (size_t i = 0; i < plan.reductions.size(); ++i) {
    if (!ranged[i]) continue;
    const ir::ParReduction& red = plan.reductions[i];
    Slot* main = ArrayData(plc, main_regs, static_cast<int>(i));
    for (const std::unique_ptr<MorselState>& m : ms) {
      if (m->folds.empty()) continue;  // skipped after a trip: never ran
      const SlotParts& sp = m->folds[i];
      folded += FoldEntries(red, main, sp.data.data() + sp.off[part],
                            sp.data.data() + sp.off[part + 1], stats);
    }
  }
  for (size_t c = 0; c < plan.logs.size(); ++c) {
    const ir::ParLogChannel& ch = plan.logs[c];
    if (ch.array_red < 0 || !ranged[ch.array_red]) continue;
    const Slot* main = ArrayData(plc, main_regs, ch.array_red);
    for (const std::unique_ptr<MorselState>& m : ms) {
      if (m->replays.empty()) continue;
      const SlotParts& sp = m->replays[c];
      ReplaySlotLog(ch, main, sp.data.data() + sp.off[part],
                    sp.data.data() + sp.off[part + 1]);
    }
  }
  return folded;
}

bool IsHashed(const ir::ParReduction& red) {
  return red.kind == ir::ParRedKind::kMap || red.kind == ir::ParRedKind::kMMap;
}

// The key table of a kMap or kMMap reduction object: the map itself, or
// the multimap's key map.
RtHashMap* KeyMap(const ir::ParReduction& red, Slot obj) {
  if (red.kind == ir::ParRedKind::kMMap) {
    return &static_cast<RtMultiMap*>(obj.p)->key_map();
  }
  return static_cast<RtHashMap*>(obj.p);
}

// Rewrites the record-keyed log `c` of morsel `ms` to record positions and
// scatters it by hash part. A morsel never stores its records' f64 sum
// fields (it logs their additions instead), so the first of them holds
// each private record's position while the handles are rewritten and gets
// its value back afterwards: one load per entry, no lookup.
void RouteRecordLog(const ir::ParLogChannel& ch, size_t c,
                    const RtHashMap& priv, MorselState& ms) {
  const HashParts& hp = ms.hashed[ch.map_red];
  const std::vector<RtHashMap::Node*>& es = priv.entries();
  const int f = ch.fields[0];
  std::vector<Slot> saved(es.size());
  for (size_t j = 0; j < es.size(); ++j) {
    Slot* rec = static_cast<Slot*>(es[j]->value.p);
    saved[j] = rec[f];
    rec[f] = SlotI(hp.pos[j]);
  }
  std::vector<Slot>& log = ms.logs[c];
  const size_t stride = ch.Stride();
  bool known = true;
  for (size_t e = 0; e + stride <= log.size(); e += stride) {
    const void* rec = log[e].p;
    int64_t a = static_cast<const Slot*>(rec)[f].i;
    known &= a >= 0 && a < static_cast<int64_t>(es.size()) &&
             es[hp.entry[a]]->value.p == rec;
    if (!known) break;
    log[e] = SlotI(a);
  }
  for (size_t j = 0; j < es.size(); ++j) {
    static_cast<Slot*>(es[j]->value.p)[f] = saved[j];
  }
  if (!known) {
    std::fprintf(stderr,
                 "parallel merge: log entry for unknown group record\n");
    std::abort();
  }
  Partition(std::move(log), stride, kHashParts,
            [&](Slot a) { return hp.hash[a.i] & (kHashParts - 1); },
            &ms.replays[c]);
}

// Task end, on the worker that ran it: hashes each key of the private maps
// and multimaps of the morsels `ran` once and scatters the entries into the
// kHashParts hash parts, then routes each map's record-keyed f64 log to
// the parts of its records' keys.
void HashChunk(const ParLoopCode& plc, const std::vector<MorselState*>& ran) {
  const ir::ParLoop& plan = *plc.plan;
  std::vector<uint64_t> hashes;
  for (MorselState* ms : ran) {
    ms->hashed.resize(plan.reductions.size());
    ms->replays.resize(plan.logs.size());
    for (size_t i = 0; i < plan.reductions.size(); ++i) {
      if (!IsHashed(plan.reductions[i])) continue;
      const RtHashMap& priv = *KeyMap(plan.reductions[i], ms->priv[i]);
      const std::vector<RtHashMap::Node*>& es = priv.entries();
      const size_t n = es.size();
      HashParts& hp = ms->hashed[i];
      hashes.resize(n);
      hp.off.assign(kHashParts + 1, 0);
      for (size_t j = 0; j < n; ++j) {
        hashes[j] = priv.hasher().Hash(es[j]->key);
        ++hp.off[(hashes[j] & (kHashParts - 1)) + 1];
      }
      for (int p = 0; p < kHashParts; ++p) hp.off[p + 1] += hp.off[p];
      std::vector<size_t> at(hp.off.begin(), hp.off.end() - 1);
      hp.hash.resize(n);
      hp.entry.resize(n);
      hp.pos.resize(n);
      for (size_t j = 0; j < n; ++j) {
        size_t a = at[hashes[j] & (kHashParts - 1)]++;
        hp.hash[a] = hashes[j];
        hp.entry[a] = static_cast<uint32_t>(j);
        hp.pos[j] = static_cast<uint32_t>(a);
      }
      hp.into.assign(n, nullptr);
      hp.created.assign(n, 0);
    }
    for (size_t c = 0; c < plan.logs.size(); ++c) {
      const ir::ParLogChannel& ch = plan.logs[c];
      if (ch.map_red < 0) continue;
      RouteRecordLog(ch, c, *KeyMap(plan.reductions[ch.map_red],
                                    ms->priv[ch.map_red]),
                     *ms);
    }
  }
}

// Appends a later morsel's values of a multimap key to the key's list, as
// the sequential per-row appends would, and frees the morsel's list.
void AppendValues(RtList* to, RtList* from, AllocStats* stats) {
  stats->CreditVector(from->items.capacity() * sizeof(Slot));
  for (Slot v : from->items) RtMultiMap::Append(to, v, stats);
  from->items = std::vector<Slot>();
}

// The hash-part merge of a loop's maps and multimaps and their record-keyed
// f64 replays, after the scan. The main tables first grow to hold every
// morsel entry. Then one pool task per hash part walks the morsels in
// order over its part's entries, so each key meets its entries in row
// order: a key's first entry links its private node, with its record or
// value list, straight into the part's own buckets, where later entries
// and the keys held before the loop find it; a later entry combines into
// it (or appends its values). The task then replays the part's addends in
// morsel (= row) order. Parts share no key, record, list or bucket, so
// they run concurrently. The last part through a morsel frees its private
// maps and, once every earlier morsel is through, appends the morsel's new
// keys to entries(): the sequential first-occurrence order, from flags,
// with no hashing. Where duplicates left a table larger than the
// sequential inserts make it, one task per part then moves its chains.
class HashMerger {
 public:
  HashMerger(const ParLoopCode& plc, Slot* main_regs,
             const std::vector<std::unique_ptr<MorselState>>& ms)
      : plc_(plc),
        plan_(*plc.plan),
        main_regs_(main_regs),
        ms_(ms),
        left_(new std::atomic<int>[ms.size()]),
        through_(ms.size(), 0) {
    for (size_t m = 0; m < ms.size(); ++m) {
      // A morsel skipped after a trip has nothing to merge.
      bool ran = !ms[m]->hashed.empty();
      left_[m].store(ran ? kHashParts : 0, std::memory_order_relaxed);
      through_[m] = !ran;
    }
  }

  // Merges on the pool. Folds the tasks' credits into `stats`; returns the
  // number of map entries and multimap keys merged.
  int64_t Run(Engine& eng, AllocStats* stats, uint64_t trace_session) {
    const size_t num_reds = plan_.reductions.size();
    for (size_t i = 0; i < num_reds; ++i) {
      if (!IsHashed(plan_.reductions[i])) continue;
      size_t n = Keys(i)->size();
      for (const std::unique_ptr<MorselState>& m : ms_) {
        if (!m->hashed.empty()) n += m->hashed[i].pos.size();
      }
      Keys(i)->Reserve(n);
    }
    std::vector<PartResult> parts(kHashParts);
    RunTasks(eng, kHashParts, trace_session, "part",
             [&](int p) { MergePart(p, &parts[p]); });
    int64_t merged = 0;
    for (const PartResult& r : parts) {
      stats->MergeFrom(r.credits);
      merged += r.merged;
    }
    // Per reduction, the full bucket array of a table that shrinks. Every
    // morsel is ordered by now, so size() is the table's final count.
    std::vector<std::vector<RtHashMap::Node*>> full(num_reds);
    bool relink = false;
    for (size_t i = 0; i < num_reds; ++i) {
      if (IsHashed(plan_.reductions[i])) relink |= Keys(i)->Shrink(&full[i]);
    }
    if (relink) {
      RunTasks(eng, kHashParts, trace_session, "relink", [&](int p) {
        for (size_t i = 0; i < num_reds; ++i) {
          if (!full[i].empty()) Keys(i)->Relink(full[i], p);
        }
      });
    }
    return merged;
  }

 private:
  // One part task's output, written once, at its end: the tasks' outputs
  // share cache lines.
  struct PartResult {
    AllocStats credits;
    int64_t merged = 0;
  };

  RtHashMap* Keys(size_t red) const {
    return KeyMap(plan_.reductions[red], main_regs_[plc_.red_regs[red]]);
  }

  void MergePart(int part, PartResult* out) {
    AllocStats credits;
    int64_t merged = 0;
    for (size_t m = 0; m < ms_.size(); ++m) {
      MorselState& ms = *ms_[m];
      if (ms.hashed.empty()) continue;
      for (size_t i = 0; i < plan_.reductions.size(); ++i) {
        const ir::ParReduction& red = plan_.reductions[i];
        if (!IsHashed(red)) continue;
        RtHashMap& main = *Keys(i);
        HashParts& hp = ms.hashed[i];
        const std::vector<RtHashMap::Node*>& es =
            KeyMap(red, ms.priv[i])->entries();
        merged += static_cast<int64_t>(hp.off[part + 1] - hp.off[part]);
        for (size_t a = hp.off[part]; a < hp.off[part + 1]; ++a) {
          RtHashMap::Node* pn = es[hp.entry[a]];
          RtHashMap::Node* e = main.Find(pn->key, hp.hash[a]);
          if (e == nullptr) {
            // First occurrence: the private node, with its record or value
            // list, moves to the main table.
            e = pn;
            main.Link(e, hp.hash[a]);
            hp.created[a] = 1;
          } else {
            credits.CreditHeap(sizeof(RtHashMap::Node), 1);
            if (red.kind == ir::ParRedKind::kMap) {
              CombineGroupRec(static_cast<Slot*>(e->value.p),
                              static_cast<const Slot*>(pn->value.p), red);
              CreditGroupRec(&credits, red);
            } else {
              AppendValues(static_cast<RtList*>(e->value.p),
                           static_cast<RtList*>(pn->value.p), &credits);
            }
          }
          hp.into[a] = e;
        }
      }
      PassMorsel(m);
    }
    for (size_t c = 0; c < plan_.logs.size(); ++c) {
      const ir::ParLogChannel& ch = plan_.logs[c];
      if (ch.map_red < 0) continue;
      for (const std::unique_ptr<MorselState>& m : ms_) {
        if (m->hashed.empty()) continue;
        const HashParts& hp = m->hashed[ch.map_red];
        const SlotParts& sp = m->replays[c];
        ReplayEntries(ch, sp.data.data() + sp.off[part],
                      sp.data.data() + sp.off[part + 1], [&](Slot a) {
                        return static_cast<Slot*>(hp.into[a.i]->value.p);
                      });
      }
    }
    out->credits = credits;
    out->merged = merged;
  }

  // A part task is through morsel `m`. The last one hands the morsel's
  // value lists to the main multimaps, orders every morsel that is now
  // through in sequence, and frees the morsel's private maps.
  void PassMorsel(size_t m) {
    if (left_[m].fetch_sub(1, std::memory_order_acq_rel) != 1) return;
    MorselState& ms = *ms_[m];
    {
      std::lock_guard<std::mutex> lock(order_mu_);
      for (size_t i = 0; i < plan_.reductions.size(); ++i) {
        if (plan_.reductions[i].kind != ir::ParRedKind::kMMap) continue;
        static_cast<RtMultiMap*>(main_regs_[plc_.red_regs[i]].p)
            ->AdoptLists(*static_cast<RtMultiMap*>(ms.priv[i].p));
      }
      through_[m] = 1;
      for (; ordered_ < ms_.size() && through_[ordered_]; ++ordered_) {
        OrderEntries(*ms_[ordered_]);
      }
    }
    FreePrivateMaps(ms);
  }

  // Appends the keys morsel `ms` created to the main tables' entries().
  void OrderEntries(const MorselState& ms) {
    if (ms.hashed.empty()) return;
    for (size_t i = 0; i < plan_.reductions.size(); ++i) {
      if (!IsHashed(plan_.reductions[i])) continue;
      const HashParts& hp = ms.hashed[i];
      RtHashMap* keys = Keys(i);
      for (uint32_t a : hp.pos) {
        if (hp.created[a]) keys->Append(hp.into[a]);
      }
    }
  }

  // Deletes the private nodes of `ms` that no main table took over, then
  // the private maps and multimaps.
  void FreePrivateMaps(MorselState& ms) {
    for (size_t i = 0; i < plan_.reductions.size(); ++i) {
      if (!IsHashed(plan_.reductions[i])) continue;
      const HashParts& hp = ms.hashed[i];
      std::vector<RtHashMap::Node*> nodes =
          KeyMap(plan_.reductions[i], ms.priv[i])->Release();
      for (size_t j = 0; j < nodes.size(); ++j) {
        if (!hp.created[hp.pos[j]]) delete nodes[j];
      }
    }
    ms.st.maps.clear();
    ms.st.mmaps.clear();
  }

  const ParLoopCode& plc_;
  const ir::ParLoop& plan_;
  Slot* main_regs_;
  const std::vector<std::unique_ptr<MorselState>>& ms_;
  // Per morsel: the part tasks not yet through it.
  std::unique_ptr<std::atomic<int>[]> left_;
  std::mutex order_mu_;
  // Guarded by order_mu_: per morsel, whether every part is through it,
  // and the morsels whose new keys are in entries().
  std::vector<char> through_;
  size_t ordered_ = 0;
};

// The ordered merge of everything but the ranged array reductions, the
// maps and the multimaps: folds one morsel at a time, in morsel order, on
// the caller thread while the scan still runs, and frees each log it has
// replayed.
class Merger {
 public:
  Merger(const ParLoopCode& plc, RunState& main, Slot* main_regs,
         const std::vector<char>& ranged)
      : plc_(plc), main_(main), main_regs_(main_regs), ranged_(ranged) {}

  void MergeMorsel(MorselState& ms) {
    const ir::ParLoop& plan = *plc_.plan;
    main_.stats->MergeFrom(ms.stats);

    // Scalar accumulators fold in the morsel's *register* value: the body
    // rebinds the accumulator register to the identity and accumulates
    // there (ms.priv only seeds it — for scalars it is a value copy, not a
    // shared object like the container reductions').
    // Min/max first: their guards read the main counts before the morsel's
    // count contribution lands.
    for (size_t i = 0; i < plan.reductions.size(); ++i) {
      const ir::ParReduction& r = plan.reductions[i];
      if (r.kind != ir::ParRedKind::kVarMin &&
          r.kind != ir::ParRedKind::kVarMax) {
        continue;
      }
      int n_idx = FindReduction(plan, r.count_var);
      if (ms.regs[plc_.red_regs[n_idx]].i <= 0) {
        continue;  // morsel saw no contributing row
      }
      Slot& main_v = main_regs_[plc_.red_regs[i]];
      int64_t main_n = main_regs_[plc_.red_regs[n_idx]].i;
      Slot mv = ms.regs[plc_.red_regs[i]];
      bool take;
      if (main_n == 0) {
        take = true;
      } else if (r.kind == ir::ParRedKind::kVarMin) {
        take = SlotLess(mv, main_v, r.is_f64);
      } else {
        take = SlotLess(main_v, mv, r.is_f64);
      }
      if (take) main_v = mv;
    }
    for (size_t i = 0; i < plan.reductions.size(); ++i) {
      const ir::ParReduction& r = plan.reductions[i];
      switch (r.kind) {
        case ir::ParRedKind::kVarSumI:
          main_regs_[plc_.red_regs[i]].i += ms.regs[plc_.red_regs[i]].i;
          break;
        case ir::ParRedKind::kList:
          MergeList(i, ms);
          break;
        case ir::ParRedKind::kGroupArray:
        case ir::ParRedKind::kBucketArray:
          // A chunk's entries sit with its first morsel.
          if (!ranged_[i] && !ms.folds.empty()) {
            const std::vector<Slot>& entries = ms.folds[i].data;
            folded_ += FoldEntries(
                r, ArrayData(plc_, main_regs_, static_cast<int>(i)),
                entries.data(), entries.data() + entries.size(), main_.stats);
            ms.folds[i] = SlotParts();
          }
          break;
        case ir::ParRedKind::kVarSumF:  // replayed from the log below
        case ir::ParRedKind::kVarMin:
        case ir::ParRedKind::kVarMax:
        case ir::ParRedKind::kMap:  // merged by hash part after the scan
        case ir::ParRedKind::kMMap:
          break;
      }
    }
    ReplayLogs(ms);
    MergeEmits(ms);
  }

  // Array slots folded so far (arrays merged in order only).
  int64_t folded() const { return folded_; }

 private:
  void MergeList(size_t i, MorselState& ms) {
    RtList* main = static_cast<RtList*>(main_regs_[plc_.red_regs[i]].p);
    RtList* priv = static_cast<RtList*>(ms.priv[i].p);
    main_.stats->CreditVector(priv->items.capacity() * sizeof(Slot));
    for (Slot v : priv->items) {
      size_t before = main->items.capacity();
      main->items.push_back(v);
      main_.stats->vector_bytes +=
          (main->items.capacity() - before) * sizeof(Slot);
    }
  }

  // Replays the f64 additions of this morsel in row order, against the
  // merged accumulators, reproducing the sequential rounding bit for bit.
  // The slot-keyed channels of ranged arrays replay in MergeSlotPart, the
  // record-keyed channels of maps in MergeHashPart.
  void ReplayLogs(MorselState& ms) {
    const ir::ParLoop& plan = *plc_.plan;
    for (size_t c = 0; c < plan.logs.size(); ++c) {
      const ir::ParLogChannel& ch = plan.logs[c];
      std::vector<Slot>& log = ms.logs[c];
      if (ch.var != nullptr) {
        Slot& acc = main_regs_[plc_.channel_var_regs[c]];
        for (Slot v : log) acc.d += v.d;
      } else if (ch.array_red >= 0 && !ranged_[ch.array_red]) {
        ReplaySlotLog(ch, ArrayData(plc_, main_regs_, ch.array_red),
                      log.data(), log.data() + log.size());
      } else {
        continue;
      }
      log = std::vector<Slot>();
    }
  }

  void MergeEmits(MorselState& ms) {
    const std::vector<storage::ColType>& types = main_.out.types();
    for (size_t r = 0; r < ms.st.out.size(); ++r) {
      std::vector<Slot> row = ms.st.out.row(r);
      for (size_t c = 0; c < row.size(); ++c) {
        if (c < types.size() && types[c] == storage::ColType::kStr) {
          row[c] = SlotS(main_.out.InternString(row[c].s));
        }
      }
      main_.out.AddRow(std::move(row));
    }
  }

  const ParLoopCode& plc_;
  RunState& main_;
  Slot* main_regs_;
  const std::vector<char>& ranged_;
  int64_t folded_ = 0;
};

}  // namespace

// ---------------------------------------------------------------------------
// Worker pool
// ---------------------------------------------------------------------------

WorkerPool::WorkerPool(int threads) {
  int spawn = threads - 1;
  if (spawn < 0) spawn = 0;
  workers_.reserve(spawn);
  for (int i = 0; i < spawn; ++i) {
    // Thread spawn can fail in the real world (rlimits, fragmentation).
    // Degrade to fewer workers instead of crashing: the calling thread
    // always participates, so any worker count — including zero — still
    // executes every task, just with less parallelism.
    try {
      if (FaultPoint("worker_spawn")) {
        throw std::system_error(
            std::make_error_code(std::errc::resource_unavailable_try_again));
      }
      workers_.emplace_back([this] { WorkerMain(); });
    } catch (const std::system_error&) {
      static std::atomic<bool> warned{false};
      if (!warned.exchange(true)) {
        telemetry::Log(
            telemetry::LogLevel::kWarn, "worker_spawn_failed",
            {{"workers", static_cast<int>(workers_.size())},
             {"note", "degraded; caller thread still participates"}});
      }
      break;
    }
  }
}

WorkerPool::~WorkerPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
    ++generation_;
  }
  cv_start_.notify_all();
  for (std::thread& t : workers_) t.join();
}

void WorkerPool::Begin(int count, const std::function<void(int)>& task) {
  std::lock_guard<std::mutex> lock(mu_);
  task_ = &task;
  count_ = count;
  next_.store(0, std::memory_order_relaxed);
  pending_ = static_cast<int>(workers_.size());
  ++generation_;
  cv_start_.notify_all();
}

int WorkerPool::TrySteal() {
  int i = next_.fetch_add(1, std::memory_order_relaxed);
  return i < count_ ? i : -1;
}

void WorkerPool::Wait() {
  std::unique_lock<std::mutex> lock(mu_);
  cv_done_.wait(lock, [this] { return pending_ == 0; });
  task_ = nullptr;
}

void WorkerPool::WorkerMain() {
  uint64_t seen = 0;
  for (;;) {
    const std::function<void(int)>* task = nullptr;
    int count = 0;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_start_.wait(lock, [&] { return generation_ != seen; });
      seen = generation_;
      if (stop_) return;
      task = task_;
      count = count_;
    }
    if (task != nullptr) {
      int i;
      while ((i = next_.fetch_add(1, std::memory_order_relaxed)) < count) {
        (*task)(i);
      }
    }
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (--pending_ == 0) cv_done_.notify_all();
    }
  }
}

// ---------------------------------------------------------------------------
// Orchestration
// ---------------------------------------------------------------------------

bool RunForRange(Engine& eng, BytecodeVM& vm, const ParLoopCode& plc,
                 RunState& main, Slot* regs, uint32_t num_regs) {
  const ir::ParLoop& plan = *plc.plan;
  int64_t lo = regs[plc.src_lo_reg].i;
  int64_t hi = regs[plc.src_hi_reg].i;
  int64_t rows = hi - lo;
  const int threads = eng.pool.threads();
  int64_t mr = eng.morsel_rows < 1 ? 1 : eng.morsel_rows;
  mr = std::min(
      mr, std::max(kMinMorselRows, rows / (kMinMorselsPerThread * threads)));
  if (rows < 2 * mr) return false;

  // Adaptive tail sizing: the final ~eighth of the iteration space is cut
  // into half-size morsels so stolen tail morsels balance across workers
  // instead of one straggler holding the pool. The morsels stay contiguous
  // ascending row ranges, so the ordered merge — and with it the bitwise
  // determinism contract — is untouched.
  constexpr int64_t kTailDiv = 2;
  int64_t tail_mr = mr / kTailDiv < 1 ? 1 : mr / kTailDiv;
  int64_t tail_rows = rows / 8;
  if (tail_rows < tail_mr) tail_rows = 0;  // small loops stay uniform
  std::vector<std::pair<int64_t, int64_t>> ranges;
  int64_t tail_start = hi - tail_rows;
  for (int64_t pos = lo; pos < hi;) {
    int64_t step = pos >= tail_start ? tail_mr : mr;
    int64_t next = pos + step < hi ? pos + step : hi;
    ranges.emplace_back(pos, next);
    pos = next;
  }
  int64_t num_morsels = static_cast<int64_t>(ranges.size());

  bool has_arrays = false;
  bool has_ranged = false;
  bool has_hashed = false;
  std::vector<char> ranged(plan.reductions.size(), 0);
  int64_t arr_slots = 0;
  for (size_t i = 0; i < plan.reductions.size(); ++i) {
    has_hashed |= IsHashed(plan.reductions[i]);
    if (plc.touched_log[i] < 0) continue;  // not an array reduction
    int64_t size = regs[plc.red_size_regs[i]].i;
    if (size < 0) return false;
    has_arrays = true;
    arr_slots += size;
    // An array small next to a morsel folds at most `size` slots per
    // morsel, so the ordered merge keeps pace with the scan and its
    // slot-keyed replays stay overlapped with it. A larger one is merged
    // by slot range after the scan.
    ranged[i] = size * kOrderedMergeRatio > mr;
    has_ranged |= ranged[i] != 0;
  }
  // A loop with a ranged array runs its morsels in chunks of consecutive
  // morsels, about kChunksPerThread per thread: a chunk keeps its worker's
  // private arrays across its morsels, so a group is created, compacted
  // and folded once per chunk rather than once per morsel. Every other
  // loop runs one morsel per task.
  int64_t chunk = 1;
  if (has_ranged) {
    chunk = num_morsels / (kChunksPerThread * threads);
    if (chunk < 1) chunk = 1;
  }
  int64_t num_chunks = (num_morsels + chunk - 1) / chunk;

  // Budget gate: privatizing huge direct-addressed tables per worker would
  // trade too much memory for the parallelism.
  int max_sets = threads;
  if (max_sets > num_chunks) max_sets = static_cast<int>(num_chunks);
  if (arr_slots * static_cast<int64_t>(sizeof(Slot)) * max_sets >
      kPrivateArrayBudget) {
    return false;
  }

  // Private state per morsel. Privatized containers are runtime scratch:
  // they are created without AllocStats accounting (the sequential run
  // created the one real instance up front), while everything the body
  // itself allocates lands in the morsel's own stats. Array reductions get
  // their worker's private arrays when the chunk starts.
  std::vector<std::unique_ptr<MorselState>> states;
  states.reserve(num_morsels);
  for (int64_t m = 0; m < num_morsels; ++m) {
    states.push_back(std::make_unique<MorselState>());
    MorselState& ms = *states.back();
    ms.logs.resize(plc.log_regs.size());
    // Worst case one entry per morsel row: reserving up front avoids
    // repeated growth copies of multi-megabyte logs in the hot scan (and
    // keeps the JIT's pointer-bump append on its fast path).
    int64_t m_rows = ranges[m].second - ranges[m].first;
    for (size_t c = 0; c < plan.logs.size(); ++c) {
      ms.logs[c].reserve(plan.logs[c].Stride() * m_rows);
    }
    ms.priv.resize(plan.reductions.size(), SlotI(0));
    for (size_t i = 0; i < plan.reductions.size(); ++i) {
      const ir::ParReduction& r = plan.reductions[i];
      switch (r.kind) {
        case ir::ParRedKind::kVarSumI:
        case ir::ParRedKind::kVarSumF:
        case ir::ParRedKind::kVarMin:
        case ir::ParRedKind::kVarMax:
          ms.priv[i] = SlotI(0);  // fold identity (0.0 shares the bits)
          break;
        case ir::ParRedKind::kList:
          ms.st.lists.emplace_back();
          ms.priv[i] = SlotP(&ms.st.lists.back());
          break;
        case ir::ParRedKind::kMap:
          ms.st.maps.emplace_back(r.target->type->key, &ms.stats);
          ms.priv[i] = SlotP(&ms.st.maps.back());
          break;
        case ir::ParRedKind::kMMap:
          ms.st.mmaps.emplace_back(r.target->type->key, &ms.stats);
          ms.priv[i] = SlotP(&ms.st.mmaps.back());
          break;
        case ir::ParRedKind::kGroupArray:
        case ir::ParRedKind::kBucketArray: {
          // One touched entry per created group (at most one per slot) or
          // per bucket prepend (at most one per row).
          int64_t size = regs[plc.red_size_regs[i]].i;
          int64_t cap = r.kind == ir::ParRedKind::kGroupArray && size < m_rows
                            ? size
                            : m_rows;
          ms.logs[plc.touched_log[i]].reserve(cap);
          break;
        }
      }
    }
  }

  // Tracing: the session is captured once on the submitting thread and
  // passed into the scan lambda — worker threads record their morsel
  // slices into their own rings under the same session. Recording happens
  // strictly after a morsel's body ran (and after each merge), so traced
  // and untraced runs execute identical work in identical order.
  uint64_t trace_session = telemetry::CurrentTraceSession();
  int64_t loop_ts = trace_session != 0 ? telemetry::TraceNowNs() : 0;

  // The workers scan chunks; the caller thread runs the ordered merge
  // concurrently, folding each morsel in as soon as it (and all earlier
  // ones) completed, and steals scan work only when no merge is ready. On
  // multi-core hardware this takes the ordered merge off the critical path
  // entirely whenever merging is cheaper than scanning.
  std::mutex done_mu;
  std::condition_variable done_cv;
  std::unique_ptr<std::atomic<char>[]> done(
      new std::atomic<char>[num_morsels]);
  for (int64_t m = 0; m < num_morsels; ++m) {
    done[m].store(0, std::memory_order_relaxed);
  }
  // Snapshot of the register file at loop entry: workers must not read the
  // live file — the merge (overlapped with the scan) updates accumulator
  // registers in it concurrently.
  const std::vector<Slot> entry_regs(regs, regs + num_regs);
  const ExecControl* ctl = main.gov.ctl;
  ArraySets sets(plc, entry_regs.data(), max_sets);
  std::function<void(int)> scan = [&](int t) {
    int64_t first = t * chunk;
    int64_t last = first + chunk < num_morsels ? first + chunk : num_morsels;
    std::vector<RtArray>* arrs = has_arrays ? sets.Claim() : nullptr;
    std::vector<MorselState*> ran;
    for (int64_t m = first; m < last; ++m) {
      // Tripped queries skip morsels that have not started yet: the empty
      // MorselState merges as a no-op, so the done/merge/Wait protocol
      // runs to completion and the pool stays reusable.
      if (ctl != nullptr && ctl->Tripped()) break;
      int64_t ts = trace_session != 0 ? telemetry::TraceNowNs() : 0;
      MorselState& ms = *states[m];
      if (arrs != nullptr) {
        for (size_t i = 0; i < plan.reductions.size(); ++i) {
          if (plc.touched_log[i] >= 0) ms.priv[i] = SlotP(&(*arrs)[i]);
        }
      }
      vm.RunMorsel(ms, plc, entry_regs, ranges[m].first, ranges[m].second);
      ran.push_back(&ms);
      if (trace_session != 0) {
        telemetry::TraceRecord(trace_session, "morsel", "par", ts,
                               telemetry::TraceNowNs() - ts, "morsel", m,
                               "rows", ranges[m].second - ranges[m].first);
      }
    }
    if (arrs != nullptr || has_hashed) {
      int64_t ts = trace_session != 0 ? telemetry::TraceNowNs() : 0;
      if (arrs != nullptr) {
        // Also after a trip: every array store was logged with it, so the
        // set goes back all-null either way.
        CompactChunk(plc, ranged, threads, ran, *arrs);
        sets.Release(arrs);
      }
      if (has_hashed) HashChunk(plc, ran);
      if (trace_session != 0) {
        telemetry::TraceRecord(trace_session, "merge", "par", ts,
                               telemetry::TraceNowNs() - ts, "chunk", t);
      }
    }
    for (int64_t m = first; m < last; ++m) {
      done[m].store(1, std::memory_order_release);
    }
    { std::lock_guard<std::mutex> lock(done_mu); }
    done_cv.notify_one();
  };

  Merger merger(plc, main, regs, ranged);
  int64_t merged = 0;
  auto merge_ready = [&] {
    bool any = false;
    while (merged < num_morsels &&
           done[merged].load(std::memory_order_acquire) != 0) {
      // A morsel skipped after a trip never ran its body (regs stays
      // empty) and has nothing to merge.
      if (!states[merged]->regs.empty()) {
        int64_t ts = trace_session != 0 ? telemetry::TraceNowNs() : 0;
        merger.MergeMorsel(*states[merged]);
        if (trace_session != 0) {
          telemetry::TraceRecord(trace_session, "merge", "par", ts,
                                 telemetry::TraceNowNs() - ts, "morsel",
                                 merged);
        }
      }
      states[merged]->ReleaseTransients();
      ++merged;
      any = true;
    }
    return any;
  };

  eng.pool.Begin(static_cast<int>(num_chunks), scan);
  while (merged < num_morsels) {
    if (merge_ready()) continue;
    int t = eng.pool.TrySteal();
    if (t >= 0) {
      scan(t);
      continue;
    }
    std::unique_lock<std::mutex> lock(done_mu);
    done_cv.wait(lock, [&] {
      return done[merged].load(std::memory_order_acquire) != 0;
    });
  }
  eng.pool.Wait();

  // Slot-range merge of the ranged arrays and their slot-keyed f64
  // replays: one task per thread, each owning one slot part and walking
  // the morsels in order, with its own AllocStats for the duplicate-record
  // credits.
  int64_t touched = merger.folded();
  if (has_ranged) {
    std::vector<AllocStats> range_stats(threads);
    std::vector<int64_t> folded(threads, 0);
    RunTasks(eng, threads, trace_session, "range", [&](int r) {
      folded[r] = MergeSlotPart(plc, regs, ranged, states, r,
                                &range_stats[r]);
    });
    for (int r = 0; r < threads; ++r) {
      main.stats->MergeFrom(range_stats[r]);
      touched += folded[r];
    }
  }

  if (has_hashed) {
    touched += HashMerger(plc, regs, states).Run(eng, main.stats,
                                                 trace_session);
  }
  for (std::unique_ptr<MorselState>& ms : states) {
    ms->logs = std::vector<std::vector<Slot>>();
    ms->folds = std::vector<SlotParts>();
    ms->replays = std::vector<SlotParts>();
    ms->hashed = std::vector<HashParts>();
    ms->priv = std::vector<Slot>();
    main.morsels.push_back(std::move(ms));
  }
  if (trace_session != 0) {
    telemetry::TraceRecord(trace_session, "par_loop", "par", loop_ts,
                           telemetry::TraceNowNs() - loop_ts, "rows", rows,
                           "touched", touched);
  }
  return true;
}

}  // namespace qc::exec::parallel
