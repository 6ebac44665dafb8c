#include "exec/parallel.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <system_error>
#include <unordered_map>

#include "common/fault.h"
#include "common/knobs.h"
#include "exec/bytecode.h"
#include "telemetry/log.h"
#include "telemetry/trace.h"

namespace qc::exec::parallel {

namespace {

// Cap on the summed capacity of privatized arrays across all morsels
// (direct-addressed group tables can be sized by the key range; beyond
// this, the loop falls back to sequential execution).
constexpr int64_t kPrivateArrayBudget = 128ll << 20;

bool IsArrayRed(ir::ParRedKind k) {
  return k == ir::ParRedKind::kGroupArray || k == ir::ParRedKind::kBucketArray;
}

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

class Merger {
 public:
  Merger(const ParLoopCode& plc, RunState& main, Slot* main_regs)
      : plc_(plc), main_(main), main_regs_(main_regs) {}

  void MergeMorsel(MorselState& ms) {
    const ir::ParLoop& plan = *plc_.plan;
    main_.stats->MergeFrom(ms.stats);
    main_.deopts.fetch_add(ms.st.deopts.load(std::memory_order_relaxed),
                           std::memory_order_relaxed);
    remap_.clear();

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
        case ir::ParRedKind::kMap:
          MergeMap(i, ms);
          break;
        case ir::ParRedKind::kMMap:
          MergeMMap(i, ms);
          break;
        case ir::ParRedKind::kGroupArray:
          MergeGroupArray(i, ms);
          break;
        case ir::ParRedKind::kBucketArray:
          MergeBucketArray(i, ms);
          break;
        case ir::ParRedKind::kVarSumF:  // replayed from the log below
        case ir::ParRedKind::kVarMin:
        case ir::ParRedKind::kVarMax:
          break;
      }
    }
    ReplayLogs(ms);
    MergeEmits(ms);
  }

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

  void MergeMap(size_t i, MorselState& ms) {
    const ir::ParReduction& red = plc_.plan->reductions[i];
    RtHashMap* main = static_cast<RtHashMap*>(main_regs_[plc_.red_regs[i]].p);
    RtHashMap* priv = static_cast<RtHashMap*>(ms.priv[i].p);
    for (RtHashMap::Node* n : priv->entries()) {
      // The morsel-local node never survives: either the main map
      // re-inserts (accounting a node of its own) or the group existed.
      main_.stats->CreditHeap(sizeof(RtHashMap::Node), 1);
      RtHashMap::Node* e = main->Find(n->key);
      if (e == nullptr) {
        main->Insert(n->key, n->value);
        remap_[n->value.p] = static_cast<Slot*>(n->value.p);
      } else {
        CombineGroupRec(static_cast<Slot*>(e->value.p),
                        static_cast<const Slot*>(n->value.p), red);
        CreditGroupRec(main_.stats, red);
        remap_[n->value.p] = static_cast<Slot*>(e->value.p);
      }
    }
  }

  void MergeMMap(size_t i, MorselState& ms) {
    RtMultiMap* main =
        static_cast<RtMultiMap*>(main_regs_[plc_.red_regs[i]].p);
    RtMultiMap* priv = static_cast<RtMultiMap*>(ms.priv[i].p);
    for (RtHashMap::Node* n : priv->key_map().entries()) {
      RtList* vals = static_cast<RtList*>(n->value.p);
      main_.stats->CreditHeap(sizeof(RtHashMap::Node), 1);
      main_.stats->CreditVector(vals->items.capacity() * sizeof(Slot));
      // One probe per (key, morsel), holding the key's value list (the
      // tail) across the whole chain — not one Find per merged value,
      // which re-walked the key's hash chain per value and made merging a
      // skewed key's long chain quadratic in the chain length.
      main->AddAll(n->key, vals->items.data(), vals->items.size());
    }
  }

  void MergeGroupArray(size_t i, MorselState& ms) {
    const ir::ParReduction& red = plc_.plan->reductions[i];
    RtArray* main = static_cast<RtArray*>(main_regs_[plc_.red_regs[i]].p);
    RtArray* priv = static_cast<RtArray*>(ms.priv[i].p);
    for (size_t k = 0; k < priv->data.size(); ++k) {
      Slot mv = priv->data[k];
      if (mv.p == nullptr) continue;
      Slot& mn = main->data[k];
      if (mn.p == nullptr) {
        mn = mv;  // adopt the morsel's record (heap stays alive)
        remap_[mv.p] = static_cast<Slot*>(mv.p);
      } else {
        CombineGroupRec(static_cast<Slot*>(mn.p),
                        static_cast<const Slot*>(mv.p), red);
        CreditGroupRec(main_.stats, red);
        remap_[mv.p] = static_cast<Slot*>(mn.p);
      }
    }
  }

  // Sequential builds prepend (rec.next = bucket; bucket = rec), so later
  // rows sit in front. Prepending each morsel's complete chain, morsels in
  // order, reproduces the exact sequential chain. The tail walk below
  // traverses only the morsel's own private chain, exactly once per
  // (bucket, morsel) — never the growing main chain — so the merge is
  // O(total nodes) even under full key skew.
  void MergeBucketArray(size_t i, MorselState& ms) {
    const ir::ParReduction& red = plc_.plan->reductions[i];
    RtArray* main = static_cast<RtArray*>(main_regs_[plc_.red_regs[i]].p);
    RtArray* priv = static_cast<RtArray*>(ms.priv[i].p);
    int nf = red.next_field;
    for (size_t k = 0; k < priv->data.size(); ++k) {
      Slot head = priv->data[k];
      if (head.p == nullptr) continue;
      Slot* tail = static_cast<Slot*>(head.p);
      while (tail[nf].p != nullptr) tail = static_cast<Slot*>(tail[nf].p);
      tail[nf] = main->data[k];
      main->data[k] = head;
    }
  }

  // Replays the f64 additions of this morsel in row order, against the
  // merged accumulators, reproducing the sequential rounding bit for bit.
  void ReplayLogs(MorselState& ms) {
    const ir::ParLoop& plan = *plc_.plan;
    for (size_t c = 0; c < plan.logs.size(); ++c) {
      const ir::ParLogChannel& ch = plan.logs[c];
      const std::vector<Slot>& log = ms.logs[c];
      if (ch.var != nullptr) {
        Slot& acc = main_regs_[plc_.channel_var_regs[c]];
        for (Slot v : log) acc.d += v.d;
        continue;
      }
      size_t stride = ch.Stride();
      if (ch.array_red >= 0) {
        // Slot-index-keyed: the merged record sits in the main array.
        const Slot* slots =
            static_cast<RtArray*>(
                main_regs_[plc_.red_regs[ch.array_red]].p)
                ->data.data();
        for (size_t e = 0; e + stride <= log.size(); e += stride) {
          Slot* rec = static_cast<Slot*>(slots[log[e].i].p);
          for (size_t j = 0; j < ch.fields.size(); ++j) {
            rec[ch.fields[j]].d += log[e + 1 + ch.value_idx[j]].d;
          }
        }
        continue;
      }
      for (size_t e = 0; e + stride <= log.size(); e += stride) {
        auto it = remap_.find(log[e].p);
        if (it == remap_.end()) {
          std::fprintf(stderr,
                       "parallel merge: log entry for unknown group record\n");
          std::abort();
        }
        Slot* rec = it->second;
        for (size_t j = 0; j < ch.fields.size(); ++j) {
          rec[ch.fields[j]].d += log[e + 1 + ch.value_idx[j]].d;
        }
      }
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
  std::unordered_map<const void*, Slot*> remap_;
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
  int64_t mr = eng.morsel_rows < 1 ? 1 : eng.morsel_rows;
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

  // Budget gate: privatizing huge direct-addressed tables per morsel would
  // trade too much memory for the parallelism.
  int64_t arr_bytes = 0;
  for (size_t i = 0; i < plan.reductions.size(); ++i) {
    if (!IsArrayRed(plan.reductions[i].kind)) continue;
    int64_t size = regs[plc.red_size_regs[i]].i;
    if (size < 0) return false;
    arr_bytes += size * static_cast<int64_t>(sizeof(Slot)) * num_morsels;
  }
  if (arr_bytes > kPrivateArrayBudget) return false;

  // Private state per morsel. Privatized containers are runtime scratch:
  // they are created without AllocStats accounting (the sequential run
  // created the one real instance up front), while everything the body
  // itself allocates lands in the morsel's own stats.
  std::vector<std::unique_ptr<MorselState>> states;
  states.reserve(num_morsels);
  for (int64_t m = 0; m < num_morsels; ++m) {
    states.push_back(std::make_unique<MorselState>());
    MorselState& ms = *states.back();
    ms.logs.resize(plan.logs.size());
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
          ms.st.arrays.emplace_back();
          RtArray& arr = ms.st.arrays.back();
          arr.data.assign(regs[plc.red_size_regs[i]].i, SlotI(0));
          ms.priv[i] = SlotP(&arr);
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
  telemetry::ScopedSpan loop_span("par_loop", "par", "rows", rows);

  // The workers scan morsels; the caller thread runs the ordered merge
  // concurrently, folding each morsel in as soon as it (and all earlier
  // ones) completed, and steals scan work only when no merge is ready. On
  // multi-core hardware this takes the sequential merge off the critical
  // path entirely whenever merging is cheaper than scanning.
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
  std::function<void(int)> scan = [&](int m) {
    // Tripped queries skip morsels that have not started yet: the empty
    // MorselState merges as a no-op, so the done/merge/Wait protocol runs
    // to completion and the pool stays reusable.
    if (ctl == nullptr || !ctl->Tripped()) {
      int64_t ts = trace_session != 0 ? telemetry::TraceNowNs() : 0;
      vm.RunMorsel(*states[m], plc, entry_regs, ranges[m].first,
                   ranges[m].second);
      if (trace_session != 0) {
        telemetry::TraceRecord(trace_session, "morsel", "par", ts,
                               telemetry::TraceNowNs() - ts, "morsel", m,
                               "rows", ranges[m].second - ranges[m].first);
      }
    }
    done[m].store(1, std::memory_order_release);
    { std::lock_guard<std::mutex> lock(done_mu); }
    done_cv.notify_one();
  };

  Merger merger(plc, main, regs);
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
      main.morsels.push_back(std::move(states[merged]));
      ++merged;
      any = true;
    }
    return any;
  };

  eng.pool.Begin(static_cast<int>(num_morsels), scan);
  while (merged < num_morsels) {
    if (merge_ready()) continue;
    int m = eng.pool.TrySteal();
    if (m >= 0) {
      scan(m);
      continue;
    }
    std::unique_lock<std::mutex> lock(done_mu);
    done_cv.wait(lock, [&] {
      return done[merged].load(std::memory_order_acquire) != 0;
    });
  }
  eng.pool.Wait();

  return true;
}

// ---------------------------------------------------------------------------
// Parallel stable sort
// ---------------------------------------------------------------------------

namespace {

// Runs every task index of [0, count) on the pool with the caller thread
// stealing, then synchronizes. Wait() establishes the happens-before edge
// the next merge level needs to read this level's output.
void RunTasks(Engine& eng, int count, const std::function<void(int)>& task) {
  eng.pool.Begin(count, task);
  int t;
  while ((t = eng.pool.TrySteal()) >= 0) task(t);
  eng.pool.Wait();
}

// A comparator subroutine over one register file: writes the parameter
// slots, runs the subroutine, reads the result slot.
class SubroutineCmp final : public SlotCmp {
 public:
  SubroutineCmp(const SortComparator& sc, Slot* regs) : sc_(sc), regs_(regs) {}

  bool Less(Slot a, Slot b) override {
    regs_[sc_.ps[0]] = a;
    regs_[sc_.ps[1]] = b;
    sc_.run(sc_.ctx, regs_, sc_.entry);
    return regs_[sc_.ps[2]].i != 0;
  }

 private:
  const SortComparator& sc_;
  Slot* regs_;
};

// One parallel sort task's comparator: a private copy of the register file
// (comparator temporaries are subroutine-local, so the live file needs none
// of the task's writes), governed like the sequential path.
struct TaskCmp {
  TaskCmp(const SortComparator& sc, GovState* gov)
      : regs(sc.regs, sc.regs + sc.num_regs),
        inner(sc, regs.data()),
        governed(inner, gov) {}
  TaskCmp(const TaskCmp&) = delete;  // inner and governed point into *this
  TaskCmp& operator=(const TaskCmp&) = delete;

  std::vector<Slot> regs;
  SubroutineCmp inner;
  GovernedCmp governed;
};

// Morsel-parallel half of SortSlots. Returns false (nothing executed) when
// the input is too small for two chunks or the pool has no workers.
bool ParallelStableSort(Engine& eng, GovState* gov, const SortComparator& sc,
                        Slot* data, int64_t n) {
  int threads = eng.pool.threads();
  // Minimum rows per sorted run, clamped to >= 2: smaller sorts stay
  // sequential, the run/merge bookkeeping would cost more than it saves.
  // Read per call, not cached: sorts run once per query, and tests flip the
  // knob between runs.
  int64_t min_chunk = KnobInt(Knob::kParSortMin);
  if (threads < 2 || n < 2 * min_chunk) return false;

  // Contiguous chunk boundaries. The decomposition affects only wall-clock:
  // stable per-chunk sorts folded by stable ordered merges produce the
  // unique stable ordering whatever the chunk count, so determinism does
  // not depend on `threads` even though the chunk count does.
  int64_t chunks = n / min_chunk;
  int64_t max_chunks = static_cast<int64_t>(threads) * 4;
  if (chunks > max_chunks) chunks = max_chunks;
  std::vector<int64_t> bounds(static_cast<size_t>(chunks) + 1);
  for (int64_t c = 0; c <= chunks; ++c) {
    bounds[static_cast<size_t>(c)] = n * c / chunks;
  }

  // Session captured on the submitting thread (workers record chunk/merge
  // slices into their own rings); see RunForRange.
  uint64_t trace_session = telemetry::CurrentTraceSession();
  telemetry::ScopedSpan sort_span("par_sort", "par", "n", n);

  // One full-size scratch buffer for both phases: each chunk sort merges
  // through its own disjoint slice, so phase 1 costs no per-task
  // allocation on the workers.
  std::vector<Slot> scratch(static_cast<size_t>(n));

  // Phase 1: one stable sorted run per chunk, each task on its own
  // comparator (private register file).
  std::function<void(int)> sort_chunk = [&](int c) {
    int64_t ts = trace_session != 0 ? telemetry::TraceNowNs() : 0;
    TaskCmp cmp(sc, gov);
    StableSortSlots(data + bounds[c], bounds[c + 1] - bounds[c], cmp.governed,
                    scratch.data() + bounds[c]);
    if (trace_session != 0) {
      telemetry::TraceRecord(trace_session, "sort_chunk", "par", ts,
                             telemetry::TraceNowNs() - ts, "chunk", c, "n",
                             bounds[c + 1] - bounds[c]);
    }
  };
  RunTasks(eng, static_cast<int>(chunks), sort_chunk);

  // Phase 2: tree of ordered merges, ping-ponging between the data and the
  // same scratch buffer. Each level pairs adjacent runs; an odd trailing
  // run is copied through so every element lives in the level's output
  // buffer.
  Slot* src = data;
  Slot* dst = scratch.data();
  while (bounds.size() > 2) {
    size_t pairs = (bounds.size() - 1) / 2;
    bool odd = (bounds.size() - 1) % 2 != 0;
    std::function<void(int)> merge_pair = [&](int p) {
      int64_t ts = trace_session != 0 ? telemetry::TraceNowNs() : 0;
      TaskCmp cmp(sc, gov);
      MergeSortedRuns(src, bounds[2 * p], bounds[2 * p + 1],
                      bounds[2 * p + 2], dst, cmp.governed);
      if (trace_session != 0) {
        telemetry::TraceRecord(trace_session, "sort_merge", "par", ts,
                               telemetry::TraceNowNs() - ts, "pair", p);
      }
    };
    RunTasks(eng, static_cast<int>(pairs), merge_pair);
    if (odd) {
      int64_t lo = bounds[bounds.size() - 2];
      std::memcpy(dst + lo, src + lo,
                  static_cast<size_t>(n - lo) * sizeof(Slot));
    }
    std::vector<int64_t> next;
    next.reserve(pairs + 2);
    for (size_t b = 0; b < bounds.size(); b += 2) next.push_back(bounds[b]);
    if (next.back() != n) next.push_back(n);
    bounds = std::move(next);
    std::swap(src, dst);
  }
  if (src != data) {
    std::memcpy(data, src, static_cast<size_t>(n) * sizeof(Slot));
  }
  return true;
}

}  // namespace

void SortSlots(bool parallel, GovState* gov, const SortComparator& cmp,
               Slot* data, int64_t n) {
  if (parallel && gov->par != nullptr &&
      ParallelStableSort(*gov->par, gov, cmp, data, n)) {
    return;
  }
  SubroutineCmp live(cmp, cmp.regs);
  GovernedCmp governed(live, gov);
  StableSortSlots(data, n, governed);
}

}  // namespace qc::exec::parallel
