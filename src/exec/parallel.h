// Morsel-driven parallel execution (HyPer style) for both engines.
//
// A qualifying top-level scan loop (ir/parallel.h decides which qualify) is
// split into fixed-size row-range morsels pulled work-stealing-style off a
// shared counter by a persistent worker pool. Each morsel runs the
// unmodified loop body against *private* state: a private register file,
// RecordHeap, AllocStats, and private instances of every reduction object
// (hash maps, group arrays, lists, accumulators). A sequential merge phase
// then folds the per-morsel states back into the main engine state in
// morsel order.
//
// Determinism contract: the merged result is bitwise identical to the
// sequential engine for any thread count and morsel size —
//   * list appends, multimap inserts, emits, and intrusive bucket chains
//     recombine in morsel order, reproducing the exact sequential
//     append/insert order;
//   * integral sums are exact and associative, min/max merges keep the
//     sequential first-occurrence semantics via the shared count; and
//   * f64 sums — the one non-associative fold — are not merged from
//     partials at all: the parallel phase logs the per-row addends
//     (ir::ParLogChannel) and the merge replays the additions in global
//     row order, keeping the sequential floating-point rounding.
//
// AllocStats accounting: each morsel's stats are folded in with MergeFrom,
// then the merge credits back storage that a sequential run never
// allocates (duplicate per-morsel group records, per-morsel hash nodes and
// list buffers), so Figure 8 numbers are engine- and thread-count-
// independent.
//
// The engines share everything here, including the `LoopRun::body`
// callback that executes one morsel: the JIT engine reuses the bytecode
// VM's callback, and its hybrid driver runs per worker.
#ifndef QC_EXEC_PARALLEL_H_
#define QC_EXEC_PARALLEL_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "exec/governor.h"
#include "exec/runtime.h"
#include "ir/parallel.h"
#include "storage/result.h"
#include "storage/schema.h"

namespace qc::exec::parallel {

struct MorselState;

// Execution context threaded through the VM (and the JIT's hybrid driver):
// the register file plus every piece of per-run mutable state. The main run
// points at the VM's own storage; a morsel run points into a MorselState.
struct ExecState {
  Slot* regs = nullptr;
  AllocStats* stats = nullptr;
  RecordHeap* records = nullptr;
  std::deque<RtList>* lists = nullptr;
  std::deque<RtArray>* arrays = nullptr;
  std::deque<RtHashMap>* maps = nullptr;
  std::deque<RtMultiMap>* mmaps = nullptr;
  std::deque<std::string>* strings = nullptr;
  storage::ResultTable* out = nullptr;
  MorselState* morsel = nullptr;       // log sink during a morsel run
  GovState* gov = nullptr;             // governance state (may be unattached)
};

// All worker-local state of one morsel. Records and interned strings
// survive the merge (group records and join tuples are adopted by the main
// structures); everything else is released right after merging.
struct MorselState {
  AllocStats stats;
  RecordHeap records{&stats};
  std::deque<RtList> lists;
  std::deque<RtArray> arrays;
  std::deque<RtHashMap> maps;
  std::deque<RtMultiMap> mmaps;
  std::deque<std::string> strings;
  storage::ResultTable out;
  std::vector<Slot> regs;
  std::vector<std::vector<Slot>> logs;  // one addend log per ParLogChannel
  std::vector<Slot> priv;               // privatized object per reduction
  // Per-morsel governance state over this morsel's private stats (attached
  // by the engine's body callback when the run is governed).
  GovState gov;

  ExecState MakeState() {
    ExecState st;
    st.regs = regs.data();
    st.stats = &stats;
    st.records = &records;
    st.lists = &lists;
    st.arrays = &arrays;
    st.maps = &maps;
    st.mmaps = &mmaps;
    st.strings = &strings;
    st.out = &out;
    st.morsel = this;
    st.gov = &gov;
    return st;
  }

  // Frees everything the merged result does not reference.
  void ReleaseTransients() {
    lists.clear();
    arrays.clear();
    maps.clear();
    mmaps.clear();
    out = storage::ResultTable();
    regs = std::vector<Slot>();
    logs = std::vector<std::vector<Slot>>();
    priv = std::vector<Slot>();
  }
};

// Persistent worker threads. Task indices are distributed through an
// atomic counter (workers that finish early steal the remaining morsels);
// the calling thread participates, so `threads` is the total parallelism.
//
// Begin/TrySteal/Wait let the caller interleave its own work (the ordered
// merge) with stealing: publish the task set, pull indices while waiting,
// then synchronize.
class WorkerPool {
 public:
  explicit WorkerPool(int threads);
  ~WorkerPool();

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  int threads() const { return static_cast<int>(workers_.size()) + 1; }

  // Publishes `count` tasks to the workers and returns immediately.
  // `task` must stay alive until Wait() returns.
  void Begin(int count, const std::function<void(int)>& task);
  // Claims the next unclaimed task index, or -1 when all are claimed.
  int TrySteal();
  // Blocks until every worker has finished its claimed tasks.
  void Wait();

 private:
  void WorkerMain();

  std::vector<std::thread> workers_;
  std::mutex mu_;
  std::condition_variable cv_start_;
  std::condition_variable cv_done_;
  const std::function<void(int)>* task_ = nullptr;
  int count_ = 0;
  std::atomic<int> next_{0};
  int pending_ = 0;
  uint64_t generation_ = 0;
  bool stop_ = false;
};

// Owned by an Interpreter with num_threads > 1: the pool plus the
// keep-alive store for morsel heaps whose records were adopted into the
// current result.
class Engine {
 public:
  Engine(int threads, int64_t morsel_rows)
      : pool_(threads), morsel_rows_(morsel_rows < 1 ? 1 : morsel_rows) {}

  WorkerPool& pool() { return pool_; }
  int64_t morsel_rows() const { return morsel_rows_; }

  void Keep(std::unique_ptr<MorselState> ms) {
    keepalive_.push_back(std::move(ms));
  }
  // Called at the start of each Run(): the previous result has been handed
  // off (results own their strings), so adopted records can go.
  void ReleaseRun() { keepalive_.clear(); }

 private:
  WorkerPool pool_;
  int64_t morsel_rows_;
  std::vector<std::unique_ptr<MorselState>> keepalive_;
};

// One parallel loop execution request, fully resolved against the engine's
// register file.
struct LoopRun {
  const ir::ParLoop* plan = nullptr;
  int64_t lo = 0;
  int64_t hi = 0;
  Slot* main_regs = nullptr;
  // Parallel to plan->reductions: register of each target, and of the
  // capacity constant for array reductions (0 when unused).
  const std::vector<uint32_t>* red_regs = nullptr;
  const std::vector<uint32_t>* red_size_regs = nullptr;
  // Parallel to plan->logs: register of the scalar accumulator (var
  // channels; 0 when the channel targets group records).
  const std::vector<uint32_t>* channel_var_regs = nullptr;
  AllocStats* stats = nullptr;
  storage::ResultTable* out = nullptr;
  const std::vector<storage::ColType>* emit_types = nullptr;
  // Governance control, or nullptr for an ungoverned run. Once it trips,
  // still-unstarted morsels are skipped entirely (their empty states merge
  // as no-ops, keeping the orchestration and Wait() protocol intact).
  ExecControl* ctl = nullptr;
  // Executes the loop body over [mlo, mhi) against `ms` (regs must be set
  // up by the engine: copy of the main file + privatized overrides).
  std::function<void(int64_t mlo, int64_t mhi, MorselState& ms)> body;
};

// Splits [lo, hi) into morsels, runs them on the pool, and merges in
// morsel order. Returns false (without executing anything) when the loop
// should just run sequentially: too few rows for two morsels, or the
// private-array budget would be exceeded.
bool RunForRange(Engine& eng, const LoopRun& run);

// Minimum rows per sorted run before a post-aggregation sort goes parallel
// (QC_PAR_SORT_MIN, clamped to >= 2; smaller sorts stay sequential — the
// run/merge bookkeeping would cost more than it saves).
int64_t ParallelSortMinChunk();

// Creates one comparator instance for one parallel-sort task. Invoked on
// whichever thread executes the task, possibly concurrently with other
// invocations, so it must be thread-safe; each returned comparator is
// driven by exactly one task and typically owns a private register-file
// copy for the engine executing the comparator code.
using SortCmpFactory = std::function<std::unique_ptr<SlotCmp>()>;

// Morsel-parallel stable sort of data[0, n): contiguous chunks are
// insertion/merge-sorted per worker (StableSortSlots), then folded by a
// tree of ordered merges (MergeSortedRuns) on the same pool, caller thread
// stealing throughout. Stability of both phases makes the result the
// unique stable ordering — bitwise identical to the sequential engines for
// any thread count and chunk decomposition. Returns false (nothing
// executed) when the input is too small for two chunks or the pool has no
// workers; the caller then runs the shared sequential core itself.
bool ParallelStableSort(Engine& eng, Slot* data, int64_t n,
                        const SortCmpFactory& make_cmp);

// The kArrSort/kListSort driver of both engines: a governed stable sort of
// data[0, n). With a pool (`eng` non-null; callers pass null inside morsel
// runs and for comparators not proven safe to run in parallel) it tries
// ParallelStableSort over comparators from `make_cmp` (a callable
// returning std::unique_ptr<SlotCmp>); otherwise, or when the input is too
// small, it runs the sequential core over `cmp`. Every comparator is
// wrapped in GovernedCmp, so once the query trips the sort drains in
// linear time. A template so the sequential path builds no std::function.
template <typename MakeCmp>
void GovernedStableSort(Engine* eng, GovState* gov, Slot* data, int64_t n,
                        SlotCmp& cmp, const MakeCmp& make_cmp) {
  if (eng != nullptr &&
      ParallelStableSort(*eng, data, n, [&]() -> std::unique_ptr<SlotCmp> {
        return std::make_unique<GovernedCmpOwned>(make_cmp(), gov);
      })) {
    return;
  }
  GovernedCmp gcmp(cmp, gov);
  StableSortSlots(data, n, gcmp);
}

}  // namespace qc::exec::parallel

#endif  // QC_EXEC_PARALLEL_H_
