// Morsel-driven parallel execution (HyPer style) of the bytecode VM — and
// with it of the JIT, which runs through the VM's own Exec.
//
// A qualifying top-level scan loop (ir/parallel.h decides which qualify) is
// split into row-range morsels pulled work-stealing-style off a shared counter
// by a persistent worker pool. A morsel is
// min(morsel_rows, max(512, rows / (2 * threads))) rows: a loop too short for
// two morsel_rows morsels per thread still gets two per thread, unless that
// would cut them under 512 rows. Each morsel runs the unmodified loop body
// against *private* state: a private register file, RunState (RecordHeap,
// runtime containers, result table), AllocStats, and private instances of every
// reduction object (hash maps, lists, accumulators). Group and bucket arrays
// are private per *worker*, not per morsel: each store into one logs its slot
// index, and at the end of its task the worker moves the touched slots out into
// an entry list and re-nulls them, so the array is zero-filled once and reused.
// A task is one morsel, or, in a loop with an array larger than morsel_rows / 8
// slots (a "ranged" array), a chunk of consecutive morsels, about two per
// thread: the chunk keeps the private arrays across its morsels, so a group is
// created and moved out once per chunk. Hash maps and multimaps are private per
// morsel; at the end of its task the worker hashes each private key once and
// scatters the entries into 16 hash parts (RtHashMap::kMinBuckets, so a part
// owns a fixed set of main buckets at every table size).
//
// The merge has three phases, so its work follows what the morsels
// produced:
//   1. the ordered merge — scalars, lists, arrays that are not ranged and
//      emits — folds one morsel at a time in morsel order on the caller
//      thread, overlapped with the scan;
//   2. after the scan, the slot-range merge folds the ranged arrays as one
//      pool task per slot part. Each task walks the morsels in order over
//      its own slots only, so every slot still folds in row order;
//   3. then the hash-part merge folds the maps and multimaps as one pool
//      task per hash part, each walking the morsels in order over its own
//      keys and moving each new key's private node into its own buckets of
//      the main table. The last task through a morsel appends the morsel's
//      new keys to the main tables' entries(), in morsel order, so
//      entries() keeps the sequential first-occurrence order.
//
// Determinism contract: the merged result is bitwise identical to the
// sequential run for any thread count and morsel size —
//   * list appends, multimap inserts, emits, and intrusive bucket chains
//     recombine in morsel order, reproducing the exact sequential
//     append/insert order;
//   * integral sums (integers and decimals) are exact and associative:
//     main += morsel partial; and
//   * min/max merges keep the sequential first-occurrence semantics via
//     the shared count.
// A loop with an f64 sum never gets here: ir/parallel.h rejects it.
//
// AllocStats accounting: each morsel's stats are folded in with MergeFrom,
// then the merge credits back storage that a sequential run never
// allocates (duplicate per-morsel group records, per-morsel hash nodes and
// list buffers; a slot-range or hash-part task credits into its own stats,
// folded in after the tasks), so Figure 8 numbers are engine- and
// thread-count-independent. Private arrays, touched-slot logs, entry lists
// and hash parts are unaccounted scratch.
//
// Sorts do not fan out: every kArrSort/kListSort runs on the thread of its
// context through exec/runtime.h SortSlots (a sort inside a morsel fragment
// runs on that morsel's worker).
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
#include "storage/result.h"

namespace qc::exec {

namespace parallel {
struct MorselState;
}
class BytecodeVM;
struct BytecodeProgram;
struct ParLoopCode;

// All per-run mutable state of one execution context: the main run (owned
// by the BytecodeVM) and every morsel (a MorselState) each own one. The
// register file is separate — Exec takes it alongside.
struct RunState {
  explicit RunState(AllocStats* s) : stats(s), records(s) {}

  AllocStats* stats;
  RecordHeap records;
  std::deque<RtList> lists;
  std::deque<RtArray> arrays;
  std::deque<RtHashMap> maps;
  std::deque<RtMultiMap> mmaps;
  std::deque<std::string> strings;
  storage::ResultTable out;
  GovState gov;  // governance over `stats` (may be unattached)
  // The VM whose main run this is: kParLoop fans its morsels out through
  // it (ops::ParLoop). Null in morsels, which never fan out (gov.par is
  // null there).
  BytecodeVM* vm = nullptr;
  // Merged morsels whose records were adopted here (freed at next reset).
  std::vector<std::unique_ptr<parallel::MorselState>> morsels;

  // Attaches the control `ctl` and pool `par` (null = ungoverned /
  // sequential) and writes the two reserved context registers of `prog`
  // into `regs` — state_reg = this, gov_cnt_reg = the safepoint countdown —
  // so kEmit, the allocating ops, the safepoints and JIT'd code reach this
  // state through the registers.
  void Bind(const BytecodeProgram& prog, ExecControl* ctl,
            parallel::Engine* par, Slot* regs);
};

namespace parallel {

// One morsel's entries for an array reduction, grouped by slot part: part
// p is data[off[p], off[p + 1]), entries in row order within a part. An
// array merged in order has a single part.
struct SlotParts {
  std::vector<Slot> data;
  std::vector<size_t> off;
};

// One morsel's private entries of a kMap or kMMap reduction, scattered by
// hash part at task end: part p holds the positions [off[p], off[p + 1]),
// in entry order. `into` and `created` are the part tasks' output.
struct HashParts {
  std::vector<size_t> off;
  std::vector<uint64_t> hash;   // per position: hasher().Hash of the key
  std::vector<uint32_t> entry;  // per position: index into entries()
  std::vector<uint32_t> pos;    // per entry: its position
  // Per position: the main node the entry merged into, and whether the
  // entry created it (the key's first occurrence in the loop).
  std::vector<RtHashMap::Node*> into;
  std::vector<char> created;
};

// All worker-local state of one morsel. Records and interned strings
// survive the merge (group records and join tuples are adopted by the main
// structures); everything else is released once merged.
struct MorselState {
  AllocStats stats;
  RunState st{&stats};
  std::vector<Slot> regs;
  // One touched-slot log per reduction (ParLoopCode::log_regs), filled by
  // the array reductions.
  std::vector<std::vector<Slot>> logs;
  // Privatized object per reduction; an array reduction's is its worker's
  // private array, bound while the morsel runs.
  std::vector<Slot> priv;
  // Filled at task end from the touched-slot logs: per reduction, (slot,
  // record) per touched group-array slot or (slot, chain head, chain tail)
  // per touched bucket-array slot, held by the first morsel of a chunk.
  // Empty for every other reduction, for the other morsels of a chunk, and
  // for a morsel skipped after a trip.
  std::vector<SlotParts> folds;
  // Filled at task end, per kMap/kMMap reduction (empty for the others and
  // for a morsel skipped after a trip).
  std::vector<HashParts> hashed;

  // Frees the private lists, arrays, results and registers once the
  // ordered merge is done with them. The private maps and multimaps (and
  // `priv`, which points at them) live until the hash-part tasks finish;
  // the merge frees the logs and entry lists it consumes, the part tasks'
  // stay until the loop ends.
  void ReleaseTransients() {
    st.lists.clear();
    st.arrays.clear();
    st.out = storage::ResultTable();
    regs = std::vector<Slot>();
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

// Owned by an Interpreter that runs at num_threads > 1: the pool and the
// morsel size, no run state — each run binds it through GovState::par.
struct Engine {
  Engine(int threads, int64_t rows) : pool(threads), morsel_rows(rows) {}
  WorkerPool pool;
  const int64_t morsel_rows;
};

// Runs the loop `plc` of the main run (state `main`, register file
// `regs` of `num_regs` slots) morsel-parallel: splits its [lo, hi) into
// morsels, runs each through vm.RunMorsel on the pool, merges in morsel
// order, then merges the ranged arrays by slot range and the maps and
// multimaps by hash part on the pool.
// Returns false (without executing anything) when the loop should not be
// split: too few rows for two morsels, or the private arrays of all threads
// would exceed their budget. The caller then runs the same fragment once
// over the whole range (BytecodeVM::RunUnsplit). A governed run whose
// control trips skips its still-unstarted morsels (their empty states merge
// as no-ops, keeping the orchestration and Wait() protocol intact).
bool RunForRange(Engine& eng, BytecodeVM& vm, const ParLoopCode& plc,
                 RunState& main, Slot* regs, uint32_t num_regs);

}  // namespace parallel
}  // namespace qc::exec

#endif  // QC_EXEC_PARALLEL_H_
