// In-process execution of the ANF IR. Every DSL level of the stack is
// directly executable (the paper's "each DSL is executable" property): both
// engines implement the full construct set, from generic MultiMaps at
// ScaLite[Map,List] down to malloc/pool operations at C.Lite. Compiled
// queries at different stack levels therefore run on identical machinery and
// differ only in the code the compiler produced — which is exactly what
// Table 3 measures.
//
// One executor sits behind this facade: the function is flattened once into
// register bytecode (cached per Function, so repeated Run() calls skip
// translation) and runs on the direct-threaded VM (exec/bytecode.h). The
// engine option only selects the VM's driver:
//   * kBytecode (default) — the plain interpreter loop.
//   * kJit — the VM's hybrid driver over native x86-64 stitched from the
//     same bytecode by the copy-and-patch backend (src/jit/), deopting
//     into the interpreter per instruction; degrades silently to kBytecode
//     where unsupported.
//
// Either way, morsel-driven parallel execution of qualifying scan loops
// (exec/parallel.h) goes through the VM: InterpOptions::num_threads > 1
// attaches a persistent worker pool, and results stay bitwise identical to
// the sequential run at every thread count.
#ifndef QC_EXEC_INTERP_H_
#define QC_EXEC_INTERP_H_

#include <atomic>
#include <memory>
#include <string>
#include <unordered_map>

#include "exec/bytecode.h"
#include "exec/parallel.h"
#include "exec/runtime.h"
#include "ir/parallel.h"
#include "ir/stmt.h"
#include "jit/engine.h"
#include "storage/database.h"
#include "storage/result.h"

namespace qc::exec {

struct InterpOptions {
  enum class Engine {
    kBytecode,  // register bytecode on the direct-threaded VM
    kJit,       // bytecode stitched to native x86-64 (src/jit/), with
                // per-instruction deopt into the VM; degrades silently to
                // kBytecode on platforms without executable-page support
                // or when QC_JIT_DISABLE is set — safe to select anywhere
  };
  Engine engine = Engine::kBytecode;

  // Morsel-driven parallelism (both engines). 1 = sequential execution,
  // byte-for-byte the pre-parallel engine with zero overhead. N > 1 runs
  // qualifying top-level scan loops (ir/parallel.h) on a persistent pool
  // of N threads (the calling thread participates); results are bitwise
  // identical to num_threads = 1 regardless of N or morsel_rows.
  int num_threads = 1;
  int64_t morsel_rows = 16384;  // rows per morsel in parallel mode

  // Query governance (exec/governor.h): when non-null, every Run() polls
  // this control at safepoints (loop back edges, morsel boundaries, JIT'd
  // loop heads) and unwinds within one safepoint interval of a
  // cancellation, deadline, or memory-budget trip. Owned by the caller;
  // null = ungoverned (zero safepoint slow paths). Inspect the outcome via
  // Interpreter::last_status().
  ExecControl* control = nullptr;
};

// Ownership contract: one Interpreter, one owning thread. Run() mutates
// unsynchronized per-Interpreter state (the program cache, register file,
// runtime heaps, result buffer), so concurrent Run() calls on the same
// instance are undefined — multi-threaded callers (e.g. the serving
// daemon's workers) must give each executing thread its own Interpreter
// and share only the immutable Database and ir::Functions. Run() enforces
// this with a non-reentrancy guard that aborts loudly on violation.
// Parallelism *within* one query is different and fully supported: it runs
// on the Interpreter's own WorkerPool (num_threads > 1).
class Interpreter {
 public:
  explicit Interpreter(storage::Database* db,
                       InterpOptions opts = InterpOptions())
      : db_(db), opts_(opts), vm_(&stats_) {
    if (opts_.num_threads > 1) {
      par_ = std::make_unique<parallel::Engine>(opts_.num_threads,
                                                opts_.morsel_rows);
      vm_.SetParallel(par_.get());
    }
  }

  // Executes the function; rows produced by kEmit statements form the
  // result. Cached per-function state (bytecode, stitched native code) is
  // keyed by the Function's address, so a Function passed here should
  // outlive the Interpreter. Address reuse by a different function is
  // detected via a name/size fingerprint and recompiles (a same-named,
  // same-sized different function at the same address would still alias).
  storage::ResultTable Run(const ir::Function& fn);

  const AllocStats& stats() const { return stats_; }

  // Governance status of the most recent Run(): ok unless the attached
  // ExecControl tripped, in which case the returned table was empty and
  // this carries the structured reason. The Interpreter itself stays fully
  // reusable after any non-ok status (pools, heaps, caches intact).
  const QueryStatus& last_status() const { return last_status_; }

  // Replaces the governance control for subsequent Run() calls (null
  // detaches; same semantics as InterpOptions::control).
  void SetControl(ExecControl* ctl) { opts_.control = ctl; }

  // JIT telemetry for the most recent kJit Run (QC_LOG=debug also logs it
  // as a jit_stats record): native coverage (templated pcs / total pcs) and
  // the number of deopt events — interpreted runs of the hybrid driver —
  // during that Run. `jitted` is false when the engine degraded to the
  // plain VM (then the other fields are zero).
  struct JitRunStats {
    bool jitted = false;
    int native_pcs = 0;
    int total_pcs = 0;
    uint64_t deopts = 0;
    // Why the engine degraded to the plain VM (jit::JitFallback as int;
    // 0 = it didn't). Non-zero implies !jitted; surfaced in the bench
    // telemetry so fallbacks are never invisible.
    int fallback_reason = 0;
    double CoveragePct() const {
      return total_pcs > 0 ? 100.0 * native_pcs / total_pcs : 0.0;
    }
  };
  const JitRunStats& last_jit_stats() const { return jit_stats_; }

 private:
  storage::Database* db_;
  InterpOptions opts_;
  // Non-reentrancy guard for the single-owner contract above (set for the
  // duration of Run; entering Run while set aborts).
  std::atomic<bool> in_run_{false};
  AllocStats stats_;
  std::unique_ptr<parallel::Engine> par_;

  // Compiled programs cached per function, with a fingerprint to catch
  // allocator address reuse. The ParallelInfo owns the loop plans the
  // program's ParLoopCode entries point into.
  struct CachedProgram {
    std::string fn_name;
    int num_stmts = -1;
    ir::ParallelInfo par;
    BytecodeProgram prog;
    // kJit: stitched native code for `prog` (null = degraded to the VM),
    // compiled lazily on the first kJit Run and cached like the bytecode.
    std::unique_ptr<jit::JitProgram> jit;
    bool jit_compiled = false;
    // Fallback reason recorded at compile time (kNone when jit != null).
    jit::JitFallback jit_fallback = jit::JitFallback::kNone;
  };
  BytecodeVM vm_;
  std::unordered_map<const ir::Function*, CachedProgram> programs_;
  JitRunStats jit_stats_;
  QueryStatus last_status_;
};

}  // namespace qc::exec

#endif  // QC_EXEC_INTERP_H_
