// In-process execution of the ANF IR. Every DSL level of the stack is
// directly executable (the paper's "each DSL is executable" property): both
// engines implement the full construct set, from generic MultiMaps at
// ScaLite[Map,List] down to malloc/pool operations at C.Lite. Compiled
// queries at different stack levels therefore run on identical machinery and
// differ only in the code the compiler produced — which is exactly what
// Table 3 measures.
//
// One executor sits behind this facade: the function is flattened once into
// register bytecode — an immutable Program, built and verified once and
// shared by every run — and runs on the direct-threaded VM
// (exec/bytecode.h). The engine option only selects how the VM runs it:
//   * kBytecode (default) — the interpreter loop.
//   * kJit — native x86-64 stitched from every instruction of the same
//     bytecode by the copy-and-patch backend (src/jit/); degrades silently,
//     for the whole program, to kBytecode where unsupported.
//
// Either way, morsel-driven parallel execution of qualifying scan loops
// (exec/parallel.h) goes through the VM: num_threads > 1 runs on the
// Interpreter's persistent worker pool, and results stay bitwise identical
// to the sequential run at every thread count.
#ifndef QC_EXEC_INTERP_H_
#define QC_EXEC_INTERP_H_

#include <atomic>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>

#include "exec/bytecode.h"
#include "exec/parallel.h"
#include "exec/runtime.h"
#include "ir/parallel.h"
#include "ir/stmt.h"
#include "jit/engine.h"
#include "storage/database.h"
#include "storage/result.h"

namespace qc::exec {

// Per-run options: Run(fn) uses the constructor's, Run(program, opts) its own.
struct InterpOptions {
  enum class Engine {
    kBytecode,  // register bytecode on the direct-threaded VM
    kJit,       // bytecode stitched to native x86-64 (src/jit/); degrades
                // silently to kBytecode on platforms without executable-
                // page support or when QC_JIT_DISABLE is set — safe to
                // select anywhere
  };
  Engine engine = Engine::kBytecode;

  // Morsel-driven parallelism (both engines). N > 1 runs qualifying
  // top-level scan loops (ir/parallel.h) on a persistent pool of N threads
  // (the calling thread participates); 1 runs each such loop's same
  // compiled body once over its whole range, on the calling thread.
  // Results are bitwise identical to num_threads = 1 regardless of N or
  // morsel_rows.
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

// One compiled query, immutable once built: loop plans, bytecode, and the
// JIT image stitched from it. Every run brings its own mutable state (an
// Interpreter's RunState, pool, control), so any number of Interpreters on
// any threads may run one Program concurrently. Valid as long as the
// Function and Database it was built from.
class Program {
 public:
  // ir::AnalyzeParallelism (the kParLoop headers), BytecodeCompiler::
  // Compile, then the verifier when VerifyEnabled(). One program serves
  // every thread count. A violation returns null with the report in
  // *error — or, for trusted callers passing null, reports and aborts (a
  // compiler bug).
  static std::unique_ptr<const Program> Build(storage::Database* db,
                                              const ir::Function& fn,
                                              std::string* error);

  const std::string& name() const { return name_; }
  const BytecodeProgram& bytecode() const { return bc_; }

  // The native code, stitched on the first call only (racing first calls
  // stitch once; VM-only programs never stitch). Null when the JIT
  // degraded to the VM; `why` (optional) receives the reason.
  const jit::JitProgram* jit(jit::JitFallback* why = nullptr) const;

 private:
  Program() = default;

  std::string name_;
  ir::ParallelInfo par_;  // the loop plans bc_.par_loops point into
  BytecodeProgram bc_;
  // Written once under stitch_once_, read-only afterwards.
  mutable std::once_flag stitch_once_;
  mutable std::unique_ptr<jit::JitProgram> jit_;
  mutable jit::JitFallback fallback_ = jit::JitFallback::kNone;
};

// Ownership contract: one Interpreter, one owning thread. An Interpreter
// holds only run state (register file, runtime heaps, result buffer, its
// pool, its last status and stats), mutated unsynchronized, so concurrent
// Run() calls on the same instance are undefined — multi-threaded callers
// (e.g. the serving daemon's workers) give each thread its own Interpreter
// and share the immutable Database, Functions and Programs. Run() enforces
// this with a non-reentrancy guard that aborts loudly on violation.
// Parallelism *within* one query is different and fully supported: it runs
// on the Interpreter's own WorkerPool (num_threads > 1).
class Interpreter {
 public:
  explicit Interpreter(storage::Database* db,
                       InterpOptions opts = InterpOptions())
      : db_(db), opts_(opts), vm_(&stats_) {}

  // Executes the function with the constructor's options; rows produced
  // by kEmit statements form the result. Its Program is built on first use
  // and kept, keyed by the Function's address, so the Function should
  // outlive the Interpreter. Address reuse by a different function is
  // caught by a name/size fingerprint.
  storage::ResultTable Run(const ir::Function& fn);

  // Executes a Program, possibly shared with concurrent runs elsewhere,
  // with every option taken from `opts`. threads > 1 runs on this
  // Interpreter's one pool (rebuilt when the shape changes); at threads = 1
  // each kParLoop runs its body fragment unsplit.
  storage::ResultTable Run(const Program& prog, const InterpOptions& opts);

  const AllocStats& stats() const { return stats_; }

  // Governance status of the most recent Run(): ok unless the attached
  // ExecControl tripped, in which case the returned table was empty and
  // this carries the structured reason. The Interpreter itself stays fully
  // reusable after any non-ok status (pools, heaps, programs intact).
  const QueryStatus& last_status() const { return last_status_; }

  // Replaces the governance control for subsequent Run(fn) calls (null
  // detaches; same semantics as InterpOptions::control).
  void SetControl(ExecControl* ctl) { opts_.control = ctl; }

  // JIT telemetry for the most recent kJit Run (QC_LOG=debug also logs it
  // as a jit_stats record): native coverage (templated pcs / total pcs).
  // `jitted` is false when the engine degraded to the plain VM (then the
  // other fields are zero).
  struct JitRunStats {
    bool jitted = false;
    int native_pcs = 0;
    int total_pcs = 0;
    // Always 0: a JIT run never returns to the VM mid-run. Kept for the
    // benchmark harness, which reports it.
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
  // The pool, with the (threads, morsel_rows) it was built for.
  std::unique_ptr<parallel::Engine> par_;
  std::pair<int, int64_t> par_shape_{0, 0};
  BytecodeVM vm_;
  // Run(fn)'s programs, with the statement count for the fingerprint.
  std::unordered_map<const ir::Function*,
                     std::pair<int, std::unique_ptr<const Program>>>
      programs_;
  JitRunStats jit_stats_;
  QueryStatus last_status_;
};

}  // namespace qc::exec

#endif  // QC_EXEC_INTERP_H_
