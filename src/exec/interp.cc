#include "exec/interp.h"

#include <cstdio>
#include <cstdlib>
#include <mutex>

#include "analysis/bc_verify.h"
#include "telemetry/log.h"
#include "telemetry/metrics.h"
#include "telemetry/trace.h"

namespace qc::exec {

storage::ResultTable Interpreter::Run(const ir::Function& fn) {
  // Single-owner contract (see the class comment): Run() is not
  // re-entrant and must not race with itself from another thread — the
  // program cache, register file, and runtime heaps are all unsynchronized
  // by design. Catch violations loudly instead of corrupting state.
  if (in_run_.exchange(true, std::memory_order_acquire)) {
    std::fprintf(stderr,
                 "exec: Interpreter::Run entered concurrently — each "
                 "Interpreter must be owned by exactly one thread\n");
    std::abort();
  }
  struct RunGuard {
    std::atomic<bool>* flag;
    ~RunGuard() { flag->store(false, std::memory_order_release); }
  } run_guard{&in_run_};
  ExecControl* ctl = opts_.control;
  last_status_ = QueryStatus();
  if (ctl != nullptr) {
    ctl->BeginRun();
    // Pre-run poll: an already-cancelled or already-expired control never
    // starts executing (or even compiling) the query.
    if (ctl->cancel.load(std::memory_order_relaxed)) {
      ctl->Trip(QueryStatusCode::kCancelled);
    } else {
      int64_t dl = ctl->deadline_ns.load(std::memory_order_relaxed);
      if (dl != 0 && GovNowNs() >= dl) {
        ctl->Trip(QueryStatusCode::kDeadlineExceeded);
      }
    }
    if (ctl->Tripped()) {
      last_status_ = ctl->status();
      return storage::ResultTable();
    }
  }
  auto it = programs_.find(&fn);
  if (it == programs_.end() || it->second.fn_name != fn.name() ||
      it->second.num_stmts != fn.num_stmts()) {
    CachedProgram cached;
    cached.fn_name = fn.name();
    cached.num_stmts = fn.num_stmts();
    telemetry::ScopedSpan span("bytecode_compile", "compile");
    if (par_ != nullptr) cached.par = ir::AnalyzeParallelism(fn);
    cached.prog = BytecodeCompiler(db_).Compile(
        fn, par_ != nullptr ? &cached.par : nullptr);
    // Debug/sanitizer builds (and QC_VERIFY=1 anywhere) prove the
    // freshly-compiled program before it is ever executed or stitched; a
    // violation here is a BytecodeCompiler bug, so die loudly.
    if (analysis::VerifyEnabled()) {
      analysis::CheckProgram(cached.prog, fn.name());
    }
    it = programs_.insert_or_assign(&fn, std::move(cached)).first;
  }
  CachedProgram& cached = it->second;
  const bool use_jit = opts_.engine == InterpOptions::Engine::kJit;
  if (use_jit) {
    if (!cached.jit_compiled) {
      // Null on non-x86-64 builds, denied executable pages, or
      // QC_JIT_DISABLE: the engine degrades to the plain VM — with the
      // structured reason recorded and a one-time stderr notice (no more
      // invisible fallbacks).
      {
        telemetry::ScopedSpan span("jit_stitch", "compile");
        cached.jit = jit::JitProgram::Compile(cached.prog,
                                              &cached.jit_fallback);
      }
      if (cached.jit == nullptr) {
        telemetry::JitFallbacks().Inc();
        // One process-wide notice, race-free: concurrent first fallbacks
        // on different Interpreters log exactly once, and the logging
        // thread finishes before any other proceeds.
        static std::once_flag warned;
        std::call_once(warned, [&] {
          telemetry::Log(
              telemetry::LogLevel::kWarn, "jit_fallback",
              {{"reason", jit::JitFallbackName(cached.jit_fallback)},
               {"note",
                "degraded to bytecode VM; further fallbacks are silent — "
                "see Interpreter::last_jit_stats"}});
        });
      } else {
        telemetry::JitCompiles().Inc();
      }
      if (cached.jit != nullptr && par_ != nullptr) {
        // Native sort sites run big post-aggregation sorts on the pool.
        cached.jit->BindParallel(par_.get());
      }
      cached.jit_compiled = true;
    }
    vm_.SetJit(cached.jit.get());
  }
  const jit::JitProgram* jp = cached.jit.get();
  uint64_t deopts_before = jp != nullptr && use_jit ? jp->deopts() : 0;
  vm_.SetControl(ctl);
  storage::ResultTable result;
  {
    telemetry::ScopedSpan span("exec", "exec", "threads",
                               par_ != nullptr ? opts_.num_threads : 1);
    result = vm_.Run(cached.prog);
  }
  vm_.SetJit(nullptr);
  vm_.SetControl(nullptr);
  if (ctl != nullptr && ctl->Tripped()) {
    // Aborted at a safepoint: surface the structured status and drop the
    // partial rows. All engine state was already reset for this run and
    // is reset again by the next one — the Interpreter stays reusable.
    last_status_ = ctl->status();
    result = storage::ResultTable();
  }
  if (use_jit) {
    jit_stats_ = JitRunStats();
    jit_stats_.fallback_reason = static_cast<int>(cached.jit_fallback);
    if (jp != nullptr) {
      jit_stats_.jitted = true;
      jit_stats_.native_pcs = jp->num_native();
      jit_stats_.total_pcs = jp->total_pcs();
      jit_stats_.deopts = jp->deopts() - deopts_before;
      if (jit_stats_.deopts > 0) {
        telemetry::JitDeoptEvents().Add(jit_stats_.deopts);
      }
    }
    if (telemetry::LogEnabled(telemetry::LogLevel::kDebug)) {
      telemetry::Log(
          telemetry::LogLevel::kDebug, "jit_stats",
          {{"fn", fn.name()},
           {"coverage_pct", jit_stats_.CoveragePct()},
           {"native_pcs", jit_stats_.native_pcs},
           {"total_pcs", jit_stats_.total_pcs},
           {"deopts", static_cast<unsigned long long>(jit_stats_.deopts)},
           {"engine", jit_stats_.jitted ? "jit" : "vm_degraded"}});
    }
  }
  return result;
}

}  // namespace qc::exec
