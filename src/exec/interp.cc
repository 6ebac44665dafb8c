#include "exec/interp.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <mutex>

#include "analysis/bc_verify.h"
#include "telemetry/log.h"
#include "telemetry/metrics.h"
#include "telemetry/trace.h"

namespace qc::exec {

std::unique_ptr<const Program> Program::Build(storage::Database* db,
                                              const ir::Function& fn,
                                              std::string* error) {
  std::unique_ptr<Program> p(new Program());
  p->name_ = fn.name();
  telemetry::ScopedSpan span("bytecode_compile", "compile");
  p->par_ = ir::AnalyzeParallelism(fn);
  p->bc_ = BytecodeCompiler(db).Compile(fn, &p->par_);
  // Debug/sanitizer builds (and QC_VERIFY=1 anywhere) prove the program —
  // its morsel fragments included — before it is ever executed or stitched.
  analysis::VerifyResult vres;
  if (analysis::VerifyEnabled()) vres = analysis::VerifyProgram(p->bc_);
  if (vres.ok()) return p;
  std::string report = "plan failed bytecode verification: " + vres.Report();
  if (error == nullptr) {  // a trusted caller: the compiler is at fault
    std::fprintf(stderr, "%s: %s", fn.name().c_str(), report.c_str());
    std::abort();
  }
  *error = std::move(report);
  return nullptr;
}

const jit::JitProgram* Program::jit(jit::JitFallback* why) const {
  std::call_once(stitch_once_, [this] {
    // Null on non-x86-64 builds, denied executable pages, or
    // QC_JIT_DISABLE: the engine degrades to the plain VM — with the
    // structured reason recorded and a one-time stderr notice (no more
    // invisible fallbacks).
    {
      telemetry::ScopedSpan span("jit_stitch", "compile");
      jit_ = jit::JitProgram::Compile(bc_, &fallback_);
    }
    if (jit_ != nullptr) {
      telemetry::JitCompiles().Inc();
      return;
    }
    telemetry::JitFallbacks().Inc();
    // One process-wide notice, race-free: concurrent first fallbacks of
    // different programs log exactly once, and the logging thread finishes
    // before any other proceeds.
    static std::once_flag warned;
    std::call_once(warned, [&] {
      telemetry::Log(
          telemetry::LogLevel::kWarn, "jit_fallback",
          {{"reason", jit::JitFallbackName(fallback_)},
           {"note",
            "degraded to bytecode VM; further fallbacks are silent — "
            "see Interpreter::last_jit_stats"}});
    });
  });
  if (why != nullptr) *why = fallback_;
  return jit_.get();
}

storage::ResultTable Interpreter::Run(const ir::Function& fn) {
  auto& [num_stmts, prog] = programs_[&fn];
  if (prog == nullptr || prog->name() != fn.name() ||
      num_stmts != fn.num_stmts()) {
    prog = Program::Build(db_, fn, /*error=*/nullptr);
    num_stmts = fn.num_stmts();
  }
  return Run(*prog, opts_);
}

storage::ResultTable Interpreter::Run(const Program& prog,
                                      const InterpOptions& opts) {
  // Single-owner contract (see the class comment): Run() is not
  // re-entrant and must not race with itself from another thread — the
  // register file, runtime heaps and pool are all unsynchronized by
  // design. Catch violations loudly instead of corrupting state.
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
  ExecControl* ctl = opts.control;
  last_status_ = QueryStatus();
  if (ctl != nullptr) {
    ctl->BeginRun();
    // Pre-run poll: an already-cancelled or already-expired control never
    // starts executing (or even stitching) the query.
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
  const bool use_jit = opts.engine == InterpOptions::Engine::kJit;
  jit::JitFallback fallback = jit::JitFallback::kNone;
  const jit::JitProgram* jp = use_jit ? prog.jit(&fallback) : nullptr;
  const int threads = std::max(opts.num_threads, 1);
  if (threads > 1 && par_shape_ != std::make_pair(threads, opts.morsel_rows)) {
    par_.reset();  // joins the old workers before spawning new ones
    par_ = std::make_unique<parallel::Engine>(threads, opts.morsel_rows);
    par_shape_ = {threads, opts.morsel_rows};
  }
  storage::ResultTable result;
  {
    telemetry::ScopedSpan span("exec", "exec", "threads", threads);
    result = vm_.Run(prog.bytecode(), jp, ctl,
                     threads > 1 ? par_.get() : nullptr);
  }
  if (ctl != nullptr && ctl->Tripped()) {
    // Aborted at a safepoint: surface the structured status and drop the
    // partial rows. All engine state was already reset for this run and
    // is reset again by the next one — the Interpreter stays reusable.
    last_status_ = ctl->status();
    result = storage::ResultTable();
  }
  if (use_jit) {
    jit_stats_ = JitRunStats();
    jit_stats_.fallback_reason = static_cast<int>(fallback);
    if (jp != nullptr) {
      jit_stats_.jitted = true;
      jit_stats_.native_pcs = jp->num_native();
      jit_stats_.total_pcs = jp->total_pcs();
    }
    if (telemetry::LogEnabled(telemetry::LogLevel::kDebug)) {
      telemetry::Log(
          telemetry::LogLevel::kDebug, "jit_stats",
          {{"fn", prog.name()},
           {"coverage_pct", jit_stats_.CoveragePct()},
           {"native_pcs", jit_stats_.native_pcs},
           {"total_pcs", jit_stats_.total_pcs},
           {"engine", jit_stats_.jitted ? "jit" : "vm_degraded"}});
    }
  }
  return result;
}

}  // namespace qc::exec
