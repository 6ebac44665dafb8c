#include "jit/engine.h"

#include <cstdio>
#include <cstdlib>
#include <mutex>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/mman.h>
#endif

#include "analysis/jit_audit.h"
#include "common/knobs.h"
#include "jit/templates.h"

// The backend emits x86-64 SysV machine code and enters it through a
// plain function-pointer call; both are gated here. Everything else in
// src/jit/ is portable C++ (it only fills byte vectors).
#if defined(__x86_64__) && (defined(__unix__) || defined(__APPLE__))
#define QC_JIT_SUPPORTED 1
#else
#define QC_JIT_SUPPORTED 0
#endif

namespace qc::exec::jit {

namespace {

#if QC_JIT_SUPPORTED
// Can this process map and then execute a page? Sandboxes and hardened
// kernels may refuse PROT_EXEC; probe once instead of failing later.
bool ExecPagesGrantable() {
  static const bool ok = [] {
    void* p = ::mmap(nullptr, 4096, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (p == MAP_FAILED) return false;
    bool exec_ok = ::mprotect(p, 4096, PROT_READ | PROT_EXEC) == 0;
    ::munmap(p, 4096);
    return exec_ok;
  }();
  return ok;
}
#endif

}  // namespace

bool JitAvailable() {
#if QC_JIT_SUPPORTED
  if (KnobFlag(Knob::kJitDisable)) return false;
  return ExecPagesGrantable();
#else
  return false;
#endif
}

const char* JitFallbackName(JitFallback f) {
  switch (f) {
    case JitFallback::kNone: return "none";
    case JitFallback::kDisabledByEnv: return "disabled_by_env";
    case JitFallback::kPlatformUnsupported: return "platform_unsupported";
    case JitFallback::kExecPagesDenied: return "exec_pages_denied";
    case JitFallback::kLayoutUnsupported: return "layout_unsupported";
    case JitFallback::kInstallFailed: return "install_failed";
    case JitFallback::kAuditFailed: return "audit_failed";
  }
  return "unknown";
}

JitFallback JitUnavailableReason() {
#if QC_JIT_SUPPORTED
  if (KnobFlag(Knob::kJitDisable)) return JitFallback::kDisabledByEnv;
  return ExecPagesGrantable() ? JitFallback::kNone
                              : JitFallback::kExecPagesDenied;
#else
  return JitFallback::kPlatformUnsupported;
#endif
}

std::unique_ptr<JitProgram> JitProgram::Compile(const BytecodeProgram& prog,
                                                JitFallback* why) {
  JitFallback local = JitFallback::kNone;
  JitFallback& reason = why != nullptr ? *why : local;
  reason = JitFallback::kNone;
  if (!JitAvailable()) {
    reason = JitUnavailableReason();
    return nullptr;
  }
  if (!RuntimeLayoutUsable()) {
    reason = JitFallback::kLayoutUnsupported;
    return nullptr;
  }
  StitchResult stitched = StitchProgram(prog);
  if (analysis::VerifyEnabled()) {
    // Template-table shape is process-wide; audit it once, loudly — a bad
    // template poisons every program it is ever stitched into.
    static std::once_flag template_audit_once;
    std::call_once(template_audit_once, [] {
      analysis::VerifyResult tres = analysis::AuditTemplates();
      if (!tres.ok()) {
        std::fprintf(stderr, "jit template audit: %zu violation(s):\n%s",
                     tres.violations.size(), tres.Report().c_str());
        std::abort();
      }
    });
    // Per-program image audit, before any byte becomes executable.
    analysis::VerifyResult ares = analysis::AuditStitch(prog, stitched);
    if (!ares.ok()) {
      std::fprintf(stderr, "jit stitch audit: %zu violation(s):\n%s",
                   ares.violations.size(), ares.Report().c_str());
      reason = JitFallback::kAuditFailed;
      return nullptr;
    }
  }
  std::unique_ptr<JitProgram> jp(new JitProgram());
  if (!jp->buf_.Install(stitched.code)) {  // W^X refused
    reason = JitFallback::kInstallFailed;
    return nullptr;
  }
  if (analysis::VerifyEnabled()) {
    analysis::VerifyResult wres =
        analysis::AuditWx(jp->buf_.base(), jp->buf_.size());
    if (!wres.ok()) {
      std::fprintf(stderr, "jit w^x audit:\n%s", wres.Report().c_str());
      reason = JitFallback::kAuditFailed;
      return nullptr;
    }
  }
  jp->enter_ = reinterpret_cast<EnterFn>(
      reinterpret_cast<uintptr_t>(jp->buf_.base()));
  jp->entry_ = std::move(stitched.entry);
  // Element addresses survive the vector moves, so the imm64 patches the
  // installed code carries stay valid.
  jp->sort_sites_ = std::move(stitched.sort_sites);
  for (JitSortSite& s : jp->sort_sites_) s.jp = jp.get();
  jp->num_native_ = stitched.num_native;
  return jp;
}

}  // namespace qc::exec::jit
