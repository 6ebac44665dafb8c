// In-process copy-and-patch JIT backend for the bytecode VM.
//
// A JitProgram is the native companion of one BytecodeProgram: every
// instruction with a template (templates.h) gets stitched machine code and
// a per-pc entry offset; everything else deopts. Execution is a hybrid
// loop driven by BytecodeVM::Exec:
//
//   pc = 0
//   while pc != kRetPc:
//     if jit has native code at pc:   pc = jit.Run(regs, pc)    // native
//     else:                          pc = vm.interpret from pc  // until the
//                                    // next native entry (or kRet)
//
// The deopt protocol is symmetric and state-free: all VM state lives in
// the Slot register file (plus the shared runtime heaps), native code
// reads and writes exactly the same slots the interpreter does, so
// crossing the boundary in either direction — mid-loop, mid-expression,
// per instruction — needs no spilling or reconstruction beyond the pc.
// Exit stubs return the interpreter pc to resume at; kRetPc means the
// program (or subroutine/morsel fragment) executed its kRet.
//
// Morsel parallelism composes for free: worker threads run the same
// hybrid loop against their private MorselState register files — the
// native code is immutable and position-independent with respect to the
// register file (its base is the runtime argument). A JitProgram holds no
// run state (deopts count into the running RunState, sort sites find their
// pool in its GovState), so one image serves any number of concurrent runs.
#ifndef QC_JIT_ENGINE_H_
#define QC_JIT_ENGINE_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "exec/bytecode.h"
#include "jit/emitter.h"

namespace qc::exec::jit {

// Sentinel "pc" meaning the program/fragment returned (executed kRet).
constexpr uint32_t kRetPc = 0xFFFFFFFFu;

// Sentinel "pc" meaning a governance safepoint tripped (cancellation,
// deadline, memory budget — exec/governor.h): the query must unwind. Both
// the VM's fused back-edge checks and the JIT's abort thunk return it; the
// hybrid driver treats it like kRetPc and the engine surfaces the
// structured QueryStatus.
constexpr uint32_t kAbortPc = 0xFFFFFFFEu;

// True when JIT'd code can run here: x86-64 SysV build, executable pages
// grantable at runtime, and QC_JIT_DISABLE not set. The platform probe is
// cached; the environment knob is re-read so tests can flip it.
bool JitAvailable();

// Why a Compile() returned null — the silent-degradation paths, made
// visible (telemetry + one-time notice). Keep in sync with
// JitFallbackName().
enum class JitFallback : int {
  kNone = 0,                // it didn't: the program is JIT'd
  kDisabledByEnv = 1,       // QC_JIT_DISABLE set
  kPlatformUnsupported = 2, // not an x86-64 SysV build
  kExecPagesDenied = 3,     // mmap/mprotect refused executable pages
  kNothingTemplated = 4,    // no instruction of the program has a template
  kInstallFailed = 5,       // W^X install of the stitched code failed
  kAuditFailed = 6,         // stitch/W^X audit rejected the image
                            // (src/analysis/jit_audit.h; QC_VERIFY gating)
};

const char* JitFallbackName(JitFallback f);

// The reason JitAvailable() is currently false (kNone when it is true).
JitFallback JitUnavailableReason();

class JitProgram {
 public:
  // Stitches and installs native code for `prog`. Returns null — callers
  // degrade to the plain bytecode VM — when JIT is unavailable, nothing
  // was templated, or executable memory was refused. The program holds
  // raw pointers resolved from `prog` (columns, constants), so it is
  // valid exactly as long as `prog` and its database are. `why` (optional)
  // receives the structured fallback reason on null return.
  static std::unique_ptr<JitProgram> Compile(const BytecodeProgram& prog,
                                             JitFallback* why = nullptr);

  bool HasEntry(uint32_t pc) const { return entry_[pc] != kNoEntry; }

  // Enters native code at `pc` (which must have an entry) with the given
  // register file; returns the next interpreter pc, or kRetPc. Thread-safe:
  // all mutable state is behind `regs`.
  uint32_t Run(Slot* regs, uint32_t pc) const {
    return enter_(regs, buf_.base() + entry_[pc]);
  }

  // Introspection (tests, bench reporting).
  int num_native() const { return num_native_; }
  int total_pcs() const { return static_cast<int>(entry_.size()); }
  size_t code_bytes() const { return buf_.size(); }

  // Natively-stitched sort instructions (introspection/tests).
  size_t num_sort_sites() const { return sort_sites_.size(); }

 private:
  JitProgram() = default;

  using EnterFn = uint32_t (*)(Slot* regs, const void* target);

  CodeBuffer buf_;
  EnterFn enter_ = nullptr;
  std::vector<uint32_t> entry_;
  // Sort-site descriptors the stitched code points into (kSortSite);
  // their jp backlinks are patched in Compile once `this` exists.
  std::vector<JitSortSite> sort_sites_;
  int num_native_ = 0;
};

}  // namespace qc::exec::jit

#endif  // QC_JIT_ENGINE_H_
