// Query governance: cancellation, deadlines, and memory budgets for both
// engines (bytecode VM, copy-and-patch JIT).
//
// The design splits into two objects:
//
//   * ExecControl — the per-query handle the *caller* owns.  It carries the
//     cancellation flag, an absolute monotonic deadline, a gross-allocation
//     budget, and the sticky trip state (first trip wins, via CAS).  One
//     ExecControl can be observed concurrently by every worker thread of a
//     parallel query.
//
//   * GovState — one per execution context (the main context plus one per
//     morsel), binding an ExecControl to that context's AllocStats.  Loop
//     back-edges decrement a countdown; only every `interval`-th edge takes
//     the slow path (exec::ops::Safepoint), which publishes memory growth and
//     checks cancel/deadline/budget.  Ungoverned runs preset the countdown
//     to INT64_MAX so the slow path is unreachable and governance costs one
//     dec+branch per back edge.
//
// Unwinding is exception-free: a tripped query aborts at the next safepoint
// — the VM/JIT return the kAbortPc sentinel — and the interpreter surfaces
// a QueryStatus while leaving the WorkerPool, RecordHeaps and programs
// reusable.
#ifndef QC_EXEC_GOVERNOR_H_
#define QC_EXEC_GOVERNOR_H_

#include <atomic>
#include <cstdint>

#include "exec/runtime.h"

namespace qc::exec {

namespace parallel {
struct Engine;  // exec/parallel.h
}

enum class QueryStatusCode : int {
  kOk = 0,
  kCancelled = 1,         // ExecControl::RequestCancel()
  kDeadlineExceeded = 2,  // monotonic clock passed deadline_ns
  kMemoryBudget = 3,      // observed gross allocation passed the budget
  kResourceFailure = 4,   // runtime resource failure (allocation, spawn)
};

const char* QueryStatusName(QueryStatusCode code);

struct QueryStatus {
  QueryStatusCode code = QueryStatusCode::kOk;
  bool ok() const { return code == QueryStatusCode::kOk; }
  const char* name() const { return QueryStatusName(code); }
};

// Monotonic now, in nanoseconds (steady clock).
int64_t GovNowNs();

// Per-query control block.  Thread-safe: one writer (the controlling
// thread) plus any number of polling workers.
struct ExecControl {
  // Absolute monotonic deadline (GovNowNs scale); 0 = no deadline.
  std::atomic<int64_t> deadline_ns{0};
  // Gross-allocation budget in bytes (see src/exec/README.md for what is
  // counted); 0 = unlimited.
  int64_t memory_budget_bytes = 0;

  std::atomic<bool> cancel{false};
  // Gross allocation observed at safepoints during the current run.
  std::atomic<int64_t> mem_observed{0};
  // Sticky first-trip-wins status for the current run (QueryStatusCode).
  std::atomic<int> tripped{0};

  void RequestCancel() { cancel.store(true, std::memory_order_relaxed); }
  void SetDeadlineAfterNs(int64_t ns) {
    deadline_ns.store(GovNowNs() + ns, std::memory_order_relaxed);
  }
  void ClearDeadline() { deadline_ns.store(0, std::memory_order_relaxed); }

  // First trip wins and sticks for the rest of the run.  Returns true if
  // this call recorded the trip.
  bool Trip(QueryStatusCode code) {
    int expected = 0;
    return tripped.compare_exchange_strong(expected, static_cast<int>(code),
                                           std::memory_order_acq_rel);
  }
  bool Tripped() const {
    return tripped.load(std::memory_order_acquire) != 0;
  }
  QueryStatus status() const {
    return QueryStatus{
        static_cast<QueryStatusCode>(tripped.load(std::memory_order_acquire))};
  }

  // Called by the interpreter at the start of each run: clears the per-run
  // observation state but keeps cancel/deadline/budget, so a control
  // cancelled before the run trips immediately at the pre-run poll.
  void BeginRun() {
    tripped.store(0, std::memory_order_relaxed);
    mem_observed.store(0, std::memory_order_relaxed);
  }
  // Full reset: also clears cancel/deadline/budget (tests reuse controls).
  void Reset() {
    BeginRun();
    cancel.store(false, std::memory_order_relaxed);
    deadline_ns.store(0, std::memory_order_relaxed);
    memory_budget_bytes = 0;
  }
};

// Per-execution-context governance state, one per RunState.  The bytecode
// VM and JIT keep the countdown in a reserved register slot
// (BytecodeProgram::gov_cnt_reg) and reach this struct through the
// RunState* in the adjacent slot (state_reg).
struct GovState {
  ExecControl* ctl = nullptr;
  // The pool kParLoop fans its morsels out onto, set by RunState::Bind:
  // null for morsels and at threads = 1.
  parallel::Engine* par = nullptr;
  const AllocStats* stats = nullptr;
  // Memory already published to ctl->mem_observed from `stats`.  Only the
  // thread running this context touches it (every context, sorts
  // included, runs on one thread); ExecControl is what threads share.
  int64_t published = 0;
  int64_t interval = 1;  // safepoint interval (QC_GOV_INTERVAL)
  // Cached "this query is dead" flag so aborted contexts (notably sort
  // comparators) stop without re-polling.
  bool abort_flag = false;

  // Binds this context to a control (nullptr = ungoverned) and the stats
  // block whose growth it publishes.  Clears the abort latch.
  void Attach(ExecControl* c, const AllocStats* s);

  bool aborted() const { return abort_flag; }

  // Countdown preset for register-file contexts: `interval` when governed,
  // INT64_MAX when not (slow path unreachable).
  int64_t InitialCountdown() const {
    return ctl != nullptr ? interval : INT64_MAX;
  }

  // Slow path shared by every engine: publishes memory growth, checks
  // cancel/deadline/budget, returns the trip code (0 = keep running) and
  // latches abort_flag on trip.
  int64_t Poll();

  // Cancel/deadline-only poll (no memory publish): for sort comparators,
  // whose context publishes its memory at its own safepoints.  Returns the
  // trip code and latches abort_flag like Poll().
  int64_t PollNoMem();

  // Records a resource failure (allocation/spawn fault) against the
  // attached control, if any.  Safe on ungoverned state (no-op).
  void TripResource();
};

// Decorates a sort comparator with an abort check: once the query trips,
// Less() returns false without running the inner comparator, so an
// in-flight StableSortSlots drains in linear time (it stays memory-safe
// under any comparator — the output is merely some permutation, which the
// aborted query never observes).  Polls the control every `interval`
// comparisons but never publishes memory (PollNoMem).
class GovernedCmp : public SlotCmp {
 public:
  GovernedCmp(SlotCmp& inner, GovState* gov)
      : inner_(inner), gov_(gov), countdown_(gov != nullptr ? gov->interval : 0) {}

  bool Less(Slot a, Slot b) override {
    if (gov_ != nullptr && gov_->ctl != nullptr) {
      if (gov_->aborted()) return false;
      if (--countdown_ <= 0) {
        int64_t trip = gov_->PollNoMem();
        countdown_ = (trip != 0) ? 1 : gov_->interval;
        if (trip != 0) return false;
      }
    }
    return inner_.Less(a, b);
  }

 private:
  SlotCmp& inner_;
  GovState* gov_;
  int64_t countdown_;
};

}  // namespace qc::exec

#endif  // QC_EXEC_GOVERNOR_H_
