#include "exec/governor.h"

#include <chrono>

#include "common/knobs.h"
#include "common/fault.h"
#include "telemetry/metrics.h"

namespace qc::exec {

const char* QueryStatusName(QueryStatusCode code) {
  switch (code) {
    case QueryStatusCode::kOk:
      return "ok";
    case QueryStatusCode::kCancelled:
      return "cancelled";
    case QueryStatusCode::kDeadlineExceeded:
      return "deadline_exceeded";
    case QueryStatusCode::kMemoryBudget:
      return "memory_budget";
    case QueryStatusCode::kResourceFailure:
      return "resource_failure";
  }
  return "unknown";
}

int64_t GovNowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void GovState::Attach(ExecControl* c, const AllocStats* s) {
  ctl = c;
  stats = s;
  // Read per Attach (not cached in a static) so tests can flip the env var
  // between queries within one process.
  interval = KnobInt(Knob::kGovInterval);
  // Budget accounting is growth-relative: only allocation after Attach
  // counts against this query (stats blocks hold lifetime totals).
  published = s != nullptr ? static_cast<int64_t>(s->TotalBytes()) : 0;
  abort_flag = false;
}

namespace {

// Shared trip detection: checks the sticky state, then cancel, deadline and
// (optionally) the memory budget.  Returns the current trip code.
int64_t CheckControl(GovState* g, bool publish_mem) {
  ExecControl* ctl = g->ctl;
  int trip = ctl->tripped.load(std::memory_order_acquire);
  if (trip == 0) {
    if (ctl->cancel.load(std::memory_order_relaxed)) {
      ctl->Trip(QueryStatusCode::kCancelled);
    } else {
      int64_t dl = ctl->deadline_ns.load(std::memory_order_relaxed);
      if (dl != 0 && GovNowNs() >= dl) {
        ctl->Trip(QueryStatusCode::kDeadlineExceeded);
      } else if (publish_mem && g->stats != nullptr) {
        int64_t cur = static_cast<int64_t>(g->stats->TotalBytes());
        int64_t delta = cur - g->published;
        g->published = cur;
        int64_t seen =
            ctl->mem_observed.fetch_add(delta, std::memory_order_relaxed) +
            delta;
        if (ctl->memory_budget_bytes > 0 && seen > ctl->memory_budget_bytes) {
          ctl->Trip(QueryStatusCode::kMemoryBudget);
        }
      }
    }
    // Deterministic trip for boundary tests: QC_FAULT=gov_trip:<n> cancels
    // the query on exactly the n-th safepoint poll process-wide.
    if (FaultPoint("gov_trip")) ctl->Trip(QueryStatusCode::kCancelled);
    trip = ctl->tripped.load(std::memory_order_acquire);
  }
  // Count one safepoint trip per GovState on the false→true transition —
  // cold path only: once the latch is set, later trips never count.
  if (trip != 0 && !g->abort_flag) {
    g->abort_flag = true;
    telemetry::GovSafepointTrips().Inc();
  }
  return trip;
}

}  // namespace

int64_t GovState::Poll() {
  if (ctl == nullptr) return 0;
  return CheckControl(this, /*publish_mem=*/true);
}

int64_t GovState::PollNoMem() {
  if (ctl == nullptr) return 0;
  return CheckControl(this, /*publish_mem=*/false);
}

void GovState::TripResource() {
  if (ctl == nullptr) return;
  ctl->Trip(QueryStatusCode::kResourceFailure);
  if (!abort_flag) {
    abort_flag = true;
    telemetry::GovSafepointTrips().Inc();
  }
}

}  // namespace qc::exec
