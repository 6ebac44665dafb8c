#include "common/fault.h"

#include <cstdlib>
#include <cstring>
#include <mutex>
#include <string>
#include <vector>

#include "common/knobs.h"

namespace qc {

std::atomic<bool> qc_fault_armed{false};

namespace {

struct FaultSite {
  std::string name;
  long nth = 0;    // fire on this occurrence (1-based)
  long seen = 0;   // occurrences so far
};

std::mutex g_mu;
std::vector<FaultSite> g_sites;

// Parses "site:nth[,site:nth...]".  Malformed entries are skipped.
void ParseLocked(const char* spec) {
  g_sites.clear();
  if (spec == nullptr) return;
  const char* p = spec;
  while (*p != '\0') {
    const char* end = std::strchr(p, ',');
    if (end == nullptr) end = p + std::strlen(p);
    const char* colon = static_cast<const char*>(std::memchr(p, ':', end - p));
    if (colon != nullptr && colon > p) {
      FaultSite s;
      s.name.assign(p, colon - p);
      s.nth = std::strtol(colon + 1, nullptr, 10);
      if (s.nth >= 1) g_sites.push_back(std::move(s));
    }
    p = (*end == ',') ? end + 1 : end;
  }
}

// Parse QC_FAULT once at load time so FaultPoint() works without any
// explicit init call.
const bool g_boot = [] {
  FaultReArm();
  return true;
}();

}  // namespace

bool FaultShouldFireSlow(const char* site) {
  std::lock_guard<std::mutex> lock(g_mu);
  for (FaultSite& s : g_sites) {
    if (s.name == site) {
      ++s.seen;
      return s.seen == s.nth;
    }
  }
  return false;
}

void FaultReArm() {
  std::lock_guard<std::mutex> lock(g_mu);
  ParseLocked(KnobStr(Knob::kFault));
  qc_fault_armed.store(!g_sites.empty(), std::memory_order_relaxed);
}

}  // namespace qc
