// Shared parsing of environment knobs. Every QC_* on/off flag
// (QC_JIT_DISABLE, QC_BENCH_INTERP_ONLY, QC_SERVE_NO_JIT, ...) uses the
// same rule: set to anything non-empty other than "0…" means on — so the
// knobs can never silently diverge between call sites. Integer-valued knobs
// (QC_JIT_STATS, the morsel- and sort-sizing knobs) go through
// EnvInt/EnvIntClamped for the same reason: one strtoll, one
// unset/empty/garbage rule everywhere.
//
// Hardening rules (every call site inherits them):
//   * garbage ("abc", "12abc", empty) never parses — the default wins;
//   * out-of-range scalar values (zero or negative where a positive count
//     is required, absurdly large values) are clamped, never used raw — a
//     divisor knob can never reach a division by zero and a thread-count
//     knob can never wrap a signed type;
//   * list knobs (EnvIntList) drop invalid or out-of-range tokens instead
//     of clamping them — a bogus entry in "1,2,bogus" should not silently
//     become a different workload — and fall back to the default when
//     nothing valid remains.
#ifndef QC_COMMON_ENV_H_
#define QC_COMMON_ENV_H_

#include <cmath>
#include <cstdlib>
#include <vector>

namespace qc {

inline bool EnvFlagSet(const char* name) {
  const char* v = std::getenv(name);
  return v != nullptr && v[0] != '\0' && v[0] != '0';
}

// Strict whole-value integer parse: leading/trailing whitespace is fine
// (values often arrive from YAML blocks or command substitutions with a
// stray newline), anything else after the number ("12abc") rejects the
// whole value. Shared by every integer knob below.
inline bool EnvParseInt(const char* v, long long* out) {
  char* end = nullptr;
  long long parsed = std::strtoll(v, &end, 10);
  if (end == v) return false;
  while (*end == ' ' || *end == '\t' || *end == '\n' || *end == '\r') ++end;
  if (*end != '\0') return false;
  *out = parsed;
  return true;
}

// The same whole-value rule for a finite floating-point value ("0.01",
// " 1e-2\n"; "abc", "", "0.1x" and "inf" reject). Backs QC_BENCH_SF
// (bench/bench_util.h).
inline bool EnvParseDouble(const char* v, double* out) {
  char* end = nullptr;
  double parsed = std::strtod(v, &end);
  if (end == v || !std::isfinite(parsed)) return false;
  while (*end == ' ' || *end == '\t' || *end == '\n' || *end == '\r') ++end;
  if (*end != '\0') return false;
  *out = parsed;
  return true;
}

// Integer knob: unset, empty, non-numeric, or trailing-garbage values
// ("12abc") return `def`. A plain flag value like "1" reads as 1, so
// boolean-style usage stays compatible.
inline long long EnvInt(const char* name, long long def) {
  const char* v = std::getenv(name);
  if (v == nullptr || v[0] == '\0') return def;
  long long parsed = 0;
  return EnvParseInt(v, &parsed) ? parsed : def;
}

// Integer knob with a validity range: parse failures fall back to `def`,
// parsed values are clamped into [lo, hi]. The clamp is what makes knobs
// like QC_PAR_SORT_MIN=0 or QC_GOV_INTERVAL=-1 safe at every call site
// without per-site guards.
inline long long EnvIntClamped(const char* name, long long def, long long lo,
                               long long hi) {
  long long v = EnvInt(name, def);
  if (v < lo) return lo;
  if (v > hi) return hi;
  return v;
}

// Comma-separated integer-list knob (QC_BENCH_THREADS="1,2,4"). Tokens
// that fail to parse or fall outside [lo, hi] are dropped; an empty result
// yields {def}. Strict per-token parsing: "-1" and "2x" are rejected
// rather than silently misread.
inline std::vector<long long> EnvIntList(const char* name, long long def,
                                         long long lo, long long hi) {
  std::vector<long long> out;
  const char* v = std::getenv(name);
  if (v != nullptr && v[0] != '\0') {
    const char* p = v;
    while (*p != '\0') {
      char* end = nullptr;
      long long parsed = std::strtoll(p, &end, 10);
      bool progressed = end != p;
      const char* q = end;
      while (*q == ' ' || *q == '\t' || *q == '\n' || *q == '\r') ++q;
      bool ok = progressed && (*q == ',' || *q == '\0');
      if (ok && parsed >= lo && parsed <= hi) out.push_back(parsed);
      if (!progressed) {  // no progress: skip to the next separator
        while (*p != '\0' && *p != ',') ++p;
      } else {
        p = q;
        while (*p != '\0' && *p != ',') ++p;  // discard the bad tail
      }
      if (*p == ',') ++p;
    }
  }
  if (out.empty()) out.push_back(def);
  return out;
}

// Level knob (QC_JIT_STATS): unset/empty is 0, a non-negative number is
// that level, and any other non-empty value follows the flag rule above
// and reads as level 1 — so "QC_JIT_STATS=true" behaves like every other
// QC_* flag. Negative levels clamp to 0.
inline long long EnvLevel(const char* name) {
  const char* v = std::getenv(name);
  if (v == nullptr || v[0] == '\0') return 0;
  long long parsed = 0;
  if (!EnvParseInt(v, &parsed)) return EnvFlagSet(name) ? 1 : 0;
  return parsed < 0 ? 0 : parsed;
}

}  // namespace qc

#endif  // QC_COMMON_ENV_H_
