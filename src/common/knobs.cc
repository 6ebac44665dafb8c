#include "common/knobs.h"

#include <strings.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "telemetry/log.h"

extern char** environ;

namespace qc {

namespace {

#define QC_KNOB_SPEC(id, name, kind, def, lo, hi, doc) \
  {name, KnobKind::kind, def, lo, hi, doc},
constexpr KnobSpec kKnobs[] = {QC_KNOB_LIST(QC_KNOB_SPEC)};
#undef QC_KNOB_SPEC

constexpr char kSpace[] = " \t\n\r";

// Logs each QC_* variable the table does not list, once per process. The
// exchange turns the logger's own QC_LOG read, which re-enters here from
// the Log call below, into a no-op.
void ReportUnknownOnce() {
  static std::atomic<bool> scanned{false};
  if (scanned.load(std::memory_order_relaxed) || scanned.exchange(true)) {
    return;
  }
  for (char** e = environ; e != nullptr && *e != nullptr; ++e) {
    if (std::strncmp(*e, "QC_", 3) != 0) continue;
    std::string name(*e, std::strcspn(*e, "="));
    if (std::none_of(std::begin(kKnobs), std::end(kKnobs),
                     [&](const KnobSpec& s) { return name == s.name; })) {
      telemetry::Log(telemetry::LogLevel::kWarn, "knob_unknown",
                     {{"name", name}});
    }
  }
}

void WarnInvalid(Knob k, const char* value) {
  static std::atomic<bool> warned[kNumKnobs] = {};
  if (warned[static_cast<int>(k)].exchange(true)) return;
  telemetry::Log(telemetry::LogLevel::kWarn, "knob_invalid",
                 {{"name", KnobInfo(k).name}, {"value", value}});
}

// Parses the token at `p`, which ends at `stop` or at the end of the
// value: a flag spelling (0 or 1), a whole integer, or a finite double.
bool ParseToken(KnobKind kind, const char* p, char stop, double* out) {
  if (kind == KnobKind::kFlag) {
    std::string w(p + std::strspn(p, kSpace));
    w.erase(w.find_last_not_of(kSpace) + 1);
    const char* kWords[] = {"0", "false", "off", "no",  // off, then on
                            "1", "true",  "on",  "yes"};
    for (int i = 0; i < 8; ++i) {
      if (strcasecmp(w.c_str(), kWords[i]) == 0) {
        *out = i / 4;
        return true;
      }
    }
    return false;
  }
  char* end = nullptr;
  *out = kind == KnobKind::kDouble
             ? std::strtod(p, &end)
             : static_cast<double>(std::strtoll(p, &end, 10));
  if (end == p || !std::isfinite(*out)) return false;
  end += std::strspn(end, kSpace);
  return *end == '\0' || *end == stop;
}

// The effective values of a non-string knob under the rules in knobs.h
// (one per kept list token, else one); `def` replaces the table default.
std::vector<double> Values(Knob k, double def) {
  const KnobSpec& s = KnobInfo(k);
  const bool list = s.kind == KnobKind::kIntList;
  const char* v = KnobStr(k);
  std::vector<double> out;
  bool bad = false;
  for (const char* p = v; p != nullptr && *p != '\0';) {
    double x = 0;
    bool ok = ParseToken(s.kind, p, list ? ',' : '\0', &x);
    if (ok && s.kind == KnobKind::kInt) {
      double clamped = std::clamp(x, s.lo, s.hi);
      bad |= clamped != x;
      x = clamped;
    } else if (ok && s.kind != KnobKind::kFlag) {
      ok = (list ? x >= s.lo : x > s.lo) && x <= s.hi;
    }
    if (ok) out.push_back(x);
    bad |= !ok;
    if (!list) break;
    p += std::strcspn(p, ",");  // on to the next token
    if (*p == ',') ++p;
  }
  if (bad) WarnInvalid(k, v);
  if (out.empty()) out.push_back(def);
  return out;
}

}  // namespace

const KnobSpec& KnobInfo(Knob k) { return kKnobs[static_cast<int>(k)]; }

const char* KnobStr(Knob k) {
  ReportUnknownOnce();
  const char* v = std::getenv(KnobInfo(k).name);
  return v != nullptr && v[0] != '\0' ? v : nullptr;
}

bool KnobFlag(Knob k) { return Values(k, KnobInfo(k).def)[0] != 0; }

long long KnobInt(Knob k) {
  return static_cast<long long>(Values(k, KnobInfo(k).def)[0]);
}

double KnobDouble(Knob k) { return Values(k, KnobInfo(k).def)[0]; }

double KnobDouble(Knob k, double def) { return Values(k, def)[0]; }

std::vector<long long> KnobIntList(Knob k) {
  std::vector<double> xs = Values(k, KnobInfo(k).def);
  return std::vector<long long>(xs.begin(), xs.end());
}

std::string KnobText(Knob k) {
  if (KnobInfo(k).kind == KnobKind::kString) {
    const char* v = KnobStr(k);
    return v != nullptr ? v : "";
  }
  std::string out;
  for (double x : Values(k, KnobInfo(k).def)) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), ",%.15g", x);
    out += buf;
  }
  return out.substr(1);
}

}  // namespace qc
