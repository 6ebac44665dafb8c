// The benchmark gates that live in the binary measuring them: the overhead
// pairs of table3_tpch and the load, shed, fairness and p95 checks of
// serve_latency. Every input comes from the same run, so no artifact sits
// between a measurement and its verdict. Each binary prints every check
// and exits 1 when one fails; bench_gate_test pins the verdicts on fixed
// cells. The thresholds are constants, not knobs.
#ifndef QC_BENCH_GATES_H_
#define QC_BENCH_GATES_H_

#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <string>
#include <vector>

namespace qc::bench {

// One verdict: whether it passed, and one line giving the measured value
// and its bound.
struct Check {
  bool ok;
  std::string line;
};

// printf into a string; every line below fits the buffer.
__attribute__((format(printf, 1, 2))) inline std::string Fmt(const char* fmt,
                                                             ...) {
  char buf[256];
  va_list ap;
  va_start(ap, fmt);
  std::vsnprintf(buf, sizeof(buf), fmt, ap);
  va_end(ap);
  return buf;
}

// Overhead pairs: the geomean over rows of instrumented / base time may
// exceed 1 by at most kPairOverhead. Base cells faster than kPairFloorMs
// are left out: at timer resolution their ratio is noise.
inline constexpr double kPairOverhead = 0.02;
inline constexpr double kPairFloorMs = 0.1;

// The two back-to-back cells of one pair on one row.
struct PairCell {
  double base_ms;
  double ms;
};

inline Check PairCheck(const std::string& name,
                       const std::vector<PairCell>& cells) {
  double log_sum = 0;
  int n = 0;
  for (const PairCell& c : cells) {
    if (c.base_ms < kPairFloorMs || c.ms <= 0) continue;
    log_sum += std::log(c.ms / c.base_ms);
    ++n;
  }
  if (n == 0) {
    return {true, Fmt("notice: every %s-base cell is under %gms; overhead "
                      "not measurable at this scale factor",
                      name.c_str(), kPairFloorMs)};
  }
  const double pct = (std::exp(log_sum / n) - 1.0) * 100.0;
  return {pct <= kPairOverhead * 100.0,
          Fmt("overhead %s/%s-base: geomean %+.2f%% over %d cells "
              "(allowance +%.0f%%)",
              name.c_str(), name.c_str(), pct, n, kPairOverhead * 100.0)};
}

// The unfaulted daemon run. Shed requests stay within kServeShedRate. The
// light tenant's p95 stays within kFairLightFactor x the heavy tenant's
// p95 plus kFairSlackMs: light converging on heavy means FIFO-style
// starvation. Served p95 stays within the p95 of the same request mix run
// directly on one warm interpreter, times the requests a served one can
// queue behind (clients per worker), times kServeP95Factor, plus
// kServeP95SlackMs: what is left is the server's own overhead.
inline constexpr double kServeShedRate = 0.01;
inline constexpr double kFairLightFactor = 0.75;
inline constexpr double kFairSlackMs = 5.0;
inline constexpr double kServeP95Factor = 1.5;
inline constexpr double kServeP95SlackMs = 1.0;

struct ServeCells {
  long long ok;
  double shed_rate;
  double p95_ms;
  double direct_p95_ms;
  double clients_per_worker;
  long long fair_light_ok;
  double fair_light_p95_ms;
  double fair_heavy_p95_ms;
};

inline std::vector<Check> ServeChecks(const ServeCells& c) {
  const double fair_bound =
      c.fair_heavy_p95_ms * kFairLightFactor + kFairSlackMs;
  const double p95_bound =
      c.direct_p95_ms * c.clients_per_worker * kServeP95Factor +
      kServeP95SlackMs;
  return {
      {c.ok > 0, Fmt("serve ok requests: %lld (at least 1)", c.ok)},
      {c.shed_rate <= kServeShedRate,
       Fmt("serve shed rate: %.4f (allowance %.4f)", c.shed_rate,
           kServeShedRate)},
      {c.fair_light_ok > 0,
       Fmt("serve fairness light-tenant ok probes: %lld (at least 1)",
           c.fair_light_ok)},
      {c.fair_light_p95_ms <= fair_bound,
       Fmt("serve fairness: light p95 %.3fms vs heavy p95 %.3fms (bound "
           "%gx heavy + %gms = %.3fms)",
           c.fair_light_p95_ms, c.fair_heavy_p95_ms, kFairLightFactor,
           kFairSlackMs, fair_bound)},
      {c.p95_ms <= p95_bound,
       Fmt("serve p95: %.3fms vs direct p95 %.3fms (bound x%g x%g + %gms = "
           "%.3fms)",
           c.p95_ms, c.direct_p95_ms, c.clients_per_worker, kServeP95Factor,
           kServeP95SlackMs, p95_bound)},
  };
}

// Prints every check, failed ones marked FAIL; true when all passed.
inline bool Report(const std::vector<Check>& checks) {
  bool ok = true;
  for (const Check& c : checks) {
    std::printf("%s %s\n", c.ok ? "ok  " : "FAIL", c.line.c_str());
    ok &= c.ok;
  }
  return ok;
}

}  // namespace qc::bench

#endif  // QC_BENCH_GATES_H_
