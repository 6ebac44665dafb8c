// The one table of QC_* environment knobs: QC_KNOB_LIST has one row per
// knob and generates the id enum and the parse table; knobs.cc is the only
// reader of the environment. Values are read at call time. Unset or empty
// means the default. Flags take 1/true/on/yes or 0/false/off/no (any case);
// numbers must parse whole ("12abc" keeps the default), whitespace aside.
// Ints clamp into [lo, hi], list tokens outside it are dropped (none left:
// {default}), doubles outside (lo, hi] keep the default. Rejected or
// clamped input logs `knob_invalid` once per knob; the first read logs
// each unlisted QC_* name as `knob_unknown`.
#ifndef QC_COMMON_KNOBS_H_
#define QC_COMMON_KNOBS_H_

#include <string>
#include <vector>

namespace qc {

enum class KnobKind { kFlag, kInt, kDouble, kIntList, kString };

// Verification (src/analysis/) is on by default outside Release builds.
#if !defined(NDEBUG) || defined(QC_SANITIZER_BUILD)
#define QC_KNOB_VERIFY_DEFAULT 1
#else
#define QC_KNOB_VERIFY_DEFAULT 0
#endif

// X(id, name, kind, default, lo, hi, doc). Flags and strings ignore the
// range; QC_LOG and QC_FAULT parse their own grammar from the raw string.
#define QC_KNOB_LIST(X)                                                                                    \
  X(kJitDisable, "QC_JIT_DISABLE", kFlag, 0, 0, 1, "run the bytecode VM instead of the JIT")               \
  X(kGovInterval, "QC_GOV_INTERVAL", kInt, 4096, 1, 1 << 30, "loop back edges between governor polls")     \
  X(kVerify, "QC_VERIFY", kFlag, QC_KNOB_VERIFY_DEFAULT, 0, 1, "verify bytecode and JIT images")           \
  X(kFault, "QC_FAULT", kString, 0, 0, 0, "fault injection: site:nth[,site:nth...]")                       \
  X(kCcCacheDir, "QC_CC_CACHE_DIR", kString, 0, 0, 0, "generated-C binary cache directory")                \
  X(kLog, "QC_LOG", kString, 0, 0, 0, "error|warn|info|debug or 0..3 (default info)")                      \
  X(kTrace, "QC_TRACE", kString, 0, 0, 0, "trace the process into this file at exit")                      \
  X(kTraceBuf, "QC_TRACE_BUF", kInt, 8192, 64, 1 << 22, "trace ring capacity per thread, in events")       \
  X(kServeSf, "QC_SERVE_SF", kDouble, 0.01, 0, 1, "TPC-H scale factor qc_serve generates")                 \
  X(kServePort, "QC_SERVE_PORT", kInt, 7117, 0, 65535, "listen port (0 = ephemeral)")                      \
  X(kServeWorkers, "QC_SERVE_WORKERS", kInt, 2, 1, 256, "worker threads (= concurrent queries)")           \
  X(kServeThreads, "QC_SERVE_THREADS", kInt, 1, 1, 256, "morsel threads per query (downshiftable)")        \
  X(kServeQueueCap, "QC_SERVE_QUEUE_CAP", kInt, 64, 1, 1 << 20, "admission queue bound")                   \
  X(kServeMaxDeadlineMs, "QC_SERVE_MAX_DEADLINE_MS", kInt, 10000, 1, 86400000, "run deadline cap+default") \
  X(kServeQueueMs, "QC_SERVE_QUEUE_MS", kInt, 1000, 1, 86400000, "queue-wait deadline cap+default")        \
  X(kServeMaxMemMb, "QC_SERVE_MAX_MEM_MB", kInt, 256, 1, 1 << 20, "memory budget cap+default")             \
  X(kServeDrainMs, "QC_SERVE_DRAIN_MS", kInt, 2000, 1, 600000, "drain grace before cancelling")            \
  X(kServeDebug, "QC_SERVE_DEBUG", kFlag, 0, 0, 1, "enable /debug/block (tests, chaos CI)")                \
  X(kServeClientQps, "QC_SERVE_CLIENT_QPS", kInt, 0, 0, 1000000, "per-client admissions/s (0 = off)")      \
  X(kServeClientInflight, "QC_SERVE_CLIENT_INFLIGHT", kInt, 0, 0, 1 << 20, "per-client running cap")       \
  X(kServeClientQueue, "QC_SERVE_CLIENT_QUEUE", kInt, 0, 0, 1 << 20, "per-client queue bound")             \
  X(kServeIdleMs, "QC_SERVE_IDLE_MS", kInt, 60000, 0, 86400000, "idle keep-alive eviction (0 = off)")      \
  X(kServeIoMs, "QC_SERVE_IO_MS", kInt, 10000, 0, 86400000, "stalled-I/O eviction (0 = off)")              \
  X(kServePipeline, "QC_SERVE_PIPELINE", kInt, 16, 1, 1 << 20, "pipelined requests per connection")        \
  X(kServeMaxConns, "QC_SERVE_MAX_CONNS", kInt, 1024, 1, 1 << 20, "global connection ceiling")             \
  X(kBenchSf, "QC_BENCH_SF", kDouble, 0.05, 0, HUGE_VAL, "bench scale factor (serve_latency: 0.01)")       \
  X(kBenchInterpOnly, "QC_BENCH_INTERP_ONLY", kFlag, 0, 0, 1, "skip the generated-C columns")              \
  X(kBenchThreads, "QC_BENCH_THREADS", kIntList, 1, 1, 1024, "bench thread counts, one row each")          \
  X(kBenchGitSha, "QC_BENCH_GIT_SHA", kString, 0, 0, 0, "result stamp, read by perfbench/")

#define QC_KNOB_ENUM(id, name, kind, def, lo, hi, doc) id,
enum class Knob : int { QC_KNOB_LIST(QC_KNOB_ENUM) kNumKnobs };
#undef QC_KNOB_ENUM
inline constexpr int kNumKnobs = static_cast<int>(Knob::kNumKnobs);

// One row of the table; int bounds are exact (all below 2^53).
struct KnobSpec {
  const char* name;
  KnobKind kind;
  double def, lo, hi;
  const char* doc;
};
const KnobSpec& KnobInfo(Knob k);

bool KnobFlag(Knob k);
long long KnobInt(Knob k);
double KnobDouble(Knob k);
double KnobDouble(Knob k, double def);  // `def` replaces the table default
std::vector<long long> KnobIntList(Knob k);
const char* KnobStr(Knob k);   // raw value; nullptr when unset or empty
std::string KnobText(Knob k);  // effective value, as logged

}  // namespace qc

#endif  // QC_COMMON_KNOBS_H_
