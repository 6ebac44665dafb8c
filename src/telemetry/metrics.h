// Telemetry metrics registry: lock-free counters/gauges/histograms with
// named registration, snapshotted into Prometheus text exposition format.
//
// Design constraints (see src/telemetry/README.md):
//   - Update paths are wait-free: a counter bump is one relaxed fetch_add
//     on a cache-line-private shard; a histogram observe is two.
//   - Instrumentation reads timing, never influences execution: nothing
//     here allocates or takes a lock on the update path, so the engines'
//     bit-exact results and AllocStats accounting are untouched.
//   - Registration happens once at startup (registry construction takes a
//     mutex); Snapshot() is read-only and safe concurrent with updates.
#ifndef QC_TELEMETRY_METRICS_H_
#define QC_TELEMETRY_METRICS_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace qc {
namespace telemetry {

// Monotonic counter, sharded to keep concurrent bumpers off each other's
// cache lines. load() sums the shards (monotone but not a point-in-time
// linearization — fine for monitoring).
class Counter {
 public:
  Counter() = default;
  Counter(const Counter&) = delete;
  Counter& operator=(const Counter&) = delete;

  void Inc() { Add(1); }
  void Add(uint64_t n) {
    shards_[ThisThreadShard()].v.fetch_add(n, std::memory_order_relaxed);
  }
  uint64_t load(std::memory_order order = std::memory_order_relaxed) const {
    uint64_t total = 0;
    for (const Shard& s : shards_) total += s.v.load(order);
    return total;
  }

 private:
  static constexpr int kShards = 8;
  struct alignas(64) Shard {
    std::atomic<uint64_t> v{0};
  };
  static unsigned ThisThreadShard();
  Shard shards_[kShards];
};

// Signed gauge. Exposes the std::atomic CAS surface so call sites that
// previously held a raw std::atomic<int> (the server's downshift ladder)
// keep their transition semantics unchanged.
class Gauge {
 public:
  Gauge() = default;
  Gauge(const Gauge&) = delete;
  Gauge& operator=(const Gauge&) = delete;

  int64_t load(std::memory_order order = std::memory_order_relaxed) const {
    return v_.load(order);
  }
  void store(int64_t v, std::memory_order order = std::memory_order_relaxed) {
    v_.store(v, order);
  }
  void Set(int64_t v) { store(v); }
  void Add(int64_t d) { v_.fetch_add(d, std::memory_order_relaxed); }
  bool compare_exchange_strong(
      int64_t& expected, int64_t desired,
      std::memory_order order = std::memory_order_relaxed) {
    return v_.compare_exchange_strong(expected, desired, order);
  }
  bool compare_exchange_weak(
      int64_t& expected, int64_t desired,
      std::memory_order order = std::memory_order_relaxed) {
    return v_.compare_exchange_weak(expected, desired, order);
  }

 private:
  std::atomic<int64_t> v_{0};
};

// Fixed-bucket latency histogram. `bounds` are ascending inclusive upper
// bounds; an implicit +Inf bucket catches the rest. The sum is kept in
// integer micro-units (value * 1e6) because C++17 has no atomic<double>
// fetch_add; at millisecond-scale observations that is nanosecond
// resolution with ~570 years to overflow.
class Histogram {
 public:
  explicit Histogram(std::vector<double> bounds);
  Histogram(const Histogram&) = delete;
  Histogram& operator=(const Histogram&) = delete;

  void Observe(double v);

  const std::vector<double>& bounds() const { return bounds_; }
  // Reads per-bucket (non-cumulative) counts, total count, and sum.
  void Read(std::vector<uint64_t>* buckets, uint64_t* count,
            double* sum) const;

 private:
  std::vector<double> bounds_;
  std::vector<std::atomic<uint64_t>> buckets_;  // bounds_.size() + 1 (+Inf)
  std::atomic<uint64_t> count_{0};
  std::atomic<uint64_t> sum_micro_{0};
};

enum class MetricKind { kCounter, kGauge, kHistogram };

// One metric's point-in-time value inside a snapshot.
struct MetricSample {
  std::string name;  // Prometheus family name
  std::string help;
  MetricKind kind = MetricKind::kCounter;
  uint64_t counter = 0;
  int64_t gauge = 0;
  std::vector<double> bounds;     // histogram upper bounds
  std::vector<uint64_t> buckets;  // per-bucket counts (non-cumulative)
  uint64_t count = 0;             // histogram total observations
  double sum = 0;                 // histogram sum
};

// Registration-ordered snapshot of every sample.
struct MetricsSnapshot {
  std::vector<MetricSample> samples;

  // Prometheus text exposition format (# HELP / # TYPE, cumulative
  // le-buckets + _sum/_count for histograms, escaped help text).
  std::string ToPrometheus() const;
};

// Named registration in insertion order. The registry owns the metric
// objects; Add* returns stable pointers valid for the registry's lifetime.
class MetricsRegistry {
 public:
  MetricsRegistry();
  ~MetricsRegistry();
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  Counter* AddCounter(const char* name, const char* help);
  Gauge* AddGauge(const char* name, const char* help);
  Histogram* AddHistogram(const char* name, const char* help,
                          std::vector<double> bounds);

  MetricsSnapshot Snapshot() const;

  // Process-wide registry for engine-layer metrics (JIT, governor, plan
  // cache). Intentionally leaked so counters stay valid through static
  // destruction.
  static MetricsRegistry& Global();

 private:
  struct Entry;
  // Appends one entry; the calling Add* holds mu_ and fills in the metric.
  Entry& Add(const char* name, const char* help, MetricKind kind);

  mutable std::mutex mu_;
  std::vector<std::unique_ptr<Entry>> entries_;
};

// Process-wide engine-layer counters, registered in Global() on first use.
Counter& JitCompiles();        // qc_jit_compiles_total
Counter& JitFallbacks();       // qc_jit_fallbacks_total
Counter& JitDeoptEvents();     // qc_jit_deopt_events_total
Counter& GovSafepointTrips();  // qc_gov_safepoint_trips_total
Counter& PlanCacheHits();      // qc_plan_cache_hits_total
Counter& PlanCacheMisses();    // qc_plan_cache_misses_total

}  // namespace telemetry
}  // namespace qc

#endif  // QC_TELEMETRY_METRICS_H_
