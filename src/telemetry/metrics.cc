#include "telemetry/metrics.h"

#include <cinttypes>
#include <cstdarg>
#include <cstdio>
#include <utility>

namespace qc {
namespace telemetry {

namespace {

// Escapes help text per the Prometheus exposition format: backslash and
// newline must be escaped in # HELP lines.
std::string EscapeHelp(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    if (c == '\\') {
      out += "\\\\";
    } else if (c == '\n') {
      out += "\\n";
    } else {
      out += c;
    }
  }
  return out;
}

void AppendF(std::string* out, const char* fmt, ...)
    __attribute__((format(printf, 2, 3)));

void AppendF(std::string* out, const char* fmt, ...) {
  char buf[256];
  va_list ap;
  va_start(ap, fmt);
  int n = vsnprintf(buf, sizeof(buf), fmt, ap);
  va_end(ap);
  if (n > 0) out->append(buf, static_cast<size_t>(n) < sizeof(buf)
                                  ? static_cast<size_t>(n)
                                  : sizeof(buf) - 1);
}

}  // namespace

unsigned Counter::ThisThreadShard() {
  static std::atomic<unsigned> next{0};
  thread_local unsigned mine =
      next.fetch_add(1, std::memory_order_relaxed) % kShards;
  return mine;
}

Histogram::Histogram(std::vector<double> bounds)
    : bounds_(std::move(bounds)), buckets_(bounds_.size() + 1) {
  for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
}

void Histogram::Observe(double v) {
  size_t i = 0;
  while (i < bounds_.size() && v > bounds_[i]) ++i;
  buckets_[i].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  double micro = v * 1e6;
  if (micro > 0) {
    sum_micro_.fetch_add(static_cast<uint64_t>(micro),
                         std::memory_order_relaxed);
  }
}

void Histogram::Read(std::vector<uint64_t>* buckets, uint64_t* count,
                     double* sum) const {
  buckets->resize(buckets_.size());
  for (size_t i = 0; i < buckets_.size(); ++i) {
    (*buckets)[i] = buckets_[i].load(std::memory_order_relaxed);
  }
  *count = count_.load(std::memory_order_relaxed);
  *sum = static_cast<double>(sum_micro_.load(std::memory_order_relaxed)) / 1e6;
}

struct MetricsRegistry::Entry {
  std::string name;
  std::string help;
  MetricKind kind;
  std::unique_ptr<Counter> counter;
  std::unique_ptr<Gauge> gauge;
  std::unique_ptr<Histogram> hist;
};

// Out of line so Entry is complete where the container members are
// instantiated (the header only forward-declares it).
MetricsRegistry::MetricsRegistry() = default;
MetricsRegistry::~MetricsRegistry() = default;

MetricsRegistry::Entry& MetricsRegistry::Add(const char* name,
                                             const char* help,
                                             MetricKind kind) {
  auto e = std::make_unique<Entry>();
  e->name = name;
  e->help = help;
  e->kind = kind;
  entries_.push_back(std::move(e));
  return *entries_.back();
}

Counter* MetricsRegistry::AddCounter(const char* name, const char* help) {
  std::lock_guard<std::mutex> lock(mu_);
  Entry& e = Add(name, help, MetricKind::kCounter);
  e.counter = std::make_unique<Counter>();
  return e.counter.get();
}

Gauge* MetricsRegistry::AddGauge(const char* name, const char* help) {
  std::lock_guard<std::mutex> lock(mu_);
  Entry& e = Add(name, help, MetricKind::kGauge);
  e.gauge = std::make_unique<Gauge>();
  return e.gauge.get();
}

Histogram* MetricsRegistry::AddHistogram(const char* name, const char* help,
                                         std::vector<double> bounds) {
  std::lock_guard<std::mutex> lock(mu_);
  Entry& e = Add(name, help, MetricKind::kHistogram);
  e.hist = std::make_unique<Histogram>(std::move(bounds));
  return e.hist.get();
}

MetricsSnapshot MetricsRegistry::Snapshot() const {
  MetricsSnapshot snap;
  std::lock_guard<std::mutex> lock(mu_);
  snap.samples.reserve(entries_.size());
  for (const auto& e : entries_) {
    MetricSample s;
    s.name = e->name;
    s.help = e->help;
    s.kind = e->kind;
    switch (e->kind) {
      case MetricKind::kCounter:
        s.counter = e->counter->load();
        break;
      case MetricKind::kGauge:
        s.gauge = e->gauge->load();
        break;
      case MetricKind::kHistogram:
        s.bounds = e->hist->bounds();
        e->hist->Read(&s.buckets, &s.count, &s.sum);
        break;
    }
    snap.samples.push_back(std::move(s));
  }
  return snap;
}

MetricsRegistry& MetricsRegistry::Global() {
  static MetricsRegistry* g = new MetricsRegistry();  // leaked: see header
  return *g;
}

std::string MetricsSnapshot::ToPrometheus() const {
  std::string out;
  for (const MetricSample& s : samples) {
    out += "# HELP " + s.name + " " + EscapeHelp(s.help) + "\n";
    switch (s.kind) {
      case MetricKind::kCounter:
        out += "# TYPE " + s.name + " counter\n";
        AppendF(&out, "%s %" PRIu64 "\n", s.name.c_str(), s.counter);
        break;
      case MetricKind::kGauge:
        out += "# TYPE " + s.name + " gauge\n";
        AppendF(&out, "%s %" PRId64 "\n", s.name.c_str(), s.gauge);
        break;
      case MetricKind::kHistogram: {
        out += "# TYPE " + s.name + " histogram\n";
        uint64_t cum = 0;
        for (size_t i = 0; i < s.bounds.size(); ++i) {
          cum += i < s.buckets.size() ? s.buckets[i] : 0;
          AppendF(&out, "%s_bucket{le=\"%g\"} %" PRIu64 "\n", s.name.c_str(),
                  s.bounds[i], cum);
        }
        AppendF(&out, "%s_bucket{le=\"+Inf\"} %" PRIu64 "\n", s.name.c_str(),
                s.count);
        AppendF(&out, "%s_sum %.6f\n", s.name.c_str(), s.sum);
        AppendF(&out, "%s_count %" PRIu64 "\n", s.name.c_str(), s.count);
        break;
      }
    }
  }
  return out;
}

namespace {
Counter& GlobalCounter(const char* name, const char* help) {
  return *MetricsRegistry::Global().AddCounter(name, help);
}
}  // namespace

Counter& JitCompiles() {
  static Counter& c = GlobalCounter(
      "qc_jit_compiles_total",
      "Query fragments successfully stitched to native code.");
  return c;
}

Counter& JitFallbacks() {
  static Counter& c = GlobalCounter(
      "qc_jit_fallbacks_total",
      "JIT compilation attempts that degraded to the bytecode VM.");
  return c;
}

Counter& GovSafepointTrips() {
  static Counter& c = GlobalCounter(
      "qc_gov_safepoint_trips_total",
      "Governance aborts (cancel/deadline/memory/fault) raised at "
      "safepoints, one per tripped run.");
  return c;
}

Counter& PlanCacheHits() {
  static Counter& c = GlobalCounter(
      "qc_plan_cache_hits_total",
      "Plan-cache lookups served from an already-compiled entry.");
  return c;
}

Counter& PlanCacheMisses() {
  static Counter& c = GlobalCounter(
      "qc_plan_cache_misses_total",
      "Plan-cache lookups that compiled a new (query, level) entry.");
  return c;
}

}  // namespace telemetry
}  // namespace qc
