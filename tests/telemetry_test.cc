// Telemetry subsystem (src/telemetry/): metrics registry (sharded counter
// correctness under concurrency, histogram bucketing, Prometheus exposition
// + escaping, JSON byte-format), structured logging (LogFormat quoting,
// QC_LOG threshold), and tracing (Chrome trace-event JSON schema validated
// with a real recursive-descent parser over a real TPC-H query at 1 and 4
// threads, per-thread ring wrap under QC_TRACE_BUF).
//
// Determinism guard: the same query run traced and untraced must produce
// bit-identical results — telemetry reads timing, never influences
// execution.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "compiler/compiler.h"
#include "exec/interp.h"
#include "scoped_env.h"
#include "telemetry/log.h"
#include "telemetry/metrics.h"
#include "telemetry/trace.h"
#include "tpch/datagen.h"
#include "tpch/queries.h"

namespace qc {
namespace {

using compiler::QueryCompiler;
using compiler::StackConfig;
using exec::InterpOptions;

// ---------------------------------------------------------------------------
// Minimal recursive-descent JSON validator: enough of RFC 8259 to reject
// malformed output (unbalanced braces, bad escapes, trailing commas). The
// trace exporter must produce JSON that a real parser accepts, not JSON
// that happens to grep well.
// ---------------------------------------------------------------------------

struct JsonParser {
  const char* p;
  const char* end;
  bool ok = true;

  explicit JsonParser(const std::string& s)
      : p(s.data()), end(s.data() + s.size()) {}

  void Skip() {
    while (p < end && (*p == ' ' || *p == '\t' || *p == '\n' || *p == '\r'))
      ++p;
  }
  bool Eat(char c) {
    Skip();
    if (p < end && *p == c) {
      ++p;
      return true;
    }
    return false;
  }
  bool ParseString() {
    Skip();
    if (p >= end || *p != '"') return false;
    ++p;
    while (p < end && *p != '"') {
      if (*p == '\\') {
        ++p;
        if (p >= end) return false;
        if (*p == 'u') {
          for (int i = 0; i < 4; ++i) {
            ++p;
            if (p >= end || !isxdigit(static_cast<unsigned char>(*p)))
              return false;
          }
        } else if (std::string("\"\\/bfnrt").find(*p) == std::string::npos) {
          return false;
        }
      }
      ++p;
    }
    if (p >= end) return false;
    ++p;  // closing quote
    return true;
  }
  bool ParseNumber() {
    Skip();
    const char* start = p;
    if (p < end && *p == '-') ++p;
    while (p < end && isdigit(static_cast<unsigned char>(*p))) ++p;
    if (p < end && *p == '.') {
      ++p;
      while (p < end && isdigit(static_cast<unsigned char>(*p))) ++p;
    }
    if (p < end && (*p == 'e' || *p == 'E')) {
      ++p;
      if (p < end && (*p == '+' || *p == '-')) ++p;
      while (p < end && isdigit(static_cast<unsigned char>(*p))) ++p;
    }
    return p > start;
  }
  bool ParseValue() {
    Skip();
    if (p >= end) return false;
    switch (*p) {
      case '{': return ParseObject();
      case '[': return ParseArray();
      case '"': return ParseString();
      case 't': return Literal("true");
      case 'f': return Literal("false");
      case 'n': return Literal("null");
      default: return ParseNumber();
    }
  }
  bool Literal(const char* lit) {
    for (; *lit != '\0'; ++lit, ++p) {
      if (p >= end || *p != *lit) return false;
    }
    return true;
  }
  bool ParseObject() {
    if (!Eat('{')) return false;
    if (Eat('}')) return true;
    for (;;) {
      if (!ParseString() || !Eat(':') || !ParseValue()) return false;
      if (Eat('}')) return true;
      if (!Eat(',')) return false;
    }
  }
  bool ParseArray() {
    if (!Eat('[')) return false;
    if (Eat(']')) return true;
    for (;;) {
      if (!ParseValue()) return false;
      if (Eat(']')) return true;
      if (!Eat(',')) return false;
    }
  }
  bool ValidDocument() {
    bool v = ParseValue();
    Skip();
    return v && p == end;
  }
};

size_t CountOccurrences(const std::string& hay, const std::string& needle) {
  size_t n = 0;
  for (size_t at = hay.find(needle); at != std::string::npos;
       at = hay.find(needle, at + needle.size())) {
    ++n;
  }
  return n;
}

// ---------------------------------------------------------------------------
// Metrics registry.
// ---------------------------------------------------------------------------

TEST(Metrics, CounterConcurrentAdds) {
  telemetry::MetricsRegistry reg;
  telemetry::Counter* c = reg.AddCounter("t_total", "t");
  constexpr int kThreads = 8;
  constexpr int kPerThread = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([c] {
      for (int i = 0; i < kPerThread; ++i) c->Inc();
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(c->load(), static_cast<uint64_t>(kThreads) * kPerThread);
}

TEST(Metrics, HistogramBucketsAndCumulativeRendering) {
  telemetry::MetricsRegistry reg;
  telemetry::Histogram* h = reg.AddHistogram("qc_ms", "h.", {1, 5, 25});
  h->Observe(0.5);
  h->Observe(3);
  h->Observe(10);
  h->Observe(100);
  h->Observe(1);  // boundary: le="1" is inclusive

  std::vector<uint64_t> buckets;
  uint64_t count = 0;
  double sum = 0;
  h->Read(&buckets, &count, &sum);
  ASSERT_EQ(buckets.size(), 4u);  // 3 bounds + infinity
  EXPECT_EQ(buckets[0], 2u);
  EXPECT_EQ(buckets[1], 1u);
  EXPECT_EQ(buckets[2], 1u);
  EXPECT_EQ(buckets[3], 1u);
  EXPECT_EQ(count, 5u);
  EXPECT_NEAR(sum, 114.5, 1e-6);

  std::string prom = reg.Snapshot().ToPrometheus();
  EXPECT_NE(prom.find("# TYPE qc_ms histogram"), std::string::npos);
  EXPECT_NE(prom.find("qc_ms_bucket{le=\"1\"} 2"), std::string::npos);
  EXPECT_NE(prom.find("qc_ms_bucket{le=\"5\"} 3"), std::string::npos);
  EXPECT_NE(prom.find("qc_ms_bucket{le=\"25\"} 4"), std::string::npos);
  EXPECT_NE(prom.find("qc_ms_bucket{le=\"+Inf\"} 5"), std::string::npos);
  EXPECT_NE(prom.find("qc_ms_count 5"), std::string::npos);
}

TEST(Metrics, HistogramConcurrentObserves) {
  telemetry::MetricsRegistry reg;
  telemetry::Histogram* h = reg.AddHistogram("qc_c_ms", "h.", {10});
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([h] {
      for (int i = 0; i < 1000; ++i) h->Observe(i % 2 == 0 ? 1.0 : 100.0);
    });
  }
  for (auto& t : threads) t.join();
  std::vector<uint64_t> buckets;
  uint64_t count = 0;
  double sum = 0;
  h->Read(&buckets, &count, &sum);
  EXPECT_EQ(count, 4000u);
  EXPECT_EQ(buckets[0], 2000u);
  EXPECT_EQ(buckets[1], 2000u);
}

TEST(Metrics, PrometheusTypesAndHelpEscaping) {
  telemetry::MetricsRegistry reg;
  telemetry::Counter* c =
      reg.AddCounter("qc_esc_total", "line1\nline2 with \\ backslash");
  telemetry::Gauge* g = reg.AddGauge("qc_esc_gauge", "g.");
  c->Add(7);
  g->Set(-3);
  std::string prom = reg.Snapshot().ToPrometheus();
  EXPECT_NE(
      prom.find("# HELP qc_esc_total line1\\nline2 with \\\\ backslash\n"),
      std::string::npos);
  EXPECT_NE(prom.find("# TYPE qc_esc_total counter"), std::string::npos);
  EXPECT_NE(prom.find("qc_esc_total 7\n"), std::string::npos);
  EXPECT_NE(prom.find("# TYPE qc_esc_gauge gauge"), std::string::npos);
  EXPECT_NE(prom.find("qc_esc_gauge -3\n"), std::string::npos);
}

TEST(Metrics, GlobalEngineCountersRegistered) {
  // Touching the accessors must register the families exactly once and
  // make them visible in the global exposition.
  telemetry::JitCompiles();
  telemetry::GovSafepointTrips();
  telemetry::PlanCacheHits();
  std::string prom = telemetry::MetricsRegistry::Global().Snapshot()
                         .ToPrometheus();
  EXPECT_EQ(CountOccurrences(prom, "# TYPE qc_jit_compiles_total counter"),
            1u);
  EXPECT_NE(prom.find("qc_gov_safepoint_trips_total"), std::string::npos);
  EXPECT_NE(prom.find("qc_plan_cache_hits_total"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Structured logging.
// ---------------------------------------------------------------------------

TEST(Log, FormatPlainAndTyped) {
  std::string line = telemetry::LogFormat(
      telemetry::LogLevel::kWarn, "jit_fallback",
      {{"reason", "exec_pages_denied"}, {"count", 3}, {"pct", 12.5}});
  EXPECT_EQ(line,
            "level=warn event=jit_fallback reason=exec_pages_denied "
            "count=3 pct=12.5");
}

TEST(Log, FormatQuotesAndEscapes) {
  std::string line = telemetry::LogFormat(
      telemetry::LogLevel::kInfo, "note",
      {{"msg", "has spaces"}, {"q", "a\"b"}, {"eq", "k=v"}, {"nl", "a\nb"}});
  EXPECT_EQ(line,
            "level=info event=note msg=\"has spaces\" q=\"a\\\"b\" "
            "eq=\"k=v\" nl=\"a\\nb\"");
}

TEST(Log, ThresholdFromEnv) {
  ScopedEnv log("QC_LOG", "error");
  EXPECT_EQ(telemetry::LogThreshold(), 0);
  EXPECT_TRUE(telemetry::LogEnabled(telemetry::LogLevel::kError));
  EXPECT_FALSE(telemetry::LogEnabled(telemetry::LogLevel::kInfo));
  log.Set("3");
  EXPECT_EQ(telemetry::LogThreshold(), 3);
  EXPECT_TRUE(telemetry::LogEnabled(telemetry::LogLevel::kDebug));
  log.Set("bogus");
  EXPECT_EQ(telemetry::LogThreshold(), 2);  // default info
  log.Unset();
  EXPECT_EQ(telemetry::LogThreshold(), 2);
}

// ---------------------------------------------------------------------------
// Tracing.
// ---------------------------------------------------------------------------

TEST(Trace, NoSessionMeansNoRecording) {
  EXPECT_EQ(telemetry::CurrentTraceSession(), 0u);
  // Recording into session 0 is a no-op, and an unknown session yields a
  // valid empty trace.
  telemetry::TraceRecord(0, "ignored", "t", 0, 1);
  std::string json = telemetry::TraceEndSession(99999999);
  JsonParser parser(json);
  EXPECT_TRUE(parser.ValidDocument()) << json;
  EXPECT_NE(json.find("\"traceEvents\":[]"), std::string::npos);
}

TEST(Trace, ScopeBindsAndRestores) {
  uint64_t s = telemetry::TraceBeginSession();
  {
    telemetry::TraceScope scope(s);
    EXPECT_EQ(telemetry::CurrentTraceSession(), s);
    {
      telemetry::TraceScope inner(0);  // no-op binder
      EXPECT_EQ(telemetry::CurrentTraceSession(), s);
    }
    EXPECT_EQ(telemetry::CurrentTraceSession(), s);
  }
  EXPECT_EQ(telemetry::CurrentTraceSession(), 0u);
  telemetry::TraceEndSession(s);
}

TEST(Trace, EventsRoundTripWithArgs) {
  uint64_t s = telemetry::TraceBeginSession();
  telemetry::TraceRecord(s, "alpha", "test", 1000, 500, "rows", 42);
  telemetry::TraceRecord(s, "beta", "test", 2000, 250, "a", 1, "b", 2);
  std::string json = telemetry::TraceEndSession(s);
  JsonParser parser(json);
  ASSERT_TRUE(parser.ValidDocument()) << json;
  EXPECT_EQ(CountOccurrences(json, "\"name\":\"alpha\""), 1u);
  EXPECT_EQ(CountOccurrences(json, "\"name\":\"beta\""), 1u);
  EXPECT_NE(json.find("\"args\":{\"rows\":42}"), std::string::npos);
  EXPECT_NE(json.find("\"args\":{\"a\":1,\"b\":2}"), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  // Ending the session drained the events: a second drain is empty.
  std::string again = telemetry::TraceEndSession(s);
  EXPECT_NE(again.find("\"traceEvents\":[]"), std::string::npos);
}

TEST(Trace, RingWrapDropsOldest) {
  // A fresh thread allocates its ring under QC_TRACE_BUF=64, records 100
  // events into one session, and only the newest 64 survive the wrap.
  uint64_t s = telemetry::TraceBeginSession();
  {
    ScopedEnv buf("QC_TRACE_BUF", "64");
    std::thread recorder([s] {
      for (int i = 0; i < 100; ++i) {
        telemetry::TraceRecord(s, "wrap_ev", "test", 1000 + i, 1, "i", i);
      }
    });
    recorder.join();
  }
  std::string json = telemetry::TraceEndSession(s);
  JsonParser parser(json);
  ASSERT_TRUE(parser.ValidDocument()) << json;
  EXPECT_EQ(CountOccurrences(json, "\"name\":\"wrap_ev\""), 64u);
  // Oldest dropped, newest kept.
  EXPECT_EQ(json.find("\"i\":35}"), std::string::npos);
  EXPECT_NE(json.find("\"i\":99}"), std::string::npos);
}

// ---------------------------------------------------------------------------
// End-to-end: a real TPC-H query through the JIT engine with tracing on.
// ---------------------------------------------------------------------------

storage::Database* Db() {
  static storage::Database* db =
      new storage::Database(tpch::MakeTpchDatabase(0.01));
  return db;
}

struct CompiledQuery {
  ir::TypeFactory types;
  compiler::CompileResult res;
};

CompiledQuery* CompileLevel(int q, int level = 5) {
  auto* h = new CompiledQuery();
  qplan::PlanPtr plan = tpch::MakeQuery(q);
  qplan::ResolvePlan(plan.get(), *Db());
  QueryCompiler qc(Db(), &h->types);
  h->res =
      qc.Compile(*plan, StackConfig::Level(level), "q" + std::to_string(q));
  return h;
}

const ir::Function& Q1() {
  static CompiledQuery* c = CompileLevel(1);
  return *c->res.fn;
}

std::string TraceQ1(int threads, storage::ResultTable* out) {
  InterpOptions o;
  o.engine = InterpOptions::Engine::kJit;
  o.num_threads = threads;
  o.morsel_rows = 256;  // SF 0.01 lineitem in enough morsels to slice
  exec::Interpreter interp(Db(), o);
  uint64_t s = telemetry::TraceBeginSession();
  {
    telemetry::TraceScope scope(s);
    *out = interp.Run(Q1());
  }
  return telemetry::TraceEndSession(s);
}

TEST(TraceEndToEnd, TpchQ1ProducesLoadableChromeTrace) {
  for (int threads : {1, 4}) {
    storage::ResultTable result;
    std::string json = TraceQ1(threads, &result);
    SCOPED_TRACE("threads=" + std::to_string(threads));
    JsonParser parser(json);
    ASSERT_TRUE(parser.ValidDocument()) << json.substr(0, 400);
    EXPECT_NE(json.find("\"displayTimeUnit\":\"ms\""), std::string::npos);
    // Compile-phase spans appear on the first (cold) run of each thread
    // count... but the program cache is per-Interpreter and each loop
    // iteration builds a fresh one, so both runs see bytecode_compile.
    EXPECT_GE(CountOccurrences(json, "\"name\":\"bytecode_compile\""), 1u);
    EXPECT_GE(CountOccurrences(json, "\"name\":\"exec\""), 1u);
    if (threads > 1) {
      // Morsel-level slices from the parallel scan loops.
      EXPECT_GE(CountOccurrences(json, "\"name\":\"morsel\""), 2u);
      EXPECT_GE(CountOccurrences(json, "\"name\":\"par_loop\""), 1u);
    }
    EXPECT_GT(result.size(), 0u);
  }
}

TEST(TraceEndToEnd, TracedRunIsBitExact) {
  InterpOptions o;
  o.engine = InterpOptions::Engine::kJit;
  o.num_threads = 4;
  o.morsel_rows = 256;
  exec::Interpreter plain(Db(), o);
  storage::ResultTable want = plain.Run(Q1());

  storage::ResultTable got;
  TraceQ1(4, &got);
  ASSERT_EQ(got.size(), want.size());
  for (size_t r = 0; r < got.size(); ++r) {
    EXPECT_EQ(got.RowToString(r), want.RowToString(r)) << "row " << r;
  }
}

// The integer arg `key` of one trace event's JSON text, or -1.
int64_t EventArg(const std::string& event, const std::string& key) {
  size_t at = event.find("\"" + key + "\":");
  if (at == std::string::npos) return -1;
  return std::strtoll(event.c_str() + at + key.size() + 3, nullptr, 10);
}

// The par_loop span's `touched` arg is the merge-work ruler: array slots
// folded, plus map entries and multimap keys merged by hash part. Pinned
// for one map loop (Q10's lineitem aggregation by customer at level 5:
// every morsel's entries) and one multimap loop (Q9's partsupp build at
// level 3, where the MultiMap keyed by ps_partkey stays generic: each
// 256-row morsel holds 64 whole keys of 4 rows), at SF 0.01, 4 threads and
// 256-row morsels. The counts follow from the morsel size alone, not from
// the scheduling.
TEST(TraceEndToEnd, ParLoopTouchedCountsHashPartMerges) {
  struct Case {
    int q;
    int level;
    int64_t rows;     // the loop's row count, which identifies it
    int64_t touched;  // its map entries or multimap keys merged
  };
  for (const Case& c : {Case{10, 5, 60148, 526}, Case{9, 3, 8000, 2000}}) {
    std::unique_ptr<CompiledQuery> compiled(CompileLevel(c.q, c.level));
    const ir::Function& fn = *compiled->res.fn;
    InterpOptions o;
    o.engine = InterpOptions::Engine::kJit;
    o.num_threads = 4;
    o.morsel_rows = 256;
    exec::Interpreter interp(Db(), o);
    uint64_t s = telemetry::TraceBeginSession();
    {
      telemetry::TraceScope scope(s);
      interp.Run(fn);
    }
    std::string json = telemetry::TraceEndSession(s);
    int64_t touched = -1;
    const std::string kName = "\"name\":\"par_loop\"";
    for (size_t at = json.find(kName); at != std::string::npos;
         at = json.find(kName, at + 1)) {
      std::string event = json.substr(at, json.find('}', at) - at);
      if (EventArg(event, "rows") == c.rows) {
        EXPECT_EQ(touched, -1) << "Q" << c.q << ": two loops of "
                               << c.rows << " rows";
        touched = EventArg(event, "touched");
      }
    }
    EXPECT_EQ(touched, c.touched) << "Q" << c.q;
  }
}

// A loop shorter than two morsel_rows morsels per thread gets morsels sized
// by its rows and threads. At SF 0.01 and the default morsel_rows of 16384,
// both of Q13's 1,500-row loops run in parallel as three morsels of at most
// max(512, 1500 / (2 x 4)) = 512 rows: the customer loop (an index probe
// over each customer's orders), whose merge folds one group per customer,
// and the loop over its groups that counts customers per order count.
TEST(TraceEndToEnd, ShortLoopMorselsSizedByRowsAndThreads) {
  std::unique_ptr<CompiledQuery> compiled(CompileLevel(13));
  InterpOptions o;
  o.engine = InterpOptions::Engine::kJit;
  o.num_threads = 4;
  exec::Interpreter interp(Db(), o);
  uint64_t s = telemetry::TraceBeginSession();
  {
    telemetry::TraceScope scope(s);
    interp.Run(*compiled->res.fn);
  }
  std::string json = telemetry::TraceEndSession(s);
  std::vector<int64_t> loop_rows, touched, morsel_rows;
  for (const char* name : {"par_loop", "morsel"}) {
    const std::string key = std::string("\"name\":\"") + name + "\"";
    for (size_t at = json.find(key); at != std::string::npos;
         at = json.find(key, at + 1)) {
      std::string event = json.substr(at, json.find('}', at) - at);
      if (std::string(name) == "morsel") {
        morsel_rows.push_back(EventArg(event, "rows"));
      } else {
        loop_rows.push_back(EventArg(event, "rows"));
        touched.push_back(EventArg(event, "touched"));
      }
    }
  }
  EXPECT_EQ(loop_rows, (std::vector<int64_t>{1500, 1500}));
  EXPECT_EQ(touched, (std::vector<int64_t>{1500, 68}));
  std::sort(morsel_rows.begin(), morsel_rows.end());
  EXPECT_EQ(morsel_rows,
            (std::vector<int64_t>{476, 476, 512, 512, 512, 512}));
}

// QC_LOG=debug is what turns on the per-run jit_stats record.
TEST(LogEndToEnd, DebugLevelLogsJitStats) {
  InterpOptions o;
  o.engine = InterpOptions::Engine::kJit;
  exec::Interpreter interp(Db(), o);
  ScopedEnv log("QC_LOG", "debug");
  ::testing::internal::CaptureStderr();
  interp.Run(Q1());
  std::string err = ::testing::internal::GetCapturedStderr();
  EXPECT_NE(err.find("level=debug event=jit_stats fn=q1 coverage_pct="),
            std::string::npos)
      << err;
  log.Set("info");
  ::testing::internal::CaptureStderr();
  interp.Run(Q1());
  err = ::testing::internal::GetCapturedStderr();
  EXPECT_EQ(err.find("event=jit_stats"), std::string::npos) << err;
}

}  // namespace
}  // namespace qc
