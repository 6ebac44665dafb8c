// qc_bench: the benchmark of this repository (README.md next to this file).
//
//   qc_bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//            [--out-dir <dir>]
//
// Runs one workload in this process. Inputs come from --seed only: the
// TPC-H database (tpch::MakeTpchDatabase) and the query order. Every result
// is checked: each query's first result against the Volcano oracle, every
// later result against that first result's rendering. The last stdout line
// is the result object {"correct", "attempted", "failed", "metrics"}; with
// --trace 0 it carries the end-to-end metrics, with --trace 1 the per-layer
// ones. A full record with run metadata and per-query rows goes to
// <out-dir>/records/, and with --trace 1 the spans go to <out-dir>/spans/,
// written once at exit.
//
// Layers are timed from outside, around their public entry points:
// QueryCompiler::Compile (and its phase_ms), Interpreter::Run,
// BytecodeCompiler::Compile, and cgen::EmitProgram + CcDriver. Traced ops
// add bench-side spans and collect the spans the library already records
// through the public trace API.
//
// A speed probe (probe.h) runs before and after every set-up and between
// passes of the timed phase. The end-to-end times are scaled to the probe's
// reference speed, each by the probes that bracket it; the raw times are in
// the record.
#include <malloc.h>
#include <sys/resource.h>
#include <unistd.h>
#if defined(__x86_64__)
#include <cpuid.h>
#endif

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <deque>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "cgen/cc_driver.h"
#include "cgen/emit.h"
#include "common/hash.h"
#include "common/rng.h"
#include "common/timer.h"
#include "compiler/compiler.h"
#include "exec/bytecode.h"
#include "exec/interp.h"
#include "probe.h"
#include "server/protocol.h"
#include "spans.h"
#include "telemetry/trace.h"
#include "tpch/datagen.h"
#include "tpch/queries.h"
#include "volcano/volcano.h"

namespace qc::perfbench {
namespace {

constexpr int kQueries = tpch::kNumQueries;
constexpr int kLevel = 5;  // dblab-lb-5, the paper's full stack
// Set-up is repeated and setup_s is the median, so one slow set-up does not
// decide the number.
constexpr int kSetups = 3;
// The speed probe's time on the reference machine, the 4-vCPU Xeon VM the
// seed records come from, at its typical speed. Scaled times read as if
// every op had run at that speed.
constexpr double kProbeRefMs = 10.0;
// The timed phase probes the machine between passes, at most this often.
constexpr double kProbeEveryMs = 500;

enum class Kind {
  kWarm,   // one warmed Interpreter, closed-loop passes over the 22 queries
  kAdhoc,  // compile + fresh Interpreter + first Run per op
};

struct Workload {
  const char* name;
  Kind kind;
  double sf;
  int threads;     // per query; 0 = min(4, nproc)
  bool c_ceiling;  // traced runs compile and run the generated C
};

// Why each workload exists is in README.md.
const Workload kWorkloads[] = {
    {"tpch-seq", Kind::kWarm, 0.1, 1, true},
    {"tpch-par", Kind::kWarm, 0.1, 0, false},
    {"adhoc-cold", Kind::kAdhoc, 0.01, 1, false},
};

const char* const kPasses[] = {
    "pipelining",         "string-dict",        "index-inference",
    "hash-specialization", "pool-hoisting",     "scalar-replacement",
    "condition-flattening", "finalize",
};

int64_t NowNs() { return telemetry::TraceNowNs(); }

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// Linear interpolation between closest ranks; p in [0, 1].
double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  double pos = p * static_cast<double>(v.size() - 1);
  size_t lo = static_cast<size_t>(pos);
  size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double Geomean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  double s = 0;
  for (double x : v) s += std::log(std::max(x, 1e-9));
  return std::exp(s / static_cast<double>(v.size()));
}

// One measured time (or rate) and the probe segment it was measured in.
struct Sample {
  double v;
  int seg;
};

std::vector<double> Values(const std::vector<Sample>& s) {
  std::vector<double> v;
  for (const Sample& x : s) v.push_back(x.v);
  return v;
}

uint64_t Fingerprint(const storage::ResultTable& t) {
  return HashString(server::RenderRows(t));
}

std::vector<std::string> SortedRows(const storage::ResultTable& t) {
  std::vector<std::string> rows;
  for (size_t i = 0; i < t.size(); ++i) rows.push_back(t.RowToString(i));
  std::sort(rows.begin(), rows.end());
  return rows;
}

std::string CpuModel() {
#if defined(__x86_64__)
  unsigned regs[12];
  if (__get_cpuid(0x80000000, &regs[0], &regs[1], &regs[2], &regs[3]) &&
      regs[0] >= 0x80000004) {
    for (unsigned i = 0; i < 3; ++i) {
      __get_cpuid(0x80000002 + i, &regs[4 * i], &regs[4 * i + 1],
                  &regs[4 * i + 2], &regs[4 * i + 3]);
    }
    std::string s(reinterpret_cast<const char*>(regs), sizeof(regs));
    s = s.c_str();
    size_t b = s.find_first_not_of(' ');
    return b == std::string::npos ? "unknown" : s.substr(b);
  }
#endif
  return "unknown";
}

// Starts the kernel's count of peak resident memory (VmHWM) over from the
// current size. Where /proc does not allow it, the count runs on from
// process start.
void ResetPeakRss() {
  if (FILE* f = std::fopen("/proc/self/clear_refs", "w")) {
    std::fputs("5", f);
    std::fclose(f);
  }
}

// Peak resident memory in bytes since the last ResetPeakRss.
double PeakRssBytes() {
  double kb = 0;
  if (FILE* f = std::fopen("/proc/self/status", "r")) {
    char line[256];
    while (std::fgets(line, sizeof(line), f) != nullptr) {
      if (std::sscanf(line, "VmHWM: %lf kB", &kb) == 1) break;
    }
    std::fclose(f);
  }
  if (kb == 0) {
    rusage ru;
    ::getrusage(RUSAGE_SELF, &ru);
    kb = static_cast<double>(ru.ru_maxrss);
  }
  return kb * 1024.0;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string Num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.15g", std::isfinite(v) ? v : 0.0);
  return buf;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
  int64_t samples;
};

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out_dir = ".";
};

// One query, resolved and compiled at level 5 against the run's database.
struct CompiledQuery {
  qplan::PlanPtr plan;
  std::unique_ptr<ir::TypeFactory> types;  // must outlive res.fn
  compiler::CompileResult res;
};

// Everything set-up builds.
struct World {
  storage::Database db;
  std::vector<CompiledQuery> queries;  // [q - 1]
  std::unique_ptr<exec::Interpreter> interp;
  // The first result of each query, kept for the oracle check. A deque, not
  // a vector: a ResultTable copy is shallow (its rows point into the
  // original's strings) and its move is not noexcept, so a growing vector
  // would copy the tables and leave those pointers dangling.
  std::deque<storage::ResultTable> first;
  std::vector<uint64_t> fingerprint;  // [q]
};

class Bench {
 public:
  Bench(const Workload& w, Options o) : w_(w), o_(std::move(o)) {
    long n = ::sysconf(_SC_NPROCESSORS_ONLN);
    nproc_ = n > 0 ? static_cast<int>(n) : 1;
    threads_ = w_.threads > 0 ? w_.threads : std::min(4, nproc_);
    ops_.assign(kQueries + 1, 0);
    lat_.resize(kQueries + 1);
    traced_lat_.resize(kQueries + 1);
    phases_.resize(kQueries + 1);
  }

  int Main();

 private:
  std::unique_ptr<World> SetUp();
  void CompileAll(World* w, bool keep);
  exec::InterpOptions InterpOpts(int threads) const {
    exec::InterpOptions o;
    o.engine = exec::InterpOptions::Engine::kJit;
    o.num_threads = threads;
    return o;
  }
  // Runs `fn` once on `interp` and times it, as one traced op when
  // `traced`.
  storage::ResultTable TimedRun(exec::Interpreter* interp,
                                const ir::Function& fn, int q, bool traced,
                                int op, double* ms);
  void Warm(World* w, int q);
  void CheckOp(World& w, int q, const storage::ResultTable& r, bool ok);
  void Timed(World& w);
  // Runs the speed probe. It closes the current segment and opens the next:
  // whatever is measured until the following probe lies in segment
  // Segment().
  void Probe() { probe_ms_.push_back(probe_.Measure()); }
  int Segment() const { return static_cast<int>(probe_ms_.size()) - 1; }
  // How much slower than the reference speed the machine ran in segment
  // `seg`, from the two probes around it.
  double Slowdown(int seg) const {
    return 0.5 * (probe_ms_[seg] + probe_ms_[seg + 1]) / kProbeRefMs;
  }
  // Times scaled to the reference speed.
  std::vector<double> Scaled(const std::vector<Sample>& s) const {
    std::vector<double> v;
    for (const Sample& x : s) v.push_back(x.v / Slowdown(x.seg));
    return v;
  }
  void LayerProbes(World& w);
  void Oracle(World& w);
  void EndToEnd();
  void PerLayer();
  void Add(const std::string& name, double v, const char* unit,
           int64_t samples) {
    metrics_.push_back({name, v, unit, samples});
  }
  void WriteOutputs();

  const Workload& w_;
  Options o_;
  int nproc_ = 1;
  int threads_ = 1;
  Rng rng_{0};

  // Measurements.
  SpeedProbe probe_;
  std::vector<double> probe_ms_;  // every probe, in order
  std::vector<Sample> setup_s_;
  std::vector<double> datagen_s_;
  std::vector<double> lazy_s_;
  std::vector<std::vector<Sample>> lat_;         // [q] timed op ms
  std::vector<std::vector<Sample>> traced_lat_;  // [q] traced op ms
  std::vector<std::map<std::string, std::vector<double>>> phases_;  // [q]
  std::vector<int64_t> ops_;  // [q] checked ops, for failure accounting
  int64_t attempted_ = 0;
  int64_t failed_ = 0;
  double peak_rss_mb_ = 0;
  double oracle_s_ = 0;
  int op_seq_ = 0;
  int traced_ops_ = 0;
  SpanLog spans_;

  // Exact counts, each from one pass over the 22 queries.
  int64_t ir_stmts_ = 0;
  int64_t bc_insns_ = 0;
  int64_t deopts_ = 0;
  int64_t fallbacks_ = 0;
  int64_t native_pcs_ = 0;
  int64_t total_pcs_ = 0;
  int64_t alloc_bytes_ = 0;
  int64_t heap_allocs_ = 0;

  // Generated C (traced runs). The ceiling numbers read -1 where they were
  // not measured.
  double cgen_generate_ms_ = 0;
  double cgen_cc_ms_ = -1;
  double c_geomean_ms_ = -1;
  double jit_over_c_ = -1;
  std::vector<std::vector<std::string>> c_rows_;  // [q] sorted row text

  std::vector<Metric> metrics_;
  std::vector<Metric> raw_;  // end-to-end times before scaling
};

storage::ResultTable Bench::TimedRun(exec::Interpreter* interp,
                                     const ir::Function& fn, int q,
                                     bool traced, int op, double* ms) {
  uint64_t session = traced ? telemetry::TraceBeginSession() : 0;
  storage::ResultTable r;
  {
    telemetry::TraceScope scope(session);
    telemetry::ScopedSpan span("bench.run", "bench", "query", q);
    Timer t;
    r = interp->Run(fn);
    *ms = t.ElapsedMs();
  }
  if (session != 0) {
    spans_.AddSession(session, op, telemetry::TraceEndSession(session));
  }
  return r;
}

void Bench::CompileAll(World* w, bool keep) {
  compiler::StackConfig cfg = compiler::StackConfig::Level(kLevel);
  for (int q = 1; q <= kQueries; ++q) {
    CompiledQuery& cq = w->queries[q - 1];
    auto types = std::make_unique<ir::TypeFactory>();
    compiler::CompileResult res = compiler::QueryCompiler(&w->db, types.get())
                                      .Compile(*cq.plan, cfg,
                                               "q" + std::to_string(q));
    if (!keep) continue;
    for (const auto& [pass, ms] : res.phase_ms) phases_[q][pass].push_back(ms);
    cq.types = std::move(types);
    cq.res = std::move(res);
  }
}

// Program warm-up of one query (bytecode compile, JIT stitch, first run),
// keeping its first result for the oracle check.
void Bench::Warm(World* w, int q) {
  const ir::Function& fn = *w->queries[q - 1].res.fn;
  std::unique_ptr<exec::Interpreter> fresh;
  exec::Interpreter* interp = w->interp.get();
  if (interp == nullptr) {  // adhoc-cold: one per query
    fresh = std::make_unique<exec::Interpreter>(&w->db, InterpOpts(1));
    interp = fresh.get();
  }
  double ms = 0;
  storage::ResultTable r = TimedRun(interp, fn, q, o_.trace, -1, &ms);
  ++attempted_;
  if (!interp->last_status().ok()) ++failed_;
  w->fingerprint[q] = Fingerprint(r);
  w->first.push_back(std::move(r));
  // A second run is the steady state; its deopts and allocations are the
  // exact per-pass counts.
  const exec::AllocStats before = interp->stats();
  storage::ResultTable again = TimedRun(interp, fn, q, o_.trace, -1, &ms);
  const exec::AllocStats& after = interp->stats();
  const exec::Interpreter::JitRunStats& js = interp->last_jit_stats();
  CheckOp(*w, q, again, interp->last_status().ok());
  ir_stmts_ += fn.num_stmts();
  deopts_ += static_cast<int64_t>(js.deopts);
  fallbacks_ += js.fallback_reason != 0 ? 1 : 0;
  native_pcs_ += js.native_pcs;
  total_pcs_ += js.total_pcs;
  alloc_bytes_ += static_cast<int64_t>(after.TotalBytes() - before.TotalBytes());
  heap_allocs_ += static_cast<int64_t>(after.heap_allocs - before.heap_allocs);
}

std::unique_ptr<World> Bench::SetUp() {
  ir_stmts_ = deopts_ = fallbacks_ = native_pcs_ = total_pcs_ = 0;
  alloc_bytes_ = heap_allocs_ = 0;
  Timer setup;
  auto w = std::make_unique<World>();
  Timer gen;
  w->db = tpch::MakeTpchDatabase(w_.sf, o_.seed);
  datagen_s_.push_back(gen.ElapsedSec());
  w->queries.resize(kQueries);
  for (int q = 1; q <= kQueries; ++q) {
    w->queries[q - 1].plan = tpch::MakeQuery(q);
    qplan::ResolvePlan(w->queries[q - 1].plan.get(), w->db);
  }
  // The first compile builds the lazy dictionaries and indexes; that is
  // loading work, so it belongs to set-up, and the compile that is kept
  // (and whose passes are measured) is the second.
  double lazy0 = w->db.load_side_ms();
  CompileAll(w.get(), false);
  lazy_s_.push_back((w->db.load_side_ms() - lazy0) / 1000.0);
  CompileAll(w.get(), true);

  w->fingerprint.assign(kQueries + 1, 0);
  if (w_.kind == Kind::kWarm) {
    w->interp = std::make_unique<exec::Interpreter>(&w->db,
                                                    InterpOpts(threads_));
  }
  for (int q = 1; q <= kQueries; ++q) Warm(w.get(), q);
  setup_s_.push_back({setup.ElapsedSec(), Segment()});
  return w;
}

void Bench::CheckOp(World& w, int q, const storage::ResultTable& r, bool ok) {
  ++attempted_;
  ++ops_[q];
  if (!ok || Fingerprint(r) != w.fingerprint[q]) ++failed_;
}

void Bench::Timed(World& w) {
  std::vector<int> order;
  for (int q = 1; q <= kQueries; ++q) order.push_back(q);
  const compiler::StackConfig cfg = compiler::StackConfig::Level(kLevel);
  const int64_t end = NowNs() + static_cast<int64_t>(o_.seconds * 1e9);
  int pass = 0;
  Timer since_probe;
  do {
    if (since_probe.ElapsedMs() >= kProbeEveryMs) {
      Probe();
      since_probe.Reset();
    }
    for (int i = kQueries - 1; i > 0; --i) {
      std::swap(order[i], order[rng_.Uniform(0, i)]);
    }
    // Traced runs alternate traced and untraced passes: the untraced ones
    // give the baseline for the tracing overhead.
    const bool traced = o_.trace && pass % 2 == 0;
    for (int q : order) {
      CompiledQuery& cq = w.queries[q - 1];
      double ms = 0;
      storage::ResultTable r;
      bool ok = false;
      const int op = op_seq_++;
      if (w_.kind == Kind::kWarm) {
        r = TimedRun(w.interp.get(), *cq.res.fn, q, traced, op, &ms);
        ok = w.interp->last_status().ok();
      } else {
        uint64_t session = traced ? telemetry::TraceBeginSession() : 0;
        {
          telemetry::TraceScope scope(session);
          telemetry::ScopedSpan op_span("bench.op", "bench", "query", q);
          Timer t;
          ir::TypeFactory types;
          compiler::CompileResult res;
          {
            telemetry::ScopedSpan span("bench.compile", "bench");
            res = compiler::QueryCompiler(&w.db, &types)
                      .Compile(*cq.plan, cfg, "q" + std::to_string(q));
          }
          exec::Interpreter interp(&w.db, InterpOpts(threads_));
          {
            telemetry::ScopedSpan span("bench.run", "bench");
            r = interp.Run(*res.fn);
          }
          ms = t.ElapsedMs();
          ok = interp.last_status().ok();
          for (const auto& [p, pms] : res.phase_ms) phases_[q][p].push_back(pms);
        }
        if (session != 0) {
          spans_.AddSession(session, op, telemetry::TraceEndSession(session));
        }
      }
      CheckOp(w, q, r, ok);
      (traced ? traced_lat_ : lat_)[q].push_back({ms, Segment()});
      if (traced) ++traced_ops_;
    }
    ++pass;
  } while (NowNs() < end);
  Probe();
}

// Per-layer probes of a traced run: bytecode size, the time to generate C,
// and, where the workload carries it, the generated-C ceiling of every
// query measured against warm JIT runs. The ceiling costs about 9 s of cc,
// so only tpch-seq, the Table 3 setting, pays it.
void Bench::LayerProbes(World& w) {
  for (int q = 1; q <= kQueries; ++q) {
    bc_insns_ += static_cast<int64_t>(
        exec::BytecodeCompiler(&w.db).Compile(*w.queries[q - 1].res.fn)
            .code.size());
  }

  namespace fs = std::filesystem;
  const std::string dir =
      o_.out_dir + "/cgen-" + std::to_string(static_cast<long>(::getpid()));
  const compiler::StackConfig cfg = compiler::StackConfig::Level(kLevel);
  std::vector<std::string> sources(kQueries + 1);
  for (int q = 1; q <= kQueries; ++q) {
    Timer t;
    ir::TypeFactory types;
    compiler::CompileResult res =
        compiler::QueryCompiler(&w.db, &types)
            .Compile(*w.queries[q - 1].plan, cfg, "q" + std::to_string(q));
    sources[q] = cgen::EmitProgram(*res.fn, w.db, dir);
    cgen_generate_ms_ += t.ElapsedMs();
  }
  if (!w_.c_ceiling) return;

  std::error_code ec;
  fs::remove_all(dir, ec);
  fs::create_directories(dir, ec);
  w.db.ExportBinary(dir);
  w.db.ExportAux(dir);
  cgen::CcDriver cc(dir);
  c_rows_.assign(kQueries + 1, {});
  cgen_cc_ms_ = 0;
  std::vector<double> c_ms, ratio;
  bool ok = true;
  for (int q = 1; q <= kQueries; ++q) {
    double cc_ms = 0;
    std::string error;
    std::string bin =
        cc.Compile("q" + std::to_string(q), sources[q], &cc_ms, &error);
    cgen_cc_ms_ += cc_ms;
    if (bin.empty()) {
      std::fprintf(stderr, "qc_bench: cc failed for Q%d: %s\n", q,
                   error.c_str());
      ok = false;
      break;
    }
    std::vector<double> runs;
    for (int r = 0; r < 3; ++r) {
      cgen::RunOutput out = cc.Run(bin);
      if (!out.ok) {
        std::fprintf(stderr, "qc_bench: generated Q%d failed: %s\n", q,
                     out.error.c_str());
        ok = false;
        break;
      }
      runs.push_back(out.query_ms);
      std::sort(out.row_text.begin(), out.row_text.end());
      c_rows_[q] = std::move(out.row_text);
    }
    if (!ok) break;
    exec::Interpreter interp(&w.db, InterpOpts(1));
    const ir::Function& fn = *w.queries[q - 1].res.fn;
    std::vector<double> jit;
    for (int r = 0; r < 4; ++r) {
      Timer t;
      storage::ResultTable res = interp.Run(fn);
      if (r > 0) jit.push_back(t.ElapsedMs());
    }
    c_ms.push_back(Median(runs));
    ratio.push_back(Median(jit) / std::max(Median(runs), 1e-6));
  }
  fs::remove_all(dir, ec);
  if (ok) {
    c_geomean_ms_ = Geomean(c_ms);
    jit_over_c_ = Geomean(ratio);
  } else {
    // No working C compiler: the generated-C numbers read -1 (skipped).
    cgen_cc_ms_ = -1;
    c_rows_.clear();
  }
}

void Bench::Oracle(World& w) {
  Timer t;
  for (int q = 1; q <= kQueries; ++q) {
    storage::ResultTable want =
        volcano::Execute(*w.queries[q - 1].plan, w.db);
    std::string diff;
    bool same = w.first[q - 1].SameRows(want, &diff);
    if (same && !c_rows_.empty() && c_rows_[q] != SortedRows(want)) {
      diff = "generated C rows differ";
      same = false;
    }
    if (!same) {
      std::fprintf(stderr, "qc_bench: Q%d differs from the oracle: %s\n", q,
                   diff.c_str());
      failed_ += ops_[q] + 1;
      attempted_ += 1;
    }
  }
  oracle_s_ = t.ElapsedSec();
}

void Bench::EndToEnd() {
  // Medians of times scaled to the probe's reference speed (README.md, "Why
  // times are scaled"); the same statistics of the raw times go to the
  // record.
  int64_t min_n = -1;
  for (int q = 1; q <= kQueries; ++q) {
    int64_t n = static_cast<int64_t>(lat_[q].size());
    min_n = min_n < 0 ? n : std::min(min_n, n);
  }
  for (bool scaled : {true, false}) {
    std::vector<double> med;
    double suite = 0;
    for (int q = 1; q <= kQueries; ++q) {
      med.push_back(Median(scaled ? Scaled(lat_[q]) : Values(lat_[q])));
      suite += med.back();
    }
    std::vector<Metric>& out = scaled ? metrics_ : raw_;
    out.push_back({"setup_s",
                   Median(scaled ? Scaled(setup_s_) : Values(setup_s_)), "s",
                   kSetups});
    out.push_back({"geomean_ms", Geomean(med), "ms", min_n});
    out.push_back({"suite_ms", suite, "ms", min_n});
  }
  Add("peak_rss_mb", peak_rss_mb_, "MB", 1);
}

void Bench::PerLayer() {
  // compiler: per pass, the sum over the queries of the per-query median.
  for (const char* pass : kPasses) {
    double sum = 0;
    int64_t n = 0;
    for (int q = 1; q <= kQueries; ++q) {
      auto it = phases_[q].find(pass);
      if (it == phases_[q].end()) continue;
      sum += Median(it->second);
      n += static_cast<int64_t>(it->second.size());
    }
    Add(std::string("compiler.") + pass + "_ms", sum, "ms", n);
  }
  Add("compiler.ir_stmts", static_cast<double>(ir_stmts_), "count", 1);

  // Spans. Compile-time spans (set-up and timed) are averaged per query;
  // execution spans come from the timed ops, one exec span per op, and are
  // scaled to one pass over the 22 queries.
  std::map<std::string, double> dur, self;
  std::map<std::string, int64_t> count;
  std::map<int, std::vector<double>> morsels;  // by enclosing par_loop
  const std::vector<std::string>& names = spans_.names();
  for (size_t i = 0; i < spans_.spans().size(); ++i) {
    const Span& s = spans_.spans()[i];
    const std::string& name = names[s.name];
    const bool compile_span =
        name == "bytecode_compile" || name == "jit_stitch";
    if (s.op < 0 && !compile_span) continue;
    dur[name] += s.dur_us / 1000.0;
    self[name] += s.self_us / 1000.0;
    ++count[name];
    if (name == "morsel" && s.parent >= 0) {
      morsels[s.parent].push_back(s.dur_us);
    }
  }
  auto per_query = [&](const char* name) {
    return count[name] > 0 ? kQueries * dur[name] / count[name] : 0.0;
  };
  const int64_t ops = count["exec"];
  const double per_pass = ops > 0 ? kQueries / static_cast<double>(ops) : 0;
  const double exec_ms = dur["exec"];
  const double par_loop = dur["par_loop"];
  const double par_sort = dur["par_sort"];
  const double sorting = dur["sort_chunk"] + dur["sort_merge"];
  std::vector<double> skews;
  for (const auto& [loop, m] : morsels) {
    skews.push_back(*std::max_element(m.begin(), m.end()) /
                    std::max(Median(m), 1e-9));
  }
  Add("exec.bc_compile_ms", per_query("bytecode_compile"), "ms",
      count["bytecode_compile"]);
  Add("exec.bc_insns", static_cast<double>(bc_insns_), "count", 1);
  Add("exec.run_ms", self["exec"] * per_pass, "ms", ops);
  Add("exec.par_loop_pct", exec_ms > 0 ? 100.0 * par_loop / exec_ms : 0, "%",
      count["par_loop"]);
  Add("exec.par_sort_pct", exec_ms > 0 ? 100.0 * par_sort / exec_ms : 0, "%",
      count["par_sort"]);
  Add("exec.merge_pct", par_loop > 0 ? 100.0 * dur["merge"] / par_loop : 0,
      "%", count["merge"]);
  Add("exec.sort_merge_pct",
      sorting > 0 ? 100.0 * dur["sort_merge"] / sorting : 0, "%",
      count["sort_merge"]);
  Add("exec.morsels", static_cast<double>(count["morsel"]) * per_pass,
      "count", count["morsel"]);
  Add("exec.par_efficiency",
      par_loop > 0 ? dur["morsel"] / (threads_ * par_loop) : 0, "ratio",
      count["par_loop"]);
  Add("exec.morsel_skew", Median(skews), "ratio",
      static_cast<int64_t>(skews.size()));
  Add("exec.serial_fraction",
      exec_ms > 0 ? (exec_ms - par_loop - par_sort) / exec_ms : 0, "ratio",
      count["exec"]);

  Add("jit.stitch_ms", per_query("jit_stitch"), "ms", count["jit_stitch"]);
  Add("jit.coverage_pct",
      total_pcs_ > 0 ? 100.0 * static_cast<double>(native_pcs_) /
                           static_cast<double>(total_pcs_)
                     : 0,
      "%", kQueries);
  Add("jit.deopts", static_cast<double>(deopts_), "count", kQueries);
  Add("jit.fallbacks", static_cast<double>(fallbacks_), "count", kQueries);
  Add("runtime.alloc_bytes", static_cast<double>(alloc_bytes_), "bytes",
      kQueries);
  Add("runtime.heap_allocs", static_cast<double>(heap_allocs_), "count",
      kQueries);

  // cc time and the generated programs' own time exist on tpch-seq only;
  // they are in the record, not among the metrics every workload prints.
  Add("cgen.generate_ms", cgen_generate_ms_, "ms", kQueries);
  Add("cgen.jit_over_c", jit_over_c_, "ratio", jit_over_c_ < 0 ? 0 : kQueries);

  Add("tpch.datagen_s", Median(datagen_s_), "s", kSetups);
  Add("storage.lazy_structures_s", Median(lazy_s_), "s", kSetups);
  Add("volcano.oracle_s", oracle_s_, "s", 1);

  std::vector<double> traced, untraced;
  for (int q = 1; q <= kQueries; ++q) {
    traced.push_back(Median(Scaled(traced_lat_[q])));
    untraced.push_back(Median(Scaled(lat_[q])));
  }
  const double base = Geomean(untraced);
  const double overhead = base > 0 ? 100.0 * (Geomean(traced) / base - 1) : 0;
  Add("bench.trace_overhead_pct", overhead, "%", traced_ops_);
  // The machine's speed during the run; kProbeRefMs is the reference.
  Add("bench.probe_ms", Median(probe_ms_), "ms",
      static_cast<int64_t>(probe_ms_.size()));
}

void Bench::WriteOutputs() {
  // Run metadata: every number carries the machine, build, scale and
  // threads it was measured with.
  std::string meta = "{\"workload\":" + JsonString(w_.name) +
                     ",\"seed\":" + std::to_string(o_.seed) +
                     ",\"seconds\":" + Num(o_.seconds) +
                     ",\"trace\":" + (o_.trace ? "1" : "0") +
                     ",\"sf\":" + Num(w_.sf) +
                     ",\"threads\":" + std::to_string(threads_) +
                     ",\"level\":" + std::to_string(kLevel) +
                     ",\"setups\":" + std::to_string(kSetups);
  const char* sha = std::getenv("QC_BENCH_GIT_SHA");
  meta += ",\"probe_ref_ms\":" + Num(kProbeRefMs) +
          ",\"probe_median_ms\":" + Num(Median(probe_ms_)) +
          ",\"probes\":" + std::to_string(probe_ms_.size()) +
          ",\"nproc\":" + std::to_string(nproc_) +
          ",\"cpu\":" + JsonString(CpuModel()) +
          ",\"compiler\":" + JsonString(QC_BENCH_COMPILER) +
          ",\"build_type\":" + JsonString(QC_BENCH_BUILD_TYPE) +
          ",\"git_sha\":" + JsonString(sha != nullptr ? sha : "unknown") +
          ",\"time\":" + std::to_string(static_cast<long long>(std::time(nullptr))) +
          "}";

  std::string metrics = "{";
  std::string samples = "{";
  for (size_t i = 0; i < metrics_.size(); ++i) {
    const Metric& m = metrics_[i];
    if (i > 0) {
      metrics += ", ";
      samples += ",";
    }
    metrics += JsonString(m.name) + ": {\"value\": " + Num(m.value) +
               ", \"unit\": " + JsonString(m.unit) + "}";
    samples += JsonString(m.name) + ":" + std::to_string(m.samples);
    std::printf("# metric %-30s %16.6f %-6s n=%lld\n", m.name.c_str(), m.value,
                m.unit.c_str(), static_cast<long long>(m.samples));
  }
  metrics += "}";
  samples += "}";
  std::string raw = "{";
  for (size_t i = 0; i < raw_.size(); ++i) {
    const Metric& m = raw_[i];
    raw += std::string(i > 0 ? "," : "") + JsonString(m.name) + ":" +
           Num(m.value);
    std::printf("# raw    %-30s %16.6f %-6s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  raw += "}";

  // Per-query rows, and the same over all ops, of the raw times: the
  // fastest op, the median, and the highest of these percentiles that still
  // has ten samples beyond it; then the median of the scaled times.
  const auto& lat = o_.trace ? traced_lat_ : lat_;
  std::vector<Sample> all;
  auto row = [this](const char* label, const std::vector<Sample>& s) {
    const std::vector<double> v = Values(s);
    const double n = static_cast<double>(v.size());
    double pct = 0;
    for (double p : {0.999, 0.99, 0.95, 0.9, 0.75, 0.5}) {
      if (n * (1 - p) >= 10) {
        pct = p;
        break;
      }
    }
    const double tail = pct > 0 ? Percentile(v, pct) : 0;
    const double scaled = Median(Scaled(s));
    std::printf("# %s min_ms=%.4f median_ms=%.4f p%g_ms=%.4f "
                "scaled_median_ms=%.4f n=%zu\n",
                label, Percentile(v, 0), Median(v), 100 * pct, tail, scaled,
                v.size());
    return "\"min_ms\":" + Num(Percentile(v, 0)) + ",\"median_ms\":" +
           Num(Median(v)) + ",\"tail_pct\":" + Num(100 * pct) +
           ",\"tail_ms\":" + Num(tail) + ",\"scaled_median_ms\":" +
           Num(scaled) + ",\"n\":" + std::to_string(v.size());
  };
  std::string rows = "[";
  for (int q = 1; q <= kQueries; ++q) {
    all.insert(all.end(), lat[q].begin(), lat[q].end());
    char label[8];
    std::snprintf(label, sizeof(label), "q%02d", q);
    rows += std::string(q > 1 ? "," : "") + "{\"q\":" + std::to_string(q) +
            "," + row(label, lat[q]) + "}";
  }
  rows += "]";
  const std::string all_ops = "{" + row("all", all) + "}";
  const std::string ceiling = "{\"cc_ms\":" + Num(cgen_cc_ms_) +
                              ",\"c_geomean_ms\":" + Num(c_geomean_ms_) + "}";
  std::printf("# meta %s\n", meta.c_str());
  if (o_.trace) std::printf("# cgen %s\n", ceiling.c_str());

  const bool correct = failed_ == 0;
  std::string result = "{\"correct\": " + std::string(correct ? "true" : "false") +
                       ", \"attempted\": " + std::to_string(attempted_) +
                       ", \"failed\": " + std::to_string(failed_) +
                       ", \"metrics\": " + metrics + "}";

  namespace fs = std::filesystem;
  std::error_code ec;
  fs::create_directories(o_.out_dir + "/records", ec);
  char tag[160];
  std::snprintf(tag, sizeof(tag), "%s-seed%llu-trace%d-%lld-%ld", w_.name,
                static_cast<unsigned long long>(o_.seed), o_.trace ? 1 : 0,
                static_cast<long long>(std::time(nullptr)),
                static_cast<long>(::getpid()));
  std::string record = "{\"meta\": " + meta + ", \"samples\": " + samples +
                       ", \"raw\": " + raw +
                       ", \"per_query\": " + rows + ", \"all_ops\": " +
                       all_ops + ", \"cgen\": " + ceiling +
                       ", \"result\": " + result + "}\n";
  const std::string record_path = o_.out_dir + "/records/" + tag + ".json";
  FILE* f = std::fopen(record_path.c_str(), "w");
  bool written = f != nullptr && std::fputs(record.c_str(), f) >= 0;
  if (f != nullptr && std::fclose(f) != 0) written = false;
  if (!written) {
    std::fprintf(stderr, "qc_bench: cannot write %s\n", record_path.c_str());
  }
  if (o_.trace) {
    fs::create_directories(o_.out_dir + "/spans", ec);
    const std::string spans_path = o_.out_dir + "/spans/" + tag + ".jsonl";
    if (!spans_.Write(spans_path)) {
      std::fprintf(stderr, "qc_bench: cannot write %s\n", spans_path.c_str());
    }
  }
  std::printf("%s\n", result.c_str());
  std::fflush(stdout);
}

int Bench::Main() {
  rng_ = Rng(o_.seed * 0x9e3779b97f4a7c15ULL + 7);
  std::unique_ptr<World> world;
  Probe();
  for (int i = 0; i < kSetups; ++i) {
    world.reset();  // one database at a time
    // Hand the freed world back to the kernel and count the peak afresh,
    // so peak_rss_mb is the measured world's own and not what the
    // allocator kept from an earlier one.
    ::malloc_trim(0);
    ResetPeakRss();
    world = SetUp();
    Probe();
  }
  World& w = *world;
  Timed(w);
  // The probe's data is resident from before the first set-up to the end,
  // so it adds exactly its size to the peak.
  peak_rss_mb_ = (PeakRssBytes() - static_cast<double>(probe_.bytes())) /
                 (1024.0 * 1024.0);
  if (o_.trace) LayerProbes(w);
  Oracle(w);
  if (o_.trace) {
    PerLayer();
  } else {
    EndToEnd();
  }
  WriteOutputs();
  return failed_ == 0 ? 0 : 1;
}

int Usage() {
  std::fprintf(stderr,
               "usage: qc_bench --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1> [--out-dir <dir>]\nworkloads:");
  for (const Workload& w : kWorkloads) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
  return 2;
}

}  // namespace
}  // namespace qc::perfbench

int main(int argc, char** argv) {
  using namespace qc::perfbench;  // NOLINT
  Options o;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    std::string value;
    size_t eq = arg.find('=');
    if (eq != std::string::npos) {
      value = arg.substr(eq + 1);
      arg = arg.substr(0, eq);
    } else if (i + 1 < argc) {
      value = argv[++i];
    } else {
      return Usage();
    }
    char* end = nullptr;
    if (arg == "--workload") {
      o.workload = value;
    } else if (arg == "--seed") {
      o.seed = std::strtoull(value.c_str(), &end, 10);
    } else if (arg == "--seconds") {
      o.seconds = std::strtod(value.c_str(), &end);
    } else if (arg == "--trace" && (value == "0" || value == "1")) {
      o.trace = value == "1";
    } else if (arg == "--out-dir") {
      o.out_dir = value;
    } else {
      return Usage();
    }
    if (end != nullptr && *end != '\0') return Usage();
  }
  const Workload* w = nullptr;
  for (const Workload& cand : kWorkloads) {
    if (o.workload == cand.name) w = &cand;
  }
  if (w == nullptr || !(o.seconds > 0 && o.seconds <= 600)) return Usage();

  std::error_code ec;
  std::filesystem::create_directories(o.out_dir, ec);
  // The C compiler's temporaries stay in the output directory, and no
  // inherited cache directory redirects the generated-C builds.
  std::string tmp = o.out_dir + "/tmp";
  std::filesystem::create_directories(tmp, ec);
  ::setenv("TMPDIR", tmp.c_str(), 1);
  ::unsetenv("QC_CC_CACHE_DIR");
  return Bench(*w, o).Main();
}
