// Shared harness code for the paper-reproduction benchmarks: builds the
// TPC-H database once, exports it for generated programs, and runs a query
// under a stack configuration through the full native pipeline
// (compile -> emit C -> cc -> execute).
#ifndef QC_BENCH_BENCH_UTIL_H_
#define QC_BENCH_BENCH_UTIL_H_

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <string>
#include <vector>

#include "cgen/cc_driver.h"
#include "common/knobs.h"
#include "common/timer.h"
#include "cgen/emit.h"
#include "compiler/compiler.h"
#include "exec/interp.h"
#include "telemetry/trace.h"
#include "tpch/datagen.h"
#include "tpch/queries.h"

namespace qc::bench {

struct NativeRun {
  bool ok = false;
  double query_ms = 0;
  double generate_ms = 0;  // DBLAB/LB-side: lowering + passes + C emission
  double cc_ms = 0;        // C compiler time
  size_t mem_bytes = 0;
  int64_t rows = 0;
};

// One in-process interpreter measurement (either engine).
struct InterpRun {
  // Best-of-N execution time. Bytecode translation happens lazily inside
  // repetition 1's Run() and is discarded by best-of-N (reps >= 2).
  double query_ms = 0;
  // kJit telemetry (Interpreter::last_jit_stats): deopt events of the last
  // repetition, and why the run degraded to the VM (jit::JitFallback as
  // int, 0 = it didn't).
  uint64_t jit_deopts = 0;
  int jit_fallback = 0;
};

// Wraps one timed repetition of Harness::RunInterp (see there).
using RepHook = std::function<void(exec::Interpreter& interp,
                                   const std::function<void()>& rep)>;

class Harness {
 public:
  explicit Harness(double scale_factor, const std::string& tag)
      : db_(tpch::MakeTpchDatabase(scale_factor)),
        dir_("/tmp/qcstack_bench_" + tag),
        driver_(dir_) {
    std::error_code ec;
    std::filesystem::create_directories(dir_, ec);
    if (ec) {
      std::fprintf(stderr, "cannot create %s: %s\n", dir_.c_str(),
                   ec.message().c_str());
      std::exit(1);
    }
    db_.ExportBinary(dir_);
  }

  storage::Database& db() { return db_; }

  NativeRun RunNative(int query, const compiler::StackConfig& cfg,
                      int repetitions = 2) {
    NativeRun out;
    qplan::PlanPtr plan = tpch::MakeQuery(query);
    qplan::ResolvePlan(plan.get(), db_);

    Timer gen;
    ir::TypeFactory types;
    compiler::QueryCompiler qc(&db_, &types);
    compiler::CompileResult res =
        qc.Compile(*plan, cfg, "q" + std::to_string(query));
    std::string src = cgen::EmitProgram(*res.fn, db_, dir_);
    out.generate_ms = gen.ElapsedMs();
    db_.ExportAux(dir_);

    std::string error;
    std::string bin =
        driver_.Compile("q" + std::to_string(query) + "_" + cfg.name, src,
                        &out.cc_ms, &error);
    if (bin.empty()) {
      std::fprintf(stderr, "compile failed for Q%d %s:\n%s\n", query,
                   cfg.name.c_str(), error.c_str());
      return out;
    }
    double best = 1e300;
    for (int r = 0; r < repetitions; ++r) {
      cgen::RunOutput ro = driver_.Run(bin);
      if (!ro.ok) {
        std::fprintf(stderr, "run failed for Q%d %s: %s\n", query,
                     cfg.name.c_str(), ro.error.c_str());
        return out;
      }
      if (ro.query_ms < best) best = ro.query_ms;
      out.mem_bytes = ro.mem_bytes;
      out.rows = ro.rows;
    }
    out.query_ms = best;
    out.ok = true;
    return out;
  }

  // Runs a query compiled under `cfg` on the in-process executor with the
  // selected engine — the dual-engine "interpreted" rows of Table 3. The
  // first repetition's Run() pays bytecode translation (the program is
  // cached inside the Interpreter afterwards); best-of-N over >= 2 reps
  // reports steady-state execution. `threads` > 1 runs qualifying scan
  // loops morsel-parallel (exec/parallel.h); results are bit-identical.
  // `hook` (optional) wraps every repetition: it must call `rep`, which
  // runs and times the query once, and whatever it does around `rep`
  // stays off the timer — the overhead pairs of table3 instrument one
  // side this way.
  InterpRun RunInterp(int query, const compiler::StackConfig& cfg,
                      exec::InterpOptions::Engine engine,
                      int repetitions = 3, int threads = 1,
                      const RepHook& hook = nullptr) {
    InterpRun out;
    qplan::PlanPtr plan = tpch::MakeQuery(query);
    qplan::ResolvePlan(plan.get(), db_);

    ir::TypeFactory types;
    compiler::QueryCompiler qc(&db_, &types);
    compiler::CompileResult res =
        qc.Compile(*plan, cfg, "q" + std::to_string(query));

    exec::InterpOptions opts;
    opts.engine = engine;
    opts.num_threads = threads;
    exec::Interpreter interp(&db_, opts);
    double best = 1e300;
    std::function<void()> rep = [&] {
      Timer t;
      storage::ResultTable result = interp.Run(*res.fn);
      best = std::min(best, t.ElapsedMs());
    };
    for (int r = 0; r < repetitions; ++r) {
      if (hook) {
        hook(interp, rep);
      } else {
        rep();
      }
    }
    out.query_ms = best;
    if (engine == exec::InterpOptions::Engine::kJit) {
      const exec::Interpreter::JitRunStats& js = interp.last_jit_stats();
      out.jit_deopts = js.deopts;
      out.jit_fallback = js.fallback_reason;
    }
    return out;
  }

 private:
  storage::Database db_;
  std::string dir_;
  cgen::CcDriver driver_;
};

}  // namespace qc::bench

#endif  // QC_BENCH_BENCH_UTIL_H_
