// Reproduces Table 3: execution time (ms) of all 22 TPC-H queries for the
// Volcano interpreter (context row), the in-process IR engines (the
// register-bytecode VM and the copy-and-patch JIT, both executing the
// 5-level-stack output), the LegoBase-style monolithic expander, DBLAB/LB
// with 2..5 stack levels, and the TPC-H-compliant configuration. Native
// queries run as generated C programs compiled with the system compiler
// (the paper's pipeline); times are query-only (loading excluded).
//
// Every interpreter row also measures the overhead pairs (kPairs below):
// the same engine twice back to back, plain and instrumented. After the
// table, each pair's geomean ratio over all rows is checked against its
// bound (bench/gates.h), and the exit status is the verdict.
//
// Environment:
//   QC_BENCH_SF           scale factor (default 0.05)
//   QC_BENCH_INTERP_ONLY  skip the generated-C columns (no external cc)
//   QC_BENCH_THREADS      comma list of interpreter thread counts
//
// Absolute numbers differ from the paper (different hardware, synthetic
// dbgen, SF); the reproduced claims are the *shapes*: L2 slowest, a large
// 3->4 jump as data-structure specialization and index inference unlock, L5
// fastest or tied, compliant close to the 3-level stack, DBLAB/LB 5 at
// least comparable to LegoBase on most queries — and, for the in-process
// engines, the JIT faster than the bytecode VM on the same IR.
#include <cmath>
#include <cstdio>
#include <functional>
#include <iterator>
#include <string>
#include <vector>

#include "analysis/bc_verify.h"
#include "bench_util.h"
#include "common/timer.h"
#include "exec/governor.h"
#include "gates.h"
#include "jit/engine.h"
#include "telemetry/trace.h"
#include "volcano/volcano.h"

using namespace qc;           // NOLINT
using compiler::StackConfig;
using Engine = exec::InterpOptions::Engine;

namespace {

using Rep = std::function<void()>;

// Hooks that instrument one side of an overhead pair: each wraps one timed
// repetition `rep`, and `on` selects the instrumented side.

// Governance: an idle control (no deadline, no budget) polled at back
// edges, morsel boundaries and sort comparators — pure safepoint cost. A
// gap means a safepoint left the cold path.
void Govern(bool on, exec::Interpreter& interp, const Rep& rep) {
  static exec::ExecControl idle;
  interp.SetControl(on ? &idle : nullptr);
  rep();
}

// Telemetry: a live trace session recording spans and morsel slices.
// Rendering the JSON is export, not execution, so it stays off the timer.
// Tracing *enabled* bounds the disabled cost from above.
void Trace(bool on, exec::Interpreter&, const Rep& rep) {
  uint64_t session = on ? telemetry::TraceBeginSession() : 0;
  {
    telemetry::TraceScope scope(session);
    rep();
  }
  if (session != 0) telemetry::TraceEndSession(session);
}

// Static verifier layer (src/analysis/) forced on vs off. It runs once at
// program-cache fill (first repetition); the steady state must be the same
// execution path, so a gap means a check leaked into the per-row path.
void Verify(bool on, exec::Interpreter&, const Rep& rep) {
  exec::analysis::SetVerifyEnabledOverride(on ? 1 : 0);
  rep();
  exec::analysis::SetVerifyEnabledOverride(-1);
}

// One overhead pair, measured as `<name>-base` / `<name>` cells. Both sides
// run the same engine, best of kPairReps, back to back: the pair shares
// machine state (frequency, caches, allocator), so the ratio isolates the
// instrumentation cost instead of minutes of drift between distant cells.
// Best-of-5 (vs 3 for the plain cells): the gate divides the two cells, so
// one scheduling spike in either would show up as phantom overhead.
struct OverheadPair {
  const char* name;
  Engine engine;
  void (*hook)(bool on, exec::Interpreter& interp, const Rep& rep);
};

constexpr int kPairReps = 5;

const OverheadPair kPairs[] = {
    {"ir-bc-gov", Engine::kBytecode, Govern},
    {"ir-jit-gov", Engine::kJit, Govern},
    {"ir-jit-obs", Engine::kJit, Trace},
    {"ir-jit-verify", Engine::kJit, Verify},
};

}  // namespace

int main() {
  double sf = KnobDouble(Knob::kBenchSf);
  // CI tracks the in-process engines only, which needs no external compiler.
  bool interp_only = KnobFlag(Knob::kBenchInterpOnly);
  std::printf("=== Table 3: TPC-H performance (ms), SF=%.3f%s ===\n", sf,
              interp_only ? " (interpreters only)" : "");
  bench::Harness harness(sf, "table3");

  std::vector<StackConfig> configs = {
      StackConfig::LegoBase(),  StackConfig::Level(2), StackConfig::Level(3),
      StackConfig::Level(4),    StackConfig::Level(5),
      StackConfig::Compliant()};

  std::printf("%-4s %10s %10s %10s", "Q", "volcano", "ir-bc", "ir-jit");
  if (!interp_only) {
    std::printf(" %10s %10s %10s %10s %10s %10s", "legobase", "dblab-2",
                "dblab-3", "dblab-4", "dblab-5", "compliant");
  }
  std::printf("\n");

  // pair_cells[i]: kPairs[i]'s cells, one per interpreter row.
  std::vector<std::vector<bench::PairCell>> pair_cells(std::size(kPairs));
  int dblab5_wins = 0, total = 0;
  double jit_log_sum = 0;
  int jit_count = 0;
  for (int q = 1; q <= tpch::kNumQueries; ++q) {
    std::printf("Q%-3d", q);
    // Interpretation baseline (in-process Volcano evaluator).
    {
      qplan::PlanPtr plan = tpch::MakeQuery(q);
      qplan::ResolvePlan(plan.get(), harness.db());
      Timer t;
      storage::ResultTable r = volcano::Execute(*plan, harness.db());
      std::printf(" %10.2f", t.ElapsedMs());
    }
    // The IR-engine rows: the same 5-level-stack function on the bytecode
    // VM and the JIT, plus the overhead pairs, at each requested thread
    // count (QC_BENCH_THREADS). The first count fills the table's columns.
    bool first = true;
    for (int threads : KnobIntList(Knob::kBenchThreads)) {
      bench::InterpRun bc = harness.RunInterp(q, StackConfig::Level(5),
                                              Engine::kBytecode, 3, threads);
      bench::InterpRun jit = harness.RunInterp(q, StackConfig::Level(5),
                                               Engine::kJit, 3, threads);
      // Degradation is never invisible: say why a kJit row ran on the VM.
      if (jit.jit_fallback != 0) {
        auto why = static_cast<exec::jit::JitFallback>(jit.jit_fallback);
        std::fprintf(stderr, "Q%d threads=%d: ir-jit ran on the VM (%s)\n",
                     q, threads, exec::jit::JitFallbackName(why));
      }
      for (size_t i = 0; i < std::size(kPairs); ++i) {
        const OverheadPair& p = kPairs[i];
        auto side_ms = [&](bool on) {
          return harness
              .RunInterp(q, StackConfig::Level(5), p.engine, kPairReps,
                         threads,
                         [&](exec::Interpreter& interp, const Rep& rep) {
                           p.hook(on, interp, rep);
                         })
              .query_ms;
        };
        // A braced list evaluates left to right: the base side runs first.
        pair_cells[i].push_back({side_ms(false), side_ms(true)});
      }
      if (first) {
        std::printf(" %10.2f %10.2f", bc.query_ms, jit.query_ms);
        if (jit.query_ms > 0) {
          jit_log_sum += std::log(bc.query_ms / jit.query_ms);
          ++jit_count;
        }
      } else {
        std::printf("  [t=%d: %0.2f %0.2f]", threads, bc.query_ms,
                    jit.query_ms);
      }
      first = false;
    }
    double legobase_ms = 0, dblab5_ms = 0;
    if (!interp_only) {
      for (const StackConfig& cfg : configs) {
        bench::NativeRun run = harness.RunNative(q, cfg);
        std::printf(" %10.2f", run.ok ? run.query_ms : -1.0);
        std::fflush(stdout);
        if (cfg.name == "legobase") legobase_ms = run.query_ms;
        if (cfg.name == "dblab-lb-5") dblab5_ms = run.query_ms;
      }
      ++total;
      if (dblab5_ms <= legobase_ms * 1.10) ++dblab5_wins;
    }
    std::printf("\n");
    std::fflush(stdout);
  }
  if (jit_count > 0) {
    std::printf("\nJIT vs bytecode VM: %.2fx geomean speedup (%d queries)\n",
                std::exp(jit_log_sum / jit_count), jit_count);
  }
  if (!interp_only) {
    std::printf(
        "DBLAB/LB 5 at least comparable (<=1.1x) to LegoBase on %d/%d "
        "queries\n",
        dblab5_wins, total);
    std::printf("(paper: 20/22 queries, avg 5x speedup over LegoBase)\n");
  }
  std::vector<bench::Check> checks;
  for (size_t i = 0; i < std::size(kPairs); ++i) {
    checks.push_back(bench::PairCheck(kPairs[i].name, pair_cells[i]));
  }
  return bench::Report(checks) ? 0 : 1;
}
