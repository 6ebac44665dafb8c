// Reproduces Table 3: execution time (ms) of all 22 TPC-H queries for the
// Volcano interpreter (context row), the in-process IR engines (the
// register-bytecode VM and, with QC_BENCH_JIT, the copy-and-patch JIT, both
// executing the 5-level-stack output), the LegoBase-style monolithic
// expander, DBLAB/LB with 2..5 stack levels, and the TPC-H-compliant
// configuration. Native queries run as generated C programs compiled with
// the system compiler (the paper's pipeline); times are query-only (loading
// excluded).
//
// Environment:
//   QC_BENCH_SF           scale factor (default 0.05)
//   QC_BENCH_INTERP_ONLY  skip the generated-C columns (no external cc)
//   QC_BENCH_JSON         "1" or a path: also write BENCH_table3.json
//   QC_BENCH_JIT          add the in-process JIT engine rows (ir-jit)
//   QC_BENCH_GOVERNED     also measure ir-bc/ir-jit with a governance
//                         control attached (ir-bc-gov / ir-jit-gov cells)
//   QC_BENCH_OBS          also measure ir-jit with a live telemetry trace
//                         session recording (ir-jit-obs cells, paired with
//                         an adjacently-measured ir-jit-obs-base)
//   QC_BENCH_VERIFY       also measure ir-jit with the static verifier
//                         layer forced on (ir-jit-verify cells, paired
//                         with an adjacently-measured ir-jit-verify-base)
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
#include <string>
#include <vector>

#include "analysis/bc_verify.h"
#include "bench_util.h"
#include "common/timer.h"
#include "exec/governor.h"
#include "volcano/volcano.h"

using namespace qc;           // NOLINT
using compiler::StackConfig;

namespace {

struct Row {
  int query = 0;
  int threads = 1;
  std::vector<std::pair<std::string, double>> cells;  // column -> ms
};

void WriteJson(const std::string& path, double sf,
               const std::vector<Row>& rows) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return;
  }
  std::fprintf(f, "{\n  \"bench\": \"table3_tpch\",\n  \"sf\": %g,\n", sf);
  std::fprintf(f, "  \"unit\": \"ms\",\n  \"rows\": [\n");
  for (size_t i = 0; i < rows.size(); ++i) {
    std::fprintf(f, "    {\"query\": %d, \"threads\": %d", rows[i].query,
                 rows[i].threads);
    for (const auto& [name, ms] : rows[i].cells) {
      std::fprintf(f, ", \"%s\": %.4f", name.c_str(), ms);
    }
    std::fprintf(f, "}%s\n", i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("wrote %s\n", path.c_str());
}

}  // namespace

int main() {
  double sf = bench::BenchScaleFactor();
  bool interp_only = bench::BenchInterpOnly();
  bool with_jit = bench::BenchJit();
  bool governed = bench::BenchGoverned();
  bool observed = bench::BenchObs() && with_jit;
  bool verified = bench::BenchVerify() && with_jit;
  // An attached control with no deadline/budget: the governed cells measure
  // pure safepoint overhead, which the regression gate bounds.
  exec::ExecControl gov_ctl;
  std::vector<int> thread_counts = bench::BenchThreadCounts();
  std::printf("=== Table 3: TPC-H performance (ms), SF=%.3f%s ===\n", sf,
              interp_only ? " (interpreters only)" : "");
  bench::Harness harness(sf, "table3");

  std::vector<StackConfig> configs = {
      StackConfig::LegoBase(),  StackConfig::Level(2), StackConfig::Level(3),
      StackConfig::Level(4),    StackConfig::Level(5),
      StackConfig::Compliant()};

  std::printf("%-4s %10s %10s", "Q", "volcano", "ir-bc");
  if (with_jit) std::printf(" %10s", "ir-jit");
  if (!interp_only) {
    std::printf(" %10s %10s %10s %10s %10s %10s", "legobase", "dblab-2",
                "dblab-3", "dblab-4", "dblab-5", "compliant");
  }
  std::printf("\n");

  std::vector<Row> json_rows;
  int dblab5_wins = 0, total = 0;
  double jit_log_sum = 0;
  int jit_count = 0;
  double jit_deopt_sum = 0;  // total deopt events across all ir-jit runs
  bool have_deopts = false;
  for (int q = 1; q <= tpch::kNumQueries; ++q) {
    Row row;
    row.query = q;
    std::printf("Q%-3d", q);
    // Interpretation baseline (in-process Volcano evaluator).
    {
      qplan::PlanPtr plan = tpch::MakeQuery(q);
      qplan::ResolvePlan(plan.get(), harness.db());
      Timer t;
      storage::ResultTable r = volcano::Execute(*plan, harness.db());
      double ms = t.ElapsedMs();
      std::printf(" %10.2f", ms);
      row.cells.emplace_back("volcano", ms);
    }
    // The IR-engine rows: the same 5-level-stack function on the bytecode
    // VM (and the JIT), at each requested thread count (QC_BENCH_THREADS;
    // one JSON row per count).
    for (size_t t = 0; t < thread_counts.size(); ++t) {
      int threads = thread_counts[t];
      bench::InterpRun bc =
          harness.RunInterp(q, StackConfig::Level(5),
                            exec::InterpOptions::Engine::kBytecode, 3, threads);
      bench::InterpRun jit;
      if (with_jit) {
        jit = harness.RunInterp(q, StackConfig::Level(5),
                                exec::InterpOptions::Engine::kJit, 3, threads);
        if (jit.jit_deopts >= 0) {
          jit_deopt_sum += jit.jit_deopts;
          have_deopts = true;
        }
      }
      bench::InterpRun bc_gov, jit_gov;
      if (governed) {
        bc_gov = harness.RunInterp(q, StackConfig::Level(5),
                                   exec::InterpOptions::Engine::kBytecode, 3,
                                   threads, &gov_ctl);
        if (with_jit) {
          jit_gov = harness.RunInterp(q, StackConfig::Level(5),
                                      exec::InterpOptions::Engine::kJit, 3,
                                      threads, &gov_ctl);
        }
      }
      bench::InterpRun jit_obs_base, jit_obs;
      if (observed) {
        // The overhead gate compares the traced run against a plain run
        // measured immediately before it: the pair shares machine state
        // (frequency, cache, allocator), so the ratio isolates tracing
        // cost instead of minutes of drift between distant cells.
        // Best-of-5 (vs 3 elsewhere): the gate divides these two cells, so
        // a single scheduling spike in either run shows up as phantom
        // overhead; extra reps make the min robust to it.
        jit_obs_base = harness.RunInterp(q, StackConfig::Level(5),
                                         exec::InterpOptions::Engine::kJit, 5,
                                         threads);
        jit_obs = harness.RunInterp(q, StackConfig::Level(5),
                                    exec::InterpOptions::Engine::kJit, 5,
                                    threads, nullptr, /*traced=*/true);
      }
      bench::InterpRun jit_verify_base, jit_verify;
      if (verified) {
        // Same adjacent-pair discipline as the obs cells. The verified run
        // pays bytecode verification + stitch/W^X audit once at program-
        // cache fill (first repetition); best-of-5 then measures steady
        // state, which must be byte-for-byte the same execution path — the
        // gate bounding verify/base at ~1.0 is what proves the verifier
        // layer never runs per-row.
        exec::analysis::SetVerifyEnabledOverride(0);
        jit_verify_base = harness.RunInterp(
            q, StackConfig::Level(5), exec::InterpOptions::Engine::kJit, 5,
            threads);
        exec::analysis::SetVerifyEnabledOverride(1);
        jit_verify = harness.RunInterp(
            q, StackConfig::Level(5), exec::InterpOptions::Engine::kJit, 5,
            threads);
        exec::analysis::SetVerifyEnabledOverride(-1);
      }
      if (t == 0) {
        row.threads = threads;
        std::printf(" %10.2f", bc.query_ms);
        row.cells.emplace_back("ir-bc", bc.query_ms);
        if (with_jit) {
          std::printf(" %10.2f", jit.query_ms);
          row.cells.emplace_back("ir-jit", jit.query_ms);
          // Degradation is never invisible: the artifact records why a
          // kJit row ran on the VM (jit::JitFallback as int, 0 = native).
          row.cells.emplace_back("ir-jit-fallback",
                                 static_cast<double>(jit.jit_fallback));
          if (bench::BenchJitStats() && jit.jit_coverage >= 0) {
            row.cells.emplace_back("ir-jit-coverage", jit.jit_coverage);
            row.cells.emplace_back("ir-jit-deopts", jit.jit_deopts);
          }
          if (bc.ok && jit.ok && jit.query_ms > 0) {
            jit_log_sum += std::log(bc.query_ms / jit.query_ms);
            ++jit_count;
          }
        }
        if (governed) {
          row.cells.emplace_back("ir-bc-gov", bc_gov.query_ms);
          if (with_jit) row.cells.emplace_back("ir-jit-gov", jit_gov.query_ms);
        }
        if (observed) {
          row.cells.emplace_back("ir-jit-obs-base", jit_obs_base.query_ms);
          row.cells.emplace_back("ir-jit-obs", jit_obs.query_ms);
        }
        if (verified) {
          row.cells.emplace_back("ir-jit-verify-base",
                                 jit_verify_base.query_ms);
          row.cells.emplace_back("ir-jit-verify", jit_verify.query_ms);
        }
      } else {
        Row trow;
        trow.query = q;
        trow.threads = threads;
        trow.cells.emplace_back("ir-bc", bc.query_ms);
        if (with_jit) {
          trow.cells.emplace_back("ir-jit", jit.query_ms);
          trow.cells.emplace_back("ir-jit-fallback",
                                  static_cast<double>(jit.jit_fallback));
          if (bench::BenchJitStats() && jit.jit_coverage >= 0) {
            trow.cells.emplace_back("ir-jit-coverage", jit.jit_coverage);
            trow.cells.emplace_back("ir-jit-deopts", jit.jit_deopts);
          }
        }
        if (governed) {
          trow.cells.emplace_back("ir-bc-gov", bc_gov.query_ms);
          if (with_jit) {
            trow.cells.emplace_back("ir-jit-gov", jit_gov.query_ms);
          }
        }
        if (observed) {
          trow.cells.emplace_back("ir-jit-obs-base", jit_obs_base.query_ms);
          trow.cells.emplace_back("ir-jit-obs", jit_obs.query_ms);
        }
        if (verified) {
          trow.cells.emplace_back("ir-jit-verify-base",
                                  jit_verify_base.query_ms);
          trow.cells.emplace_back("ir-jit-verify", jit_verify.query_ms);
        }
        json_rows.push_back(std::move(trow));
        std::printf("  [t=%d: %0.2f", threads, bc.query_ms);
        if (with_jit) std::printf(" %0.2f", jit.query_ms);
        std::printf("]");
      }
    }
    double legobase_ms = 0, dblab5_ms = 0;
    if (!interp_only) {
      for (const StackConfig& cfg : configs) {
        bench::NativeRun run = harness.RunNative(q, cfg);
        std::printf(" %10.2f", run.ok ? run.query_ms : -1.0);
        std::fflush(stdout);
        row.cells.emplace_back(cfg.name, run.ok ? run.query_ms : -1.0);
        if (cfg.name == "legobase") legobase_ms = run.query_ms;
        if (cfg.name == "dblab-lb-5") dblab5_ms = run.query_ms;
      }
    }
    std::printf("\n");
    std::fflush(stdout);
    json_rows.push_back(std::move(row));
    if (!interp_only) {
      ++total;
      if (dblab5_ms <= legobase_ms * 1.10) ++dblab5_wins;
    }
  }
  if (jit_count > 0) {
    std::printf("\nJIT vs bytecode VM: %.2fx geomean speedup (%d queries)\n",
                std::exp(jit_log_sum / jit_count), jit_count);
  }
  if (have_deopts) {
    // The deopt trajectory the PRs chase: with native sorts, all remaining
    // deopts should be once-per-query (container construction) or
    // once-per-output (kStrSubstr interning) — nothing per-row or
    // per-comparison.
    std::printf("JIT deopt events, all queries/threads: %.0f\n",
                jit_deopt_sum);
  }
  if (!interp_only) {
    std::printf(
        "DBLAB/LB 5 at least comparable (<=1.1x) to LegoBase on %d/%d "
        "queries\n",
        dblab5_wins, total);
    std::printf("(paper: 20/22 queries, avg 5x speedup over LegoBase)\n");
  }
  std::string json = bench::BenchJsonPath("BENCH_table3.json");
  if (!json.empty()) WriteJson(json, sf, json_rows);
  return 0;
}
