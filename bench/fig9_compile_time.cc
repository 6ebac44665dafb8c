// Reproduces Figure 9: compilation time per TPC-H query, split into
// (a) DBLAB/LB program optimization + C code generation and (b) the C
// compiler. The paper's observation: the two halves are of comparable
// magnitude and the total stays well under a second per query.
#include <cstdio>

#include "bench_util.h"

using namespace qc;  // NOLINT

int main() {
  double sf = KnobDouble(Knob::kBenchSf);
  std::printf("=== Figure 9: compilation time split, SF=%.3f ===\n", sf);
  bench::Harness harness(sf, "fig9");
  std::printf("%-4s %16s %16s %12s\n", "Q", "generation [ms]", "cc [ms]",
              "total [s]");
  double sum_gen = 0, sum_cc = 0;
  for (int q = 1; q <= tpch::kNumQueries; ++q) {
    bench::NativeRun run =
        harness.RunNative(q, compiler::StackConfig::Level(5), 1);
    std::printf("Q%-3d %16.1f %16.1f %12.2f\n", q, run.generate_ms, run.cc_ms,
                (run.generate_ms + run.cc_ms) / 1000.0);
    sum_gen += run.generate_ms;
    sum_cc += run.cc_ms;
  }
  std::printf("avg  %16.1f %16.1f\n", sum_gen / tpch::kNumQueries,
              sum_cc / tpch::kNumQueries);
  std::printf(
      "(paper: ~0.2-1.2s total per query, split roughly evenly between "
      "DBLAB/LB and CLang)\n");
  return 0;
}
