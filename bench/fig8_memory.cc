// Reproduces Figure 8: memory consumption of the generated C code for each
// TPC-H query (DBLAB/LB 5-level stack). The generated programs report their
// allocation footprint (pools + heap + generic-collection nodes); we print
// it alongside the input-data size, reproducing the paper's observation that
// allocated memory stays within a small multiple of the input size for most
// queries.
#include <cstdio>

#include "bench_util.h"

using namespace qc;  // NOLINT

int main() {
  double sf = KnobDouble(Knob::kBenchSf);
  std::printf("=== Figure 8: memory consumption of generated code, SF=%.3f ===\n",
              sf);
  bench::Harness harness(sf, "fig8");
  double input_mb =
      static_cast<double>(harness.db().MemoryBytes()) / (1024 * 1024);
  std::printf("input data: %.1f MB\n", input_mb);
  std::printf("%-4s %14s %12s\n", "Q", "alloc [MB]", "x input");
  for (int q = 1; q <= tpch::kNumQueries; ++q) {
    bench::NativeRun run =
        harness.RunNative(q, compiler::StackConfig::Level(5), 1);
    double mb = static_cast<double>(run.mem_bytes) / (1024 * 1024);
    std::printf("Q%-3d %14.2f %12.2f\n", q, mb, mb / input_mb);
  }
  std::printf(
      "(paper: allocated memory at most ~2x input size for most queries)\n");
  return 0;
}
