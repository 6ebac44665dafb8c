// Ablation over the design choices DESIGN.md calls out: starting from the
// full 5-level stack, each transformation is disabled individually and a
// representative TPC-H subset re-measured natively. Shows where each
// optimization earns its keep (e.g. index inference on join-heavy queries,
// dictionaries + partitioned aggregation on Q1).
#include <cstdio>

#include "bench_util.h"

using namespace qc;           // NOLINT
using compiler::StackConfig;

int main() {
  double sf = KnobDouble(Knob::kBenchSf);
  std::printf("=== Ablation: 5-level stack minus one optimization, SF=%.3f ===\n",
              sf);
  bench::Harness harness(sf, "ablation");

  struct Variant {
    const char* name;
    StackConfig cfg;
  };
  std::vector<Variant> variants;
  variants.push_back({"full-L5", StackConfig::Level(5)});
  {
    StackConfig c = StackConfig::Level(5);
    c.string_dict = false;
    variants.push_back({"-dict", c});
  }
  {
    StackConfig c = StackConfig::Level(5);
    c.index_inference = false;
    variants.push_back({"-index", c});
  }
  {
    StackConfig c = StackConfig::Level(5);
    c.hash_spec = false;
    c.intrusive_lists = false;
    variants.push_back({"-hashspec", c});
  }
  {
    StackConfig c = StackConfig::Level(5);
    c.intrusive_lists = false;
    variants.push_back({"-intrusive", c});
  }
  {
    StackConfig c = StackConfig::Level(5);
    c.pool_hoist = false;
    variants.push_back({"-pools", c});
  }
  {
    StackConfig c = StackConfig::Level(5);
    c.scalar_repl = false;
    variants.push_back({"-scalar", c});
  }

  std::printf("%-4s", "Q");
  for (const Variant& v : variants) std::printf(" %11s", v.name);
  std::printf("\n");
  for (int q : {1, 3, 5, 6, 9, 12, 13, 14, 18}) {
    std::printf("Q%-3d", q);
    for (Variant& v : variants) {
      StackConfig cfg = v.cfg;
      cfg.name = std::string("abl_") + v.name;
      // Sanitize config name for file paths.
      for (char& c : cfg.name) {
        if (c == '-') c = '_';
      }
      bench::NativeRun run = harness.RunNative(q, cfg);
      std::printf(" %11.2f", run.ok ? run.query_ms : -1.0);
      std::fflush(stdout);
    }
    std::printf("\n");
  }
  return 0;
}
