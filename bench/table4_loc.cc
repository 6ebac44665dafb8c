// Reproduces Table 4: lines of code per transformation (the productivity
// argument). Counted from this repository's actual pass sources at run time,
// mirroring how the paper reports its own implementation effort. The paper's
// absolute counts are for Scala on the SC framework; the reproduced claim is
// that every transformation is a small, independent module (hundreds of
// lines), with the biggest single item being the mechanical Scala->C (here
// IR->C) backend.
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

namespace {

int CountLoc(const std::string& path) {
  std::ifstream f(path);
  if (!f.is_open()) return -1;
  int n = 0;
  std::string line;
  while (std::getline(f, line)) {
    // Skip blanks and pure comment lines, as cloc-style counts do.
    size_t i = line.find_first_not_of(" \t");
    if (i == std::string::npos) continue;
    if (line.compare(i, 2, "//") == 0) continue;
    ++n;
  }
  return n;
}

}  // namespace

int main() {
  std::printf("=== Table 4: lines of code per transformation ===\n");
  const std::string src = std::string(QC_SOURCE_DIR) + "/src/";
  struct Row {
    const char* name;
    std::vector<std::string> files;
  };
  std::vector<Row> rows = {
      {"Pipelining in QPlan (push engine)",
       {"lower/pipeline.cc", "lower/expr_lower.cc"}},
      {"Pipelining in QMonad (shortcut fusion)", {"qmonad/qmonad.cc"}},
      {"String dictionaries", {"opt/string_dict.cc"}},
      {"Automatic index inference", {"opt/index_infer.cc"}},
      {"Data-structure specialization (hash + list)", {"opt/hash_spec.cc"}},
      {"Value-range analysis (partitioning support)", {"opt/range.cc"}},
      {"Memory-allocation hoisting", {"opt/pool_hoist.cc"}},
      {"Scalar replacement", {"opt/scalar_repl.cc"}},
      {"Condition flattening (&& -> &)", {"opt/cond_flatten.cc"}},
      {"Dead code elimination", {"opt/dce.cc"}},
      // The generated C's runtime layer: qc_runtime.h and the scalar ops it
      // includes, which the engines share (counted here only).
      {"IR -> C transformer (stringification)",
       {"cgen/emit.cc", "cgen/qc_runtime.h", "common/scalar_ops.h"}},
  };
  int total = 0;
  for (const Row& r : rows) {
    int loc = 0;
    for (const std::string& f : r.files) {
      int n = CountLoc(src + f);
      if (n > 0) loc += n;
    }
    std::printf("%-48s %6d\n", r.name, loc);
    total += loc;
  }
  std::printf("%-48s %6d\n", "Total", total);
  std::printf(
      "\n(paper Table 4: individual transformations 100-500 LoC, Scala->C "
      "transformer ~1300, total ~3200)\n");
  return 0;
}
