// Drives the system C compiler over generated translation units and runs
// the resulting binaries — the back half of the paper's pipeline (generated
// C compiled by CLang/GCC, Figure 9 splits the two phases) and the primary
// measurement path for Table 3.
#ifndef QC_CGEN_CC_DRIVER_H_
#define QC_CGEN_CC_DRIVER_H_

#include <string>
#include <vector>

namespace qc::cgen {

struct RunOutput {
  bool ok = false;
  int64_t rows = -1;
  double query_ms = 0;      // measured inside the generated program
  size_t mem_bytes = 0;     // allocation footprint of the generated program
  std::vector<std::string> row_text;  // canonical "a|b|c" row dump
  std::string error;
};

// Every project header a generated program includes, relative to the source
// tree: the runtime and the scalar ops it shares with the engines. The
// binary cache keys on their contents.
inline constexpr const char* kRuntimeHeaders[] = {"src/cgen/qc_runtime.h",
                                                  "src/common/scalar_ops.h"};

class CcDriver {
 public:
  // `work_dir` holds sources and cached binaries. QC_CC_CACHE_DIR, when
  // set, overrides it (created if missing) so CI jobs and sandboxed runs
  // sharing a machine don't collide on the default path; the data files a
  // generated program reads are unaffected (their directory is baked into
  // the generated source).
  explicit CcDriver(std::string work_dir);

  // Writes `source` to <name>.c and compiles it. Returns the binary path
  // (empty on failure). `compile_ms` receives the C-compiler wall time.
  // Binaries are cached in the work dir keyed by a hash of source, flags
  // and the runtime headers (kRuntimeHeaders);
  // a cache hit skips the compiler and reports 0 ms.
  std::string Compile(const std::string& name, const std::string& source,
                      double* compile_ms, std::string* error = nullptr);

  // Runs a compiled query binary and parses its output protocol.
  RunOutput Run(const std::string& binary);

  const std::string& work_dir() const { return work_dir_; }

 private:
  std::string work_dir_;
};

}  // namespace qc::cgen

#endif  // QC_CGEN_CC_DRIVER_H_
