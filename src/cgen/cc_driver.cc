#include "cgen/cc_driver.h"

#include <sys/stat.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>

#include "common/fault.h"
#include "common/hash.h"
#include "common/knobs.h"
#include "common/timer.h"

namespace qc::cgen {

namespace {

// Runs a shell command, capturing stdout into `out` (stderr appended).
int RunCommand(const std::string& cmd, std::string* out) {
  std::string full = cmd + " 2>&1";
  FILE* pipe = popen(full.c_str(), "r");
  if (pipe == nullptr) return -1;
  char buf[4096];
  while (fgets(buf, sizeof(buf), pipe) != nullptr) {
    if (out != nullptr) out->append(buf);
  }
  return pclose(pipe);
}

bool FileExists(const std::string& path) {
  struct stat st;
  return ::stat(path.c_str(), &st) == 0 && S_ISREG(st.st_mode);
}

// Generated programs #include the runtime header from the source tree, so
// its contents must be part of the cache key — otherwise editing it would
// silently reuse stale binaries.
uint64_t RuntimeHeaderHash() {
  static const uint64_t h = [] {
#ifdef QC_SOURCE_DIR
    std::ifstream f(std::string(QC_SOURCE_DIR) + "/src/cgen/qc_runtime.h");
    std::string text((std::istreambuf_iterator<char>(f)),
                     std::istreambuf_iterator<char>());
    return HashString(text);
#else
    return uint64_t{0};
#endif
  }();
  return h;
}

}  // namespace

CcDriver::CcDriver(std::string work_dir) : work_dir_(std::move(work_dir)) {
  if (const char* override_dir = KnobStr(Knob::kCcCacheDir)) {
    work_dir_ = override_dir;
    std::error_code ec;  // mkdir -p without a shell: no quoting hazards
    std::filesystem::create_directories(work_dir_, ec);
    if (ec) {
      std::fprintf(stderr, "cc_driver: cannot create QC_CC_CACHE_DIR %s\n",
                   override_dir);
    }
  }
}

std::string CcDriver::Compile(const std::string& name,
                              const std::string& source, double* compile_ms,
                              std::string* error) {
  // Generated code is C-style C++ (sort lambdas): compile with -x c++.
  const char* kFlags = "-O2 -x c++ -std=c++17";
  // Binaries are cached keyed by a hash of the generated source plus the
  // compiler flags: re-running a bench configuration that produces
  // identical code skips the external compiler entirely.
  uint64_t key = HashCombine(HashCombine(HashString(source),
                                         HashString(kFlags)),
                             RuntimeHeaderHash());
  char tag[32];
  std::snprintf(tag, sizeof(tag), "_%016llx",
                static_cast<unsigned long long>(key));
  std::string src_path = work_dir_ + "/" + name + ".c";
  std::string bin_path = work_dir_ + "/" + name + tag + ".bin";
  if (FileExists(bin_path)) {
    if (compile_ms != nullptr) *compile_ms = 0;  // cache hit: no cc run
    return bin_path;  // the matching .c is still there from the cache fill
  }
  // Write the source atomically too (temp + rename(2)): a crash or a
  // concurrent compile of the same name must never leave a truncated .c
  // behind for another process to feed to the compiler.
  {
    std::string src_tmp =
        src_path + ".tmp." + std::to_string(static_cast<long>(::getpid()));
    std::ofstream f(src_tmp);
    f << source;
    f.flush();
    bool write_failed = FaultPoint("cc_cache_write") || !f.good();
    f.close();
    if (write_failed ||
        std::rename(src_tmp.c_str(), src_path.c_str()) != 0) {
      std::remove(src_tmp.c_str());
      if (error != nullptr) *error = "cannot write " + src_path;
      return "";
    }
  }
  // Compile to a process-unique temp name and rename on success, so neither
  // an interrupted compiler nor a concurrent compile of the same source can
  // install a partial binary that later reads as a cache hit.
  std::string tmp_path =
      bin_path + ".tmp." + std::to_string(static_cast<long>(::getpid()));
  std::string cmd = std::string("c++ ") + kFlags + " -o " + tmp_path + " " +
                    src_path;
  Timer t;
  std::string log;
  int rc = RunCommand(cmd, &log);
  if (compile_ms != nullptr) *compile_ms = t.ElapsedMs();
  if (rc != 0) {
    if (error != nullptr) *error = log;
    return "";
  }
  if (std::rename(tmp_path.c_str(), bin_path.c_str()) != 0) {
    std::remove(tmp_path.c_str());
    if (error != nullptr) *error = "rename to " + bin_path + " failed";
    return "";
  }
  return bin_path;
}

RunOutput CcDriver::Run(const std::string& binary) {
  RunOutput out;
  std::string text;
  int rc = RunCommand(binary, &text);
  if (rc != 0) {
    out.error = "exit code " + std::to_string(rc) + "\n" + text;
    return out;
  }
  size_t pos = 0;
  while (pos < text.size()) {
    size_t eol = text.find('\n', pos);
    if (eol == std::string::npos) eol = text.size();
    std::string line = text.substr(pos, eol - pos);
    pos = eol + 1;
    long long rows;
    double ms;
    size_t mem;
    if (std::sscanf(line.c_str(), "ROWS=%lld TIME_MS=%lf MEM_BYTES=%zu",
                    &rows, &ms, &mem) == 3) {
      out.rows = rows;
      out.query_ms = ms;
      out.mem_bytes = mem;
      out.ok = true;
    } else if (line.rfind("ROW ", 0) == 0) {
      out.row_text.push_back(line.substr(4));
    }
  }
  if (!out.ok) out.error = "no ROWS= line in output:\n" + text;
  return out;
}

}  // namespace qc::cgen
