// C backend end-to-end: generated programs must compile with the system C
// compiler and print exactly the rows the Volcano oracle computes, for a
// sample of TPC-H queries across stack configurations.
#include <gtest/gtest.h>

#include <sys/stat.h>

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "cgen/cc_driver.h"
#include "cgen/emit.h"
#include "compiler/compiler.h"
#include "scoped_env.h"
#include "storage/result.h"
#include "tpch/datagen.h"
#include "tpch/queries.h"
#include "volcano/volcano.h"

namespace qc {
namespace {

using compiler::QueryCompiler;
using compiler::StackConfig;

class CgenTest : public ::testing::TestWithParam<int> {
 protected:
  static storage::Database* db() {
    static storage::Database* db = [] {
      auto* d = new storage::Database(tpch::MakeTpchDatabase(0.002, 11));
      system(("mkdir -p " + WorkDir()).c_str());
      d->ExportBinary(WorkDir());
      return d;
    }();
    return db;
  }

  static std::string WorkDir() {
    const char* t = getenv("TMPDIR");
    return std::string(t != nullptr ? t : "/tmp") + "/qcstack_cgen_test";
  }
};

TEST_P(CgenTest, GeneratedCMatchesOracle) {
  int q = GetParam();
  qplan::PlanPtr plan = tpch::MakeQuery(q);
  qplan::ResolvePlan(plan.get(), *db());
  storage::ResultTable oracle = volcano::Execute(*plan, *db());
  std::vector<std::string> expected;
  for (size_t i = 0; i < oracle.size(); ++i) {
    expected.push_back(oracle.RowToString(i));
  }
  std::sort(expected.begin(), expected.end());

  // All queries compile and run natively at the full stack; a sample also
  // exercises the 2-level (generic-collection) code path to keep the suite
  // fast.
  std::vector<int> levels_to_test = {5};
  for (int sample : {1, 3, 5, 6, 9, 13, 14, 18, 22}) {
    if (q == sample) levels_to_test.push_back(2);
  }
  for (int levels : levels_to_test) {
    StackConfig cfg = StackConfig::Level(levels);
    ir::TypeFactory types;
    QueryCompiler qc(db(), &types);
    compiler::CompileResult res =
        qc.Compile(*plan, cfg, "q" + std::to_string(q));
    std::string src = cgen::EmitProgram(*res.fn, *db(), WorkDir());
    db()->ExportAux(WorkDir());  // dictionaries/indexes the program expects

    cgen::CcDriver driver(WorkDir());
    double compile_ms = 0;
    std::string error;
    std::string bin = driver.Compile(
        "q" + std::to_string(q) + "_l" + std::to_string(levels), src,
        &compile_ms, &error);
    ASSERT_FALSE(bin.empty()) << "Q" << q << " L" << levels
                              << " compile failed:\n"
                              << error;
    cgen::RunOutput out = driver.Run(bin);
    ASSERT_TRUE(out.ok) << "Q" << q << " L" << levels << ": " << out.error;

    std::vector<std::string> got = out.row_text;
    std::sort(got.begin(), got.end());
    EXPECT_EQ(got, expected) << "Q" << q << " L" << levels;
  }
}

INSTANTIATE_TEST_SUITE_P(AllQueries, CgenTest, ::testing::Range(1, 23));

// Integer division by zero is 0 in generated C, as in the VM, the JIT and
// the oracle. The inner join's residual divides by `o_orderkey % 3`; its
// probe-only conjuncts now run before the lookup, on every orders row.
class CgenZeroDivisorTest : public CgenTest {};

TEST_F(CgenZeroDivisorTest, HoistedResidualDividesByZeroAsZero) {
  using namespace qplan;  // NOLINT
  PlanPtr plan = ProjectOp(
      JoinOp(JoinKind::kInner, ScanOp("orders"), ScanOp("customer"),
             {Col("o_custkey")}, {Col("c_custkey")},
             And(Ge(DivE(I(1000), Mod(Col("o_orderkey"), I(3))), I(500)),
                 Gt(Col("c_acctbal"), F(0.0)))),
      {NamedExpr{"o_orderkey", Col("o_orderkey")},
       NamedExpr{"k", Mod(I(7), Mod(Col("o_orderkey"), I(2)))}});
  ResolvePlan(plan.get(), *db());
  storage::ResultTable oracle = volcano::Execute(*plan, *db());
  std::vector<std::string> expected;
  for (size_t i = 0; i < oracle.size(); ++i) {
    expected.push_back(oracle.RowToString(i));
  }
  std::sort(expected.begin(), expected.end());
  ASSERT_FALSE(expected.empty());

  for (int levels : {2, 5}) {
    ir::TypeFactory types;
    QueryCompiler qc(db(), &types);
    compiler::CompileResult res =
        qc.Compile(*plan, StackConfig::Level(levels), "zero_div");
    std::string src = cgen::EmitProgram(*res.fn, *db(), WorkDir());
    db()->ExportAux(WorkDir());
    cgen::CcDriver driver(WorkDir());
    double compile_ms = 0;
    std::string error;
    std::string bin = driver.Compile("zero_div_l" + std::to_string(levels),
                                     src, &compile_ms, &error);
    ASSERT_FALSE(bin.empty()) << "L" << levels << ":\n" << error;
    cgen::RunOutput out = driver.Run(bin);
    ASSERT_TRUE(out.ok) << "L" << levels << ": " << out.error;
    std::vector<std::string> got = out.row_text;
    std::sort(got.begin(), got.end());
    EXPECT_EQ(got, expected) << "L" << levels;
  }
}

// Binary-cache robustness: an injected failure of the cache-source write
// (QC_FAULT=cc_cache_write) must surface as a clean Compile error without
// installing a truncated .c for a later process to pick up — the atomic
// temp + rename(2) protocol. Disarmed, the identical Compile succeeds.
TEST(CgenCacheFaultTest, FailedSourceWriteLeavesNoPartialFile) {
  std::string dir = std::string(getenv("TMPDIR") != nullptr
                                    ? getenv("TMPDIR")
                                    : "/tmp") +
                    "/qcstack_cgen_fault_test";
  system(("rm -rf " + dir + " && mkdir -p " + dir).c_str());
  cgen::CcDriver driver(dir);
  const char* kSrc =
      "#include <stdio.h>\n"
      "int main(void) {\n"
      "  printf(\"ROWS=1 TIME_MS=0.0 MEM_BYTES=0\\n\");\n"
      "  return 0;\n"
      "}\n";

  std::string error;
  std::string bin;
  {
    ScopedEnv fault("QC_FAULT", "cc_cache_write:1");
    bin = driver.Compile("fault_probe", kSrc, nullptr, &error);
  }
  EXPECT_TRUE(bin.empty()) << "injected write failure must fail Compile";
  EXPECT_NE(error.find("cannot write"), std::string::npos) << error;
  // Neither the final source nor any temp may survive the failed write.
  struct stat st;
  EXPECT_NE(::stat((dir + "/fault_probe.c").c_str(), &st), 0)
      << "partial cache source left behind";

  // Same driver, same source, fault disarmed: the cache fill completes and
  // the binary runs.
  bin = driver.Compile("fault_probe", kSrc, nullptr, &error);
  ASSERT_FALSE(bin.empty()) << error;
  cgen::RunOutput out = driver.Run(bin);
  EXPECT_TRUE(out.ok) << out.error;
}

// The binary cache keys on every project header a generated program
// includes: qc_runtime.h and, transitively, each header it names in a
// quoted #include (the shared scalar ops), resolved against the includer's
// directory as the compiler does. An edit to any of them compiles afresh.
TEST(CgenCacheKeyTest, KeysEveryQuotedIncludeOfTheRuntimeHeader) {
  const std::filesystem::path root(QC_SOURCE_DIR);
  std::vector<std::string> keyed;
  for (const char* header : cgen::kRuntimeHeaders) {
    keyed.push_back((root / header).lexically_normal().string());
    EXPECT_TRUE(std::filesystem::exists(keyed.back())) << header;
  }
  std::vector<std::filesystem::path> todo = {root / "src/cgen/qc_runtime.h"};
  std::vector<std::string> seen;
  while (!todo.empty()) {
    std::string path = todo.back().lexically_normal().string();
    todo.pop_back();
    if (std::count(seen.begin(), seen.end(), path) > 0) continue;
    seen.push_back(path);
    EXPECT_EQ(std::count(keyed.begin(), keyed.end(), path), 1)
        << path << " is included but missing from the binary-cache key";
    std::ifstream f(path);
    for (std::string line; std::getline(f, line);) {
      size_t at = line.find("#include \"");
      if (at == std::string::npos) continue;
      at += 10;
      todo.push_back(std::filesystem::path(path).parent_path() /
                     line.substr(at, line.find('"', at) - at));
    }
  }
  EXPECT_GE(seen.size(), 2u) << "qc_runtime.h includes the shared scalar ops";
}

}  // namespace
}  // namespace qc
