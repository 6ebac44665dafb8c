// Verdicts of the benchmark gates in bench/gates.h, on fixed cells: each
// failing case breaks exactly one bound, and the check that fails names
// the measured value.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "../bench/gates.h"

namespace qc::bench {
namespace {

// The lines of the checks that failed.
std::vector<std::string> Failures(const std::vector<Check>& checks) {
  std::vector<std::string> out;
  for (const Check& c : checks) {
    if (!c.ok) out.push_back(c.line);
  }
  return out;
}

// Four rows of one pair, base 2 ms, instrumented `factor` x base.
std::vector<PairCell> Pair(double factor) {
  std::vector<PairCell> cells;
  for (double base : {2.0, 4.0, 1.5, 8.0}) {
    cells.push_back({base, base * factor});
  }
  return cells;
}

// A clean unfaulted serve run: 2 clients per worker, served p95 twice the
// direct p95, the light tenant well under the heavy one.
ServeCells CleanServe() {
  ServeCells c{};
  c.ok = 200;
  c.shed_rate = 0.0;
  c.p95_ms = 4.0;
  c.direct_p95_ms = 2.0;
  c.clients_per_worker = 2.0;
  c.fair_light_ok = 40;
  c.fair_light_p95_ms = 3.0;
  c.fair_heavy_p95_ms = 20.0;
  return c;
}

TEST(BenchGate, CleanPasses) {
  Check pair = PairCheck("ir-jit-obs", Pair(1.01));
  EXPECT_TRUE(pair.ok) << pair.line;
  EXPECT_NE(pair.line.find("geomean +1.00% over 4 cells"), std::string::npos)
      << pair.line;
  EXPECT_TRUE(Failures(ServeChecks(CleanServe())).empty());
  EXPECT_TRUE(Report({pair}));
  EXPECT_TRUE(Report(ServeChecks(CleanServe())));
}

TEST(BenchGate, PairOverheadOverAllowanceFails) {
  Check pair = PairCheck("ir-jit-obs", Pair(1.05));
  EXPECT_FALSE(pair.ok);
  EXPECT_NE(pair.line.find("ir-jit-obs/ir-jit-obs-base: geomean +5.00%"),
            std::string::npos)
      << pair.line;
  EXPECT_FALSE(Report({PairCheck("ir-bc-gov", Pair(1.0)), pair}));
}

TEST(BenchGate, PairWithEveryBaseCellUnderFloorIsANotice) {
  std::vector<PairCell> cells = {{0.05, 0.09}, {0.02, 0.04}};
  Check pair = PairCheck("ir-jit-gov", cells);
  EXPECT_TRUE(pair.ok);
  EXPECT_EQ(pair.line.rfind("notice: every ir-jit-gov-base cell is under", 0),
            0u)
      << pair.line;
}

TEST(BenchGate, PairSkipsBaseCellsUnderFloor) {
  // The sub-floor row would read +100% on its own; the others read 0%.
  std::vector<PairCell> cells = Pair(1.0);
  cells.push_back({0.05, 0.10});
  EXPECT_TRUE(PairCheck("ir-jit-obs", cells).ok);
}

TEST(BenchGate, ShedRateOverAllowanceFails) {
  ServeCells c = CleanServe();
  c.shed_rate = 0.05;
  std::vector<std::string> f = Failures(ServeChecks(c));
  ASSERT_EQ(f.size(), 1u);
  EXPECT_NE(f[0].find("shed rate: 0.0500 (allowance 0.0100)"),
            std::string::npos)
      << f[0];
}

TEST(BenchGate, ZeroOkRequestsFails) {
  ServeCells c = CleanServe();
  c.ok = 0;
  std::vector<std::string> f = Failures(ServeChecks(c));
  ASSERT_EQ(f.size(), 1u);
  EXPECT_NE(f[0].find("ok requests: 0"), std::string::npos) << f[0];
}

TEST(BenchGate, ZeroLightTenantProbesFails) {
  ServeCells c = CleanServe();
  c.fair_light_ok = 0;
  c.fair_light_p95_ms = 0;
  std::vector<std::string> f = Failures(ServeChecks(c));
  ASSERT_EQ(f.size(), 1u);
  EXPECT_NE(f[0].find("light-tenant ok probes: 0"), std::string::npos) << f[0];
}

TEST(BenchGate, LightTenantConvergingOnHeavyFails) {
  ServeCells c = CleanServe();
  c.fair_light_p95_ms = 20.5;  // bound: 0.75 x 20 + 5 = 20
  std::vector<std::string> f = Failures(ServeChecks(c));
  ASSERT_EQ(f.size(), 1u);
  EXPECT_NE(f[0].find("light p95 20.500ms vs heavy p95 20.000ms"),
            std::string::npos)
      << f[0];
  c.fair_light_p95_ms = 19.9;
  EXPECT_TRUE(Failures(ServeChecks(c)).empty());
}

TEST(BenchGate, ServedP95OverBoundFails) {
  ServeCells c = CleanServe();
  c.p95_ms = 7.5;  // bound: 2 x 2 x 1.5 + 1 = 7
  std::vector<std::string> f = Failures(ServeChecks(c));
  ASSERT_EQ(f.size(), 1u);
  EXPECT_NE(f[0].find("serve p95: 7.500ms vs direct p95 2.000ms"),
            std::string::npos)
      << f[0];
  c.p95_ms = 6.9;
  EXPECT_TRUE(Failures(ServeChecks(c)).empty());
}

}  // namespace
}  // namespace qc::bench
