// Unit tests for the common substrate: date arithmetic, LIKE matching,
// arenas, deterministic RNG, hashing, environment knobs.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <set>
#include <vector>

#include "../bench/bench_util.h"
#include "common/arena.h"
#include "common/backoff.h"
#include "common/date.h"
#include "common/env.h"
#include "common/fault.h"
#include "common/hash.h"
#include "common/rng.h"
#include "common/str.h"

namespace qc {
namespace {

TEST(Date, PackAndExtract) {
  Date d = MakeDate(1995, 6, 17);
  EXPECT_EQ(DateYear(d), 1995);
  EXPECT_EQ(DateMonth(d), 6);
  EXPECT_EQ(DateDay(d), 17);
}

TEST(Date, ComparisonIsIntegerComparison) {
  EXPECT_LT(MakeDate(1994, 12, 31), MakeDate(1995, 1, 1));
  EXPECT_LT(MakeDate(1995, 1, 31), MakeDate(1995, 2, 1));
  EXPECT_LT(MakeDate(1995, 2, 1), MakeDate(1995, 2, 2));
}

TEST(Date, AddMonthsClampsDay) {
  EXPECT_EQ(DateAddMonths(MakeDate(1995, 1, 31), 1), MakeDate(1995, 2, 28));
  EXPECT_EQ(DateAddMonths(MakeDate(1995, 11, 30), 3), MakeDate(1996, 2, 28));
  EXPECT_EQ(DateAddMonths(MakeDate(1995, 6, 15), 12), MakeDate(1996, 6, 15));
  EXPECT_EQ(DateAddMonths(MakeDate(1995, 6, 15), -6), MakeDate(1994, 12, 15));
}

TEST(Date, AddDaysWalksBoundaries) {
  EXPECT_EQ(DateAddDays(MakeDate(1995, 1, 31), 1), MakeDate(1995, 2, 1));
  EXPECT_EQ(DateAddDays(MakeDate(1995, 12, 31), 1), MakeDate(1996, 1, 1));
  EXPECT_EQ(DateAddDays(MakeDate(1995, 1, 1), -1), MakeDate(1994, 12, 31));
}

TEST(Date, ParseFormatRoundtrip) {
  EXPECT_EQ(ParseDate("1998-09-02"), MakeDate(1998, 9, 2));
  EXPECT_EQ(FormatDate(MakeDate(1998, 9, 2)), "1998-09-02");
  EXPECT_EQ(ParseDate("bogus"), 0);
}

class DateOrdinalTest : public ::testing::TestWithParam<int> {};

TEST_P(DateOrdinalTest, OrdinalRoundtrip) {
  int ordinal = GetParam();
  Date d = OrdinalToDate(ordinal);
  EXPECT_EQ(DateToOrdinal(d), ordinal);
  // Consecutive ordinals are consecutive dates.
  EXPECT_EQ(OrdinalToDate(ordinal + 1), DateAddDays(d, 1));
}

INSTANTIATE_TEST_SUITE_P(Sweep, DateOrdinalTest,
                         ::testing::Values(0, 1, 27, 58, 364, 365, 1000, 2000,
                                           2399));

struct LikeCase {
  const char* text;
  const char* pattern;
  bool match;
};

class StrLikeTest : public ::testing::TestWithParam<LikeCase> {};

TEST_P(StrLikeTest, MatchesSqlSemantics) {
  const LikeCase& c = GetParam();
  EXPECT_EQ(StrLike(c.text, c.pattern), c.match)
      << "'" << c.text << "' LIKE '" << c.pattern << "'";
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, StrLikeTest,
    ::testing::Values(
        LikeCase{"hello", "hello", true}, LikeCase{"hello", "hell", false},
        LikeCase{"hello world", "hello%", true},
        LikeCase{"hello world", "%world", true},
        LikeCase{"hello world", "%lo wo%", true},
        LikeCase{"hello world", "hello%world", true},
        LikeCase{"hello world", "%o%o%", true},
        LikeCase{"hello world", "%x%", false},
        LikeCase{"special packages requests", "%special%requests%", true},
        LikeCase{"requests then special", "%special%requests%", false},
        LikeCase{"", "%", true}, LikeCase{"", "", true},
        LikeCase{"abc", "%", true}, LikeCase{"abc", "%%", true},
        LikeCase{"MEDIUM POLISHED TIN", "MEDIUM POLISHED%", true},
        LikeCase{"PROMO BRUSHED TIN", "PROMO%", true},
        LikeCase{"Customer complains Complaints", "%Customer%Complaints%",
                 true}));

TEST(StrHelpers, PrefixSuffixInfix) {
  EXPECT_TRUE(StrStartsWith("forest green", "forest"));
  EXPECT_FALSE(StrStartsWith("fo", "forest"));
  EXPECT_TRUE(StrEndsWith("ECONOMY ANODIZED BRASS", "BRASS"));
  EXPECT_FALSE(StrEndsWith("BRASS", "ECONOMY ANODIZED BRASS"));
  EXPECT_TRUE(StrContains("dark green ivory", "green"));
  EXPECT_FALSE(StrContains("dark grey ivory", "green"));
}

TEST(Arena, AllocatesAlignedAndTracks) {
  Arena a(128);
  void* p1 = a.Allocate(10);
  void* p2 = a.Allocate(10);
  EXPECT_NE(p1, p2);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(p1) % alignof(std::max_align_t), 0u);
  EXPECT_EQ(a.bytes_used(), 20u);
  // Oversized allocations get their own block.
  void* big = a.Allocate(1000);
  EXPECT_NE(big, nullptr);
  EXPECT_GE(a.bytes_reserved(), 1000u);
}

TEST(Arena, NewConstructsObjects) {
  Arena a;
  struct Pt { int x, y; };
  Pt* p = a.New<Pt>(Pt{3, 4});
  EXPECT_EQ(p->x, 3);
  EXPECT_EQ(p->y, 4);
}

TEST(Rng, DeterministicAcrossInstances) {
  Rng a(123), b(123), c(124);
  bool all_equal = true, any_diff = false;
  for (int i = 0; i < 100; ++i) {
    uint64_t va = a.Next(), vb = b.Next(), vc = c.Next();
    all_equal &= (va == vb);
    any_diff |= (va != vc);
  }
  EXPECT_TRUE(all_equal);
  EXPECT_TRUE(any_diff);
}

TEST(Rng, UniformStaysInRange) {
  Rng r(7);
  for (int i = 0; i < 1000; ++i) {
    int64_t v = r.Uniform(5, 17);
    EXPECT_GE(v, 5);
    EXPECT_LE(v, 17);
    double d = r.UniformDouble(0.0, 1.0);
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Hash, DistributesAndIsStable) {
  EXPECT_EQ(HashMix(42), HashMix(42));
  EXPECT_NE(HashMix(42), HashMix(43));
  EXPECT_EQ(HashString("abc"), HashString("abc"));
  EXPECT_NE(HashString("abc"), HashString("abd"));
  std::set<uint64_t> seen;
  for (uint64_t i = 0; i < 1000; ++i) seen.insert(HashMix(i));
  EXPECT_EQ(seen.size(), 1000u);
}

// Environment-knob hardening (common/env.h): every QC_* integer knob must
// survive garbage, zero, and negative values without wrapping, crashing,
// or — for divisor knobs — dividing by zero. One test per knob, each
// exercised through the exact parse call its call site uses.
class EnvKnobTest : public ::testing::Test {
 protected:
  void SetKnob(const char* name, const char* v) {
    ::setenv(name, v, 1);
    set_.push_back(name);
  }
  void TearDown() override {
    for (const char* name : set_) ::unsetenv(name);
  }
  std::vector<const char*> set_;
};

TEST_F(EnvKnobTest, ClampedKnobNeverReachesZero) {
  // The clamp contract of divisor-style knobs: zero and negative values
  // clamp to the floor, garbage keeps the default, overflow clamps high.
  auto read = [] { return EnvIntClamped("QC_TEST_INT_KNOB", 2, 1, 1 << 20); };
  EXPECT_EQ(read(), 2);  // unset: default
  SetKnob("QC_TEST_INT_KNOB", "0");
  EXPECT_EQ(read(), 1);  // zero clamps, never divides by zero
  SetKnob("QC_TEST_INT_KNOB", "-7");
  EXPECT_EQ(read(), 1);
  SetKnob("QC_TEST_INT_KNOB", "garbage");
  EXPECT_EQ(read(), 2);
  SetKnob("QC_TEST_INT_KNOB", "4x");  // trailing garbage: rejected whole
  EXPECT_EQ(read(), 2);
  SetKnob("QC_TEST_INT_KNOB", "4");
  EXPECT_EQ(read(), 4);
  SetKnob("QC_TEST_INT_KNOB", "99999999999999999999");  // overflow: clamped
  EXPECT_EQ(read(), 1 << 20);
}

TEST_F(EnvKnobTest, ParSortMinStaysPositive) {
  // Exactly the parse exec/parallel.cc ParallelSortMinChunk() performs.
  auto read = [] {
    return EnvIntClamped("QC_PAR_SORT_MIN", 2048, 2, 1ll << 40);
  };
  EXPECT_EQ(read(), 2048);
  SetKnob("QC_PAR_SORT_MIN", "0");
  EXPECT_EQ(read(), 2);  // a chunk must hold at least two rows
  SetKnob("QC_PAR_SORT_MIN", "-1");
  EXPECT_EQ(read(), 2);
  SetKnob("QC_PAR_SORT_MIN", "none");
  EXPECT_EQ(read(), 2048);
  SetKnob("QC_PAR_SORT_MIN", "512");
  EXPECT_EQ(read(), 512);
}

TEST_F(EnvKnobTest, BenchThreadsRejectsNegativeAndGarbage) {
  // bench_util.h BenchThreadCounts: comma list, tokens validated in [1, 1024].
  auto read = [] { return EnvIntList("QC_BENCH_THREADS", 1, 1, 1024); };
  EXPECT_EQ(read(), std::vector<long long>({1}));  // unset: sequential
  SetKnob("QC_BENCH_THREADS", "-1");
  EXPECT_EQ(read(), std::vector<long long>({1}));  // no wrap to huge count
  SetKnob("QC_BENCH_THREADS", "zzz");
  EXPECT_EQ(read(), std::vector<long long>({1}));
  SetKnob("QC_BENCH_THREADS", "1,2,4");
  EXPECT_EQ(read(), std::vector<long long>({1, 2, 4}));
  SetKnob("QC_BENCH_THREADS", "2x,3");  // bad token dropped, good one kept
  EXPECT_EQ(read(), std::vector<long long>({3}));
  SetKnob("QC_BENCH_THREADS", "0,8,1000000");  // out-of-range tokens dropped
  EXPECT_EQ(read(), std::vector<long long>({8}));
  SetKnob("QC_BENCH_THREADS", ",,");
  EXPECT_EQ(read(), std::vector<long long>({1}));
}

TEST_F(EnvKnobTest, BenchScaleFactorRejectsGarbageAndNonPositive) {
  // An SF of 0 would put every bench cell under the regression gate's
  // floor and silently turn the gate off.
  EXPECT_EQ(bench::BenchScaleFactor(), 0.05);  // unset: default
  for (const char* bad : {"abc", "", "0", "-1", "0.1x", "inf", "nan"}) {
    SetKnob("QC_BENCH_SF", bad);
    EXPECT_EQ(bench::BenchScaleFactor(), 0.05) << "QC_BENCH_SF=" << bad;
  }
  SetKnob("QC_BENCH_SF", " 0.02\n");  // stray whitespace is fine
  EXPECT_EQ(bench::BenchScaleFactor(), 0.02);
  SetKnob("QC_BENCH_SF", "0.1");
  EXPECT_EQ(bench::BenchScaleFactor(), 0.1);
}

TEST_F(EnvKnobTest, JitStatsLevelNeverNegative) {
  auto read = [] { return EnvLevel("QC_JIT_STATS"); };
  EXPECT_EQ(read(), 0);
  SetKnob("QC_JIT_STATS", "2");
  EXPECT_EQ(read(), 2);
  SetKnob("QC_JIT_STATS", "-3");
  EXPECT_EQ(read(), 0);  // clamped: a negative level is "off"
  SetKnob("QC_JIT_STATS", "true");
  EXPECT_EQ(read(), 1);  // flag-style value follows the flag rule
  SetKnob("QC_JIT_STATS", "0");
  EXPECT_EQ(read(), 0);
}

TEST_F(EnvKnobTest, EnvIntRejectsTrailingGarbage) {
  auto read = [] { return EnvInt("QC_TEST_INT_KNOB", 7); };
  EXPECT_EQ(read(), 7);
  SetKnob("QC_TEST_INT_KNOB", "12abc");
  EXPECT_EQ(read(), 7);  // partial parses are whole-value rejections
  SetKnob("QC_TEST_INT_KNOB", "12");
  EXPECT_EQ(read(), 12);
  SetKnob("QC_TEST_INT_KNOB", "");
  EXPECT_EQ(read(), 7);
  // Stray whitespace (YAML env blocks, command substitutions with a
  // trailing newline) must not silently revert a valid value.
  SetKnob("QC_TEST_INT_KNOB", " 42 \n");
  EXPECT_EQ(read(), 42);
  SetKnob("QC_JIT_STATS", "2\n");
  EXPECT_EQ(EnvLevel("QC_JIT_STATS"), 2);
  ::unsetenv("QC_JIT_STATS");
  SetKnob("QC_BENCH_THREADS", "1, 2 ,4\n");
  EXPECT_EQ(EnvIntList("QC_BENCH_THREADS", 1, 1, 1024),
            std::vector<long long>({1, 2, 4}));
}

// Fault-injection spec parsing (common/fault.h): QC_FAULT arms a
// comma-separated list of <site>:<nth> pairs, each with its own occurrence
// counter. The fixture re-arms around every mutation so counters never
// leak across tests (or into other suites in this binary).
class FaultSpecTest : public ::testing::Test {
 protected:
  void Arm(const char* spec) {
    ::setenv("QC_FAULT", spec, 1);
    FaultReArm();
  }
  void TearDown() override {
    ::unsetenv("QC_FAULT");
    FaultReArm();
  }
};

TEST_F(FaultSpecTest, SingleSiteFiresExactlyOnNth) {
  Arm("site_a:3");
  EXPECT_FALSE(FaultPoint("site_a"));  // occurrence 1
  EXPECT_FALSE(FaultPoint("site_a"));  // occurrence 2
  EXPECT_TRUE(FaultPoint("site_a"));   // occurrence 3: fires
  EXPECT_FALSE(FaultPoint("site_a"));  // fires exactly once
  EXPECT_FALSE(FaultPoint("site_b"));  // unarmed site never fires
}

TEST_F(FaultSpecTest, MultiSiteCountersAreIndependent) {
  Arm("site_a:2,site_b:1");
  // site_b's counter must not advance on site_a occurrences (and vice
  // versa): interleave the calls.
  EXPECT_FALSE(FaultPoint("site_a"));  // a: 1 of 2
  EXPECT_TRUE(FaultPoint("site_b"));   // b: 1 of 1 — fires
  EXPECT_TRUE(FaultPoint("site_a"));   // a: 2 of 2 — fires
  EXPECT_FALSE(FaultPoint("site_a"));
  EXPECT_FALSE(FaultPoint("site_b"));
}

TEST_F(FaultSpecTest, ReArmResetsCounters) {
  Arm("site_a:2");
  EXPECT_FALSE(FaultPoint("site_a"));
  Arm("site_a:2");                     // re-arm: counting restarts
  EXPECT_FALSE(FaultPoint("site_a"));  // 1 of 2 again
  EXPECT_TRUE(FaultPoint("site_a"));
}

TEST_F(FaultSpecTest, MalformedEntriesNeverArm) {
  // Garbage entries must not arm anything — and must not disturb a valid
  // entry sharing the list.
  Arm("nonsense");
  EXPECT_FALSE(FaultPoint("nonsense"));
  Arm("site_a");  // missing :nth
  EXPECT_FALSE(FaultPoint("site_a"));
  Arm("site_a:abc");
  EXPECT_FALSE(FaultPoint("site_a"));
  Arm("site_a:0,site_b:1,:(");  // zero nth can never fire (1-based)
  EXPECT_FALSE(FaultPoint("site_a"));
  EXPECT_TRUE(FaultPoint("site_b"));  // the valid entry still works
  Arm("");
  EXPECT_FALSE(FaultPoint("site_a"));
}

// Retry backoff (common/backoff.h): full jitter, deterministic per seed,
// hard-bounded by min(max_ms, base_ms << attempt) and never below 1ms.
TEST(Backoff, DeterministicPerSeed) {
  Backoff a(7, 10, 1000), b(7, 10, 1000), c(8, 10, 1000);
  bool any_diff = false;
  for (int i = 0; i < 8; ++i) {
    int64_t da = a.NextDelayMs(i);
    EXPECT_EQ(da, b.NextDelayMs(i));  // same seed: same sequence
    any_diff |= da != c.NextDelayMs(i);
  }
  EXPECT_TRUE(any_diff);  // different seed: decorrelated
}

TEST(Backoff, BoundedByExponentialCapAndMax) {
  Backoff b(42, 4, 100);
  for (int trial = 0; trial < 200; ++trial) {
    for (int attempt = 0; attempt < 10; ++attempt) {
      int64_t cap = std::min<int64_t>(100, 4ll << attempt);
      int64_t d = b.NextDelayMs(attempt);
      EXPECT_GE(d, 1);
      EXPECT_LE(d, cap);
    }
  }
  // Huge attempt numbers must saturate at max, not shift into oblivion.
  EXPECT_LE(b.NextDelayMs(1000), 100);
}

TEST(Backoff, ZeroConfigNeverBusySpins) {
  Backoff b(1, 0, 0);  // both knobs misconfigured to zero
  for (int i = 0; i < 50; ++i) EXPECT_GE(b.NextDelayMs(i), 1);
}

}  // namespace
}  // namespace qc
