// Unit tests for the common substrate: date arithmetic, LIKE matching,
// arenas, deterministic RNG, hashing, the environment-knob table.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "cgen/cc_driver.h"
#include "cgen/emit.h"
#include "common/arena.h"
#include "common/backoff.h"
#include "common/date.h"
#include "common/fault.h"
#include "common/hash.h"
#include "common/knobs.h"
#include "common/rng.h"
#include "common/str.h"
#include "compiler/compiler.h"
#include "exec/interp.h"
#include "jit/engine.h"
#include "qplan/plan.h"
#include "scoped_env.h"
#include "server/server.h"
#include "storage/database.h"
#include "volcano/volcano.h"

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

// The LIKE and SUBSTR edge sweep through all four backends: the Volcano
// oracle, the VM and the JIT at 1 and 4 threads, and a compiled
// generated-C program, each running one plan that projects one column per
// LIKE pattern and per SUBSTR shape. The '%'-dialect's edge shapes: empty
// segments, segments that overlap in the text, patterns longer than the
// text, '%' alone, no '%', an anchored prefix and suffix that overlap, and
// middle segments of 255, 256 and 300 bytes (the generated C once copied
// each middle segment into a 256-byte buffer and missed the longer ones).
// SUBSTR: a start past the end, a length past the end, the empty string.
TEST(StrLikeEdgeSweep, VolcanoVmJitAndGeneratedCAgree) {
  const std::string x255(255, 'x'), x256(256, 'x'), x300(300, 'x'),
      x302(302, 'x');
  const std::vector<std::string> kTexts = {
      "", "a", "aa", "ab", "aba", "abab", "abba", "abc", "abcc", "ba",
      "xabcx", "query", "compiler", x255, x256, x302};
  struct Case {
    std::string pattern;
    std::vector<std::string> matches;  // the texts it matches
  };
  const std::vector<Case> kCases = {
      // '%' only, and no '%' at all.
      {"%", kTexts},
      {"", {""}},
      {"ab", {"ab"}},
      // Empty segments: adjacent and repeated '%'s.
      {"%%", kTexts},
      {"a%%c", {"abc", "abcc"}},
      {"%%b%%", {"ab", "aba", "abab", "abba", "abc", "abcc", "ba", "xabcx"}},
      // Middle segments must not overlap each other or the suffix.
      {"%ab%ba%", {"abba"}},
      {"%bc%c", {"abcc"}},
      {"ab%bc%", {}},
      // Anchored prefix and suffix that overlap in short texts.
      {"ab%ba", {"abba"}},
      {"a%a", {"aa", "aba", "abba"}},
      {"ab%b", {"abab"}},
      // Patterns longer than every text.
      {"abcabc", {}},
      {"%abcabc%", {}},
      {"abcab%", {}},
      {"%cabcc", {}},
      // Long middle segments, either side of 256 bytes.
      {"%" + x255 + "%", {x255, x256, x302}},
      {"%" + x256 + "%", {x256, x302}},
      {"%" + x300 + "%", {x302}},
      {"%" + x256 + "y%", {}},
  };
  struct SubstrCase {
    int start, len;
  };
  const SubstrCase kSubstrs[] = {{1, 3}, {2, 100}, {40, 2}};

  // Enough copies of the texts that 4 threads split the scan into morsels.
  constexpr int kCopies = 256;
  storage::Database db;
  storage::TableDef def;
  def.name = "T";
  def.columns = {{"s", storage::ColType::kStr}};
  storage::Table* t = db.AddTable(def);
  for (int copy = 0; copy < kCopies; ++copy) {
    for (const std::string& text : kTexts) {
      t->column(0).data.push_back(SlotS(t->InternString(text)));
    }
  }
  std::vector<qplan::NamedExpr> cols;
  for (const Case& c : kCases) {
    cols.push_back({"m" + std::to_string(cols.size()),
                     qplan::Like(qplan::Col("s"), c.pattern)});
  }
  for (const SubstrCase& sc : kSubstrs) {
    cols.push_back({"m" + std::to_string(cols.size()),
                     qplan::Substr(qplan::Col("s"), sc.start, sc.len)});
  }
  qplan::PlanPtr plan = qplan::ProjectOp(qplan::ScanOp("T"), std::move(cols));
  qplan::ResolvePlan(plan.get(), db);

  // The expected row of each text: the SQL answer per pattern, then each
  // SUBSTR through std::string's own clamp.
  std::vector<std::string> want;
  for (const std::string& text : kTexts) {
    std::string row;
    for (const Case& c : kCases) {
      bool match = std::count(c.matches.begin(), c.matches.end(), text) > 0;
      row += std::string(row.empty() ? "" : "|") + (match ? "1" : "0");
    }
    for (const SubstrCase& sc : kSubstrs) {
      row += "|" + text.substr(std::min<size_t>(sc.start, text.size()),
                               sc.len);
    }
    want.push_back(row);
  }
  auto expect_rows = [&](const std::vector<std::string>& got,
                         const std::string& backend) {
    ASSERT_EQ(got.size(), kTexts.size() * kCopies) << backend;
    for (size_t r = 0; r < got.size(); ++r) {
      EXPECT_EQ(got[r], want[r % kTexts.size()])
          << backend << ", text '" << kTexts[r % kTexts.size()] << "'";
      if (got[r] != want[r % kTexts.size()]) return;  // one report each
    }
  };
  auto rows_of = [](const storage::ResultTable& res) {
    std::vector<std::string> rows;
    for (size_t i = 0; i < res.size(); ++i) rows.push_back(res.RowToString(i));
    return rows;
  };

  expect_rows(rows_of(volcano::Execute(*plan, db)), "volcano");

  ir::TypeFactory types;
  compiler::QueryCompiler qc(&db, &types);
  compiler::CompileResult res =
      qc.Compile(*plan, compiler::StackConfig::Level(5), "like_sweep");
  for (exec::InterpOptions::Engine engine :
       {exec::InterpOptions::Engine::kBytecode,
        exec::InterpOptions::Engine::kJit}) {
    for (int threads : {1, 4}) {
      exec::InterpOptions opts;
      opts.engine = engine;
      opts.num_threads = threads;
      exec::Interpreter interp(&db, opts);
      expect_rows(rows_of(interp.Run(*res.fn)),
                  std::string(engine == exec::InterpOptions::Engine::kJit
                                  ? "jit"
                                  : "vm") +
                      " threads " + std::to_string(threads));
    }
  }

  const char* tmp = std::getenv("TMPDIR");
  const std::string dir =
      std::string(tmp != nullptr ? tmp : "/tmp") + "/qcstack_like_sweep";
  std::filesystem::create_directories(dir);
  db.ExportBinary(dir);
  std::string src = cgen::EmitProgram(*res.fn, db, dir);
  db.ExportAux(dir);
  cgen::CcDriver driver(dir);
  std::string error;
  std::string bin = driver.Compile("like_sweep", src, nullptr, &error);
  ASSERT_FALSE(bin.empty()) << error;
  cgen::RunOutput out = driver.Run(bin);
  ASSERT_TRUE(out.ok) << out.error;
  expect_rows(out.row_text, "generated C");
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

// Knob-table hardening (common/knobs.h): every row of QC_KNOB_LIST, read
// through its typed accessor, must survive unset, garbage, trailing
// garbage, empty, out-of-range and whitespace-padded values — a divisor
// knob never reaches zero, a thread count never wraps.
std::string Exact(double d) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", d);
  return buf;
}

void ExpectFlagRow(Knob k, ScopedEnv* env) {
  const bool def = KnobInfo(k).def != 0;
  EXPECT_EQ(KnobFlag(k), def);
  for (const char* bad : {"garbage", "1x", "", "2", "tru"}) {
    env->Set(bad);
    EXPECT_EQ(KnobFlag(k), def) << "value " << bad;
  }
  for (const char* on : {"1", "true", "ON", "Yes", " on\n"}) {
    env->Set(on);
    EXPECT_TRUE(KnobFlag(k)) << "value " << on;
  }
  for (const char* off : {"0", "false", "Off", "NO", "0 \n"}) {
    env->Set(off);
    EXPECT_FALSE(KnobFlag(k)) << "value " << off;
  }
}

void ExpectIntRow(Knob k, ScopedEnv* env) {
  const KnobSpec& s = KnobInfo(k);
  const auto def = static_cast<long long>(s.def);
  const auto lo = static_cast<long long>(s.lo);
  const auto hi = static_cast<long long>(s.hi);
  EXPECT_EQ(KnobInt(k), def);
  for (const char* bad : {"garbage", "12abc", "4x", ""}) {
    env->Set(bad);
    EXPECT_EQ(KnobInt(k), def) << "value " << bad;
  }
  env->Set(std::to_string(lo - 1));
  EXPECT_EQ(KnobInt(k), lo);  // below the range clamps, never wraps
  env->Set("-7");
  EXPECT_EQ(KnobInt(k), std::max(lo, -7ll));
  env->Set(std::to_string(hi + 1));
  EXPECT_EQ(KnobInt(k), hi);
  env->Set("99999999999999999999");  // overflow clamps high
  EXPECT_EQ(KnobInt(k), hi);
  env->Set(" " + std::to_string(hi) + " \n");
  EXPECT_EQ(KnobInt(k), hi);
}

void ExpectDoubleRow(Knob k, ScopedEnv* env) {
  const KnobSpec& s = KnobInfo(k);
  EXPECT_EQ(KnobDouble(k), s.def);
  for (const std::string& bad :
       {std::string("abc"), std::string(""), std::string("0.1x"),
        std::string("inf"), std::string("nan"), Exact(s.lo),
        Exact(s.lo - 1)}) {
    env->Set(bad);
    EXPECT_EQ(KnobDouble(k), s.def) << "value " << bad;
  }
  if (std::isfinite(s.hi)) {
    env->Set(Exact(s.hi * 2));
    EXPECT_EQ(KnobDouble(k), s.def);  // above the range falls back
    env->Set(Exact(s.hi));
    EXPECT_EQ(KnobDouble(k), s.hi);
  }
  const double mid = (s.lo + s.def) / 2;
  env->Set(" " + Exact(mid) + "\n");
  EXPECT_EQ(KnobDouble(k), mid);
}

void ExpectIntListRow(Knob k, ScopedEnv* env) {
  const KnobSpec& s = KnobInfo(k);
  const std::vector<long long> def = {static_cast<long long>(s.def)};
  const auto lo = static_cast<long long>(s.lo);
  const auto hi = static_cast<long long>(s.hi);
  EXPECT_EQ(KnobIntList(k), def);
  for (const char* bad : {"zzz", "-1", ",,", "", "2x"}) {
    env->Set(bad);
    EXPECT_EQ(KnobIntList(k), def) << "value " << bad;
  }
  // Bad and out-of-range tokens are dropped, good ones kept.
  env->Set("2x," + std::to_string(lo) + "," + std::to_string(hi + 1));
  EXPECT_EQ(KnobIntList(k), std::vector<long long>({lo}));
  env->Set(std::to_string(lo - 1) + ",abc," + std::to_string(hi));
  EXPECT_EQ(KnobIntList(k), std::vector<long long>({hi}));
  env->Set(std::to_string(lo) + ", " + std::to_string(hi) + " ,\n");
  EXPECT_EQ(KnobIntList(k), std::vector<long long>({lo, hi}));
}

TEST(KnobTableTest, EveryRowSurvivesHostileValues) {
  for (int i = 0; i < kNumKnobs; ++i) {
    const Knob k = static_cast<Knob>(i);
    SCOPED_TRACE(KnobInfo(k).name);
    ScopedEnv env(KnobInfo(k).name);  // unset; restored after the row
    switch (KnobInfo(k).kind) {
      case KnobKind::kFlag:
        ExpectFlagRow(k, &env);
        break;
      case KnobKind::kInt:
        ExpectIntRow(k, &env);
        break;
      case KnobKind::kDouble:
        ExpectDoubleRow(k, &env);
        break;
      case KnobKind::kIntList:
        ExpectIntListRow(k, &env);
        break;
      case KnobKind::kString:
        EXPECT_EQ(KnobStr(k), nullptr);
        env.Set("");
        EXPECT_EQ(KnobStr(k), nullptr);
        env.Set(" raw value\n");
        EXPECT_STREQ(KnobStr(k), " raw value\n");
        break;
    }
  }
}

TEST(KnobTableTest, BenchScaleFactorRejectsGarbageAndNonPositive) {
  // An SF of 0 would put every bench cell under the regression gate's
  // floor and silently turn the gate off.
  // serve_latency passes its own default.
  ScopedEnv sf("QC_BENCH_SF");
  EXPECT_EQ(KnobDouble(Knob::kBenchSf), 0.05);  // unset: default
  for (const char* bad : {"abc", "", "0", "-1", "0.1x", "inf", "nan"}) {
    sf.Set(bad);
    EXPECT_EQ(KnobDouble(Knob::kBenchSf), 0.05) << "QC_BENCH_SF=" << bad;
    EXPECT_EQ(KnobDouble(Knob::kBenchSf, 0.01), 0.01) << "QC_BENCH_SF=" << bad;
  }
  sf.Set(" 0.02\n");  // stray whitespace is fine
  EXPECT_EQ(KnobDouble(Knob::kBenchSf), 0.02);
  sf.Set("0.1");
  EXPECT_EQ(KnobDouble(Knob::kBenchSf, 0.01), 0.1);
}

// Flags accept exactly 1/true/on/yes and 0/false/off/no: "false" and
// "off" used to read as on, disabling the JIT or opening /debug/block.
TEST(KnobTableTest, FlagSpellingsMeanWhatTheySay) {
  bool grantable = false;
  {
    ScopedEnv clear("QC_JIT_DISABLE");
    grantable = exec::jit::JitAvailable();
  }
  ScopedEnv jit_off("QC_JIT_DISABLE", "false");
  EXPECT_EQ(exec::jit::JitAvailable(), grantable);
  jit_off.Set("1");
  EXPECT_FALSE(exec::jit::JitAvailable());

  ScopedEnv debug("QC_SERVE_DEBUG", "off");
  EXPECT_FALSE(server::ServerOptions::FromEnv().debug_endpoints);
  debug.Set("on");
  EXPECT_TRUE(server::ServerOptions::FromEnv().debug_endpoints);
}

// QC_SERVE_SF takes the whole-value double rule with range (0, 1]: a
// trailing-garbage value no longer reads as its numeric prefix.
TEST(KnobTableTest, ServeScaleFactorIsWholeValueInRange) {
  ScopedEnv sf("QC_SERVE_SF", "0.5");
  EXPECT_EQ(KnobDouble(Knob::kServeSf), 0.5);
  for (const char* bad : {"0.5abc", "2", "0", "-0.1", "1e-2x"}) {
    sf.Set(bad);
    EXPECT_EQ(KnobDouble(Knob::kServeSf), 0.01) << "QC_SERVE_SF=" << bad;
  }
  sf.Set(" 1\n");
  EXPECT_EQ(KnobDouble(Knob::kServeSf), 1.0);
}

// Warnings are once per knob per process, so the record is checked in a
// fresh process (the threadsafe death-test style re-executes the binary).
TEST(KnobTableDeathTest, RejectedValueLogsKnobInvalid) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_EXIT(
      {
        ::setenv("QC_SERVE_SF", "0.5abc", 1);
        KnobDouble(Knob::kServeSf);
        std::exit(0);
      },
      ::testing::ExitedWithCode(0),
      "event=knob_invalid name=QC_SERVE_SF value=0.5abc");
}

// The table default and the ServerOptions default agree field for field;
// only the port differs (FromEnv listens on 7117, ServerOptions{} asks for
// an ephemeral port).
TEST(KnobTableTest, ServeDefaultsMatchServerOptions) {
  std::vector<std::unique_ptr<ScopedEnv>> clean;
  for (int i = 0; i < kNumKnobs; ++i) {
    const char* name = KnobInfo(static_cast<Knob>(i)).name;
    if (std::strncmp(name, "QC_SERVE_", 9) == 0) {
      clean.push_back(std::make_unique<ScopedEnv>(name));
    }
  }
  const server::ServerOptions env = server::ServerOptions::FromEnv();
  const server::ServerOptions def;
  EXPECT_EQ(env.port, 7117);
  EXPECT_EQ(def.port, 0);
  EXPECT_EQ(env.workers, def.workers);
  EXPECT_EQ(env.query_threads, def.query_threads);
  EXPECT_EQ(env.queue_capacity, def.queue_capacity);
  EXPECT_EQ(env.max_deadline_ms, def.max_deadline_ms);
  EXPECT_EQ(env.queue_deadline_ms, def.queue_deadline_ms);
  EXPECT_EQ(env.max_mem_mb, def.max_mem_mb);
  EXPECT_EQ(env.max_retries, def.max_retries);
  EXPECT_EQ(env.retry_base_ms, def.retry_base_ms);
  EXPECT_EQ(env.retry_max_ms, def.retry_max_ms);
  EXPECT_EQ(env.drain_deadline_ms, def.drain_deadline_ms);
  EXPECT_EQ(env.recover_ok, def.recover_ok);
  EXPECT_EQ(env.level, def.level);
  EXPECT_EQ(env.default_jit, def.default_jit);
  EXPECT_EQ(env.debug_endpoints, def.debug_endpoints);
  EXPECT_EQ(env.seed, def.seed);
  EXPECT_EQ(env.client_qps, def.client_qps);
  EXPECT_EQ(env.client_inflight, def.client_inflight);
  EXPECT_EQ(env.client_queue, def.client_queue);
  EXPECT_EQ(env.idle_ms, def.idle_ms);
  EXPECT_EQ(env.io_idle_ms, def.io_idle_ms);
  EXPECT_EQ(env.pipeline_cap, def.pipeline_cap);
  EXPECT_EQ(env.max_conns, def.max_conns);
}

// Fault-injection spec parsing (common/fault.h): QC_FAULT arms a
// comma-separated list of <site>:<nth> pairs, each with its own occurrence
// counter. The fixture re-arms around every mutation so counters never
// leak across tests (or into other suites in this binary).
class FaultSpecTest : public ::testing::Test {
 protected:
  void Arm(const char* spec) { fault_.Set(spec); }
  ScopedEnv fault_{"QC_FAULT"};
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
