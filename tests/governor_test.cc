// Query governance (exec/governor.h) + fault injection (common/fault.h):
// a cancelled / over-deadline / over-budget query must unwind within one
// safepoint interval on every engine {bytecode VM, JIT} at every thread
// count, surface a structured QueryStatus, and leave the Interpreter fully
// reusable — the same instance then executes a fresh query bit-exactly
// (pools, heaps, code buffers, program caches intact). The chaos sweep arms
// every QC_FAULT site across engines x threads and asserts each run either
// matches the reference bit-exactly or fails with a clean non-ok status.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "bit_exact.h"
#include "scoped_env.h"
#include "common/fault.h"
#include "common/timer.h"
#include "compiler/compiler.h"
#include "exec/governor.h"
#include "exec/interp.h"
#include "ir/builder.h"
#include "tpch/datagen.h"
#include "tpch/queries.h"

namespace qc {
namespace {

using compiler::QueryCompiler;
using compiler::StackConfig;
using exec::ExecControl;
using exec::InterpOptions;
using exec::QueryStatusCode;
using ir::Stmt;

InterpOptions Opts(InterpOptions::Engine e, int threads,
                   ExecControl* ctl = nullptr, int64_t morsel_rows = 2048) {
  InterpOptions o;
  o.engine = e;
  o.num_threads = threads;
  o.morsel_rows = morsel_rows;
  o.control = ctl;
  return o;
}

storage::Database* Db() {
  static storage::Database* db =
      new storage::Database(tpch::MakeTpchDatabase(0.01));
  return db;
}

// TPC-H queries at the full stack, compiled once. Q3: scan + bucket-array
// build + probe + sort + emit, with parallel-qualifying loops — the
// governance surface in one query. Q18: a 15k-slot group array over
// lineitem and two bucket-array builds, merged by slot range.
struct CompiledQuery {
  ir::TypeFactory types;
  compiler::CompileResult res;
};
CompiledQuery* CompileLevel5(int q) {
  auto* h = new CompiledQuery();
  qplan::PlanPtr plan = tpch::MakeQuery(q);
  qplan::ResolvePlan(plan.get(), *Db());
  QueryCompiler qc(Db(), &h->types);
  h->res = qc.Compile(*plan, StackConfig::Level(5), "q" + std::to_string(q));
  return h;
}
const ir::Function& Q3() {
  static CompiledQuery* c = CompileLevel5(3);
  return *c->res.fn;
}
const storage::ResultTable& Q3Want() {
  static storage::ResultTable* want = [] {
    exec::Interpreter ref(Db(), Opts(InterpOptions::Engine::kBytecode, 1));
    return new storage::ResultTable(ref.Run(Q3()));
  }();
  return *want;
}
const ir::Function& Q18() {
  static CompiledQuery* c = CompileLevel5(18);
  return *c->res.fn;
}
const storage::ResultTable& Q18Want() {
  static storage::ResultTable* want = [] {
    exec::Interpreter ref(Db(), Opts(InterpOptions::Engine::kBytecode, 1));
    return new storage::ResultTable(ref.Run(Q18()));
  }();
  return *want;
}

// Q10: after an orders bucket-array build, a lineitem aggregation into a
// hash map keyed by a record, with a record-keyed f64 sum. Q9: first of
// all, a partsupp multimap build. Both merge by hash part.
const ir::Function& Q10() {
  static CompiledQuery* c = CompileLevel5(10);
  return *c->res.fn;
}
const storage::ResultTable& Q10Want() {
  static storage::ResultTable* want = [] {
    exec::Interpreter ref(Db(), Opts(InterpOptions::Engine::kBytecode, 1));
    return new storage::ResultTable(ref.Run(Q10()));
  }();
  return *want;
}
const ir::Function& Q9() {
  static CompiledQuery* c = CompileLevel5(9);
  return *c->res.fn;
}
const storage::ResultTable& Q9Want() {
  static storage::ResultTable* want = [] {
    exec::Interpreter ref(Db(), Opts(InterpOptions::Engine::kBytecode, 1));
    return new storage::ResultTable(ref.Run(Q9()));
  }();
  return *want;
}

// Q13: the customer loop has an inner loop per row (an index probe over
// the customer's orders) and two create sites of one group array.
const ir::Function& Q13() {
  static CompiledQuery* c = CompileLevel5(13);
  return *c->res.fn;
}
const storage::ResultTable& Q13Want() {
  static storage::ResultTable* want = [] {
    exec::Interpreter ref(Db(), Opts(InterpOptions::Engine::kBytecode, 1));
    return new storage::ResultTable(ref.Run(Q13()));
  }();
  return *want;
}

// A pure compute loop long enough that every engine is still inside it when
// a few-millisecond deadline expires (while-loop body so the VM/JIT path
// crosses kJmpSp back edges too).
struct BuiltFn {
  ir::TypeFactory types;
  std::unique_ptr<ir::Function> fn;
};
const ir::Function& LongLoop() {
  static BuiltFn* b = [] {
    auto* h = new BuiltFn();
    h->fn = std::make_unique<ir::Function>("long_loop", &h->types);
    ir::Builder bld(h->fn.get());
    Stmt* sum = bld.VarNew(bld.I64(0));
    Stmt* i = bld.VarNew(bld.I64(0));
    bld.While([&] { return bld.Lt(bld.VarRead(i), bld.I64(2000000000)); },
              [&] {
                bld.VarAssign(sum, bld.Add(bld.VarRead(sum), bld.VarRead(i)));
                bld.VarAssign(i, bld.Add(bld.VarRead(i), bld.I64(1)));
              });
    bld.EmitRow({bld.VarRead(sum)});
    return h;
  }();
  return *b->fn;
}

// Duplicate-key list sort (build loop + stable sort + emit): the function
// the boundary sweep drives trips into morsel scans, the sort's governed
// comparator, and kEmit staging depending on where the armed occurrence
// lands.
const ir::Function& DupSort() {
  static BuiltFn* b = [] {
    auto* h = new BuiltFn();
    h->fn = std::make_unique<ir::Function>("dup_sort", &h->types);
    ir::Builder bld(h->fn.get());
    const ir::Type* i64 = h->types.I64();
    Stmt* enc = bld.I64(1 << 20);
    Stmt* list = bld.ListNew(i64);
    bld.ForRange(bld.I64(0), bld.I64(20000), [&](Stmt* i) {
      Stmt* key = bld.Mod(bld.Mul(i, bld.I64(7919)), bld.I64(97));
      bld.ListAppend(list, bld.Add(bld.Mul(key, enc), i));
    });
    bld.ListSortBy(list, [&](Stmt* x, Stmt* y) {
      return bld.Lt(bld.Div(x, enc), bld.Div(y, enc));
    });
    bld.ListForeach(list, [&](Stmt* e) {
      bld.EmitRow({bld.Div(e, enc), bld.Mod(e, enc)});
    });
    return h;
  }();
  return *b->fn;
}
const storage::ResultTable& DupSortWant() {
  static storage::ResultTable* want = [] {
    exec::Interpreter ref(Db(), Opts(InterpOptions::Engine::kBytecode, 1));
    return new storage::ResultTable(ref.Run(DupSort()));
  }();
  return *want;
}

// A big list build: ~1.6 MB of tracked vector growth, so a small budget
// trips mid-build on every engine.
const ir::Function& BigAlloc() {
  static BuiltFn* b = [] {
    auto* h = new BuiltFn();
    h->fn = std::make_unique<ir::Function>("big_alloc", &h->types);
    ir::Builder bld(h->fn.get());
    Stmt* list = bld.ListNew(h->types.I64());
    Stmt* sum = bld.VarNew(bld.I64(0));
    bld.ForRange(bld.I64(0), bld.I64(200000), [&](Stmt* i) {
      bld.ListAppend(list, i);
      bld.VarAssign(sum, bld.Add(bld.VarRead(sum), i));
    });
    bld.EmitRow({bld.VarRead(sum)});
    return h;
  }();
  return *b->fn;
}
const storage::ResultTable& BigAllocWant() {
  static storage::ResultTable* want = [] {
    exec::Interpreter ref(Db(), Opts(InterpOptions::Engine::kBytecode, 1));
    return new storage::ResultTable(ref.Run(BigAlloc()));
  }();
  return *want;
}

// ---------------------------------------------------------------------------
// Cancellation / deadline / budget on every engine, with post-abort reuse.
// ---------------------------------------------------------------------------

TEST(GovernorTest, CancelBeforeRunTripsAndInterpreterStaysReusable) {
  for (InterpOptions::Engine engine : kEngines) {
    for (int threads : {1, 4}) {
      std::string tag = std::string(EngineName(engine)) + " threads=" +
                        std::to_string(threads);
      ExecControl ctl;
      ctl.RequestCancel();
      exec::Interpreter interp(Db(), Opts(engine, threads, &ctl));
      storage::ResultTable r = interp.Run(Q3());
      EXPECT_EQ(r.size(), 0u) << tag;
      EXPECT_EQ(interp.last_status().code, QueryStatusCode::kCancelled) << tag;
      EXPECT_STREQ(interp.last_status().name(), "cancelled") << tag;

      // The same Interpreter must run the same query cleanly after Reset.
      ctl.Reset();
      storage::ResultTable again = interp.Run(Q3());
      EXPECT_TRUE(interp.last_status().ok()) << tag;
      ExpectBitExact(again, Q3Want(), tag + " post-cancel rerun");
    }
  }
}

TEST(GovernorTest, PastDeadlineTripsAtPreRunPoll) {
  for (InterpOptions::Engine engine : kEngines) {
    for (int threads : {1, 4}) {
      std::string tag = std::string(EngineName(engine)) + " threads=" +
                        std::to_string(threads);
      ExecControl ctl;
      ctl.deadline_ns.store(1);  // monotonic epoch + 1ns: long past
      exec::Interpreter interp(Db(), Opts(engine, threads, &ctl));
      storage::ResultTable r = interp.Run(Q3());
      EXPECT_EQ(r.size(), 0u) << tag;
      EXPECT_EQ(interp.last_status().code, QueryStatusCode::kDeadlineExceeded)
          << tag;
      ctl.Reset();
      ExpectBitExact(interp.Run(Q3()), Q3Want(), tag + " rerun");
    }
  }
}

TEST(GovernorTest, MidRunDeadlineUnwindsWithinSafepointInterval) {
  // 2e9 while-loop iterations would take seconds to minutes ungoverned;
  // a 3 ms deadline must stop each engine within a safepoint interval.
  // The generous wall-clock bound only catches a governance no-op.
  for (InterpOptions::Engine engine : kEngines) {
    for (int threads : {1, 4}) {
      std::string tag = std::string(EngineName(engine)) + " threads=" +
                        std::to_string(threads);
      ExecControl ctl;
      ctl.SetDeadlineAfterNs(3 * 1000 * 1000);
      exec::Interpreter interp(Db(), Opts(engine, threads, &ctl));
      Timer t;
      storage::ResultTable r = interp.Run(LongLoop());
      EXPECT_EQ(r.size(), 0u) << tag;
      EXPECT_EQ(interp.last_status().code, QueryStatusCode::kDeadlineExceeded)
          << tag;
      EXPECT_LT(t.ElapsedMs(), 5000.0) << tag << ": unwind took too long";
      ctl.Reset();
      ExpectBitExact(interp.Run(Q3()), Q3Want(), tag + " rerun");
    }
  }
}

TEST(GovernorTest, MemoryBudgetTripsOnTrackedGrowth) {
  ScopedEnv interval("QC_GOV_INTERVAL", "64");  // publish growth promptly
  for (InterpOptions::Engine engine : kEngines) {
    for (int threads : {1, 4}) {
      std::string tag = std::string(EngineName(engine)) + " threads=" +
                        std::to_string(threads);
      ExecControl ctl;
      ctl.memory_budget_bytes = 64 * 1024;  // far below ~1.6 MB of growth
      exec::Interpreter interp(Db(), Opts(engine, threads, &ctl));
      storage::ResultTable r = interp.Run(BigAlloc());
      EXPECT_EQ(r.size(), 0u) << tag;
      EXPECT_EQ(interp.last_status().code, QueryStatusCode::kMemoryBudget)
          << tag;
      ctl.Reset();
      ExpectBitExact(interp.Run(BigAlloc()), BigAllocWant(), tag + " rerun");
    }
  }
}

// ---------------------------------------------------------------------------
// Awkward-boundary cancellation: QC_GOV_INTERVAL=1 polls at every back edge
// and the armed gov_trip occurrence is swept across the run — morsel scans,
// the 20k-row sort's governed comparator, emit staging. Every landing spot
// must produce either a clean kCancelled abort or (when the occurrence is
// never reached) the bit-exact result; afterwards the same Interpreter must
// run clean.
// ---------------------------------------------------------------------------

TEST(GovernorTest, CancelSweepAcrossAwkwardBoundaries) {
  ScopedEnv interval("QC_GOV_INTERVAL", "1");
  const long kNth[] = {1, 2, 3, 7, 50, 4000, 30000, 250000};
  for (long nth : kNth) {
    ScopedEnv fault("QC_FAULT", "gov_trip:" + std::to_string(nth));
    for (InterpOptions::Engine engine : kEngines) {
      for (int threads : {1, 2, 4}) {
        std::string tag = std::string(EngineName(engine)) + " threads=" +
                          std::to_string(threads) + " nth=" +
                          std::to_string(nth);
        ExecControl ctl;
        exec::Interpreter interp(Db(), Opts(engine, threads, &ctl));
        FaultReArm();  // fresh occurrence count per run
        storage::ResultTable r = interp.Run(DupSort());
        if (interp.last_status().ok()) {
          ExpectBitExact(r, DupSortWant(), tag + " (fault not reached)");
        } else {
          EXPECT_EQ(interp.last_status().code, QueryStatusCode::kCancelled)
              << tag;
          EXPECT_EQ(r.size(), 0u) << tag;
        }
        if (nth == 1) {
          // The first safepoint is always reached: this configuration must
          // actually trip, or the sweep is vacuous.
          EXPECT_FALSE(interp.last_status().ok()) << tag;
        }
        // Disarm and prove the pool/heaps survived the abort.
        fault.Unset();
        ctl.Reset();
        ExpectBitExact(interp.Run(DupSort()), DupSortWant(), tag + " rerun");
        fault.Set("gov_trip:" + std::to_string(nth));
      }
    }
  }
}

// The same sweep over loops with array reductions (Q18): trips land in a
// chunk's morsels, before chunks start (skipped morsels have no touched
// list), in the ordered merge and in the probe loops after the slot-range
// merge. Every trip must end kCancelled with no rows and leave the pool and
// the reusable state clean for a bit-exact rerun.
TEST(GovernorTest, CancelSweepAcrossArrayReductions) {
  ScopedEnv interval("QC_GOV_INTERVAL", "1");
  const long kNth[] = {1, 2, 3, 7, 50, 4000, 30000, 250000};
  for (long nth : kNth) {
    ScopedEnv fault("QC_FAULT", "gov_trip:" + std::to_string(nth));
    for (InterpOptions::Engine engine : kEngines) {
      for (int threads : {2, 4}) {
        std::string tag = std::string(EngineName(engine)) + " threads=" +
                          std::to_string(threads) + " nth=" +
                          std::to_string(nth);
        ExecControl ctl;
        exec::Interpreter interp(Db(), Opts(engine, threads, &ctl));
        FaultReArm();  // fresh occurrence count per run
        storage::ResultTable r = interp.Run(Q18());
        if (interp.last_status().ok()) {
          ExpectBitExact(r, Q18Want(), tag + " (fault not reached)");
        } else {
          EXPECT_EQ(interp.last_status().code, QueryStatusCode::kCancelled)
              << tag;
          EXPECT_EQ(r.size(), 0u) << tag;
        }
        if (nth == 1) {
          EXPECT_FALSE(interp.last_status().ok()) << tag;
        }
        fault.Unset();
        ctl.Reset();
        ExpectBitExact(interp.Run(Q18()), Q18Want(), tag + " rerun");
        fault.Set("gov_trip:" + std::to_string(nth));
      }
    }
  }
}

// The same sweep over the hash-part merge of maps and multimaps, and over
// a loop with an inner loop. At SF 0.01, Q10's map loop takes about the
// 16k-th to the 80k-th poll, Q9's multimap build the first 8k, and Q13's
// customer loop, whose inner back edges poll too, the first 16.5k, so
// every armed occurrence lands before that loop ends — in a morsel (for
// Q13, in its inner loop), before later morsels start, or earlier in the
// run. Q13's 1,500 customers run as morsels of at most 512 rows
// (max(512, rows / (2 x threads))). Every run must end kCancelled with no
// rows: the merges take the morsels that ran and find the skipped ones
// empty. The rerun on the same Interpreter must be bit-exact.
TEST(GovernorTest, CancelSweepAcrossHashMapMerges) {
  ScopedEnv interval("QC_GOV_INTERVAL", "1");
  struct Case {
    const char* name;
    const ir::Function& (*fn)();
    const storage::ResultTable& (*want)();
    std::vector<long> nth;
  };
  const Case kCases[] = {
      {"Q10", Q10, Q10Want, {1, 2, 50, 17000, 30000, 50000, 70000}},
      {"Q9", Q9, Q9Want, {1, 2, 3, 7, 50, 500, 4000, 7000}},
      {"Q13", Q13, Q13Want, {1, 2, 3, 50, 500, 4000, 9000, 15000}},
  };
  for (const Case& c : kCases) {
    for (long nth : c.nth) {
      ScopedEnv fault("QC_FAULT", "gov_trip:" + std::to_string(nth));
      for (InterpOptions::Engine engine : kEngines) {
        for (int threads : {1, 2, 4}) {
          std::string tag = std::string(c.name) + " " + EngineName(engine) +
                            " threads=" + std::to_string(threads) +
                            " nth=" + std::to_string(nth);
          ExecControl ctl;
          exec::Interpreter interp(Db(), Opts(engine, threads, &ctl));
          FaultReArm();  // fresh occurrence count per run
          storage::ResultTable r = interp.Run(c.fn());
          EXPECT_EQ(interp.last_status().code, QueryStatusCode::kCancelled)
              << tag;
          EXPECT_EQ(r.size(), 0u) << tag;
          fault.Unset();
          ctl.Reset();
          ExpectBitExact(interp.Run(c.fn()), c.want(), tag + " rerun");
          fault.Set("gov_trip:" + std::to_string(nth));
        }
      }
    }
  }
}

// A deadline over a loop with an inner loop: Q13's customer loop (see
// above), with QC_GOV_INTERVAL=1 so every inner back edge polls. Swept from
// long past to later than the run, the deadline must end the run
// kDeadlineExceeded with no rows or, when the run beats it, bit-exact; a
// past deadline must trip. Every rerun on the same Interpreter must be
// bit-exact.
TEST(GovernorTest, DeadlineSweepAcrossNestedLoopMorsels) {
  ScopedEnv interval("QC_GOV_INTERVAL", "1");
  for (InterpOptions::Engine engine : kEngines) {
    for (int threads : {1, 2, 4}) {
      for (int64_t after_ns : {int64_t{-1}, int64_t{20000}, int64_t{100000},
                               int64_t{300000}, int64_t{1000000},
                               int64_t{100000000}}) {
        const std::string tag = std::string("Q13 ") + EngineName(engine) +
                                " threads=" + std::to_string(threads) +
                                " deadline_ns=" + std::to_string(after_ns);
        ExecControl ctl;
        exec::Interpreter interp(Db(), Opts(engine, threads, &ctl));
        if (after_ns < 0) {
          ctl.deadline_ns.store(1);  // monotonic epoch + 1ns: long past
        } else {
          ctl.SetDeadlineAfterNs(after_ns);
        }
        storage::ResultTable r = interp.Run(Q13());
        if (interp.last_status().ok()) {
          EXPECT_GE(after_ns, 0) << tag << ": a past deadline must trip";
          ExpectBitExact(r, Q13Want(), tag + " (deadline not reached)");
        } else {
          EXPECT_EQ(interp.last_status().code,
                    QueryStatusCode::kDeadlineExceeded)
              << tag;
          EXPECT_EQ(r.size(), 0u) << tag;
        }
        ctl.Reset();
        ExpectBitExact(interp.Run(Q13()), Q13Want(), tag + " rerun");
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Chaos sweep: every injection site x engines x threads. Each armed run
// must end in exactly one of two states — bit-exact success (the site was
// not on this configuration's path, or the failure was absorbed, e.g. JIT
// degradation and worker-spawn downgrade) or a clean non-ok QueryStatus
// with an empty result. Crashes, hangs, and sanitizer reports are the
// failure modes this hunts; the disarmed rerun proves nothing leaked into
// the Interpreter's reusable state.
// ---------------------------------------------------------------------------

TEST(GovernorChaosTest, EverySiteEveryEngineFailsCleanOrSucceedsExact) {
  const char* kSites[] = {"gov_trip",  "alloc_heap",   "alloc_pool",
                          "worker_spawn", "jit_mmap",
                          "jit_mprotect", "cc_cache_write"};
  for (const char* site : kSites) {
    for (long nth : {1L, 5L}) {
      for (InterpOptions::Engine engine : kEngines) {
        for (int threads : {1, 4}) {
          std::string spec = std::string(site) + ":" + std::to_string(nth);
          std::string tag = spec + " " + EngineName(engine) + " threads=" +
                            std::to_string(threads);
          ScopedEnv fault("QC_FAULT", spec);
          ExecControl ctl;
          exec::Interpreter interp(Db(), Opts(engine, threads, &ctl));
          FaultReArm();
          storage::ResultTable r = interp.Run(Q3());
          if (interp.last_status().ok()) {
            ExpectBitExact(r, Q3Want(), tag + " (absorbed/unreached)");
          } else {
            EXPECT_EQ(r.size(), 0u) << tag;
          }
          fault.Unset();
          ctl.Reset();
          ExpectBitExact(interp.Run(Q3()), Q3Want(), tag + " rerun");
        }
      }
    }
  }
}

TEST(GovernorChaosTest, InjectedAllocationFailureSurfacesResourceStatus) {
  // alloc_heap on a query that allocates records through the governed heap:
  // the run must finish with kResourceFailure (the "emergency reserve"
  // model: the allocation itself still succeeds, the query is killed at the
  // next safepoint).
  ScopedEnv interval("QC_GOV_INTERVAL", "1");
  for (InterpOptions::Engine engine : kEngines) {
    ScopedEnv fault("QC_FAULT", "alloc_heap:1");
    std::string tag = std::string(EngineName(engine)) + " alloc_heap";
    ExecControl ctl;
    exec::Interpreter interp(Db(), Opts(engine, 1, &ctl));
    storage::ResultTable r = interp.Run(Q3());
    if (!interp.last_status().ok()) {
      EXPECT_EQ(interp.last_status().code, QueryStatusCode::kResourceFailure)
          << tag;
      EXPECT_EQ(r.size(), 0u) << tag;
    } else {
      // Engine/stack configurations that never touch the heap site must
      // still be bit-exact.
      ExpectBitExact(r, Q3Want(), tag);
    }
  }
}

// ---------------------------------------------------------------------------
// JIT degradation visibility: every silent-fallback path must surface a
// structured reason in last_jit_stats() while producing bit-exact results
// on the VM.
// ---------------------------------------------------------------------------

TEST(GovernorJitFallbackTest, DisabledByEnvIsReportedAndExact) {
  ScopedEnv off("QC_JIT_DISABLE", "1");
  exec::Interpreter interp(Db(), Opts(InterpOptions::Engine::kJit, 1));
  storage::ResultTable r = interp.Run(Q3());
  ExpectBitExact(r, Q3Want(), "jit disabled");
  EXPECT_FALSE(interp.last_jit_stats().jitted);
  EXPECT_EQ(interp.last_jit_stats().fallback_reason,
            static_cast<int>(exec::jit::JitFallback::kDisabledByEnv));
}

TEST(GovernorJitFallbackTest, DeniedCodePagesAreReportedAndExact) {
  for (const char* site : {"jit_mmap:1", "jit_mprotect:1"}) {
    ScopedEnv fault("QC_FAULT", site);
    exec::Interpreter interp(Db(), Opts(InterpOptions::Engine::kJit, 1));
    storage::ResultTable r = interp.Run(Q3());
    ExpectBitExact(r, Q3Want(), site);
    EXPECT_FALSE(interp.last_jit_stats().jitted) << site;
    EXPECT_EQ(interp.last_jit_stats().fallback_reason,
              static_cast<int>(exec::jit::JitFallback::kInstallFailed))
        << site;
  }
}

TEST(GovernorJitFallbackTest, HealthyJitReportsNoFallback) {
  exec::Interpreter interp(Db(), Opts(InterpOptions::Engine::kJit, 1));
  storage::ResultTable r = interp.Run(Q3());
  ExpectBitExact(r, Q3Want(), "healthy jit");
  if (exec::jit::JitAvailable()) {
    EXPECT_TRUE(interp.last_jit_stats().jitted);
    EXPECT_EQ(interp.last_jit_stats().fallback_reason, 0);
  }
}

// Ten abort/recover cycles on one Interpreter: trip state must never
// accumulate across runs.
TEST(GovernorTest, RepeatedAbortsNeverPoisonTheInterpreter) {
  ExecControl ctl;
  exec::Interpreter interp(
      Db(), Opts(InterpOptions::Engine::kBytecode, 4, &ctl));
  for (int round = 0; round < 10; ++round) {
    ctl.RequestCancel();
    storage::ResultTable dead = interp.Run(Q3());
    ASSERT_EQ(dead.size(), 0u) << "round " << round;
    ASSERT_EQ(interp.last_status().code, QueryStatusCode::kCancelled)
        << "round " << round;
    ctl.Reset();
    storage::ResultTable alive = interp.Run(Q3());
    ASSERT_TRUE(interp.last_status().ok()) << "round " << round;
    ExpectBitExact(alive, Q3Want(), "round " + std::to_string(round));
  }
}

}  // namespace
}  // namespace qc
