// qc_verify: static verification driver for the whole lowering stack.
//
//   qc_verify              lower all 22 TPC-H queries at both stack levels
//                          (pipelined oracle lowering and the full Level-5
//                          compiler), verify every compiled bytecode
//                          program (src/analysis/bc_verify.h) and audit
//                          every stitched JIT image
//                          (src/analysis/jit_audit.h); print a violation
//                          report and, per program, the top-level loops
//                          left sequential with what rejected them
//                          (ir::FormatRejections); exit non-zero on any
//                          violation.
//   qc_verify --self-test  run the mutation suite (src/analysis/
//                          mutations.h): deliberately corrupted programs
//                          and images must each be rejected with the
//                          expected named invariant; exit non-zero when
//                          any corruption slips through.
//
// The queries are lowered against TPC-H data at SF 0.002: the program
// shapes, not the data, are what is verified, so small is fine.
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "analysis/bc_verify.h"
#include "analysis/jit_audit.h"
#include "analysis/mutations.h"
#include "compiler/compiler.h"
#include "exec/bytecode.h"
#include "ir/parallel.h"
#include "jit/emitter.h"
#include "lower/pipeline.h"
#include "qplan/plan.h"
#include "storage/database.h"
#include "tpch/datagen.h"
#include "tpch/queries.h"

namespace qc {
namespace {

namespace jit = exec::jit;

using exec::BytecodeProgram;
using exec::analysis::AuditStitch;
using exec::analysis::AuditTemplates;
using exec::analysis::VerifyProgram;
using exec::analysis::VerifyResult;

constexpr double kScaleFactor = 0.002;

// One program at one stack level: compile its bytecode (with the morsel
// fragments the parallel runtime would use), verify it, stitch it, audit
// the image. Returns the number of violations (all printed).
size_t VerifyOne(storage::Database* db, const ir::Function& fn,
                 const std::string& tag, size_t* audited) {
  ir::ParallelInfo par = ir::AnalyzeParallelism(fn);
  BytecodeProgram prog = exec::BytecodeCompiler(db).Compile(fn, &par);
  size_t bad = 0;
  VerifyResult vres = VerifyProgram(prog);
  if (!vres.ok()) {
    std::printf("FAIL %s: bytecode verifier, %zu violation(s)\n%s",
                tag.c_str(), vres.violations.size(), vres.Report().c_str());
    bad += vres.violations.size();
  }
  jit::StitchResult stitched = jit::StitchProgram(prog);
  if (stitched.num_native > 0) {
    VerifyResult ares = AuditStitch(prog, stitched);
    if (!ares.ok()) {
      std::printf("FAIL %s: jit stitch audit, %zu violation(s)\n%s",
                  tag.c_str(), ares.violations.size(),
                  ares.Report().c_str());
      bad += ares.violations.size();
    }
    ++*audited;
  }
  if (bad == 0) {
    std::printf("ok   %s (%zu insns, %d native)\n", tag.c_str(),
                prog.code.size(), stitched.num_native);
  }
  // Why not parallel: one line per loop the analysis left sequential.
  const std::string seq =
      ir::FormatRejections(par, "     " + tag + " sequential loop ");
  std::printf("%s", seq.c_str());
  return bad;
}

int RunVerifyAll() {
  storage::Database db = tpch::MakeTpchDatabase(kScaleFactor, 7);
  size_t violations = 0;
  size_t programs = 0;
  size_t audited = 0;

  VerifyResult tres = AuditTemplates();
  if (!tres.ok()) {
    std::printf("FAIL template audit, %zu violation(s)\n%s",
                tres.violations.size(), tres.Report().c_str());
    violations += tres.violations.size();
  } else {
    std::printf("ok   template table\n");
  }

  for (int q = 1; q <= tpch::kNumQueries; ++q) {
    qplan::PlanPtr plan = tpch::MakeQuery(q);
    qplan::ResolvePlan(plan.get(), db);
    {
      ir::TypeFactory types;
      auto fn = lower::LowerPlanPipelined(*plan, db, &types,
                                          "q" + std::to_string(q));
      violations += VerifyOne(&db, *fn, "Q" + std::to_string(q) + " pipelined",
                              &audited);
      ++programs;
    }
    {
      ir::TypeFactory types;
      compiler::QueryCompiler qc(&db, &types);
      compiler::CompileResult res =
          qc.Compile(*plan, compiler::StackConfig::Level(5),
                     "q" + std::to_string(q) + "_l5");
      violations += VerifyOne(&db, *res.fn, "Q" + std::to_string(q) + " level5",
                              &audited);
      ++programs;
    }
  }
  std::printf(
      "qc_verify: %zu programs verified, %zu jit images audited, "
      "%zu violation(s)\n",
      programs, audited, violations);
  return violations == 0 ? 0 : 1;
}

// --------------------------------------------------------------------------
// Mutation self-test
// --------------------------------------------------------------------------

// The canonical corpus program: Q1 at the full stack level, compiled with
// parallelism info (so it has morsel fragments, touched-slot logs, governed
// loops, a comparator subroutine — every feature the mutations target).
BytecodeProgram CorpusProgram(storage::Database* db,
                              ir::TypeFactory* types,
                              compiler::CompileResult* keep_alive,
                              ir::ParallelInfo* par) {
  qplan::PlanPtr plan = tpch::MakeQuery(1);
  qplan::ResolvePlan(plan.get(), *db);
  compiler::QueryCompiler qc(db, types);
  *keep_alive =
      qc.Compile(*plan, compiler::StackConfig::Level(5), "selftest_q1");
  *par = ir::AnalyzeParallelism(*keep_alive->fn);
  return exec::BytecodeCompiler(db).Compile(*keep_alive->fn, par);
}

bool ExpectRejected(const char* name, const char* invariant,
                    const VerifyResult& res) {
  for (const auto& v : res.violations) {
    if (exec::analysis::InvariantMatches(invariant, v.invariant)) {
      std::printf("ok   %-32s rejected (%s)\n", name, v.invariant.c_str());
      return true;
    }
  }
  std::printf("FAIL %-32s expected invariant '%s', got %zu violation(s)\n%s",
              name, invariant, res.violations.size(), res.Report().c_str());
  return false;
}

int RunSelfTest() {
  storage::Database db = tpch::MakeTpchDatabase(kScaleFactor, 7);
  ir::TypeFactory types;
  compiler::CompileResult keep_alive;
  ir::ParallelInfo par;
  BytecodeProgram base = CorpusProgram(&db, &types, &keep_alive, &par);
  {
    VerifyResult res = VerifyProgram(base);
    if (!res.ok()) {
      std::printf("FAIL corpus program does not verify clean:\n%s",
                  res.Report().c_str());
      return 1;
    }
  }
  int failures = 0;
  for (const auto& m : exec::analysis::BcMutations()) {
    BytecodeProgram mutant = base;
    if (!m.apply(&mutant)) {
      std::printf("FAIL %-32s not applicable to the corpus program\n",
                  m.name);
      ++failures;
      continue;
    }
    if (!ExpectRejected(m.name, m.invariant, VerifyProgram(mutant))) {
      ++failures;
    }
  }
  // Invalid-by-construction programs.
  struct {
    const char* name;
    const char* invariant;
    BytecodeProgram prog;
  } synthetic[] = {
      {"type-confusion", "type-mismatch",
       exec::analysis::SyntheticTypeConfusion()},
      {"cross-region-jump", "jump-region",
       exec::analysis::SyntheticCrossRegionJump()},
  };
  for (const auto& s : synthetic) {
    if (!ExpectRejected(s.name, s.invariant, VerifyProgram(s.prog))) {
      ++failures;
    }
  }
  // Stitched-image mutations (need a native stitch — x86-64 templates).
  jit::StitchResult stitched = jit::StitchProgram(base);
  if (stitched.num_native > 0) {
    {
      VerifyResult res = AuditStitch(base, stitched);
      if (!res.ok()) {
        std::printf("FAIL corpus stitch does not audit clean:\n%s",
                    res.Report().c_str());
        return 1;
      }
    }
    for (const auto& m : exec::analysis::JitMutations()) {
      jit::StitchResult mutant = jit::StitchProgram(base);
      if (!m.apply(base, &mutant)) {
        std::printf("skip %-32s no applicable site\n", m.name);
        continue;
      }
      if (!ExpectRejected(m.name, m.invariant, AuditStitch(base, mutant))) {
        ++failures;
      }
    }
  } else {
    std::printf("skip jit image mutations (nothing stitched natively)\n");
  }
  std::printf("qc_verify --self-test: %d failure(s)\n", failures);
  return failures == 0 ? 0 : 1;
}

}  // namespace
}  // namespace qc

int main(int argc, char** argv) {
  bool self_test = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--self-test") == 0) self_test = true;
  }
  return self_test ? qc::RunSelfTest() : qc::RunVerifyAll();
}
