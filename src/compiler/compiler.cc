#include "compiler/compiler.h"

#include "common/timer.h"
#include "ir/numbering.h"
#include "lower/pipeline.h"
#include "opt/cond_flatten.h"
#include "opt/dce.h"
#include "opt/hash_spec.h"
#include "opt/index_infer.h"
#include "opt/mark_lib.h"
#include "opt/pool_hoist.h"
#include "opt/scalar_repl.h"
#include "opt/string_dict.h"

namespace qc::compiler {

StackConfig StackConfig::Level(int levels) {
  StackConfig c;
  c.name = "dblab-lb-" + std::to_string(levels);
  c.levels = levels;
  // 2-level stack: pipelining template expansion straight to C, generic
  // library collections, one malloc per record.
  c.string_dict = false;
  c.index_inference = false;
  c.hash_spec = false;
  c.intrusive_lists = false;
  c.pool_hoist = false;
  c.scalar_repl = false;
  c.cond_flatten = false;
  if (levels >= 3) {
    // + ScaLite: memory management and fine-grained scalar optimizations.
    c.pool_hoist = true;
    c.scalar_repl = true;
    c.cond_flatten = true;
  }
  if (levels >= 4) {
    // + ScaLite[Map, List]: data-structure-aware optimizations.
    c.string_dict = true;
    c.index_inference = true;
    c.hash_spec = true;
  }
  if (levels >= 5) {
    // + ScaLite[List]: list specialization.
    c.intrusive_lists = true;
  }
  return c;
}

StackConfig StackConfig::Compliant() {
  StackConfig c = Level(5);
  c.name = "tpch-compliant";
  c.string_dict = false;
  c.index_inference = false;
  c.hash_spec = false;  // data-structure partitioning is not compliant
  c.intrusive_lists = false;
  return c;
}

StackConfig StackConfig::LegoBase() {
  StackConfig c = Level(5);
  c.name = "legobase";
  c.index_inference = false;  // not expressible in the monolithic expander
  return c;
}

CompileResult QueryCompiler::Compile(const qplan::Plan& plan,
                                     const StackConfig& config,
                                     const std::string& name) {
  CompileResult result;
  Timer total;

  auto phase = [&](const char* pname, auto&& body) {
    Timer t;
    body();
    result.phase_ms.emplace_back(pname, t.ElapsedMs());
  };

  std::unique_ptr<ir::Function> fn;

  phase("pipelining", [&] {
    fn = lower::LowerPlanPipelined(plan, *db_, types_, name);
    opt::DeadCodeElimination(fn.get());
  });
  if (config.verify) ir::CheckLevel(*fn, ir::Level::kMapList);

  // Index inference runs first: it inlines build-side filters and join
  // residuals as column reads of the base table, which string dictionaries
  // then turn into code compares.
  if (config.index_inference) {
    phase("index-inference", [&] {
      fn = opt::InferIndexes(*fn, db_);
      opt::DeadCodeElimination(fn.get());
    });
    if (config.verify) ir::CheckLevel(*fn, ir::Level::kMapList);
  }

  if (config.string_dict) {
    phase("string-dict", [&] {
      fn = opt::ApplyStringDictionaries(*fn, db_);
      opt::DeadCodeElimination(fn.get());
    });
    if (config.verify) ir::CheckLevel(*fn, ir::Level::kMapList);
  }

  if (config.hash_spec) {
    phase("hash-specialization", [&] {
      opt::HashSpecOptions opts;
      opts.intrusive_lists = config.intrusive_lists;
      fn = opt::SpecializeHashStructures(*fn, db_, opts);
      opt::DeadCodeElimination(fn.get());
    });
  }

  // Pool hoisting swaps kRecNew for kPoolRecNew one for one and uses every
  // pool it adds, so it leaves nothing dead; no DCE follows it.
  if (config.pool_hoist) {
    phase("pool-hoisting",
          [&] { fn = opt::HoistMemoryAllocations(*fn, *db_); });
  }

  if (config.scalar_repl) {
    phase("scalar-replacement", [&] {
      // Optimizations at one level run to a fixed point (§2.2): scalar
      // replacement can expose further replaceable records.
      for (int i = 0; i < 5; ++i) {
        fn = opt::ScalarReplacement(*fn);
        if (opt::DeadCodeElimination(fn.get()) == 0) break;
      }
    });
  }

  // Finalize's DCE cleans up after condition flattening (marking library
  // collections in between only sets lib_call).
  if (config.cond_flatten) {
    phase("condition-flattening", [&] { fn = opt::FlattenConditions(*fn); });
  }

  phase("finalize", [&] {
    opt::MarkLibraryCollections(fn.get());
    opt::DeadCodeElimination(fn.get());
    // Passes leave holes in the id space; ids double as executor register
    // indices, so compact them to shrink the register file.
    ir::RenumberDense(fn.get());
  });
  if (config.verify) ir::CheckLevel(*fn, ir::Level::kCLite, true);

  result.fn = std::move(fn);
  result.total_ms = total.ElapsedMs();
  return result;
}

}  // namespace qc::compiler
