#include "server/plan_cache.h"

#include "qplan/plan.h"
#include "telemetry/metrics.h"
#include "telemetry/trace.h"
#include "tpch/queries.h"

namespace qc::server {

const exec::Program* PlanCache::Get(int query, int level, std::string* error) {
  if (query < 1 || query > tpch::kNumQueries || level < 2 || level > 5) {
    if (error != nullptr) *error = "bad plan key";
    return nullptr;
  }
  std::pair<int, int> key(query, level);
  auto lookup = [&]() -> const exec::Program* {
    std::shared_lock<std::shared_mutex> lock(map_mu_);
    auto it = entries_.find(key);
    if (it == entries_.end()) return nullptr;
    telemetry::PlanCacheHits().Inc();
    return it->second->prog.get();
  };
  if (const exec::Program* hit = lookup()) return hit;
  // Serialize lowering: the compiler lazily builds dictionaries/indexes
  // inside the shared Database. Double-check under the compile lock so two
  // racing misses compile once.
  std::lock_guard<std::mutex> compile_lock(compile_mu_);
  if (const exec::Program* hit = lookup()) return hit;
  telemetry::PlanCacheMisses().Inc();
  auto entry = std::make_unique<Entry>();
  qplan::PlanPtr plan;
  {
    telemetry::ScopedSpan span("parse", "compile", "query", query);
    plan = tpch::MakeQuery(query);
    qplan::ResolvePlan(plan.get(), *db_);
  }
  compiler::QueryCompiler qc(db_, &entry->types);
  {
    telemetry::ScopedSpan span("lower", "compile", "query", query);
    entry->res = qc.Compile(*plan, compiler::StackConfig::Level(level),
                            "srv_q" + std::to_string(query));
  }
  if (entry->res.fn == nullptr) {
    if (error != nullptr) *error = "compilation produced no function";
    return nullptr;
  }
  // A verifier violation refuses the plan with a structured error — the
  // daemon stays up (crash-free contract of Get()).
  entry->prog = exec::Program::Build(db_, *entry->res.fn, error);
  if (entry->prog == nullptr) return nullptr;
  const exec::Program* prog = entry->prog.get();
  std::unique_lock<std::shared_mutex> lock(map_mu_);
  entries_.emplace(key, std::move(entry));
  return prog;
}

void PlanCache::Warm(int level, bool stitch) {
  std::string err;
  for (int q = 1; q <= tpch::kNumQueries; ++q) {
    const exec::Program* prog = Get(q, level, &err);
    if (prog != nullptr && stitch) prog->jit();
  }
}

}  // namespace qc::server
