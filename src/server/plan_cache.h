// Cross-session compiled-plan cache: each (query, stack level) pair is
// lowered, built into one immutable exec::Program (bytecode, verified when
// verification is on) and — on first JIT use — stitched, once per process.
// Every worker then runs that same Program concurrently, each with its own
// Interpreter's run state; nothing is recompiled per worker.
//
// The schema is part of the key implicitly: one PlanCache serves exactly
// one immutable Database, and the compiler consults that database's
// statistics, dictionaries and indexes at lowering time. A server over a
// different schema/scale gets its own cache.
//
// Compilation is serialized under one mutex — lowering also lazily builds
// shared dictionary/index structures inside the Database, which are not
// safe to build concurrently. Executions never take the lock after the
// entry exists (shared_mutex read path).
#ifndef QC_SERVER_PLAN_CACHE_H_
#define QC_SERVER_PLAN_CACHE_H_

#include <map>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <utility>

#include "compiler/compiler.h"
#include "exec/interp.h"
#include "ir/stmt.h"
#include "storage/database.h"

namespace qc::server {

class PlanCache {
 public:
  explicit PlanCache(storage::Database* db) : db_(db) {}

  // Returns the Program for TPC-H query `query` at stack level `level`,
  // building it on first use. nullptr (with *error set) when lowering or
  // bytecode verification fails — a structured per-request failure, never
  // fatal to the server.
  const exec::Program* Get(int query, int level, std::string* error);

  // Pre-builds every query at `level` (startup warm-up, so the first
  // client request never pays lowering latency); `stitch` also stitches
  // each JIT image.
  void Warm(int level, bool stitch);

 private:
  struct Entry {
    ir::TypeFactory types;  // must outlive res.fn
    compiler::CompileResult res;  // must outlive prog (its loop plans)
    std::unique_ptr<const exec::Program> prog;
  };

  storage::Database* db_;
  std::shared_mutex map_mu_;   // guards entries_ lookup/insert
  std::mutex compile_mu_;      // serializes lowering (shared db internals)
  std::map<std::pair<int, int>, std::unique_ptr<Entry>> entries_;
};

}  // namespace qc::server

#endif  // QC_SERVER_PLAN_CACHE_H_
