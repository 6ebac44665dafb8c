// The DSL-stack pass manager. A StackConfig selects how many levels of the
// stack are active (Table 3's DBLAB/LB 2..5 configurations), which
// optimizations run at each level, and encodes the single lowering path
// demanded by the transformation cohesion principle:
//
//   QPlan --pipelining--> ScaLite[Map,List]
//         --index inference, then string dictionaries--
//         --hash specialization--> ScaLite[List]
//         --list specialization--> ScaLite
//         --pools, scalar replacement, &&-flattening--> C.Lite
//
// StackConfig::Level(n): level 3 turns on pools, scalar replacement and
// &&-flattening; level 4 adds index inference, string dictionaries and hash
// specialization; level 5 adds list specialization. Index inference runs
// before string dictionaries because the build-side predicates it inlines
// into a probe become base-table column reads, which dictionaries then turn
// into integer code compares.
//
// With fewer levels enabled, the corresponding transformations simply cannot
// be expressed and are skipped — reproducing the degenerate configurations
// of the evaluation. Every phase is timed (Figure 9) and the output of every
// stage is verified against its DSL level.
#ifndef QC_COMPILER_COMPILER_H_
#define QC_COMPILER_COMPILER_H_

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "ir/stmt.h"
#include "ir/verify.h"
#include "qplan/plan.h"
#include "storage/database.h"

namespace qc::compiler {

struct StackConfig {
  std::string name = "dblab-lb-5";
  int levels = 5;  // informational: 2..5

  bool string_dict = true;       // §5.3
  bool index_inference = true;   // Appendix B.1
  bool hash_spec = true;         // §5.2 (direct-addressed structures)
  bool intrusive_lists = true;   // §4.4 list specialization
  bool pool_hoist = true;        // Appendix D.1
  bool scalar_repl = true;       // Appendix C
  bool cond_flatten = true;      // Appendix E
  bool verify = true;            // check levels after each phase

  // Table 3 presets.
  static StackConfig Level(int levels);
  // TPC-H compliant set: dictionaries, partitioning and index inference off.
  static StackConfig Compliant();
  // The monolithic LegoBase baseline: one-step expansion with LegoBase's
  // optimization set (no automatic index inference).
  static StackConfig LegoBase();
};

struct CompileResult {
  std::unique_ptr<ir::Function> fn;
  double total_ms = 0;
  std::vector<std::pair<std::string, double>> phase_ms;
};

class QueryCompiler {
 public:
  // The database is consulted at compile time for statistics, dictionaries
  // and indexes (their construction is charged to loading, Appendix D).
  QueryCompiler(storage::Database* db, ir::TypeFactory* types)
      : db_(db), types_(types) {}

  // `plan` must be resolved against `db`.
  CompileResult Compile(const qplan::Plan& plan, const StackConfig& config,
                        const std::string& name);

 private:
  storage::Database* db_;
  ir::TypeFactory* types_;
};

}  // namespace qc::compiler

#endif  // QC_COMPILER_COMPILER_H_
