#include "opt/index_infer.h"

#include <map>
#include <memory>
#include <set>
#include <vector>

#include "ir/rewrite.h"
#include "opt/users.h"

namespace qc::opt {

using ir::Block;
using ir::Op;
using ir::Stmt;

namespace {

struct InferredIndex {
  const Stmt* mmap_new = nullptr;
  const Stmt* build_loop = nullptr;   // the ForRange over the base table
  const Stmt* build_recnew = nullptr;
  const Stmt* build_add = nullptr;
  const Stmt* probe_get = nullptr;    // mmap_get_or_null
  const Stmt* probe_isnull = nullptr;
  const Stmt* probe_not = nullptr;
  const Stmt* probe_if = nullptr;
  const Stmt* probe_foreach = nullptr;
  int table = -1;
  int column = -1;
  bool is_pk = false;
  // The build body filters rows and the probe-driving scan reads at least
  // as many rows as the build table: the filter is then evaluated once per
  // build row into `flags`, and every probe tests flags[row] instead.
  bool flagged = false;
  Stmt* flags = nullptr;  // cloned arr_new, set when the build loop is seen
};

// True if every statement inside the loop is pure computation, an If-filter,
// or the single rec_new/mmap_add pair (i.e. the build side is a scan of one
// base table with optional selections — Fig. 7's applicability condition).
bool ValidateBuildLoop(const Block* b, const Stmt* recnew, const Stmt* add) {
  for (const Stmt* s : b->stmts) {
    if (s == recnew || s == add) continue;
    if (s->op == Op::kIf) {
      if (s->blocks.size() > 1 && !s->blocks[1]->stmts.empty()) return false;
      if (!ValidateBuildLoop(s->blocks[0], recnew, add)) return false;
      continue;
    }
    if (s->HasEffect()) return false;
    if (!s->blocks.empty()) return false;
  }
  return true;
}

class IndexInferencePass : public ir::Cloner {
 public:
  explicit IndexInferencePass(storage::Database* db) : db_(db) {}

  void Analyze(const ir::Function& fn) {
    UseIndex idx = BuildUseIndex(fn);
    for (const auto& [s, p] : idx.parent) {
      (void)p;
      if (s->op == Op::kMMapNew) TryInfer(s, idx);
    }
  }

 protected:
  Stmt* Transform(const Stmt* s) override {
    // Field reads on a spliced foreach element resolve to the cloned
    // build-record argument (the record never materializes).
    if (s->op == Op::kRecGet && !splice_stack_.empty()) {
      for (auto it = splice_stack_.rbegin(); it != splice_stack_.rend();
           ++it) {
        if (s->args[0] == it->elem_param) return it->field_values[s->aux0];
      }
    }

    auto flag_it = flag_loops_.find(s);
    if (flag_it != flag_loops_.end()) {
      EmitFlags(flag_it->second);
      return Drop();
    }
    if (flatten_.count(s) != 0) {
      CloneBlockBody(s->blocks[0]);
      return Drop();
    }

    if (drop_.count(s) != 0) return Drop();

    auto it = probe_sites_.find(s);
    if (it != probe_sites_.end()) {
      EmitProbe(*it->second);
      return Drop();
    }

    auto add_it = spliced_adds_.find(s);
    if (add_it != spliced_adds_.end()) {
      if (add_it->second == filling_) {
        b().ArrSet(filling_->flags, fill_row_, b().BoolC(true));
      } else {
        SpliceForeachBody(*add_it->second);
      }
      return Drop();
    }
    return nullptr;
  }

 private:
  void TryInfer(const Stmt* mm, const UseIndex& idx) {
    InferredIndex info;
    info.mmap_new = mm;

    for (const Stmt* u : idx.UsersOf(mm)) {
      if (u->op == Op::kMMapAdd) {
        if (info.build_add != nullptr) return;  // exactly one build site
        info.build_add = u;
      } else if (u->op == Op::kMMapGetOrNull) {
        if (info.probe_get != nullptr) return;  // exactly one probe site
        info.probe_get = u;
      } else {
        return;
      }
    }
    if (info.build_add == nullptr || info.probe_get == nullptr) return;

    // Build side: key must be a PK/FK column of the scanned table.
    const Stmt* key = info.build_add->args[1];
    if (key->op == Op::kCast) key = key->args[0];
    if (key->op != Op::kColGet) return;
    info.table = key->aux0;
    info.column = key->aux1;
    const storage::TableDef& def = db_->table(info.table).def();
    info.is_pk = def.primary_key == info.column;
    if (!info.is_pk && !def.IsForeignKey(info.column)) return;

    const Stmt* rec = info.build_add->args[2];
    if (rec->op != Op::kRecNew) return;
    info.build_recnew = rec;

    // Locate the enclosing ForRange over table_rows(T) with row = loop var.
    const Stmt* p = info.build_add;
    bool filtered = false;
    while (true) {
      auto pit = idx.parent.find(p);
      if (pit == idx.parent.end() || pit->second == nullptr) return;
      p = pit->second;
      if (p->op == Op::kForRange) break;
      if (p->op != Op::kIf) return;
      filtered = true;
    }
    if (p->args[1]->op != Op::kTableRows || p->args[1]->aux0 != info.table) {
      return;
    }
    if (p->args[0]->op != Op::kConst || p->args[0]->ival != 0) return;
    if (key->args[0] != p->blocks[0]->params[0]) return;
    if (!ValidateBuildLoop(p->blocks[0], info.build_recnew, info.build_add)) {
      return;
    }
    info.build_loop = p;

    // Probe side: lst -> is_null -> not -> if { foreach } (the exact shape
    // the pipelining lowering emits).
    const Stmt* lst = info.probe_get;
    const Stmt *isnull = nullptr, *foreach_s = nullptr;
    for (const Stmt* u : idx.UsersOf(lst)) {
      if (u->op == Op::kIsNull && isnull == nullptr) {
        isnull = u;
      } else if (u->op == Op::kListForeach && foreach_s == nullptr) {
        foreach_s = u;
      } else {
        return;
      }
    }
    if (isnull == nullptr || foreach_s == nullptr) return;
    const Stmt* not_s = nullptr;
    for (const Stmt* u : idx.UsersOf(isnull)) {
      if (u->op != Op::kNot || not_s != nullptr) return;
      not_s = u;
    }
    if (not_s == nullptr) return;
    const Stmt* if_s = nullptr;
    for (const Stmt* u : idx.UsersOf(not_s)) {
      if (u->op != Op::kIf || if_s != nullptr) return;
      if_s = u;
    }
    if (if_s == nullptr) return;
    // The then-branch must consist of exactly the foreach.
    if (if_s->blocks[0]->stmts.size() != 1 ||
        if_s->blocks[0]->stmts[0] != foreach_s) {
      return;
    }
    // All uses of the foreach element are field reads (no escape).
    const Stmt* elem = foreach_s->blocks[0]->params[0];
    for (const Stmt* u : idx.UsersOf(elem)) {
      if (u->op != Op::kRecGet) return;
    }

    info.flagged = filtered && DrivingScanRows(info.probe_get, idx) >=
                                   db_->table(info.table).rows();
    info.probe_isnull = isnull;
    info.probe_not = not_s;
    info.probe_if = if_s;
    info.probe_foreach = foreach_s;

    inferred_.push_back(std::make_unique<InferredIndex>(info));
    InferredIndex* stored = inferred_.back().get();
    drop_.insert(mm);
    drop_.insert(info.build_loop);
    drop_.insert(info.probe_get);
    drop_.insert(info.probe_isnull);
    drop_.insert(info.probe_not);
    probe_sites_[info.probe_if] = stored;
    spliced_adds_[info.build_add] = stored;
    if (info.flagged) flag_loops_[info.build_loop] = stored;

    // Build the load-time index now: construction is charged to loading.
    if (info.is_pk) {
      db_->PrimaryIndex(info.table, info.column);
    } else {
      db_->Partition(info.table, info.column);
    }
  }

  // Rows of the base-table scan that runs `probe` once per row, i.e. whose
  // loop body holds the probe directly; 0 when the probe sits behind a
  // filter or another join, where the probe count is unknown.
  int64_t DrivingScanRows(const Stmt* probe, const UseIndex& idx) const {
    auto pit = idx.parent.find(probe);
    if (pit == idx.parent.end() || pit->second == nullptr) return 0;
    const Stmt* p = pit->second;
    if (p->op != Op::kForRange || p->args[1]->op != Op::kTableRows) return 0;
    return db_->table(p->args[1]->aux0).rows();
  }

  // Replaces a flagged build loop: one pass over the build table evaluates
  // its filter per row and records the rows that reach the mmap_add.
  void EmitFlags(InferredIndex* info) {
    Stmt* n = b().TableRows(info->table);
    info->flags = b().ArrNew(b().types()->Bool(), n);
    b().ForRange(b().I64(0), n, [&](Stmt* row) {
      filling_ = info;
      fill_row_ = row;
      Map(info->build_loop->blocks[0]->params[0], row);
      CloneBlockBody(info->build_loop->blocks[0]);
      filling_ = nullptr;
    });
  }

  // Replaces the probe If: iterate matching base-table rows through the
  // load-time index and inline the (filtered) build body per row.
  void EmitProbe(const InferredIndex& info) {
    Stmt* key = Lookup(info.probe_get->args[1]);
    if (info.is_pk) {
      Stmt* row = b().IdxPkRow(info.table, info.column, key);
      b().If(b().Ge(row, b().I64(0)), [&] { InlineBuildBody(info, row); });
    } else {
      Stmt* len = b().IdxBucketLen(info.table, info.column, key);
      b().ForRange(b().I64(0), len, [&](Stmt* j) {
        Stmt* row = b().IdxBucketRow(info.table, info.column, key, j);
        InlineBuildBody(info, row);
      });
    }
  }

  void InlineBuildBody(const InferredIndex& info, Stmt* row) {
    // Clone the build loop body with the loop variable bound to `row`; the
    // registered mmap_add inside it splices the probe's foreach body. A
    // flagged body is guarded by flags[row] and its filters are dropped.
    Map(info.build_loop->blocks[0]->params[0], row);
    if (!info.flagged) {
      CloneBlockBody(info.build_loop->blocks[0]);
      return;
    }
    std::vector<const Stmt*> ifs;
    CollectIfs(info.build_loop->blocks[0], &ifs);
    b().If(b().ArrGet(info.flags, row), [&] {
      flatten_.insert(ifs.begin(), ifs.end());
      CloneBlockBody(info.build_loop->blocks[0]);
      for (const Stmt* s : ifs) flatten_.erase(s);
    });
  }

  static void CollectIfs(const Block* blk, std::vector<const Stmt*>* out) {
    for (const Stmt* s : blk->stmts) {
      if (s->op != Op::kIf) continue;
      out->push_back(s);
      CollectIfs(s->blocks[0], out);
    }
  }

  void SpliceForeachBody(const InferredIndex& info) {
    Splice sp;
    sp.elem_param = info.probe_foreach->blocks[0]->params[0];
    for (const Stmt* a : info.build_recnew->args) {
      sp.field_values.push_back(Lookup(a));
    }
    splice_stack_.push_back(std::move(sp));
    CloneBlockBody(info.probe_foreach->blocks[0]);
    splice_stack_.pop_back();
  }

  struct Splice {
    const Stmt* elem_param = nullptr;
    std::vector<Stmt*> field_values;
  };

  storage::Database* db_;
  std::vector<std::unique_ptr<InferredIndex>> inferred_;
  std::set<const Stmt*> drop_;
  std::map<const Stmt*, const InferredIndex*> probe_sites_;
  std::map<const Stmt*, const InferredIndex*> spliced_adds_;
  std::map<const Stmt*, InferredIndex*> flag_loops_;
  std::vector<Splice> splice_stack_;
  // Flagged build bodies: the filter Ifs inlined unconditionally at the
  // probe, and the flag loop being emitted with its row variable.
  std::set<const Stmt*> flatten_;
  const InferredIndex* filling_ = nullptr;
  Stmt* fill_row_ = nullptr;
};

}  // namespace

std::unique_ptr<ir::Function> InferIndexes(const ir::Function& fn,
                                           storage::Database* db) {
  IndexInferencePass pass(db);
  pass.Analyze(fn);
  return pass.Run(fn);
}

}  // namespace qc::opt
