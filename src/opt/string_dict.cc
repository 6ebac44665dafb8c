#include "opt/string_dict.h"

#include <algorithm>
#include <map>
#include <set>
#include <string>

#include "ir/rewrite.h"
#include "opt/users.h"

namespace qc::opt {

using ir::Op;
using ir::Stmt;
using ir::Type;
using ir::TypeKind;

namespace {

class DictPass : public ir::Cloner {
 public:
  explicit DictPass(storage::Database* db) : db_(db) {}

  void Analyze(const ir::Function& fn) {
    UseIndex idx = BuildUseIndex(fn);
    // Hash keys: record-key constructions reaching map/mmap operations where
    // every string component is a dictionary-eligible column read.
    std::map<const Stmt*, std::vector<const Stmt*>> map_keys;
    CollectKeyRecNews(fn.body(), &map_keys);
    for (const auto& [map_stmt, recnews] : map_keys) {
      bool ok = true;
      bool any_str = false;
      for (const Stmt* rn : recnews) {
        for (const Stmt* comp : rn->args) {
          if (comp->type->kind != TypeKind::kStr) continue;
          any_str = true;
          if (!Dictable(comp)) ok = false;
        }
      }
      if (!ok || !any_str) continue;
      // The foreach key parameter (if any) must be unused: its type changes.
      if (ForeachKeyUsed(map_stmt, idx)) continue;
      rewritten_maps_.insert(map_stmt);
      for (const Stmt* rn : recnews) rewritten_keys_.insert(rn);
    }
  }

 protected:
  Stmt* Transform(const Stmt* s) override {
    switch (s->op) {
      case Op::kStrEq:
      case Op::kStrNe: {
        auto [col, cst] = ColVsConst(s);
        if (col == nullptr) return nullptr;
        const storage::StringDictionary& d =
            db_->Dictionary(col->aux0, col->aux1);
        int32_t code = d.CodeOf(cst->sval);
        if (code < 0) {
          // The constant never occurs: the comparison is statically decided.
          return b().BoolC(s->op == Op::kStrNe);
        }
        Stmt* dc = DictRead(col);
        return s->op == Op::kStrEq ? b().Eq(dc, b().I32(code))
                                   : b().Ne(dc, b().I32(code));
      }
      case Op::kStrLt: {
        // Ordered dictionary: rank comparisons replace strcmp.
        const Stmt *a = s->args[0], *c = s->args[1];
        if (IsDictableCol(a) && c->op == Op::kConst) {
          const storage::StringDictionary& d = db_->Dictionary(a->aux0, a->aux1);
          auto lb = std::lower_bound(d.sorted_values.begin(),
                                     d.sorted_values.end(), c->sval);
          int32_t rank = static_cast<int32_t>(lb - d.sorted_values.begin());
          return b().Lt(DictRead(a), b().I32(rank));
        }
        if (a->op == Op::kConst && IsDictableCol(c)) {
          const storage::StringDictionary& d = db_->Dictionary(c->aux0, c->aux1);
          auto ub = std::upper_bound(d.sorted_values.begin(),
                                     d.sorted_values.end(), a->sval);
          int32_t rank = static_cast<int32_t>(ub - d.sorted_values.begin());
          return b().Ge(DictRead(c), b().I32(rank));
        }
        return nullptr;
      }
      case Op::kStrStartsWith: {
        const Stmt *a = s->args[0], *c = s->args[1];
        if (!IsDictableCol(a) || c->op != Op::kConst) return nullptr;
        const storage::StringDictionary& d = db_->Dictionary(a->aux0, a->aux1);
        auto [lo, hi] = d.PrefixRange(c->sval);
        if (lo > hi) return b().BoolC(false);
        Stmt* dc = DictRead(a);
        return b().And(b().Ge(dc, b().I32(lo)), b().Le(dc, b().I32(hi)));
      }
      case Op::kRecNew: {
        if (rewritten_keys_.count(s) == 0) return nullptr;
        const Type* nt = DictKeyType(s->type->record);
        std::vector<Stmt*> args;
        for (const Stmt* comp : s->args) {
          if (comp->type->kind == TypeKind::kStr) {
            args.push_back(DictRead(comp));
          } else {
            args.push_back(Lookup(comp));
          }
        }
        return b().RecNew(nt, std::move(args));
      }
      case Op::kMapNew: {
        if (rewritten_maps_.count(s) == 0) return nullptr;
        Stmt* m = b().MapNew(DictKeyType(s->type->key->record),
                             s->type->value);
        m->aux0 = s->aux0;
        m->aux1 = s->aux1;
        return m;
      }
      case Op::kMMapNew: {
        if (rewritten_maps_.count(s) == 0) return nullptr;
        return b().MMapNew(DictKeyType(s->type->key->record),
                           s->type->value);
      }
      default:
        return nullptr;
    }
  }

 private:
  bool IsDictableCol(const Stmt* s) const {
    return s->op == Op::kColGet && s->type->kind == TypeKind::kStr &&
           Dictable(s);
  }

  bool Dictable(const Stmt* col) const {
    if (col->op != Op::kColGet || col->type->kind != TypeKind::kStr) {
      return false;
    }
    return db_->Stats(col->aux0, col->aux1).distinct <= kDictMaxDistinct;
  }

  // Reads the dictionary code column in place of the string column.
  Stmt* DictRead(const Stmt* col) {
    return b().ColDict(col->aux0, col->aux1, Lookup(col->args[0]));
  }

  std::pair<const Stmt*, const Stmt*> ColVsConst(const Stmt* s) const {
    const Stmt *a = s->args[0], *c = s->args[1];
    if (IsDictableCol(a) && c->op == Op::kConst) return {a, c};
    if (IsDictableCol(c) && a->op == Op::kConst) return {c, a};
    return {nullptr, nullptr};
  }

  const Type* DictKeyType(const ir::RecordSchema* rec) {
    std::vector<ir::Field> fields;
    for (size_t i = 0; i < rec->fields.size(); ++i) {
      const Type* ft = rec->fields[i].type;
      if (ft->kind == TypeKind::kStr) {
        ft = b().types()->I32();
      }
      fields.push_back(ir::Field{rec->fields[i].name, ft});
    }
    return b().types()->Record(rec->name + "_dc", std::move(fields));
  }

  void CollectKeyRecNews(
      const ir::Block* blk,
      std::map<const Stmt*, std::vector<const Stmt*>>* out) {
    for (const Stmt* s : blk->stmts) {
      const Stmt* key = nullptr;
      const Stmt* map_stmt = nullptr;
      if (s->op == Op::kMapGetOrElseUpdate || s->op == Op::kMMapAdd ||
          s->op == Op::kMMapGetOrNull) {
        map_stmt = s->args[0];
        key = s->args[1];
      }
      if (key != nullptr && key->op == Op::kRecNew &&
          (map_stmt->op == Op::kMapNew || map_stmt->op == Op::kMMapNew)) {
        (*out)[map_stmt].push_back(key);
      }
      for (const ir::Block* nb : s->blocks) CollectKeyRecNews(nb, out);
    }
  }

  bool ForeachKeyUsed(const Stmt* map_stmt, const UseIndex& idx) const {
    for (const Stmt* u : idx.UsersOf(map_stmt)) {
      if (u->op != Op::kMapForeach) continue;
      const Stmt* key_param = u->blocks[0]->params[0];
      if (!idx.UsersOf(key_param).empty()) return true;
    }
    return false;
  }

  storage::Database* db_;
  std::set<const Stmt*> rewritten_maps_;
  std::set<const Stmt*> rewritten_keys_;
};

}  // namespace

std::unique_ptr<ir::Function> ApplyStringDictionaries(const ir::Function& fn,
                                                      storage::Database* db) {
  DictPass pass(db);
  pass.Analyze(fn);
  return pass.Run(fn);
}

}  // namespace qc::opt
