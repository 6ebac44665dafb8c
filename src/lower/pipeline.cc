#include "lower/pipeline.h"

#include <algorithm>
#include <cassert>
#include <functional>
#include <unordered_map>
#include <vector>

#include "ir/builder.h"
#include "lower/expr_lower.h"

namespace qc::lower {

using ir::Builder;
using ir::Stmt;
using ir::Type;
using qplan::AggFn;
using qplan::ExprPtr;
using qplan::JoinKind;
using qplan::Plan;
using qplan::PlanKind;
using qplan::ValType;

namespace {

// One symbol per column of an operator's schema, at its schema position;
// null for a column no ancestor reads (see Need).
using Row = std::vector<Stmt*>;
using Consumer = std::function<void(const Row&)>;
// Per column of a schema: true when the column must be materialized.
using Need = std::vector<bool>;

bool IsIntegralVal(ValType t) {
  return t == ValType::kI64 || t == ValType::kDate || t == ValType::kBool ||
         t.kind == ValType::kDec;
}

// The top-level conjuncts of `e`, left to right.
std::vector<ExprPtr> Conjuncts(const ExprPtr& e) {
  if (e->kind != qplan::ExprKind::kAnd) return {e};
  std::vector<ExprPtr> out = Conjuncts(e->kids[0]);
  for (ExprPtr& c : Conjuncts(e->kids[1])) out.push_back(std::move(c));
  return out;
}

// True if every column `e` reads lies below index `n` of its input row.
bool ReadsBelow(const ExprPtr& e, size_t n) {
  if (e->kind == qplan::ExprKind::kCol) {
    return static_cast<size_t>(e->col_idx) < n;
  }
  for (const ExprPtr& k : e->kids) {
    if (!ReadsBelow(k, n)) return false;
  }
  return true;
}

// Marks in `need` every column `e` reads, shifted down by `base`; a column
// outside [base, base + need->size()) belongs to another input.
void MarkReads(const ExprPtr& e, Need* need, size_t base = 0) {
  if (e->kind == qplan::ExprKind::kCol) {
    size_t c = static_cast<size_t>(e->col_idx);
    if (c >= base && c - base < need->size()) (*need)[c - base] = true;
    return;
  }
  for (const ExprPtr& k : e->kids) MarkReads(k, need, base);
}

class PipelineLowering {
 public:
  PipelineLowering(storage::Database& db, ir::TypeFactory* types)
      : db_(db), types_(types) {}

  std::unique_ptr<ir::Function> Run(const Plan& plan,
                                    const std::string& name) {
    auto fn = std::make_unique<ir::Function>(name, types_);
    Builder builder(fn.get());
    b_ = &builder;
    MarkNeeds(plan, Need(plan.schema.size(), true));
    Produce(plan, [&](const Row& row) { EmitResult(b(), row, plan.schema); });
    b_ = nullptr;
    return fn;
  }

 private:
  Builder& b() { return *b_; }

  const Type* LowerColType(storage::ColType t) {
    switch (t) {
      case storage::ColType::kI64:
      case storage::ColType::kDec: return types_->I64();
      case storage::ColType::kF64: return types_->F64();
      case storage::ColType::kStr: return types_->Str();
      case storage::ColType::kDate: return types_->DateT();
    }
    return types_->I64();
  }

  // Fresh record type holding the columns of `schema` that `keep` marks, in
  // schema order (field names keep the column's position and name for
  // debuggability).
  const Type* TupleType(const qplan::Schema& schema, const Need& keep,
                        const std::string& base) {
    std::vector<ir::Field> fields;
    for (size_t i = 0; i < schema.size(); ++i) {
      if (!keep[i]) continue;
      fields.push_back(ir::Field{"f" + std::to_string(i) + "_" +
                                     schema[i].name,
                                 LowerValType(types_, schema[i].type)});
    }
    return types_->Record(base + std::to_string(counter_++), std::move(fields));
  }

  // The kept entries of `row`, the field values of a TupleType record.
  static Row KeptFields(const Row& row, const Need& keep) {
    Row fields;
    for (size_t i = 0; i < row.size(); ++i) {
      if (keep[i]) fields.push_back(row[i]);
    }
    return fields;
  }

  // The row a TupleType record stores: its fields at their schema
  // positions, null where `keep` pruned the column.
  Row RecFields(Stmt* rec, const Need& keep) {
    Row row(keep.size(), nullptr);
    int field = 0;
    for (size_t i = 0; i < keep.size(); ++i) {
      if (keep[i]) row[i] = b().RecGet(rec, field++);
    }
    return row;
  }

  // Needed columns, top-down, before any IR is emitted: the root needs its
  // whole schema, each operator adds the columns its own expressions read,
  // and a join splits its need between its children. Each operator then
  // materializes only what an ancestor reads.
  void MarkNeeds(const Plan& p, Need need) {
    std::vector<Need> kids;
    switch (p.kind) {
      case PlanKind::kScan:
        break;
      case PlanKind::kSelect:
        kids = {need};
        MarkReads(p.predicate, &kids[0]);
        break;
      case PlanKind::kLimit:
        kids = {need};
        break;
      case PlanKind::kSort:
        kids = {need};
        for (const qplan::SortKey& k : p.sort_keys) MarkReads(k.expr, &kids[0]);
        break;
      case PlanKind::kProject:
        kids = {Need(p.children[0]->schema.size())};
        for (size_t i = 0; i < p.projections.size(); ++i) {
          if (need[i]) MarkReads(p.projections[i].expr, &kids[0]);
        }
        break;
      case PlanKind::kAgg:
        kids = {Need(p.children[0]->schema.size())};
        for (const qplan::NamedExpr& g : p.group_by) {
          MarkReads(g.expr, &kids[0]);
        }
        for (const qplan::AggSpec& a : p.aggs) {
          if (a.arg != nullptr) MarkReads(a.arg, &kids[0]);
        }
        break;
      case PlanKind::kJoin: {
        size_t nl = p.children[0]->schema.size();
        Need left(need.begin(), need.begin() + nl);
        Need right(p.children[1]->schema.size());
        if (need.size() > nl) {  // inner and outer: left ++ right (++ matched)
          for (size_t j = 0; j < right.size(); ++j) right[j] = need[nl + j];
        }
        if (p.predicate != nullptr) {
          MarkReads(p.predicate, &left);
          MarkReads(p.predicate, &right, nl);
        }
        // The build tuple stores what is read above the join or by the
        // residual, and the key pairs compared per match; the hash key is
        // computed from the child row.
        Need& stored = stored_[&p] = right;
        int part = PartitionPair(p);
        for (size_t i = 0; part >= 0 && i < p.right_keys.size(); ++i) {
          if (static_cast<int>(i) != part) MarkReads(p.right_keys[i], &stored);
        }
        for (const ExprPtr& k : p.left_keys) MarkReads(k, &left);
        for (const ExprPtr& k : p.right_keys) MarkReads(k, &right);
        kids = {std::move(left), std::move(right)};
        break;
      }
    }
    for (size_t i = 0; i < kids.size(); ++i) {
      MarkNeeds(*p.children[i], std::move(kids[i]));
    }
    need_[&p] = std::move(need);
  }

  // The base-table column that column `col` of `p`'s output copies, traced
  // through the operators that pass a column on unchanged; {-1, -1} for a
  // computed column.
  std::pair<int, int> BaseColumn(const Plan& p, size_t col) const {
    const ExprPtr* src = nullptr;
    switch (p.kind) {
      case PlanKind::kScan:
        return {p.table_id, static_cast<int>(col)};
      case PlanKind::kSelect:
      case PlanKind::kSort:
      case PlanKind::kLimit:
        return BaseColumn(*p.children[0], col);
      case PlanKind::kProject:
        src = &p.projections[col].expr;
        break;
      case PlanKind::kAgg:
        if (col < p.group_by.size()) src = &p.group_by[col].expr;
        break;
      case PlanKind::kJoin: {
        size_t nl = p.children[0]->schema.size();
        if (col < nl) return BaseColumn(*p.children[0], col);
        if (col - nl < p.children[1]->schema.size()) {
          return BaseColumn(*p.children[1], col - nl);
        }
        break;  // an outer join's `matched`
      }
    }
    if (src == nullptr || (*src)->kind != qplan::ExprKind::kCol) {
      return {-1, -1};
    }
    return BaseColumn(*p.children[0], static_cast<size_t>((*src)->col_idx));
  }

  // Rows of the table whose rows key expression `e` over `p`'s output
  // identifies: a column copying a declared PK names its own table, one
  // copying an FK the referenced table; -1 for any other key.
  int64_t KeyDomainRows(const Plan& p, const ExprPtr& e) const {
    if (e->kind != qplan::ExprKind::kCol) return -1;
    auto [table, column] = BaseColumn(p, static_cast<size_t>(e->col_idx));
    if (table < 0) return -1;
    const storage::TableDef& def = db_.table(table).def();
    if (def.primary_key == column) return db_.table(table).rows();
    for (const storage::ForeignKey& fk : def.foreign_keys) {
      int ref = db_.TableId(fk.ref_table);
      if (fk.column == column && ref >= 0) return db_.table(ref).rows();
    }
    return -1;
  }

  // The key pair a join with two or more pairs partitions its MultiMap on
  // (LegoBase's rule for a composite key): an integral pair whose column is
  // a PK or FK on either side, preferring the one that identifies rows of
  // the largest table, so its buckets are the smallest. The other pairs are
  // compared per match, which agrees with the key record's slot equality
  // only for integral and string pairs. With any other pair, or no PK/FK
  // pair, the result is -1 and the key stays a record.
  int PartitionPair(const Plan& p) const {
    if (p.right_keys.size() < 2) return -1;
    int best = -1;
    int64_t best_rows = -1;
    for (size_t i = 0; i < p.right_keys.size(); ++i) {
      ValType lt = p.left_keys[i]->type, rt = p.right_keys[i]->type;
      if ((lt == ValType::kStr) != (rt == ValType::kStr)) return -1;
      if (lt == ValType::kStr) continue;
      if (!IsIntegralVal(lt) || !IsIntegralVal(rt)) return -1;
      int64_t rows = std::max(KeyDomainRows(*p.children[0], p.left_keys[i]),
                              KeyDomainRows(*p.children[1], p.right_keys[i]));
      if (rows > best_rows) {
        best = static_cast<int>(i);
        best_rows = rows;
      }
    }
    return best_rows >= 0 ? best : -1;
  }

  // Hash-key shape, decidable statically: a single integral key is carried
  // as a plain i64 (the case the specialization passes can turn into array
  // partitioning); composite or string keys become a key record handled by
  // the generic type-directed hash — the GLib path.
  struct KeySpec {
    const Type* type = nullptr;
    bool single_integral = false;
  };

  KeySpec KeyTypeOf(const std::vector<ExprPtr>& keys) {
    KeySpec spec;
    if (keys.empty() || (keys.size() == 1 && IsIntegralVal(keys[0]->type))) {
      spec.type = types_->I64();
      spec.single_integral = true;
      return spec;
    }
    std::vector<ir::Field> fields;
    for (size_t i = 0; i < keys.size(); ++i) {
      fields.push_back(ir::Field{"k" + std::to_string(i),
                                 LowerValType(types_, keys[i]->type)});
    }
    spec.type =
        types_->Record("Key" + std::to_string(counter_++), std::move(fields));
    spec.single_integral = false;
    return spec;
  }

  Stmt* MakeKey(const KeySpec& spec, const std::vector<ExprPtr>& keys,
                const Row& row) {
    if (keys.empty()) return b().I64(0);
    std::vector<Stmt*> vals;
    vals.reserve(keys.size());
    for (const ExprPtr& k : keys) vals.push_back(LowerExpr(b(), k, row));
    if (spec.single_integral) return b().Cast(vals[0], types_->I64());
    return b().RecNew(spec.type, vals);
  }

  void Produce(const Plan& p, const Consumer& consume) {
    switch (p.kind) {
      case PlanKind::kScan: return ProduceScan(p, consume);
      case PlanKind::kSelect: return ProduceSelect(p, consume);
      case PlanKind::kProject: return ProduceProject(p, consume);
      case PlanKind::kJoin: return ProduceJoin(p, consume);
      case PlanKind::kAgg: return ProduceAgg(p, consume);
      case PlanKind::kSort: return ProduceSort(p, consume);
      case PlanKind::kLimit: return ProduceLimit(p, consume);
    }
  }

  void ProduceScan(const Plan& p, const Consumer& consume) {
    const storage::Table& t = db_.table(p.table_id);
    const Need& need = need_.at(&p);
    Stmt* n = b().TableRows(p.table_id);
    b().ForRange(b().I64(0), n, [&](Stmt* i) {
      Row row(t.num_columns(), nullptr);
      for (size_t c = 0; c < t.num_columns(); ++c) {
        if (!need[c]) continue;
        row[c] = b().ColGet(p.table_id, static_cast<int>(c), i,
                            LowerColType(t.def().columns[c].type));
      }
      consume(row);
    });
  }

  void ProduceSelect(const Plan& p, const Consumer& consume) {
    Produce(*p.children[0], [&](const Row& row) {
      Stmt* pred = LowerExpr(b(), p.predicate, row);
      b().If(pred, [&] { consume(row); });
    });
  }

  void ProduceProject(const Plan& p, const Consumer& consume) {
    const Need& need = need_.at(&p);
    Produce(*p.children[0], [&](const Row& row) {
      Row out(p.projections.size(), nullptr);
      for (size_t i = 0; i < p.projections.size(); ++i) {
        if (need[i]) out[i] = LowerExpr(b(), p.projections[i].expr, row);
      }
      consume(out);
    });
  }

  // The keys a join hashes on one side: all of them, or the partition
  // pair's alone.
  static std::vector<ExprPtr> HashKeys(const std::vector<ExprPtr>& keys,
                                       int part) {
    if (part < 0) return keys;
    return {keys[part]};
  }

  // Hash joins build a MultiMap over the *right* child and stream the left
  // child through it (first/second phase of Fig. 4d). Semi/anti joins check
  // match existence; outer joins track a `matched` flag and emit a padded
  // row for unmatched probes. An inner or semi join tests the residual's
  // probe-only conjuncts before the lookup, so rows failing them never
  // hash; anti and outer joins must see every probe row, so they keep the
  // whole residual per match. A composite key with a PK/FK pair is keyed by
  // that pair alone (PartitionPair), as a single integral key the
  // specialization passes can turn into an index or a bucket array; each
  // match then tests the other pairs before the residual. The build tuple
  // stores only the right columns an ancestor, the residual or those key
  // tests read.
  void ProduceJoin(const Plan& p, const Consumer& consume) {
    const qplan::Schema& rschema = p.children[1]->schema;
    const Need& stored = stored_.at(&p);
    int part = PartitionPair(p);
    KeySpec spec = KeyTypeOf(HashKeys(p.right_keys, part));

    std::vector<ExprPtr> probe_conj, match_conj;
    if (p.predicate != nullptr) {
      size_t nprobe = p.children[0]->schema.size();
      bool split = p.join_kind == JoinKind::kInner ||
                   p.join_kind == JoinKind::kSemi;
      for (const ExprPtr& c : Conjuncts(p.predicate)) {
        (split && ReadsBelow(c, nprobe) ? probe_conj : match_conj)
            .push_back(c);
      }
    }

    const Type* tup = TupleType(rschema, stored, "JoinTup");
    Stmt* mm = b().MMapNew(spec.type, tup);

    // Phase 1: build.
    Produce(*p.children[1], [&](const Row& row) {
      Stmt* key = MakeKey(spec, HashKeys(p.right_keys, part), row);
      b().MMapAdd(mm, key, b().RecNew(tup, KeptFields(row, stored)));
    });

    // Phase 2: probe.
    Produce(*p.children[0], [&](const Row& lrow) {
      auto probe = [&] {
        ProbeJoin(p, spec, part, mm, match_conj, lrow, consume);
      };
      if (probe_conj.empty()) {
        probe();
      } else {
        b().If(LowerConjunction(probe_conj, lrow), probe);
      }
    });
  }

  void ProbeJoin(const Plan& p, const KeySpec& spec, int part, Stmt* mm,
                 const std::vector<ExprPtr>& match_conj, const Row& lrow,
                 const Consumer& consume) {
    const qplan::Schema& rschema = p.children[1]->schema;
    const Need& stored = stored_.at(&p);
    // The probe values of the pairs a partitioned key compares per match.
    std::vector<std::pair<size_t, Stmt*>> rest;
    for (size_t i = 0; part >= 0 && i < p.left_keys.size(); ++i) {
      if (static_cast<int>(i) == part) continue;
      rest.emplace_back(i, LowerExpr(b(), p.left_keys[i], lrow));
    }
    Stmt* key = MakeKey(spec, HashKeys(p.left_keys, part), lrow);
    Stmt* lst = b().MMapGetOrNull(mm, key);

    auto foreach_match = [&](const std::function<void(const Row&)>& on_match) {
      b().If(b().Not(b().IsNull(lst)), [&] {
        b().ListForeach(lst, [&](Stmt* rec) {
          Row rrow = RecFields(rec, stored);
          auto residual = [&] {
            if (match_conj.empty()) return on_match(rrow);
            Row concat = lrow;
            concat.insert(concat.end(), rrow.begin(), rrow.end());
            b().If(LowerConjunction(match_conj, concat),
                   [&] { on_match(rrow); });
          };
          if (rest.empty()) return residual();
          Stmt* same = nullptr;
          for (const auto& [i, lval] : rest) {
            Stmt* eq = KeyEq(lval, LowerExpr(b(), p.right_keys[i], rrow));
            same = same == nullptr ? eq : b().And(same, eq);
          }
          b().If(same, residual);
        });
      });
    };

    switch (p.join_kind) {
      case JoinKind::kInner: {
        foreach_match([&](const Row& rrow) {
          Row out = lrow;
          out.insert(out.end(), rrow.begin(), rrow.end());
          consume(out);
        });
        break;
      }
      case JoinKind::kSemi:
      case JoinKind::kAnti: {
        Stmt* found = b().VarNew(b().BoolC(false));
        foreach_match([&](const Row&) {
          b().VarAssign(found, b().BoolC(true));
        });
        Stmt* flag = b().VarRead(found);
        if (p.join_kind == JoinKind::kAnti) flag = b().Not(flag);
        b().If(flag, [&] { consume(lrow); });
        break;
      }
      case JoinKind::kLeftOuter: {
        Stmt* matched = b().VarNew(b().BoolC(false));
        foreach_match([&](const Row& rrow) {
          b().VarAssign(matched, b().BoolC(true));
          Row out = lrow;
          out.insert(out.end(), rrow.begin(), rrow.end());
          out.push_back(b().BoolC(true));
          consume(out);
        });
        b().If(b().Not(b().VarRead(matched)), [&] {
          Row out = lrow;
          for (size_t j = 0; j < rschema.size(); ++j) {
            const Type* t = LowerValType(types_, rschema[j].type);
            out.push_back(stored[j] ? DefaultValue(b(), t) : nullptr);
          }
          out.push_back(b().BoolC(false));
          consume(out);
        });
        break;
      }
    }
  }

  // Equality of two key values as a key record's hash compares them: by
  // string contents, or by the integral slot.
  Stmt* KeyEq(Stmt* a, Stmt* c) {
    if (a->type->kind == ir::TypeKind::kStr) return b().StrEq(a, c);
    return b().Eq(b().Cast(a, types_->I64()), b().Cast(c, types_->I64()));
  }

  // Left-to-right conjunction of `conj` (non-empty); every conjunct is
  // evaluated, matching the unsplit lowering of kAnd.
  Stmt* LowerConjunction(const std::vector<ExprPtr>& conj, const Row& row) {
    Stmt* all = LowerExpr(b(), conj[0], row);
    for (size_t i = 1; i < conj.size(); ++i) {
      all = b().And(all, LowerExpr(b(), conj[i], row));
    }
    return all;
  }

  // Aggregation: grouped aggregation keeps one mutable record per group in a
  // HashMap (records hold group values, one accumulator per aggregate, and a
  // shared row count `n`); global aggregation uses plain mutable variables.
  void ProduceAgg(const Plan& p, const Consumer& consume) {
    if (p.group_by.empty()) return ProduceGlobalAgg(p, consume);

    KeySpec spec;
    {
      std::vector<ExprPtr> key_exprs;
      for (const auto& g : p.group_by) key_exprs.push_back(g.expr);
      spec = KeyTypeOf(key_exprs);
    }

    // Aggregation record: group fields, accumulators, shared count.
    std::vector<ir::Field> fields;
    for (size_t i = 0; i < p.group_by.size(); ++i) {
      fields.push_back(ir::Field{
          "g" + std::to_string(i),
          LowerValType(types_, p.group_by[i].expr->type)});
    }
    for (size_t a = 0; a < p.aggs.size(); ++a) {
      fields.push_back(
          ir::Field{"a" + std::to_string(a), AggAccType(types_, p.aggs[a])});
    }
    fields.push_back(ir::Field{"n", types_->I64()});
    const Type* agg_rec =
        types_->Record("AggRec" + std::to_string(counter_++), std::move(fields));
    size_t acc_base = p.group_by.size();
    int n_idx = static_cast<int>(agg_rec->record->fields.size()) - 1;

    Stmt* map = b().MapNew(spec.type, agg_rec);
    map->aux0 = spec.single_integral ? 0 : -1;
    map->aux1 = static_cast<int>(p.group_by.size());

    Produce(*p.children[0], [&](const Row& row) {
      Row gvals;
      for (const auto& g : p.group_by) {
        gvals.push_back(LowerExpr(b(), g.expr, row));
      }
      Stmt* key;
      if (spec.single_integral) {
        key = b().Cast(gvals[0], types_->I64());
      } else {
        key = b().RecNew(spec.type, gvals);
      }
      Stmt* rec = b().MapGetOrElseUpdate(map, key, [&]() -> Stmt* {
        Row init = gvals;
        for (size_t a = 0; a < p.aggs.size(); ++a) {
          init.push_back(DefaultValue(
              b(), agg_rec->record->fields[acc_base + a].type));
        }
        init.push_back(b().I64(0));
        return b().RecNew(agg_rec, init);
      });

      Stmt* n0 = b().RecGet(rec, n_idx);
      for (size_t a = 0; a < p.aggs.size(); ++a) {
        const qplan::AggSpec& sp = p.aggs[a];
        int fidx = static_cast<int>(acc_base + a);
        if (sp.fn == AggFn::kCount) continue;  // shared count handles it
        Stmt* v = LowerExpr(b(), sp.arg, row);
        const Type* acc_t = agg_rec->record->fields[fidx].type;
        v = b().Cast(v, acc_t);
        Stmt* cur = b().RecGet(rec, fidx);
        switch (sp.fn) {
          case AggFn::kSum:
          case AggFn::kAvg:
            b().RecSet(rec, fidx, b().Add(cur, v));
            break;
          case AggFn::kMin: {
            Stmt* take = b().Or(b().Eq(n0, b().I64(0)), b().Lt(v, cur));
            b().If(take, [&] { b().RecSet(rec, fidx, v); });
            break;
          }
          case AggFn::kMax: {
            Stmt* take = b().Or(b().Eq(n0, b().I64(0)), b().Gt(v, cur));
            b().If(take, [&] { b().RecSet(rec, fidx, v); });
            break;
          }
          case AggFn::kCount:
            break;
        }
      }
      b().RecSet(rec, n_idx, b().Add(n0, b().I64(1)));
    });

    b().MapForeach(map, [&](Stmt* /*key*/, Stmt* rec) {
      Row out;
      for (size_t i = 0; i < p.group_by.size(); ++i) {
        out.push_back(b().RecGet(rec, static_cast<int>(i)));
      }
      Stmt* n = b().RecGet(rec, n_idx);
      for (size_t a = 0; a < p.aggs.size(); ++a) {
        const qplan::AggSpec& sp = p.aggs[a];
        int fidx = static_cast<int>(acc_base + a);
        switch (sp.fn) {
          case AggFn::kCount:
            out.push_back(n);
            break;
          case AggFn::kAvg:
            out.push_back(AvgOf(b(), b().RecGet(rec, fidx), sp.arg->type, n));
            break;
          default:
            out.push_back(b().RecGet(rec, fidx));
        }
      }
      consume(out);
    });
  }

  void ProduceGlobalAgg(const Plan& p, const Consumer& consume) {
    std::vector<Stmt*> accs(p.aggs.size(), nullptr);
    std::vector<const Type*> acc_types(p.aggs.size(), nullptr);
    for (size_t a = 0; a < p.aggs.size(); ++a) {
      const qplan::AggSpec& sp = p.aggs[a];
      acc_types[a] = AggAccType(types_, sp);
      accs[a] = b().VarNew(DefaultValue(b(), acc_types[a]));
    }
    Stmt* n_var = b().VarNew(b().I64(0));

    Produce(*p.children[0], [&](const Row& row) {
      Stmt* n0 = b().VarRead(n_var);
      for (size_t a = 0; a < p.aggs.size(); ++a) {
        const qplan::AggSpec& sp = p.aggs[a];
        if (sp.fn == AggFn::kCount) continue;
        Stmt* v = b().Cast(LowerExpr(b(), sp.arg, row), acc_types[a]);
        Stmt* cur = b().VarRead(accs[a]);
        switch (sp.fn) {
          case AggFn::kSum:
          case AggFn::kAvg:
            b().VarAssign(accs[a], b().Add(cur, v));
            break;
          case AggFn::kMin: {
            Stmt* take = b().Or(b().Eq(n0, b().I64(0)), b().Lt(v, cur));
            b().If(take, [&] { b().VarAssign(accs[a], v); });
            break;
          }
          case AggFn::kMax: {
            Stmt* take = b().Or(b().Eq(n0, b().I64(0)), b().Gt(v, cur));
            b().If(take, [&] { b().VarAssign(accs[a], v); });
            break;
          }
          case AggFn::kCount:
            break;
        }
      }
      b().VarAssign(n_var, b().Add(n0, b().I64(1)));
    });

    Row out;
    Stmt* n = b().VarRead(n_var);
    for (size_t a = 0; a < p.aggs.size(); ++a) {
      const qplan::AggSpec& sp = p.aggs[a];
      switch (sp.fn) {
        case AggFn::kCount:
          out.push_back(n);
          break;
        case AggFn::kAvg: {
          // Guard the empty-input case: average of zero rows is 0.
          Stmt* res = b().VarNew(b().F64(0.0));
          b().If(b().Gt(n, b().I64(0)), [&] {
            b().VarAssign(res, AvgOf(b(), b().VarRead(accs[a]),
                                     sp.arg->type, n));
          });
          out.push_back(b().VarRead(res));
          break;
        }
        default:
          out.push_back(b().VarRead(accs[a]));
      }
    }
    consume(out);
  }

  // Sort materializes child rows as records in a List, sorts it with a
  // lexicographic comparator over the sort keys, then streams it. A record
  // stores the needed columns and the sort keys' columns.
  void ProduceSort(const Plan& p, const Consumer& consume) {
    const Need& keep = need_.at(p.children[0].get());
    const Type* tup = TupleType(p.children[0]->schema, keep, "SortTup");
    Stmt* lst = b().ListNew(tup);

    Produce(*p.children[0], [&](const Row& row) {
      b().ListAppend(lst, b().RecNew(tup, KeptFields(row, keep)));
    });

    b().ListSortBy(lst, [&](Stmt* x, Stmt* y) -> Stmt* {
      Row rx = RecFields(x, keep);
      Row ry = RecFields(y, keep);
      // Lexicographic: less = k0<k0' || (k0==k0' && (k1<k1' || ...)).
      Stmt* less = b().BoolC(false);
      for (size_t i = p.sort_keys.size(); i-- > 0;) {
        const qplan::SortKey& k = p.sort_keys[i];
        Stmt* a = LowerExpr(b(), k.expr, rx);
        Stmt* c = LowerExpr(b(), k.expr, ry);
        if (k.desc) std::swap(a, c);
        Stmt *lt, *eq;
        if (k.expr->type == ValType::kStr) {
          lt = b().StrLt(a, c);
          eq = b().StrEq(a, c);
        } else {
          lt = b().Lt(a, c);
          eq = b().Eq(a, c);
        }
        less = b().Or(lt, b().And(eq, less));
      }
      return less;
    });

    b().ListForeach(lst, [&](Stmt* rec) {
      consume(RecFields(rec, keep));
    });
  }

  void ProduceLimit(const Plan& p, const Consumer& consume) {
    Stmt* count = b().VarNew(b().I64(0));
    Produce(*p.children[0], [&](const Row& row) {
      Stmt* c = b().VarRead(count);
      b().If(b().Lt(c, b().I64(p.limit)), [&] {
        consume(row);
        b().VarAssign(count, b().Add(c, b().I64(1)));
      });
    });
  }

  storage::Database& db_;
  ir::TypeFactory* types_;
  Builder* b_ = nullptr;
  int counter_ = 0;
  // MarkNeeds' result: the columns of each operator's output an ancestor
  // reads, and of each join's right schema those its build tuple stores.
  std::unordered_map<const Plan*, Need> need_;
  std::unordered_map<const Plan*, Need> stored_;
};

}  // namespace

std::unique_ptr<ir::Function> LowerPlanPipelined(const qplan::Plan& plan,
                                                 storage::Database& db,
                                                 ir::TypeFactory* types,
                                                 const std::string& name) {
  PipelineLowering lowering(db, types);
  return lowering.Run(plan, name);
}

}  // namespace qc::lower
