#include "qmonad/qmonad.h"

#include <cassert>
#include <cstdio>
#include <cstdlib>
#include <functional>

#include "ir/builder.h"
#include "lower/expr_lower.h"

namespace qc::qmonad {

using ir::Builder;
using ir::Stmt;
using ir::Type;
using lower::EmitResult;
using lower::LowerExpr;
using lower::LowerValType;
using qplan::AggFn;
using qplan::ExprPtr;
using qplan::Schema;
using qplan::ValType;

namespace {

MonadPtr MakeOp(MKind k, MonadPtr child = nullptr) {
  auto op = std::make_shared<MonadOp>();
  op->kind = k;
  op->child = std::move(child);
  return op;
}

[[noreturn]] void Fail(const std::string& msg) {
  std::fprintf(stderr, "qmonad error: %s\n", msg.c_str());
  std::abort();
}

}  // namespace

MonadPtr Source(const std::string& table) {
  MonadPtr op = MakeOp(MKind::kSource);
  op->table = table;
  return op;
}

MonadPtr Map(MonadPtr child, std::vector<qplan::NamedExpr> projections) {
  MonadPtr op = MakeOp(MKind::kMap, std::move(child));
  op->projections = std::move(projections);
  return op;
}

MonadPtr Filter(MonadPtr child, ExprPtr pred) {
  MonadPtr op = MakeOp(MKind::kFilter, std::move(child));
  op->pred = std::move(pred);
  return op;
}

MonadPtr HashJoin(MonadPtr left, MonadPtr right, ExprPtr left_key,
                  ExprPtr right_key) {
  MonadPtr op = MakeOp(MKind::kHashJoin, std::move(left));
  op->other = std::move(right);
  op->left_key = std::move(left_key);
  op->right_key = std::move(right_key);
  return op;
}

MonadPtr GroupBy(MonadPtr child, std::vector<qplan::NamedExpr> keys,
                 std::vector<qplan::AggSpec> aggs) {
  MonadPtr op = MakeOp(MKind::kGroupBy, std::move(child));
  op->group_by = std::move(keys);
  op->aggs = std::move(aggs);
  return op;
}

MonadPtr Fold(MonadPtr child, std::vector<qplan::AggSpec> aggs) {
  MonadPtr op = MakeOp(MKind::kFold, std::move(child));
  op->aggs = std::move(aggs);
  return op;
}

MonadPtr Count(MonadPtr child) {
  MonadPtr op = MakeOp(MKind::kCount, std::move(child));
  op->aggs = {qplan::Count("count")};
  return op;
}

MonadPtr SortBy(MonadPtr child, std::vector<qplan::SortKey> keys) {
  MonadPtr op = MakeOp(MKind::kSortBy, std::move(child));
  op->sort_keys = std::move(keys);
  return op;
}

MonadPtr Take(MonadPtr child, int64_t n) {
  MonadPtr op = MakeOp(MKind::kTake, std::move(child));
  op->take_n = n;
  return op;
}

void ResolveMonad(MonadOp* op, const storage::Database& db) {
  if (op->child != nullptr) ResolveMonad(op->child.get(), db);
  if (op->other != nullptr) ResolveMonad(op->other.get(), db);
  switch (op->kind) {
    case MKind::kSource: {
      op->table_id = db.TableId(op->table);
      if (op->table_id < 0) Fail("unknown table '" + op->table + "'");
      const storage::TableDef& def = db.table(op->table_id).def();
      for (const auto& c : def.columns) {
        op->schema.push_back(qplan::OutCol{c.name, qplan::FromColumn(c)});
      }
      break;
    }
    case MKind::kMap: {
      for (auto& ne : op->projections) {
        qplan::Resolve(ne.expr, op->child->schema);
        op->schema.push_back(qplan::OutCol{ne.name, ne.expr->type});
      }
      break;
    }
    case MKind::kFilter:
      qplan::Resolve(op->pred, op->child->schema);
      if (op->pred->type != ValType::kBool) Fail("filter is not boolean");
      op->schema = op->child->schema;
      break;
    case MKind::kHashJoin: {
      qplan::Resolve(op->left_key, op->child->schema);
      qplan::Resolve(op->right_key, op->other->schema);
      op->schema = op->child->schema;
      op->schema.insert(op->schema.end(), op->other->schema.begin(),
                        op->other->schema.end());
      break;
    }
    case MKind::kGroupBy:
    case MKind::kFold:
    case MKind::kCount: {
      for (auto& g : op->group_by) {
        qplan::Resolve(g.expr, op->child->schema);
        op->schema.push_back(qplan::OutCol{g.name, g.expr->type});
      }
      for (auto& a : op->aggs) {
        ValType t = ValType::kI64;
        if (a.fn != AggFn::kCount) {
          qplan::Resolve(a.arg, op->child->schema);
          t = a.fn == AggFn::kAvg ? ValType::kF64 : a.arg->type;
        }
        op->schema.push_back(qplan::OutCol{a.name, t});
      }
      break;
    }
    case MKind::kSortBy:
      op->schema = op->child->schema;
      for (auto& k : op->sort_keys) qplan::Resolve(k.expr, op->schema);
      break;
    case MKind::kTake:
      op->schema = op->child->schema;
      break;
  }
}

namespace {

// Translating the QMonad tree into the equivalent QPlan tree would discard
// the fusion story; instead both lowerings below work directly on the monad
// operators, sharing only the scalar-expression lowering.

using Row = std::vector<Stmt*>;
using Consumer = std::function<void(const Row&)>;

class MonadLowering {
 public:
  MonadLowering(storage::Database& db, ir::TypeFactory* types, bool fused)
      : db_(db), types_(types), fused_(fused) {}

  std::unique_ptr<ir::Function> Run(const MonadOp& op,
                                    const std::string& name) {
    auto fn = std::make_unique<ir::Function>(name, types_);
    Builder builder(fn.get());
    b_ = &builder;
    if (fused_) {
      Produce(op, [&](const Row& row) { EmitResult(b(), row, op.schema); });
    } else {
      // Materializing semantics: the final list is traversed for emission.
      auto [lst, tup] = Materialize(op);
      b_->ListForeach(lst, [&](Stmt* rec) {
        EmitResult(b(), RecFields(rec, op.schema.size()), op.schema);
      });
      (void)tup;
    }
    b_ = nullptr;
    return fn;
  }

 private:
  Builder& b() { return *b_; }

  const Type* TupleType(const Schema& schema) {
    std::vector<ir::Field> fields;
    for (size_t i = 0; i < schema.size(); ++i) {
      fields.push_back(ir::Field{"f" + std::to_string(i) + "_" +
                                     schema[i].name,
                                 LowerValType(types_, schema[i].type)});
    }
    return types_->Record("MTup" + std::to_string(counter_++),
                          std::move(fields));
  }

  Row RecFields(Stmt* rec, size_t n) {
    Row row;
    for (size_t i = 0; i < n; ++i) {
      row.push_back(b().RecGet(rec, static_cast<int>(i)));
    }
    return row;
  }

  // --- fused (build/foreach producer-consumer encoding, Fig. 6) -------------

  void Produce(const MonadOp& op, const Consumer& k) {
    switch (op.kind) {
      case MKind::kSource: {
        const storage::Table& t = db_.table(op.table_id);
        Stmt* n = b().TableRows(op.table_id);
        b().ForRange(b().I64(0), n, [&](Stmt* i) {
          Row row;
          for (size_t c = 0; c < t.num_columns(); ++c) {
            const Type* ct = LowerValType(
                types_, op.schema[c].type);
            row.push_back(b().ColGet(op.table_id, static_cast<int>(c), i, ct));
          }
          k(row);
        });
        break;
      }
      case MKind::kMap:
        Produce(*op.child, [&](const Row& row) {
          Row out;
          for (const auto& ne : op.projections) {
            out.push_back(LowerExpr(b(), ne.expr, row));
          }
          k(out);
        });
        break;
      case MKind::kFilter:
        Produce(*op.child, [&](const Row& row) {
          b().If(LowerExpr(b(), op.pred, row), [&] { k(row); });
        });
        break;
      case MKind::kHashJoin: {
        const Type* tup = TupleType(op.other->schema);
        Stmt* mm = b().MMapNew(types_->I64(), tup);
        Produce(*op.other, [&](const Row& row) {
          Stmt* key = b().Cast(LowerExpr(b(), op.right_key, row),
                               types_->I64());
          b().MMapAdd(mm, key, b().RecNew(tup, row));
        });
        Produce(*op.child, [&](const Row& lrow) {
          Stmt* key = b().Cast(LowerExpr(b(), op.left_key, lrow),
                               types_->I64());
          Stmt* lst = b().MMapGetOrNull(mm, key);
          b().If(b().Not(b().IsNull(lst)), [&] {
            b().ListForeach(lst, [&](Stmt* rec) {
              Row out = lrow;
              Row rrow = RecFields(rec, op.other->schema.size());
              out.insert(out.end(), rrow.begin(), rrow.end());
              k(out);
            });
          });
        });
        break;
      }
      case MKind::kGroupBy:
      case MKind::kFold:
      case MKind::kCount:
        ProduceAgg(op, k);
        break;
      case MKind::kSortBy: {
        const Type* tup = TupleType(op.child->schema);
        Stmt* lst = b().ListNew(tup);
        Produce(*op.child, [&](const Row& row) {
          b().ListAppend(lst, b().RecNew(tup, row));
        });
        SortList(op, lst);
        b().ListForeach(lst, [&](Stmt* rec) {
          k(RecFields(rec, op.child->schema.size()));
        });
        break;
      }
      case MKind::kTake: {
        Stmt* count = b().VarNew(b().I64(0));
        Produce(*op.child, [&](const Row& row) {
          Stmt* c = b().VarRead(count);
          b().If(b().Lt(c, b().I64(op.take_n)), [&] {
            k(row);
            b().VarAssign(count, b().Add(c, b().I64(1)));
          });
        });
        break;
      }
    }
  }

  // Child production for aggregation: the unfused path overrides it with a
  // traversal of the materialized list.
  void ProduceChild(const MonadOp& op, const Consumer& k) {
    if (produce_override_) {
      produce_override_(k);
      return;
    }
    Produce(*op.child, k);
  }

  void ProduceAgg(const MonadOp& op, const Consumer& k) {
    // Grouped: HashMap of mutable aggregation records (keys as a record when
    // composite). Global (fold/count): mutable variables.
    if (op.group_by.empty()) {
      Stmt* n_var = b().VarNew(b().I64(0));
      std::vector<Stmt*> accs;
      std::vector<const Type*> ts;
      for (const auto& a : op.aggs) {
        const Type* t = lower::AggAccType(types_, a);
        ts.push_back(t);
        accs.push_back(b().VarNew(lower::DefaultValue(b(), t)));
      }
      ProduceChild(op, [&](const Row& row) {
        Stmt* n0 = b().VarRead(n_var);
        for (size_t a = 0; a < op.aggs.size(); ++a) {
          const qplan::AggSpec& sp = op.aggs[a];
          if (sp.fn == AggFn::kCount) continue;
          Stmt* v = b().Cast(LowerExpr(b(), sp.arg, row), ts[a]);
          Stmt* cur = b().VarRead(accs[a]);
          switch (sp.fn) {
            case AggFn::kSum:
            case AggFn::kAvg:
              b().VarAssign(accs[a], b().Add(cur, v));
              break;
            case AggFn::kMin:
              b().If(b().Or(b().Eq(n0, b().I64(0)), b().Lt(v, cur)),
                     [&] { b().VarAssign(accs[a], v); });
              break;
            case AggFn::kMax:
              b().If(b().Or(b().Eq(n0, b().I64(0)), b().Gt(v, cur)),
                     [&] { b().VarAssign(accs[a], v); });
              break;
            default:
              break;
          }
        }
        b().VarAssign(n_var, b().Add(n0, b().I64(1)));
      });
      Row out;
      Stmt* n = b().VarRead(n_var);
      for (size_t a = 0; a < op.aggs.size(); ++a) {
        if (op.aggs[a].fn == AggFn::kCount) {
          out.push_back(n);
        } else if (op.aggs[a].fn == AggFn::kAvg) {
          Stmt* r = b().VarNew(b().F64(0.0));
          b().If(b().Gt(n, b().I64(0)), [&] {
            b().VarAssign(r, lower::AvgOf(b(), b().VarRead(accs[a]),
                                          op.aggs[a].arg->type, n));
          });
          out.push_back(b().VarRead(r));
        } else {
          out.push_back(b().VarRead(accs[a]));
        }
      }
      k(out);
      return;
    }

    // Grouped aggregation.
    std::vector<ir::Field> fields;
    for (size_t i = 0; i < op.group_by.size(); ++i) {
      fields.push_back(ir::Field{
          "g" + std::to_string(i),
          LowerValType(types_, op.group_by[i].expr->type)});
    }
    for (size_t a = 0; a < op.aggs.size(); ++a) {
      fields.push_back(ir::Field{"a" + std::to_string(a),
                                 lower::AggAccType(types_, op.aggs[a])});
    }
    fields.push_back(ir::Field{"n", types_->I64()});
    const Type* agg_rec = types_->Record(
        "MAggRec" + std::to_string(counter_++), std::move(fields));
    int n_idx = static_cast<int>(agg_rec->record->fields.size()) - 1;
    size_t acc_base = op.group_by.size();

    bool single_int = op.group_by.size() == 1 &&
                      op.group_by[0].expr->type != ValType::kStr &&
                      op.group_by[0].expr->type != ValType::kF64;
    const Type* key_type;
    if (single_int) {
      key_type = types_->I64();
    } else {
      std::vector<ir::Field> kf;
      for (size_t i = 0; i < op.group_by.size(); ++i) {
        kf.push_back(ir::Field{
            "k" + std::to_string(i),
            LowerValType(types_, op.group_by[i].expr->type)});
      }
      key_type = types_->Record("MKey" + std::to_string(counter_++),
                                std::move(kf));
    }
    Stmt* map = b().MapNew(key_type, agg_rec);
    map->aux0 = single_int ? 0 : -1;
    map->aux1 = static_cast<int>(op.group_by.size());

    ProduceChild(op, [&](const Row& row) {
      Row gvals;
      for (const auto& g : op.group_by) {
        gvals.push_back(LowerExpr(b(), g.expr, row));
      }
      Stmt* key = single_int ? b().Cast(gvals[0], types_->I64())
                             : b().RecNew(key_type, gvals);
      Stmt* rec = b().MapGetOrElseUpdate(map, key, [&]() -> Stmt* {
        Row init = gvals;
        for (size_t a = 0; a < op.aggs.size(); ++a) {
          init.push_back(lower::DefaultValue(
              b(), agg_rec->record->fields[acc_base + a].type));
        }
        init.push_back(b().I64(0));
        return b().RecNew(agg_rec, init);
      });
      Stmt* n0 = b().RecGet(rec, n_idx);
      for (size_t a = 0; a < op.aggs.size(); ++a) {
        const qplan::AggSpec& sp = op.aggs[a];
        if (sp.fn == AggFn::kCount) continue;
        int fidx = static_cast<int>(acc_base + a);
        Stmt* v = b().Cast(LowerExpr(b(), sp.arg, row),
                           agg_rec->record->fields[fidx].type);
        Stmt* cur = b().RecGet(rec, fidx);
        switch (sp.fn) {
          case AggFn::kSum:
          case AggFn::kAvg:
            b().RecSet(rec, fidx, b().Add(cur, v));
            break;
          case AggFn::kMin:
            b().If(b().Or(b().Eq(n0, b().I64(0)), b().Lt(v, cur)),
                   [&] { b().RecSet(rec, fidx, v); });
            break;
          case AggFn::kMax:
            b().If(b().Or(b().Eq(n0, b().I64(0)), b().Gt(v, cur)),
                   [&] { b().RecSet(rec, fidx, v); });
            break;
          default:
            break;
        }
      }
      b().RecSet(rec, n_idx, b().Add(n0, b().I64(1)));
    });

    b().MapForeach(map, [&](Stmt* /*key*/, Stmt* rec) {
      Row out;
      for (size_t i = 0; i < op.group_by.size(); ++i) {
        out.push_back(b().RecGet(rec, static_cast<int>(i)));
      }
      Stmt* n = b().RecGet(rec, n_idx);
      for (size_t a = 0; a < op.aggs.size(); ++a) {
        int fidx = static_cast<int>(acc_base + a);
        if (op.aggs[a].fn == AggFn::kCount) {
          out.push_back(n);
        } else if (op.aggs[a].fn == AggFn::kAvg) {
          out.push_back(lower::AvgOf(b(), b().RecGet(rec, fidx),
                                     op.aggs[a].arg->type, n));
        } else {
          out.push_back(b().RecGet(rec, fidx));
        }
      }
      k(out);
    });
  }

  void SortList(const MonadOp& op, Stmt* lst) {
    b().ListSortBy(lst, [&](Stmt* x, Stmt* y) -> Stmt* {
      Row rx = RecFields(x, op.child->schema.size());
      Row ry = RecFields(y, op.child->schema.size());
      Stmt* less = b().BoolC(false);
      for (size_t i = op.sort_keys.size(); i-- > 0;) {
        const qplan::SortKey& sk = op.sort_keys[i];
        Stmt* a = LowerExpr(b(), sk.expr, rx);
        Stmt* c = LowerExpr(b(), sk.expr, ry);
        if (sk.desc) std::swap(a, c);
        Stmt *lt, *eq;
        if (sk.expr->type == ValType::kStr) {
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
  }

  // --- unfused (materialize every operator) ----------------------------------

  std::pair<Stmt*, const Type*> Materialize(const MonadOp& op) {
    const Type* tup = TupleType(op.schema);
    Stmt* out = b().ListNew(tup);
    auto append = [&](const Row& row) {
      b().ListAppend(out, b().RecNew(tup, row));
    };
    switch (op.kind) {
      case MKind::kSource: {
        const storage::Table& t = db_.table(op.table_id);
        Stmt* n = b().TableRows(op.table_id);
        b().ForRange(b().I64(0), n, [&](Stmt* i) {
          Row row;
          for (size_t c = 0; c < t.num_columns(); ++c) {
            row.push_back(b().ColGet(op.table_id, static_cast<int>(c), i,
                                     LowerValType(types_, op.schema[c].type)));
          }
          append(row);
        });
        break;
      }
      case MKind::kMap: {
        auto [in, tin] = Materialize(*op.child);
        (void)tin;
        b().ListForeach(in, [&](Stmt* rec) {
          Row row = RecFields(rec, op.child->schema.size());
          Row outr;
          for (const auto& ne : op.projections) {
            outr.push_back(LowerExpr(b(), ne.expr, row));
          }
          append(outr);
        });
        break;
      }
      case MKind::kFilter: {
        auto [in, tin] = Materialize(*op.child);
        (void)tin;
        b().ListForeach(in, [&](Stmt* rec) {
          Row row = RecFields(rec, op.child->schema.size());
          b().If(LowerExpr(b(), op.pred, row), [&] { append(row); });
        });
        break;
      }
      case MKind::kHashJoin: {
        auto [rin, rtup] = Materialize(*op.other);
        Stmt* mm = b().MMapNew(types_->I64(), rtup);
        b().ListForeach(rin, [&](Stmt* rec) {
          Row row = RecFields(rec, op.other->schema.size());
          Stmt* key =
              b().Cast(LowerExpr(b(), op.right_key, row), types_->I64());
          b().MMapAdd(mm, key, rec);
        });
        auto [lin, ltup] = Materialize(*op.child);
        (void)ltup;
        b().ListForeach(lin, [&](Stmt* lrec) {
          Row lrow = RecFields(lrec, op.child->schema.size());
          Stmt* key =
              b().Cast(LowerExpr(b(), op.left_key, lrow), types_->I64());
          Stmt* lst = b().MMapGetOrNull(mm, key);
          b().If(b().Not(b().IsNull(lst)), [&] {
            b().ListForeach(lst, [&](Stmt* rrec) {
              Row out2 = lrow;
              Row rrow = RecFields(rrec, op.other->schema.size());
              out2.insert(out2.end(), rrow.begin(), rrow.end());
              append(out2);
            });
          });
        });
        break;
      }
      case MKind::kGroupBy:
      case MKind::kFold:
      case MKind::kCount: {
        auto [in, tin] = Materialize(*op.child);
        (void)tin;
        // Reuse the fused aggregation driver over the materialized list.
        MonadOp shim = op;
        // Consume the list through a fake producer.
        ProduceAggOverList(op, in, append);
        (void)shim;
        break;
      }
      case MKind::kSortBy: {
        auto [in, tin] = Materialize(*op.child);
        (void)tin;
        SortList(op, in);
        return {in, tup};
      }
      case MKind::kTake: {
        auto [in, tin] = Materialize(*op.child);
        (void)tin;
        Stmt* count = b().VarNew(b().I64(0));
        b().ListForeach(in, [&](Stmt* rec) {
          Stmt* c = b().VarRead(count);
          b().If(b().Lt(c, b().I64(op.take_n)), [&] {
            append(RecFields(rec, op.child->schema.size()));
            b().VarAssign(count, b().Add(c, b().I64(1)));
          });
        });
        break;
      }
    }
    return {out, tup};
  }

  // Aggregation over an already-materialized list (unfused path). Builds a
  // temporary single-source producer so ProduceAgg's logic is shared.
  void ProduceAggOverList(const MonadOp& op, Stmt* in,
                          const std::function<void(const Row&)>& append) {
    // Clone of ProduceAgg with the child production replaced by a foreach.
    MonadLowering* self = this;
    struct ListProducer {
      MonadLowering* lowering;
      Stmt* list;
      size_t width;
    };
    ListProducer lp{self, in, op.child->schema.size()};
    // Temporarily hijack Produce(child) via a lambda-based shim.
    produce_override_ = [lp](const Consumer& k) {
      lp.lowering->b().ListForeach(lp.list, [&](Stmt* rec) {
        k(lp.lowering->RecFields(rec, lp.width));
      });
    };
    ProduceAgg(op, append);
    produce_override_ = nullptr;
  }

  storage::Database& db_;
  ir::TypeFactory* types_;
  bool fused_;
  Builder* b_ = nullptr;
  int counter_ = 0;
  std::function<void(const Consumer&)> produce_override_;
};

}  // namespace

std::unique_ptr<ir::Function> LowerFused(const MonadOp& op,
                                         storage::Database& db,
                                         ir::TypeFactory* types,
                                         const std::string& name) {
  return MonadLowering(db, types, true).Run(op, name);
}

std::unique_ptr<ir::Function> LowerUnfused(const MonadOp& op,
                                           storage::Database& db,
                                           ir::TypeFactory* types,
                                           const std::string& name) {
  return MonadLowering(db, types, false).Run(op, name);
}

FusionRuleAccounting CountFusionRules() { return FusionRuleAccounting{}; }

}  // namespace qc::qmonad
