#include "ir/parallel.h"

#include <cstring>
#include <unordered_map>
#include <unordered_set>

#include "ir/numbering.h"
#include "ir/ops.h"

namespace qc::ir {

namespace {

bool IsRecAlloc(Op op) { return op == Op::kRecNew || op == Op::kPoolRecNew; }

bool IsZeroConst(const Stmt* s) {
  if (s == nullptr || s->op != Op::kConst || IsParam(s)) return false;
  if (s->type->kind == TypeKind::kF64) return s->fval == 0.0;
  return s->ival == 0;
}

// Pure value producers that may appear anywhere in a parallel body.
bool IsPureOp(Op op) {
  switch (op) {
    case Op::kConst: case Op::kNull:
    case Op::kAdd: case Op::kSub: case Op::kMul: case Op::kDiv: case Op::kMod:
    case Op::kNeg: case Op::kCast:
    case Op::kEq: case Op::kNe: case Op::kLt: case Op::kLe: case Op::kGt:
    case Op::kGe:
    case Op::kAnd: case Op::kOr: case Op::kNot: case Op::kBitAnd:
    case Op::kStrEq: case Op::kStrNe: case Op::kStrLt:
    case Op::kStrStartsWith: case Op::kStrEndsWith: case Op::kStrContains:
    case Op::kStrLike: case Op::kStrLen: case Op::kStrSubstr:
    case Op::kIsNull:
    case Op::kTableRows: case Op::kColGet: case Op::kColDict:
    case Op::kIdxBucketLen: case Op::kIdxBucketRow: case Op::kIdxPkRow:
    case Op::kRecGet: case Op::kArrGet: case Op::kArrLen:
    case Op::kListSize: case Op::kListGet:
    case Op::kMapGetOrNull: case Op::kMapSize: case Op::kMMapGetOrNull:
    case Op::kVarRead:
      return true;
    default:
      return false;
  }
}

// Structural equality of two value statements: the same CSE-able op (its
// value depends on its arguments and payload alone), type and payload over
// structurally equal arguments, so constants compare by value. Block
// parameters are equal only to themselves.
bool SameValue(const Stmt* a, const Stmt* b) {
  if (a == b) return true;
  if (IsParam(a) || IsParam(b)) return false;
  if (a->op != b->op || a->type != b->type || !OpIsCseable(a->op)) {
    return false;
  }
  if (a->ival != b->ival || a->sval != b->sval || a->aux0 != b->aux0 ||
      a->aux1 != b->aux1 || a->args.size() != b->args.size() ||
      std::memcmp(&a->fval, &b->fval, sizeof(double)) != 0) {
    return false;
  }
  for (size_t i = 0; i < a->args.size(); ++i) {
    if (!SameValue(a->args[i], b->args[i])) return false;
  }
  return true;
}

// Analyzes one top-level kForRange. Builds the ParLoop incrementally and
// reports failure (-> sequential execution) on the first unrecognized
// effect.
class LoopAnalyzer {
 public:
  LoopAnalyzer(const Function& fn, const std::vector<int>& uses,
               const Stmt* loop)
      : fn_(fn), uses_(uses), loop_(loop) {}

  // On failure fills `why` with the statement or post-pass that rejected
  // the loop.
  bool Run(ParLoop* out, ParReject* why) {
    out_.loop = loop_;
    out_.actions.assign(fn_.num_stmts(), ParAction::kNormal);
    out_.action_channel.assign(fn_.num_stmts(), -1);
    MarkInLoop(loop_->blocks[0]);
    *why = ParReject{loop_, nullptr, nullptr};
    if (!Walk(loop_->blocks[0])) {
      why->at = failed_;
      why->rule = "visit";
    } else if (!BuildChannels()) {
      why->rule = "channels";
    } else if (!ValidateGuards()) {
      why->rule = "guards";
    } else if (!ValidateInits()) {
      why->rule = "inits";
    } else if (!ValidateReads(loop_->blocks[0])) {
      why->rule = "reads";
    } else if (out_.reductions.empty() && !out_.has_emit) {
      why->rule = "no-effect";
    } else {
      *out = std::move(out_);
      return true;
    }
    return false;
  }

 private:
  struct F64Set {
    const Stmt* set;
    const Stmt* get;
    const Stmt* add;
    const Stmt* addend;
    const Stmt* handle;  // null for scalar vars
    const Stmt* var;     // null for group records
    int field = -1;
  };

  bool InLoop(const Stmt* s) const {
    return s->id >= 0 && s->id < static_cast<int>(in_loop_.size()) &&
           in_loop_[s->id] != 0;
  }
  bool Claimed(const Stmt* s) const { return claimed_.count(s) != 0; }
  void Claim(const Stmt* s) { claimed_.insert(s); }

  void MarkInLoop(const Block* b) {
    if (static_cast<int>(in_loop_.size()) < fn_.num_stmts()) {
      in_loop_.resize(fn_.num_stmts(), 0);
    }
    for (const Stmt* p : b->params) in_loop_[p->id] = 1;
    for (const Stmt* s : b->stmts) {
      in_loop_[s->id] = 1;
      for (const Block* nb : s->blocks) MarkInLoop(nb);
    }
  }

  int FindReduction(const Stmt* target) const {
    for (size_t i = 0; i < out_.reductions.size(); ++i) {
      if (out_.reductions[i].target == target) return static_cast<int>(i);
    }
    return -1;
  }

  ParReduction* Register(ParRedKind kind, const Stmt* target) {
    out_.reductions.push_back(ParReduction{});
    ParReduction& r = out_.reductions.back();
    r.kind = kind;
    r.target = target;
    return &r;
  }

  // --- recursive walk -------------------------------------------------------

  bool Walk(const Block* b) {
    for (const Stmt* s : b->stmts) {
      parent_[s] = b;
      if (!Visit(s)) {
        failed_ = s;
        return false;
      }
      for (const Block* nb : s->blocks) {
        // Blocks of a matched group-create kIf were fully consumed by the
        // matcher; walking them again would reject the claimed kArrSet.
        if (consumed_blocks_.count(nb) != 0) continue;
        if (!Walk(nb)) return false;
      }
    }
    return true;
  }

  bool Visit(const Stmt* s) {
    switch (s->op) {
      case Op::kEmit:
        out_.has_emit = true;
        return true;

      case Op::kVarNew:
      case Op::kFree:
      case Op::kPoolNew:
      case Op::kMalloc:
      case Op::kArrNew:
      case Op::kListNew:
      case Op::kMapNew:
      case Op::kMMapNew:
        return true;  // iteration-local allocation / no-op

      case Op::kRecNew:
      case Op::kPoolRecNew:
        return true;  // iteration-local record construction

      case Op::kVarAssign: {
        const Stmt* var = s->args[0];
        if (InLoop(var)) return true;  // private per-iteration variable
        if (Claimed(s)) return true;   // min/max cluster (matched at the kIf)
        return MatchVarSum(s, var);
      }

      case Op::kIf:
        // A min/max guard or a group-create; both are recognized here so
        // the contained store is claimed before the block walk reaches it.
        if (s->args[0]->op == Op::kOr) return MatchMinMax(s) || true;
        if (s->args[0]->op == Op::kIsNull) return MatchGroupCreate(s) || true;
        return true;

      case Op::kRecSet: {
        const Stmt* r = s->args[0];
        if (Claimed(s)) return true;
        auto h = handles_.find(r);
        if (h != handles_.end()) return MatchFieldSum(s, r, h->second);
        // Construction of an iteration-local record (join tuples, keys,
        // intrusive links). Group init records are excluded: merging
        // adopts them wholesale, so extra stores would go unreconciled.
        return InLoop(r) && IsRecAlloc(r->op) && init_recs_.count(r) == 0;
      }

      case Op::kArrSet: {
        const Stmt* arr = s->args[0];
        if (InLoop(arr)) return true;
        if (Claimed(s)) return true;  // group-create store
        return MatchBucketPrepend(s, arr);
      }

      case Op::kListAppend: {
        const Stmt* lst = s->args[0];
        if (InLoop(lst)) return true;
        int idx = FindReduction(lst);
        if (idx < 0) {
          Register(ParRedKind::kList, lst);
        } else if (out_.reductions[idx].kind != ParRedKind::kList) {
          return false;
        }
        Claim(s);
        return true;
      }

      case Op::kMMapAdd: {
        const Stmt* mm = s->args[0];
        if (InLoop(mm)) return true;
        int idx = FindReduction(mm);
        if (idx < 0) {
          Register(ParRedKind::kMMap, mm);
        } else if (out_.reductions[idx].kind != ParRedKind::kMMap) {
          return false;
        }
        Claim(s);
        return true;
      }

      case Op::kMapGetOrElseUpdate:
        return MatchMapGroup(s);

      case Op::kArrSortBy:
      case Op::kListSortBy:
        return InLoop(s->args[0]);  // sorting shared state: not mergeable

      case Op::kForRange:
      case Op::kWhile:
      case Op::kListForeach:
      case Op::kMapForeach:
        // Safe iff the iterated container passes read validation and the
        // nested statements pass this walk (handled by the caller).
        return true;

      default:
        return IsPureOp(s->op);
    }
  }

  // --- cluster matchers -----------------------------------------------------

  // var = var + w  (integral: merged as partial sums; f64: addends logged).
  bool MatchVarSum(const Stmt* assign, const Stmt* var) {
    const Stmt* val = assign->args[1];
    if (val->op != Op::kAdd || !InLoop(val)) return false;
    const Stmt* read = nullptr;
    const Stmt* addend = nullptr;
    for (int side = 0; side < 2; ++side) {
      const Stmt* a = val->args[side];
      const Stmt* b = val->args[1 - side];
      if (a->op == Op::kVarRead && a->args[0] == var && InLoop(a) && b != a) {
        read = a;
        addend = b;
        break;
      }
    }
    if (read == nullptr) return false;
    bool is_f = var->type->kind == TypeKind::kF64;
    int idx = FindReduction(var);
    if (is_f) {
      // The read and add are skipped during morsel runs, so they must have
      // no other consumers, and only one fold site may exist per variable
      // (two logs would lose the in-row interleaving of the additions).
      if (idx >= 0) return false;
      if (uses_[read->id] != 1 || uses_[val->id] != 1) return false;
      Register(ParRedKind::kVarSumF, var);
      f64_sets_.push_back(F64Set{assign, read, val, addend, nullptr, var, -1});
    } else {
      if (idx < 0) {
        Register(ParRedKind::kVarSumI, var);
      } else if (out_.reductions[idx].kind != ParRedKind::kVarSumI) {
        return false;
      }
      partials_.insert(read);
      partials_.insert(val);
    }
    Claim(read);
    Claim(val);
    Claim(assign);
    return true;
  }

  // if (n == 0 || w < cur) { acc = w }  — first-occurrence min (max: >).
  // `n` is the shared count (variable or record field), `cur` the current
  // accumulator value. Matched at the kIf; returns false only to signal
  // "not this pattern" (the caller treats the kIf as plain control flow).
  bool MatchMinMax(const Stmt* ifs) {
    if (ifs->blocks.empty() || ifs->blocks[0]->stmts.size() != 1) return false;
    if (ifs->blocks.size() > 1 && !ifs->blocks[1]->stmts.empty()) return false;
    const Stmt* store = ifs->blocks[0]->stmts[0];
    const Stmt* cond = ifs->args[0];
    if (cond->op != Op::kOr || !InLoop(cond) || uses_[cond->id] != 1) {
      return false;
    }
    // Guard statements run unmodified on private state, so sharing (CSE
    // reuses Eq(n0, 0) across several min/max guards) is fine — only the
    // shape matters, and ValidateReads still polices every read of a
    // reduction variable or group handle.
    const Stmt* eq = nullptr;
    const Stmt* cmp = nullptr;
    for (int side = 0; side < 2; ++side) {
      const Stmt* a = cond->args[side];
      if (a->op == Op::kEq) eq = a;
      if (a->op == Op::kLt || a->op == Op::kGt) cmp = a;
    }
    if (eq == nullptr || cmp == nullptr || eq == cmp) return false;
    if (!InLoop(eq) || !InLoop(cmp)) return false;
    const Stmt* n_read = nullptr;
    for (int side = 0; side < 2; ++side) {
      if (IsZeroConst(eq->args[1 - side])) n_read = eq->args[side];
    }
    if (n_read == nullptr || !InLoop(n_read)) return false;

    if (store->op == Op::kVarAssign) {
      const Stmt* var = store->args[0];
      const Stmt* w = store->args[1];
      if (InLoop(var)) return false;
      // cmp must be w <op> cur with cur = VarRead(var).
      const Stmt* cur = OtherCmpSide(cmp, w);
      if (cur == nullptr || cur->op != Op::kVarRead || cur->args[0] != var ||
          !InLoop(cur)) {
        return false;
      }
      if (n_read->op != Op::kVarRead || InLoop(n_read->args[0])) return false;
      bool is_min = CandidateIsLess(cmp, w);
      if (FindReduction(var) >= 0) return false;
      ParReduction* r =
          Register(is_min ? ParRedKind::kVarMin : ParRedKind::kVarMax, var);
      r->count_var = n_read->args[0];
      r->is_f64 = var->type->kind == TypeKind::kF64;
      minmax_guard_blocks_.emplace_back(out_.reductions.size() - 1,
                                        parent_.at(ifs));
      Claim(cond); Claim(eq); Claim(cmp); Claim(cur); Claim(n_read);
      Claim(store);
      return true;
    }

    if (store->op == Op::kRecSet) {
      const Stmt* h = store->args[0];
      const Stmt* w = store->args[1];
      int f = store->aux0;
      auto it = handles_.find(h);
      if (it == handles_.end()) return false;
      const Stmt* cur = OtherCmpSide(cmp, w);
      if (cur == nullptr || cur->op != Op::kRecGet || cur->args[0] != h ||
          cur->aux0 != f || !InLoop(cur)) {
        return false;
      }
      if (n_read->op != Op::kRecGet || n_read->args[0] != h) return false;
      ParReduction& red = out_.reductions[it->second];
      if (f < 0 || f >= static_cast<int>(red.fields.size())) return false;
      if (red.fields[f] != ParFold::kKeepFirst) return false;
      if (red.n_field >= 0 && red.n_field != n_read->aux0) return false;
      red.n_field = n_read->aux0;
      bool is_min = CandidateIsLess(cmp, w);
      red.fields[f] = is_min ? ParFold::kMin : ParFold::kMax;
      // The guard must sit right in the handle's block so min/max updates
      // and the count increment stay coupled per contributing row (the
      // increment itself is validated in ValidateGuards).
      if (parent_.at(ifs) != parent_.at(h)) return false;
      rec_minmax_handles_.push_back(h);
      Claim(cond); Claim(eq); Claim(cmp); Claim(cur); Claim(n_read);
      Claim(store); Claim(h);
      return true;
    }
    return false;
  }

  // For cmp(a, b) with one side == w, returns the other side (or null).
  static const Stmt* OtherCmpSide(const Stmt* cmp, const Stmt* w) {
    if (cmp->args[0] == w && cmp->args[1] != w) return cmp->args[1];
    if (cmp->args[1] == w && cmp->args[0] != w) return cmp->args[0];
    return nullptr;
  }
  // True when the comparison means "candidate value w is less than cur".
  static bool CandidateIsLess(const Stmt* cmp, const Stmt* w) {
    bool w_is_lhs = cmp->args[0] == w;
    return (cmp->op == Op::kLt) == w_is_lhs;
  }

  // rec[f] = rec[f] + w on a group-record handle.
  bool MatchFieldSum(const Stmt* set, const Stmt* h, int red_idx) {
    ParReduction& red = out_.reductions[red_idx];
    int f = set->aux0;
    if (f < 0 || f >= static_cast<int>(red.fields.size())) return false;
    bool is_f = red.field_is_f64[f];
    // An integral sum field takes any number of stores (a second create
    // site folds into it too); every other fold owns its field alone.
    if (red.fields[f] != ParFold::kKeepFirst &&
        (is_f || red.fields[f] != ParFold::kSumI)) {
      return false;
    }
    const Stmt* val = set->args[1];
    if (val->op != Op::kAdd || !InLoop(val)) return false;
    const Stmt* get = nullptr;
    const Stmt* addend = nullptr;
    for (int side = 0; side < 2; ++side) {
      const Stmt* a = val->args[side];
      const Stmt* b = val->args[1 - side];
      if (a->op == Op::kRecGet && a->args[0] == h && a->aux0 == f &&
          InLoop(a) && b != a) {
        get = a;
        addend = b;
        break;
      }
    }
    if (get == nullptr) return false;
    if (is_f) {
      if (uses_[get->id] != 1 || uses_[val->id] != 1) return false;
      f64_sets_.push_back(F64Set{set, get, val, addend, h, nullptr, f});
      red.fields[f] = ParFold::kSumF;
    } else {
      red.fields[f] = ParFold::kSumI;
      field_sum_sets_.emplace_back(h, f, parent_.at(set));
      partials_.insert(get);
      partials_.insert(val);
    }
    Claim(get);
    Claim(val);
    Claim(set);
    Claim(h);
    return true;
  }

  // if (is_null(arr[k])) { rec = alloc(...); arr[k] = rec } — the
  // direct-addressed group array's create path (hash_spec output).
  bool MatchGroupCreate(const Stmt* ifs) {
    if (ifs->blocks.empty()) return false;
    if (ifs->blocks.size() > 1 && !ifs->blocks[1]->stmts.empty()) return false;
    const Stmt* isnull = ifs->args[0];
    const Stmt* g0 = isnull->args[0];
    if (g0->op != Op::kArrGet || !InLoop(g0)) return false;
    const Stmt* arr = g0->args[0];
    const Stmt* idx = g0->args[1];
    if (InLoop(arr)) return false;
    // Then-block: constants, one record allocation, one store to arr[idx].
    const Stmt* rec = nullptr;
    const Stmt* store = nullptr;
    for (const Stmt* t : ifs->blocks[0]->stmts) {
      if (t->op == Op::kConst || t->op == Op::kNull) continue;
      if (IsRecAlloc(t->op) && rec == nullptr) {
        rec = t;
        continue;
      }
      if (t->op == Op::kArrSet && store == nullptr) {
        store = t;
        continue;
      }
      return false;
    }
    if (rec == nullptr || store == nullptr) return false;
    if (store->args[0] != arr || store->args[1] != idx ||
        store->args[2] != rec) {
      return false;
    }
    const Type* elem = arr->type->elem;
    if (elem == nullptr || elem->record == nullptr) return false;
    const Stmt* size = arr->op == Op::kArrNew ? arr->args[0] : nullptr;
    if (size == nullptr || size->op != Op::kConst || IsParam(size)) {
      return false;
    }
    int red_idx = FindReduction(arr);
    if (red_idx < 0) {
      ParReduction* r = Register(ParRedKind::kGroupArray, arr);
      r->size = size;
      r->pool_rec = rec->op == Op::kPoolRecNew;
      r->fields.assign(elem->record->fields.size(), ParFold::kKeepFirst);
      r->field_is_f64.resize(elem->record->fields.size());
      for (size_t i = 0; i < elem->record->fields.size(); ++i) {
        r->field_is_f64[i] =
            elem->record->fields[i].type->kind == TypeKind::kF64;
      }
      red_idx = static_cast<int>(out_.reductions.size() - 1);
      group_inits_[red_idx] = rec;
      group_slots_[red_idx] = idx;
    } else {
      // A second create site (an outer join's count creates the group in
      // the match loop and again after it when no row matched) joins the
      // reduction when it creates the same record in the same slot: the
      // same allocation over the same init arguments, at a slot index
      // structurally equal to the first site's, so the merge need not know
      // which site created a group.
      const ParReduction& r = out_.reductions[red_idx];
      if (r.kind != ParRedKind::kGroupArray) return false;
      const Stmt* first = group_inits_.at(red_idx);
      if (rec->op != first->op || rec->args != first->args ||
          !SameValue(idx, group_slots_.at(red_idx))) {
        return false;
      }
      multi_site_.insert(red_idx);
    }
    init_recs_.insert(rec);
    // Every arr_get(arr, idx) in the iteration is a handle to the group
    // record; field clusters attach through MatchFieldSum / MatchMinMax.
    RegisterArrayHandles(loop_->blocks[0], arr, idx, red_idx);
    Claim(isnull);
    Claim(g0);
    Claim(rec);
    Claim(store);
    SetAction(store, ParAction::kTouch, red_idx);
    consumed_blocks_.insert(ifs->blocks[0]);
    if (ifs->blocks.size() > 1) consumed_blocks_.insert(ifs->blocks[1]);
    // The then-block statements still need parents for later checks.
    for (const Stmt* t : ifs->blocks[0]->stmts) parent_[t] = ifs->blocks[0];
    return true;
  }

  void RegisterArrayHandles(const Block* b, const Stmt* arr, const Stmt* idx,
                            int red_idx) {
    for (const Stmt* s : b->stmts) {
      if (s->op == Op::kArrGet && s->args[0] == arr && s->args[1] == idx) {
        handles_[s] = red_idx;
      }
      for (const Block* nb : s->blocks) {
        RegisterArrayHandles(nb, arr, idx, red_idx);
      }
    }
  }

  // rec.next = bucket[k]; bucket[k] = rec — the intrusive hash-join build.
  bool MatchBucketPrepend(const Stmt* store, const Stmt* arr) {
    const Stmt* idx = store->args[1];
    const Stmt* rec = store->args[2];
    if (!InLoop(rec) || !IsRecAlloc(rec->op)) return false;
    // Find the link store in the same block: rec_set(rec, arr_get(arr, idx)).
    const Block* b = parent_.at(store);
    const Stmt* link = nullptr;
    const Stmt* old = nullptr;
    for (const Stmt* t : b->stmts) {
      if (t == store) break;
      if (t->op == Op::kRecSet && t->args[0] == rec &&
          t->args[1]->op == Op::kArrGet && t->args[1]->args[0] == arr &&
          t->args[1]->args[1] == idx) {
        link = t;
        old = t->args[1];
      }
    }
    if (link == nullptr) return false;
    const Stmt* size = arr->op == Op::kArrNew ? arr->args[0] : nullptr;
    if (size == nullptr || size->op != Op::kConst || IsParam(size)) {
      return false;
    }
    if (FindReduction(arr) >= 0) return false;
    ParReduction* r = Register(ParRedKind::kBucketArray, arr);
    r->size = size;
    r->next_field = link->aux0;
    SetAction(store, ParAction::kTouch,
              static_cast<int>(out_.reductions.size() - 1));
    Claim(store);
    Claim(link);
    Claim(old);
    return true;
  }

  // Grouped aggregation through the generic hash map.
  bool MatchMapGroup(const Stmt* goeu) {
    const Stmt* map = goeu->args[0];
    if (InLoop(map)) return true;  // iteration-local map: plain execution
    const Type* vt = map->type->value;
    if (vt == nullptr || vt->record == nullptr) return false;
    if (goeu->blocks.empty()) return false;
    const Block* init = goeu->blocks[0];
    const Stmt* rec = init->result;
    if (rec == nullptr || !IsRecAlloc(rec->op)) return false;
    for (const Stmt* t : init->stmts) {
      parent_[t] = init;
      if (t == rec) continue;
      if (t->op == Op::kConst || t->op == Op::kNull || IsPureOp(t->op)) {
        continue;
      }
      return false;
    }
    size_t arity = vt->record->fields.size();
    size_t nargs = rec->op == Op::kPoolRecNew ? rec->args.size() - 1
                                              : rec->args.size();
    if (nargs != arity) return false;
    if (FindReduction(map) >= 0) return false;
    ParReduction* r = Register(ParRedKind::kMap, map);
    r->pool_rec = rec->op == Op::kPoolRecNew;
    r->fields.assign(arity, ParFold::kKeepFirst);
    r->field_is_f64.resize(arity);
    for (size_t i = 0; i < arity; ++i) {
      r->field_is_f64[i] = vt->record->fields[i].type->kind == TypeKind::kF64;
    }
    group_inits_[out_.reductions.size() - 1] = rec;
    init_recs_.insert(rec);
    handles_[goeu] = static_cast<int>(out_.reductions.size() - 1);
    Claim(goeu);
    Claim(rec);
    return true;
  }

  // --- post passes ----------------------------------------------------------

  // Groups the collected f64-sum stores into per-handle log channels, picks
  // the last store of each channel as the appender, and skips the rest.
  bool BuildChannels() {
    // Scalar channels: one per kVarSumF cluster.
    for (const F64Set& fs : f64_sets_) {
      if (fs.var == nullptr) continue;
      ParLogChannel ch;
      ch.append_at = fs.set;
      ch.var = fs.var;
      ch.values.push_back(fs.addend);
      SetAction(fs.get, ParAction::kSkip);
      SetAction(fs.add, ParAction::kSkip);
      SetAction(fs.set, ParAction::kLog,
                static_cast<int>(out_.logs.size()));
      int red = FindReduction(fs.var);
      out_.reductions[red].log_channel = static_cast<int>(out_.logs.size());
      out_.logs.push_back(std::move(ch));
    }
    // Grouped channels: all f64 sums of one handle share one channel, in
    // store order, so the merge replays the exact sequential additions.
    std::vector<const Stmt*> handles;
    for (const F64Set& fs : f64_sets_) {
      if (fs.handle == nullptr) continue;
      bool seen = false;
      for (const Stmt* h : handles) seen |= (h == fs.handle);
      if (!seen) handles.push_back(fs.handle);
    }
    for (const Stmt* h : handles) {
      ParLogChannel ch;
      ch.handle = h;
      const Stmt* last = nullptr;
      const Block* block = nullptr;
      int red_idx = handles_.at(h);
      for (const F64Set& fs : f64_sets_) {
        if (fs.handle != h) continue;
        int vi = -1;
        for (size_t k = 0; k < ch.values.size(); ++k) {
          if (ch.values[k] == fs.addend) vi = static_cast<int>(k);
        }
        if (vi < 0) {
          vi = static_cast<int>(ch.values.size());
          ch.values.push_back(fs.addend);
        }
        ch.value_idx.push_back(vi);
        ch.fields.push_back(fs.field);
        // All stores must be unconditional in the handle's own block — the
        // log entry for a row is appended exactly once, at the last store.
        if (block == nullptr) block = parent_.at(fs.set);
        if (parent_.at(fs.set) != block || block != parent_.at(h)) {
          return false;
        }
        SetAction(fs.get, ParAction::kSkip);
        SetAction(fs.add, ParAction::kSkip);
        SetAction(fs.set, ParAction::kSkip);
        last = fs.set;
      }
      // Two handles of one reduction would interleave their additions
      // within a row; a single channel per reduction keeps replay exact.
      for (const Stmt* h2 : handles) {
        if (h2 != h && handles_.at(h2) == red_idx) return false;
      }
      // Group arrays log the slot index instead of the record pointer, so
      // replay is a direct array load. It is the handle's own index: with
      // two create sites, the other site's index is not computed on every
      // row. A map's channel names its reduction, whose hash parts the
      // merge routes the entries to.
      const ParReduction& red = out_.reductions[red_idx];
      if (red.kind == ParRedKind::kGroupArray) {
        ch.handle = h->args[1];
        ch.array_red = red_idx;
      } else {
        ch.map_red = red_idx;
      }
      ch.append_at = last;
      SetAction(last, ParAction::kLog, static_cast<int>(out_.logs.size()));
      out_.logs.push_back(std::move(ch));
    }
    return true;
  }

  void SetAction(const Stmt* s, ParAction a, int channel = -1) {
    out_.actions[s->id] = a;
    out_.action_channel[s->id] = channel;
  }

  bool ValidateGuards() {
    for (size_t i = 0; i < out_.reductions.size(); ++i) {
      const ParReduction& r = out_.reductions[i];
      if (r.kind == ParRedKind::kVarMin || r.kind == ParRedKind::kVarMax) {
        int n = FindReduction(r.count_var);
        if (n < 0 || out_.reductions[n].kind != ParRedKind::kVarSumI) {
          return false;
        }
      }
      bool has_minmax = false;
      for (ParFold f : r.fields) {
        has_minmax |= (f == ParFold::kMin || f == ParFold::kMax);
      }
      if (has_minmax) {
        // A count bumped by a create site without the min/max guard would
        // let the merge fold a record's untouched init value as a
        // candidate, so min/max needs a single create site.
        if (r.n_field < 0 || r.fields[r.n_field] != ParFold::kSumI ||
            multi_site_.count(static_cast<int>(i)) != 0) {
          return false;
        }
      }
    }
    // Each record min/max guard needs the count increment unconditionally
    // in its own handle's block — otherwise a morsel record could carry
    // min/max contributions its count does not witness, and the merge's
    // count-gated fold would drop them.
    for (const Stmt* h : rec_minmax_handles_) {
      const ParReduction& red = out_.reductions[handles_.at(h)];
      bool ok = false;
      for (const auto& [h2, f, block] : field_sum_sets_) {
        ok |= h2 == h && f == red.n_field && block == parent_.at(h);
      }
      if (!ok) return false;
    }
    // The shared count of a var min/max must be maintained alongside it:
    // same block as the guard, so n counts exactly the contributing rows.
    for (const auto& [red_idx, block] : minmax_guard_blocks_) {
      const Stmt* cv = out_.reductions[red_idx].count_var;
      bool ok = false;
      for (const Stmt* t : block->stmts) {
        if (t->op == Op::kVarAssign && t->args[0] == cv && Claimed(t)) {
          ok = true;
        }
      }
      if (!ok) return false;
    }
    return true;
  }

  // Integral sum fields merge as `main += morsel partial`, which is only
  // the sequential fold if every partial starts from zero.
  bool ValidateInits() {
    for (const auto& [red_idx, rec] : group_inits_) {
      const ParReduction& r = out_.reductions[red_idx];
      size_t base = rec->op == Op::kPoolRecNew ? 1 : 0;
      for (size_t f = 0; f < r.fields.size(); ++f) {
        if (r.fields[f] != ParFold::kSumI) continue;
        if (!IsZeroConst(rec->args[base + f])) return false;
      }
    }
    return true;
  }

  // No statement outside the recognized clusters may touch a privatized
  // target, a group-record handle, an init record, an integral sum's
  // morsel-partial read or add, or a skipped statement.
  bool ValidateReads(const Block* b) {
    for (const Stmt* s : b->stmts) {
      bool s_claimed = Claimed(s);
      ParAction sa = out_.actions[s->id];
      for (const Stmt* a : s->args) {
        if (!s_claimed && FindReduction(a) >= 0) return false;
        if (!s_claimed &&
            (handles_.count(a) != 0 || init_recs_.count(a) != 0 ||
             partials_.count(a) != 0)) {
          return false;
        }
        if (sa == ParAction::kNormal && !s_claimed && InLoop(a) &&
            out_.actions[a->id] == ParAction::kSkip) {
          return false;
        }
      }
      for (const Block* nb : s->blocks) {
        if (!ValidateReads(nb)) return false;
      }
    }
    return true;
  }

  const Function& fn_;
  const std::vector<int>& uses_;
  const Stmt* loop_;
  ParLoop out_;

  std::vector<char> in_loop_;
  std::unordered_set<const Stmt*> claimed_;
  std::unordered_set<const Stmt*> init_recs_;
  std::unordered_set<const Block*> consumed_blocks_;
  std::unordered_map<const Stmt*, const Block*> parent_;
  std::unordered_map<const Stmt*, int> handles_;   // handle stmt -> reduction
  std::unordered_map<int, const Stmt*> group_inits_;  // reduction -> rec
  // Group array -> its first create site's slot index.
  std::unordered_map<int, const Stmt*> group_slots_;
  std::unordered_set<int> multi_site_;  // group arrays with two create sites
  // Reads and adds of integral sums: in a morsel they see the morsel's
  // partial sum, not the running total.
  std::unordered_set<const Stmt*> partials_;
  const Stmt* failed_ = nullptr;        // the statement Visit rejected
  std::vector<std::pair<int, const Block*>> minmax_guard_blocks_;
  std::vector<const Stmt*> rec_minmax_handles_;
  // (handle, field, block) of every integral-sum store on a group record.
  std::vector<std::tuple<const Stmt*, int, const Block*>> field_sum_sets_;
  std::vector<F64Set> f64_sets_;
};

}  // namespace

ParallelInfo AnalyzeParallelism(const Function& fn) {
  ParallelInfo info;
  std::vector<int> uses = ComputeUseCounts(fn);
  for (const Stmt* s : fn.body()->stmts) {
    if (s->op != Op::kForRange) continue;
    LoopAnalyzer analyzer(fn, uses, s);
    ParLoop pl;
    ParReject why;
    if (analyzer.Run(&pl, &why)) {
      info.loops.push_back(std::move(pl));
    } else {
      info.rejected.push_back(why);
    }
  }
  return info;
}

std::string FormatRejections(const ParallelInfo& info,
                             const std::string& prefix) {
  std::string out;
  for (const ParReject& r : info.rejected) {
    out += prefix + "x" + std::to_string(r.loop->id) + " " + r.rule;
    if (r.at != nullptr) {
      out += " at x" + std::to_string(r.at->id) + " " + OpName(r.at->op);
    }
    out += "\n";
  }
  return out;
}

}  // namespace qc::ir
