#include "cgen/emit.h"

#include <cassert>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <set>
#include <sstream>
#include <vector>

namespace qc::cgen {

using ir::Block;
using ir::Op;
using ir::Stmt;
using ir::Type;
using ir::TypeKind;

namespace {

std::string Sanitize(const std::string& s) {
  std::string out;
  for (char c : s) {
    out.push_back(std::isalnum(static_cast<unsigned char>(c)) ? c : '_');
  }
  return out;
}

std::string EscapeString(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return out;
}

class CEmitter {
 public:
  CEmitter(const ir::Function& fn, storage::Database& db,
           const std::string& data_dir)
      : fn_(fn), db_(db), data_dir_(data_dir) {}

  std::string Run() {
    Scan(fn_.body());
    EmitHeader();
    EmitStructs();
    EmitKeyFunctions();
    EmitMain();
    return out_.str();
  }

 private:
  // --- analysis: what the program touches -----------------------------------

  void Scan(const Block* b) {
    for (const Stmt* s : b->stmts) {
      ScanType(s->type);
      switch (s->op) {
        case Op::kTableRows:
          tables_.insert(s->aux0);
          break;
        case Op::kColGet:
          tables_.insert(s->aux0);
          cols_.insert({s->aux0, s->aux1});
          break;
        case Op::kColDict:
          tables_.insert(s->aux0);
          dicts_.insert({s->aux0, s->aux1});
          db_.Dictionary(s->aux0, s->aux1);
          break;
        case Op::kIdxBucketLen:
        case Op::kIdxBucketRow:
          tables_.insert(s->aux0);
          parts_.insert({s->aux0, s->aux1});
          db_.Partition(s->aux0, s->aux1);
          break;
        case Op::kIdxPkRow:
          tables_.insert(s->aux0);
          pks_.insert({s->aux0, s->aux1});
          db_.PrimaryIndex(s->aux0, s->aux1);
          break;
        case Op::kMapNew:
        case Op::kMMapNew:
          if (s->type->key->kind == TypeKind::kRecord) {
            key_records_.insert(s->type->key);
          }
          break;
        case Op::kEmit:
          if (emit_types_.empty()) {
            for (const Stmt* a : s->args) emit_types_.push_back(a->type);
          }
          break;
        default:
          break;
      }
      for (const Block* nb : s->blocks) Scan(nb);
      for (const Stmt* p :
           b->params) {  // defensive: record types in params too
        ScanType(p->type);
      }
    }
  }

  void ScanType(const Type* t) {
    if (t == nullptr) return;
    switch (t->kind) {
      case TypeKind::kRecord:
        if (records_.insert(t).second) {
          for (const auto& f : t->record->fields) ScanType(f.type);
        }
        break;
      case TypeKind::kArray:
      case TypeKind::kList:
      case TypeKind::kPtr:
      case TypeKind::kPool:
        ScanType(t->elem);
        break;
      case TypeKind::kMap:
      case TypeKind::kMMap:
        ScanType(t->key);
        ScanType(t->value);
        break;
      default:
        break;
    }
  }

  // --- type mapping ----------------------------------------------------------

  std::string CType(const Type* t) {
    switch (t->kind) {
      case TypeKind::kBool:
      case TypeKind::kI64:
      case TypeKind::kDate:
        return "int64_t";
      case TypeKind::kI32:
        return "int32_t";
      case TypeKind::kF64:
        return "double";
      case TypeKind::kStr:
        return "const char*";
      case TypeKind::kRecord:
        return "struct " + Sanitize(t->record->name) + "*";
      case TypeKind::kArray:
        return CType(t->elem) + "*";
      case TypeKind::kList:
        return "qc_vec*";
      case TypeKind::kMap:
      case TypeKind::kMMap:
        return "qc_map*";
      case TypeKind::kPtr:
        return CType(t->elem);  // Ptr[record] == record*
      case TypeKind::kPool:
        return "qc_pool*";
      case TypeKind::kVoid:
        return "void";
    }
    return "int64_t";
  }

  // Slot conversion for values stored in generic collections.
  std::string ToSlot(const Stmt* v) {
    switch (v->type->kind) {
      case TypeKind::kF64: return "qc_sd(" + Ref(v) + ")";
      case TypeKind::kStr: return "qc_ss(" + Ref(v) + ")";
      case TypeKind::kRecord:
      case TypeKind::kArray:
      case TypeKind::kList:
      case TypeKind::kMap:
      case TypeKind::kMMap:
      case TypeKind::kPtr:
        return "qc_sp((void*)" + Ref(v) + ")";
      default:
        return "qc_si((int64_t)" + Ref(v) + ")";
    }
  }

  std::string FromSlot(const std::string& slot, const Type* t) {
    switch (t->kind) {
      case TypeKind::kF64: return slot + ".d";
      case TypeKind::kStr: return slot + ".s";
      case TypeKind::kRecord:
      case TypeKind::kArray:
      case TypeKind::kList:
      case TypeKind::kMap:
      case TypeKind::kMMap:
      case TypeKind::kPtr:
        return "(" + CType(t) + ")" + slot + ".p";
      case TypeKind::kI32:
        return "(int32_t)" + slot + ".i";
      default:
        return slot + ".i";
    }
  }

  std::string Ref(const Stmt* s) { return "x" + std::to_string(s->id); }

  std::string TableName(int t) { return db_.table(t).def().name; }
  std::string ColName(int t, int c) {
    return db_.table(t).def().columns[c].name;
  }
  std::string ColVar(int t, int c) {
    return "col_" + TableName(t) + "_" + ColName(t, c);
  }

  // --- header / structs / key functions --------------------------------------

  void EmitHeader() {
    out_ << "// Generated by qcstack cgen from function '" << fn_.name()
         << "'.\n";
    out_ << "#include \"" << QC_SOURCE_DIR << "/src/cgen/qc_runtime.h\"\n";
    out_ << "#include <time.h>\n\n";
  }

  void EmitStructs() {
    for (const Type* t : records_) {
      out_ << "struct " << Sanitize(t->record->name) << ";\n";
    }
    out_ << "\n";
    for (const Type* t : records_) {
      out_ << "struct " << Sanitize(t->record->name) << " {\n";
      for (const auto& f : t->record->fields) {
        out_ << "  " << CType(f.type) << " " << Sanitize(f.name) << ";\n";
      }
      out_ << "};\n";
    }
    out_ << "\n";
  }

  void EmitKeyFunctions() {
    for (const Type* t : key_records_) {
      std::string name = Sanitize(t->record->name);
      out_ << "static uint64_t qc_hash_" << name << "(qc_slot s) {\n";
      out_ << "  struct " << name << "* k = (struct " << name << "*)s.p;\n";
      out_ << "  uint64_t h = 0x42;\n";
      for (const auto& f : t->record->fields) {
        std::string fld = "k->" + Sanitize(f.name);
        if (f.type->kind == TypeKind::kStr) {
          out_ << "  h = qc_hash_combine(h, qc_hash_str(" << fld << "));\n";
        } else if (f.type->kind == TypeKind::kF64) {
          out_ << "  { uint64_t b; memcpy(&b, &" << fld
               << ", 8); h = qc_hash_combine(h, qc_hash_u64(b)); }\n";
        } else {
          out_ << "  h = qc_hash_combine(h, qc_hash_u64((uint64_t)" << fld
               << "));\n";
        }
      }
      out_ << "  return h;\n}\n";
      out_ << "static int qc_eq_" << name << "(qc_slot a, qc_slot b) {\n";
      out_ << "  struct " << name << "* x = (struct " << name << "*)a.p;\n";
      out_ << "  struct " << name << "* y = (struct " << name << "*)b.p;\n";
      out_ << "  return 1";
      for (const auto& f : t->record->fields) {
        std::string fx = "x->" + Sanitize(f.name);
        std::string fy = "y->" + Sanitize(f.name);
        if (f.type->kind == TypeKind::kStr) {
          out_ << " && strcmp(" << fx << ", " << fy << ") == 0";
        } else {
          out_ << " && " << fx << " == " << fy;
        }
      }
      out_ << ";\n}\n";
    }
    out_ << "\n";
  }

  // --- main -------------------------------------------------------------------

  void EmitMain() {
    out_ << "int main(void) {\n";
    indent_ = 1;
    Line("const char* dir = \"" + data_dir_ + "\";");
    // Loader: only what the query touches.
    for (int t : tables_) {
      Line("int64_t rows_" + TableName(t) + " = qc_load_rowcount(dir, \"" +
           TableName(t) + "\");");
    }
    for (auto [t, c] : cols_) {
      const storage::ColumnDef& def = db_.table(t).def().columns[c];
      std::string var = ColVar(t, c);
      switch (def.type) {
        case storage::ColType::kF64:
          Line("double* " + var + " = qc_load_f64(dir, \"" + TableName(t) +
               "\", \"" + ColName(t, c) + "\");");
          break;
        case storage::ColType::kStr:
          Line("const char** " + var + " = qc_load_str(dir, \"" +
               TableName(t) + "\", \"" + ColName(t, c) + "\", rows_" +
               TableName(t) + ");");
          break;
        default:
          Line("int64_t* " + var + " = qc_load_i64(dir, \"" + TableName(t) +
               "\", \"" + ColName(t, c) + "\");");
      }
    }
    for (auto [t, c] : dicts_) {
      Line("int32_t* dict_" + TableName(t) + "_" + ColName(t, c) +
           " = qc_load_i32(dir, \"" + TableName(t) + "\", \"" +
           ColName(t, c) + ".dict\");");
    }
    for (auto [t, c] : parts_) {
      std::string base = TableName(t) + "_" + ColName(t, c);
      Line("int64_t* idxoff_" + base + " = qc_load_i64(dir, \"" +
           TableName(t) + "\", \"" + ColName(t, c) + ".part.off\");");
      Line("int64_t* idxrows_" + base + " = qc_load_i64(dir, \"" +
           TableName(t) + "\", \"" + ColName(t, c) + ".part.rows\");");
    }
    for (auto [t, c] : pks_) {
      Line("int64_t* pk_" + TableName(t) + "_" + ColName(t, c) +
           " = qc_load_i64(dir, \"" + TableName(t) + "\", \"" +
           ColName(t, c) + ".pk\");");
    }
    Line("qc_pool* strpool = qc_pool_new(1 << 16);");
    Line("qc_result result; memset(&result, 0, sizeof(result));");
    Line("struct timespec t0, t1;");
    Line("clock_gettime(CLOCK_MONOTONIC, &t0);");
    out_ << "\n";

    EmitBlock(fn_.body());

    out_ << "\n";
    Line("clock_gettime(CLOCK_MONOTONIC, &t1);");
    Line("double ms = (t1.tv_sec - t0.tv_sec) * 1e3 + "
         "(t1.tv_nsec - t0.tv_nsec) / 1e6;");
    Line("printf(\"ROWS=%lld TIME_MS=%.3f MEM_BYTES=%zu\\n\", "
         "(long long)(result.ncols ? result.rows.len / result.ncols : 0), "
         "ms, qc_heap_bytes + qc_pool_bytes);");
    EmitRowPrinter();
    Line("return 0;");
    out_ << "}\n";
  }

  void EmitRowPrinter() {
    if (emit_types_.empty()) return;
    int n = static_cast<int>(emit_types_.size());
    Line("for (int64_t r = 0; r + " + std::to_string(n) +
         " <= result.rows.len; r += " + std::to_string(n) + ") {");
    ++indent_;
    Line("printf(\"ROW \");");
    for (int i = 0; i < n; ++i) {
      std::string slot = "result.rows.data[r + " + std::to_string(i) + "]";
      std::string sep = i + 1 < n ? "|" : "\\n";
      switch (emit_types_[i]->kind) {
        case TypeKind::kF64:
          Line("printf(\"%.2f" + sep + "\", " + slot + ".d);");
          break;
        case TypeKind::kStr:
          Line("printf(\"%s" + sep + "\", " + slot + ".s);");
          break;
        case TypeKind::kDate:
          Line("printf(\"%04lld-%02lld-%02lld" + sep + "\", (long long)(" +
               slot + ".i / 10000), (long long)((" + slot +
               ".i / 100) % 100), (long long)(" + slot + ".i % 100));");
          break;
        default:
          Line("printf(\"%lld" + sep + "\", (long long)" + slot + ".i);");
      }
    }
    --indent_;
    Line("}");
  }

  // --- statement emission -----------------------------------------------------

  void Line(const std::string& s) {
    for (int i = 0; i < indent_; ++i) out_ << "  ";
    out_ << s << "\n";
  }

  void Decl(const Stmt* s, const std::string& expr) {
    Line(CType(s->type) + " " + Ref(s) + " = " + expr + ";");
  }

  void EmitBlock(const Block* b) {
    for (const Stmt* s : b->stmts) EmitStmt(s);
  }

  std::string Bin(const Stmt* s, const char* op) {
    return Ref(s->args[0]) + " " + op + " " + Ref(s->args[1]);
  }

  // Integer division by zero is 0, as in the VM and the JIT; a constant
  // non-zero divisor needs no guard.
  std::string IntDivSafe(const Stmt* s, const char* op) {
    const Stmt* d = s->args[1];
    if (s->type->kind == TypeKind::kF64 ||
        (d->op == Op::kConst && !IsParam(d) && d->ival != 0)) {
      return Bin(s, op);
    }
    return "(" + Ref(d) + " == 0 ? 0 : " + Bin(s, op) + ")";
  }

  void EmitStmt(const Stmt* s) {
    switch (s->op) {
      case Op::kConst:
        if (s->type->kind == TypeKind::kStr) {
          Decl(s, "\"" + EscapeString(s->sval) + "\"");
        } else if (s->type->kind == TypeKind::kF64) {
          char buf[64];
          std::snprintf(buf, sizeof(buf), "%.17g", s->fval);
          Decl(s, buf);
        } else {
          Decl(s, std::to_string(s->ival) + "LL");
        }
        break;
      case Op::kNull:
        Decl(s, "(" + CType(s->type) + ")NULL");
        break;

      case Op::kAdd: Decl(s, Bin(s, "+")); break;
      case Op::kSub: Decl(s, Bin(s, "-")); break;
      case Op::kMul: Decl(s, Bin(s, "*")); break;
      case Op::kDiv: Decl(s, IntDivSafe(s, "/")); break;
      case Op::kMod: Decl(s, IntDivSafe(s, "%")); break;
      case Op::kNeg: Decl(s, "-" + Ref(s->args[0])); break;
      case Op::kCast:
        Decl(s, "(" + CType(s->type) + ")" + Ref(s->args[0]));
        break;

      case Op::kEq: Decl(s, Bin(s, "==")); break;
      case Op::kNe: Decl(s, Bin(s, "!=")); break;
      case Op::kLt: Decl(s, Bin(s, "<")); break;
      case Op::kLe: Decl(s, Bin(s, "<=")); break;
      case Op::kGt: Decl(s, Bin(s, ">")); break;
      case Op::kGe: Decl(s, Bin(s, ">=")); break;

      case Op::kAnd: Decl(s, Bin(s, "&&")); break;
      case Op::kOr: Decl(s, Bin(s, "||")); break;
      case Op::kNot: Decl(s, "!" + Ref(s->args[0])); break;
      case Op::kBitAnd: Decl(s, Bin(s, "&")); break;

      case Op::kStrEq:
        Decl(s, "strcmp(" + Ref(s->args[0]) + ", " + Ref(s->args[1]) +
                    ") == 0");
        break;
      case Op::kStrNe:
        Decl(s, "strcmp(" + Ref(s->args[0]) + ", " + Ref(s->args[1]) +
                    ") != 0");
        break;
      case Op::kStrLt:
        Decl(s, "strcmp(" + Ref(s->args[0]) + ", " + Ref(s->args[1]) +
                    ") < 0");
        break;
      case Op::kStrStartsWith:
        Decl(s, "qc_starts_with(" + Ref(s->args[0]) + ", " + Ref(s->args[1]) +
                    ")");
        break;
      case Op::kStrEndsWith:
        Decl(s, "qc_ends_with(" + Ref(s->args[0]) + ", " + Ref(s->args[1]) +
                    ")");
        break;
      case Op::kStrContains:
        Decl(s, "qc_contains(" + Ref(s->args[0]) + ", " + Ref(s->args[1]) +
                    ")");
        break;
      case Op::kStrLike:
        Decl(s, "qc_str_like(" + Ref(s->args[0]) + ", \"" +
                    EscapeString(s->sval) + "\")");
        break;
      case Op::kStrLen:
        Decl(s, "(int64_t)strlen(" + Ref(s->args[0]) + ")");
        break;
      case Op::kStrSubstr:
        Decl(s, "qc_substr(&strpool, " + Ref(s->args[0]) + ", " +
                    std::to_string(s->aux0) + ", " + std::to_string(s->aux1) +
                    ")");
        break;

      case Op::kVarNew:
        Decl(s, Ref(s->args[0]));
        break;
      case Op::kVarRead:
        Decl(s, Ref(s->args[0]));
        break;
      case Op::kVarAssign:
        Line(Ref(s->args[0]) + " = " + Ref(s->args[1]) + ";");
        break;

      case Op::kIf:
        Line("if (" + Ref(s->args[0]) + ") {");
        ++indent_;
        EmitBlock(s->blocks[0]);
        --indent_;
        if (s->blocks.size() > 1 && !s->blocks[1]->stmts.empty()) {
          Line("} else {");
          ++indent_;
          EmitBlock(s->blocks[1]);
          --indent_;
        }
        Line("}");
        break;
      case Op::kForRange: {
        const Stmt* i = s->blocks[0]->params[0];
        Line("for (int64_t " + Ref(i) + " = " + Ref(s->args[0]) + "; " +
             Ref(i) + " < " + Ref(s->args[1]) + "; ++" + Ref(i) + ") {");
        ++indent_;
        EmitBlock(s->blocks[0]);
        --indent_;
        Line("}");
        break;
      }
      case Op::kWhile:
        Line("while (1) {");
        ++indent_;
        EmitBlock(s->blocks[0]);
        Line("if (!" + Ref(s->blocks[0]->result) + ") break;");
        EmitBlock(s->blocks[1]);
        --indent_;
        Line("}");
        break;

      case Op::kRecNew: {
        std::string ty = "struct " + Sanitize(s->type->record->name);
        Decl(s, "(" + ty + "*)qc_malloc(sizeof(" + ty + "))");
        EmitFieldInit(s, s->args, 0);
        break;
      }
      case Op::kPoolRecNew: {
        std::string ty = "struct " + Sanitize(s->type->record->name);
        Decl(s, "(" + ty + "*)qc_pool_alloc(&" + Ref(s->args[0]) +
                    ", sizeof(" + ty + "))");
        EmitFieldInit(s, s->args, 1);
        break;
      }
      case Op::kRecGet:
        Decl(s, Ref(s->args[0]) + "->" +
                    Sanitize(FieldName(s->args[0], s->aux0)));
        break;
      case Op::kRecSet:
        Line(Ref(s->args[0]) + "->" + Sanitize(FieldName(s->args[0], s->aux0)) +
             " = " + Ref(s->args[1]) + ";");
        break;

      case Op::kArrNew:
        Decl(s, "(" + CType(s->type->elem) + "*)qc_calloc(" +
                    Ref(s->args[0]) + ", sizeof(" + CType(s->type->elem) +
                    "))");
        break;
      case Op::kMalloc:
        Decl(s, "(" + CType(s->type->elem) + "*)qc_malloc(" +
                    Ref(s->args[0]) + " * sizeof(" + CType(s->type->elem) +
                    "))");
        break;
      case Op::kArrGet:
        Decl(s, Ref(s->args[0]) + "[" + Ref(s->args[1]) + "]");
        break;
      case Op::kArrSet:
        Line(Ref(s->args[0]) + "[" + Ref(s->args[1]) + "] = " +
             Ref(s->args[2]) + ";");
        break;
      case Op::kArrSortBy:
        EmitSort(s, Ref(s->args[0]),
                 Ref(s->args[0]) + " + " + Ref(s->args[1]),
                 s->args[0]->type->elem);
        break;

      case Op::kListNew:
        Decl(s, "qc_vec_new()");
        break;
      case Op::kListAppend:
        Line("qc_vec_push(" + Ref(s->args[0]) + ", " + ToSlot(s->args[1]) +
             ");");
        break;
      case Op::kListForeach: {
        const Stmt* e = s->blocks[0]->params[0];
        std::string iv = "_i" + std::to_string(s->id);
        Line("for (int64_t " + iv + " = 0; " + iv + " < " + Ref(s->args[0]) +
             "->len; ++" + iv + ") {");
        ++indent_;
        Line(CType(e->type) + " " + Ref(e) + " = " +
             FromSlot(Ref(s->args[0]) + "->data[" + iv + "]", e->type) + ";");
        EmitBlock(s->blocks[0]);
        --indent_;
        Line("}");
        break;
      }
      case Op::kListSize:
        Decl(s, Ref(s->args[0]) + "->len");
        break;
      case Op::kListGet:
        Decl(s, FromSlot(Ref(s->args[0]) + "->data[" + Ref(s->args[1]) + "]",
                         s->type));
        break;
      case Op::kListSortBy:
        EmitSlotSort(s, Ref(s->args[0]));
        break;

      case Op::kMapNew:
      case Op::kMMapNew: {
        std::string h = "qc_hash_i64_slot", e = "qc_eq_i64_slot";
        if (s->type->key->kind == TypeKind::kRecord) {
          h = "qc_hash_" + Sanitize(s->type->key->record->name);
          e = "qc_eq_" + Sanitize(s->type->key->record->name);
        }
        Decl(s, "qc_map_new(" + h + ", " + e + ")");
        break;
      }
      case Op::kMapGetOrElseUpdate: {
        std::string node = "_n" + std::to_string(s->id);
        Line("qc_map_node* " + node + " = qc_map_find(" + Ref(s->args[0]) +
             ", " + ToSlot(s->args[1]) + ");");
        Line(CType(s->type) + " " + Ref(s) + ";");
        Line("if (" + node + ") {");
        ++indent_;
        Line(Ref(s) + " = " + FromSlot(node + "->val", s->type) + ";");
        --indent_;
        Line("} else {");
        ++indent_;
        EmitBlock(s->blocks[0]);
        Line(Ref(s) + " = " + Ref(s->blocks[0]->result) + ";");
        Line("qc_map_insert(" + Ref(s->args[0]) + ", " + ToSlot(s->args[1]) +
             ", " + ToSlot(s->blocks[0]->result) + ");");
        --indent_;
        Line("}");
        break;
      }
      case Op::kMapGetOrNull: {
        std::string node = "_n" + std::to_string(s->id);
        Line("qc_map_node* " + node + " = qc_map_find(" + Ref(s->args[0]) +
             ", " + ToSlot(s->args[1]) + ");");
        Decl(s, "(" + CType(s->type) + ")(" + node + " ? " + node +
                    "->val.p : NULL)");
        break;
      }
      case Op::kMapForeach: {
        const Stmt* k = s->blocks[0]->params[0];
        const Stmt* v = s->blocks[0]->params[1];
        std::string node = "_n" + std::to_string(s->id);
        Line("for (qc_map_node* " + node + " = " + Ref(s->args[0]) +
             "->head; " + node + "; " + node + " = " + node + "->order) {");
        ++indent_;
        Line(CType(k->type) + " " + Ref(k) + " = " +
             FromSlot(node + "->key", k->type) + ";");
        Line(CType(v->type) + " " + Ref(v) + " = " +
             FromSlot(node + "->val", v->type) + ";");
        EmitBlock(s->blocks[0]);
        --indent_;
        Line("}");
        break;
      }
      case Op::kMapSize:
        Decl(s, Ref(s->args[0]) + "->size");
        break;

      case Op::kMMapAdd:
        Line("qc_mmap_add(" + Ref(s->args[0]) + ", " + ToSlot(s->args[1]) +
             ", " + ToSlot(s->args[2]) + ");");
        break;
      case Op::kMMapGetOrNull:
        Decl(s, "qc_mmap_get(" + Ref(s->args[0]) + ", " + ToSlot(s->args[1]) +
                    ")");
        break;

      case Op::kIsNull:
        Decl(s, Ref(s->args[0]) + " == NULL");
        break;

      case Op::kFree:
        break;
      case Op::kPoolNew: {
        std::string ty = "struct " + Sanitize(s->type->elem->record->name);
        Decl(s, "qc_pool_new_est((size_t)" + Ref(s->args[0]) + " * sizeof(" +
                    ty + "))");
        break;
      }

      case Op::kTableRows:
        Decl(s, "rows_" + TableName(s->aux0));
        break;
      case Op::kColGet:
        Decl(s, ColVar(s->aux0, s->aux1) + "[" + Ref(s->args[0]) + "]");
        break;
      case Op::kColDict:
        Decl(s, "dict_" + TableName(s->aux0) + "_" + ColName(s->aux0, s->aux1) +
                    "[" + Ref(s->args[0]) + "]");
        break;
      case Op::kIdxBucketLen: {
        int64_t maxk = db_.Partition(s->aux0, s->aux1).max_key;
        std::string base = TableName(s->aux0) + "_" + ColName(s->aux0, s->aux1);
        std::string k = Ref(s->args[0]);
        Decl(s, "(" + k + " >= 0 && " + k + " <= " + std::to_string(maxk) +
                    "LL) ? (idxoff_" + base + "[" + k + " + 1] - idxoff_" +
                    base + "[" + k + "]) : 0");
        break;
      }
      case Op::kIdxBucketRow: {
        std::string base = TableName(s->aux0) + "_" + ColName(s->aux0, s->aux1);
        Decl(s, "idxrows_" + base + "[idxoff_" + base + "[" +
                    Ref(s->args[0]) + "] + " + Ref(s->args[1]) + "]");
        break;
      }
      case Op::kIdxPkRow: {
        int64_t maxk = db_.PrimaryIndex(s->aux0, s->aux1).max_key;
        std::string base = TableName(s->aux0) + "_" + ColName(s->aux0, s->aux1);
        std::string k = Ref(s->args[0]);
        Decl(s, "(" + k + " >= 0 && " + k + " <= " + std::to_string(maxk) +
                    "LL) ? pk_" + base + "[" + k + "] : -1");
        break;
      }

      case Op::kEmit: {
        std::string row = "_row" + std::to_string(s->id);
        std::string init;
        for (size_t i = 0; i < s->args.size(); ++i) {
          if (i > 0) init += ", ";
          init += ToSlot(s->args[i]);
        }
        Line("{ qc_slot " + row + "[] = {" + init + "}; qc_emit(&result, " +
             row + ", " + std::to_string(s->args.size()) + "); }");
        break;
      }

      default:
        std::fprintf(stderr, "cgen: unhandled op %s\n", OpName(s->op));
        std::abort();
    }
  }

  const std::string& FieldName(const Stmt* rec, int field) {
    const ir::RecordSchema* schema = rec->type->kind == TypeKind::kPtr
                                         ? rec->type->elem->record
                                         : rec->type->record;
    return schema->fields[field].name;
  }

  void EmitFieldInit(const Stmt* s, const std::vector<Stmt*>& args,
                     size_t from) {
    const auto& fields = s->type->record->fields;
    for (size_t i = from; i < args.size(); ++i) {
      Line(Ref(s) + "->" + Sanitize(fields[i - from].name) + " = " +
           Ref(args[i]) + ";");
    }
  }

  // std::sort over typed arrays (comparator = C++ lambda capturing scope).
  void EmitSort(const Stmt* s, const std::string& begin,
                const std::string& end, const Type* elem) {
    const Block* cmp = s->blocks[0];
    Line("std::sort(" + begin + ", " + end + ", [&](" + CType(elem) +
         " _a, " + CType(elem) + " _b) {");
    ++indent_;
    Line(CType(elem) + " " + Ref(cmp->params[0]) + " = _a;");
    Line(CType(elem) + " " + Ref(cmp->params[1]) + " = _b;");
    EmitBlock(cmp);
    Line("return (bool)" + Ref(cmp->result) + ";");
    --indent_;
    Line("});");
  }

  void EmitSlotSort(const Stmt* s, const std::string& vec) {
    const Block* cmp = s->blocks[0];
    const Type* elem = cmp->params[0]->type;
    Line("std::stable_sort(" + vec + "->data, " + vec + "->data + " + vec +
         "->len, [&](qc_slot _a, qc_slot _b) {");
    ++indent_;
    Line(CType(elem) + " " + Ref(cmp->params[0]) + " = " +
         FromSlot("_a", elem) + ";");
    Line(CType(elem) + " " + Ref(cmp->params[1]) + " = " +
         FromSlot("_b", elem) + ";");
    EmitBlock(cmp);
    Line("return (bool)" + Ref(cmp->result) + ";");
    --indent_;
    Line("});");
  }

  const ir::Function& fn_;
  storage::Database& db_;
  std::string data_dir_;
  std::ostringstream out_;
  int indent_ = 0;

  std::set<int> tables_;
  std::set<std::pair<int, int>> cols_, dicts_, parts_, pks_;
  std::set<const Type*> records_, key_records_;
  std::vector<const Type*> emit_types_;
};

}  // namespace

std::string EmitProgram(const ir::Function& fn, storage::Database& db,
                        const std::string& data_dir) {
  return CEmitter(fn, db, data_dir).Run();
}

void ExportAux(const storage::Database& db, const std::string& dir) {
  db.ExportAux(dir);
}

}  // namespace qc::cgen
