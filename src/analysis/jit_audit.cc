#include "analysis/jit_audit.h"

#include <algorithm>
#include <cstring>
#include <string>
#include <vector>

#if defined(__linux__)
#include <cinttypes>
#include <cstdio>
#endif

#include "jit/templates.h"

namespace qc::exec::analysis {

namespace {

using jit::kNoEntry;
using jit::OpTemplate;
using jit::PatchKind;

int PatchWidth(PatchKind k) {
  switch (k) {
    case PatchKind::kPtrB:
    case PatchKind::kConstB:
    case PatchKind::kExtraA:
    case PatchKind::kExtraB:
    case PatchKind::kPatternC:
    case PatchKind::kSortSite:
    case PatchKind::kTypeB:
    case PatchKind::kParLoopA:
      return 8;  // imm64
    default:
      return 4;  // disp32 / rel32 / imm32
  }
}

const char* PatchKindName(PatchKind k) {
  switch (k) {
    case PatchKind::kSlotA: return "kSlotA";
    case PatchKind::kSlotB: return "kSlotB";
    case PatchKind::kSlotC: return "kSlotC";
    case PatchKind::kSlotD: return "kSlotD";
    case PatchKind::kFieldB: return "kFieldB";
    case PatchKind::kFieldC: return "kFieldC";
    case PatchKind::kPtrB: return "kPtrB";
    case PatchKind::kConstB: return "kConstB";
    case PatchKind::kJumpD: return "kJumpD";
    case PatchKind::kExtraA: return "kExtraA";
    case PatchKind::kExtraB: return "kExtraB";
    case PatchKind::kImmN: return "kImmN";
    case PatchKind::kImmN8: return "kImmN8";
    case PatchKind::kImmC: return "kImmC";
    case PatchKind::kImmD: return "kImmD";
    case PatchKind::kPatternC: return "kPatternC";
    case PatchKind::kSortSite: return "kSortSite";
    case PatchKind::kGovCnt: return "kGovCnt";
    case PatchKind::kJumpAbort: return "kJumpAbort";
    case PatchKind::kState: return "kState";
    case PatchKind::kTypeB: return "kTypeB";
    case PatchKind::kParLoopA: return "kParLoopA";
  }
  return "?";
}

uint32_t Rd32(const std::vector<uint8_t>& b, size_t at) {
  return uint32_t(b[at]) | uint32_t(b[at + 1]) << 8 |
         uint32_t(b[at + 2]) << 16 | uint32_t(b[at + 3]) << 24;
}

uint64_t Rd64(const std::vector<uint8_t>& b, size_t at) {
  return uint64_t(Rd32(b, at)) | uint64_t(Rd32(b, at + 4)) << 32;
}

// Reference prologue and abort thunk, rebuilt through the public encoder —
// the same instruction sequence emitter.cc's file-local builders assemble,
// so the byte patterns cannot drift apart silently.
const std::vector<uint8_t>& PrologueRef() {
  static const std::vector<uint8_t> ref = [] {
    jit::Asm a;
    a.PushR12();
    a.MovRegReg(jit::R12, jit::RDI);
    a.JmpReg(jit::RSI);
    return a.bytes();
  }();
  return ref;
}

struct StubRef {
  std::vector<uint8_t> bytes;  // imm32 field zeroed
  size_t imm_off;
};

// mov eax, imm32; pop r12; ret — the abort thunk's shape.
const StubRef& ExitStubRef() {
  static const StubRef ref = [] {
    jit::Asm a;
    a.MovImm32(jit::RAX, 0);
    size_t imm = a.size() - 4;  // the imm32 is the mov's trailing 4 bytes
    a.PopR12();
    a.Ret();
    return StubRef{a.bytes(), imm};
  }();
  return ref;
}

// Decodes an exit stub at `at`; returns false when the bytes there are not
// a stub. On success *imm receives the value the stub returns.
bool DecodeStub(const std::vector<uint8_t>& code, size_t at, uint32_t* imm) {
  const StubRef& ref = ExitStubRef();
  if (at + ref.bytes.size() > code.size()) return false;
  for (size_t i = 0; i < ref.bytes.size(); ++i) {
    if (i >= ref.imm_off && i < ref.imm_off + 4) continue;
    if (code[at + i] != ref.bytes[i]) return false;
  }
  *imm = Rd32(code, at + ref.imm_off);
  return true;
}

size_t StubSize() { return ExitStubRef().bytes.size(); }

}  // namespace

VerifyResult AuditTemplates() {
  VerifyResult res;
  std::vector<const OpTemplate*> seen;
  for (uint16_t op = 0; op < static_cast<uint16_t>(BcOp::kNumOps); ++op) {
    // Enumerate every selectable variant: the probe opcodes key on the map
    // key kind (insn.d), so both kinds reach the whole table.
    for (int key = 0; key <= 1; ++key) {
      Insn insn{};
      insn.op = op;
      insn.d = key;
      std::string name = BcOpName(static_cast<BcOp>(op));
      if (key == 1) name += " (i64-key variant)";
      const OpTemplate* t = jit::SelectTemplate(insn);
      if (t == nullptr) {
        res.violations.push_back(
            {op, "template-missing", name + ": no template is selected"});
        continue;
      }
      if (std::find(seen.begin(), seen.end(), t) != seen.end()) continue;
      seen.push_back(t);
      auto add = [&](std::string detail) {
        res.violations.push_back(
            {op, "template-shape", name + ": " + std::move(detail)});
      };
      if (t->code == nullptr || t->size == 0) {
        add("template has a null/empty code block");
        continue;
      }
      if (t->num_patches > 8) {
        add("num_patches " + std::to_string(t->num_patches) +
            " exceeds the descriptor array");
        continue;
      }
      std::vector<std::pair<uint32_t, uint32_t>> fields;
      for (uint8_t i = 0; i < t->num_patches; ++i) {
        uint32_t w = uint32_t(PatchWidth(t->patches[i].kind));
        uint32_t lo = t->patches[i].offset;
        if (lo + w > t->size) {
          add(std::string(PatchKindName(t->patches[i].kind)) +
              " patch at offset " + std::to_string(lo) + " (+" +
              std::to_string(w) + ") overruns the " +
              std::to_string(t->size) + "-byte template");
          continue;
        }
        fields.emplace_back(lo, lo + w);
      }
      std::sort(fields.begin(), fields.end());
      for (size_t i = 1; i < fields.size(); ++i) {
        if (fields[i].first < fields[i - 1].second) {
          add("patch fields overlap at offset " +
              std::to_string(fields[i].first));
        }
      }
    }
  }
  return res;
}

VerifyResult AuditStitch(const BytecodeProgram& prog,
                         const jit::StitchResult& stitched) {
  VerifyResult res;
  auto add = [&](uint32_t pc, const char* inv, std::string detail) {
    res.violations.push_back({pc, inv, std::move(detail)});
  };
  const std::vector<uint8_t>& code = stitched.code;
  size_t n = prog.code.size();
  if (stitched.entry.size() != n) {
    add(kNoPc, "entry-layout",
        "entry table has " + std::to_string(stitched.entry.size()) +
            " pcs, program has " + std::to_string(n));
    return res;
  }

  // Re-derive the stitcher's template selection (deterministic per
  // instruction) and its sort sites: one per sort instruction.
  std::vector<const OpTemplate*> sel(n, nullptr);
  std::vector<uint32_t> site_of(n, kNoEntry);
  uint32_t num_sites = 0;
  for (size_t pc = 0; pc < n; ++pc) {
    sel[pc] = jit::SelectTemplate(prog.code[pc]);
    if (sel[pc] == nullptr) {
      add(static_cast<uint32_t>(pc), "template-missing",
          std::string(BcOpName(static_cast<BcOp>(prog.code[pc].op))) +
              " has no template");
    }
    BcOp op = static_cast<BcOp>(prog.code[pc].op);
    if (op == BcOp::kArrSort || op == BcOp::kListSort) {
      site_of[pc] = num_sites++;
    }
  }
  if (!res.ok()) return res;

  // Independent layout pass; the stitched entry table must match exactly.
  const std::vector<uint8_t>& prologue = PrologueRef();
  size_t off = prologue.size();
  std::vector<uint32_t> want_entry(n, kNoEntry);
  bool has_abort_patch = false;
  for (size_t pc = 0; pc < n; ++pc) {
    want_entry[pc] = static_cast<uint32_t>(off);
    off += sel[pc]->size;
    for (uint8_t i = 0; i < sel[pc]->num_patches; ++i) {
      has_abort_patch |= sel[pc]->patches[i].kind == PatchKind::kJumpAbort;
    }
  }
  for (size_t pc = 0; pc < n; ++pc) {
    if (stitched.entry[pc] != want_entry[pc]) {
      add(static_cast<uint32_t>(pc), "entry-layout",
          "entry offset " + std::to_string(stitched.entry[pc]) +
              " does not match the derived layout (" +
              std::to_string(want_entry[pc]) + ")");
    }
  }
  if (stitched.num_native != static_cast<int>(n)) {
    add(kNoPc, "entry-layout",
        "num_native " + std::to_string(stitched.num_native) +
            " is not the program's " + std::to_string(n) + " pcs");
  }
  if (!res.ok()) return res;  // layout disagreement: bytes are meaningless

  // Branch targets must be instructions; then one abort thunk.
  for (size_t pc = 0; pc < n; ++pc) {
    const OpTemplate& t = *sel[pc];
    const Insn& insn = prog.code[pc];
    for (uint8_t i = 0; i < t.num_patches; ++i) {
      if (t.patches[i].kind != PatchKind::kJumpD) continue;
      int64_t target = int64_t(pc) + 1 + insn.d;
      if (target < 0 || target >= int64_t(n)) {
        add(static_cast<uint32_t>(pc), "jump-fixup",
            "branch target " + std::to_string(target) +
                " is not an instruction index");
      }
    }
  }
  if (has_abort_patch) off += StubSize();
  if (code.size() != off) {
    add(kNoPc, "entry-layout",
        "blob is " + std::to_string(code.size()) +
            " bytes, derived layout needs " + std::to_string(off));
    return res;
  }
  if (std::memcmp(code.data(), prologue.data(), prologue.size()) != 0) {
    add(kNoPc, "entry-layout", "prologue bytes do not match the encoder");
  }
  if (stitched.sort_sites.size() != num_sites) {
    add(kNoPc, "sort-site",
        "sort_sites table has " + std::to_string(stitched.sort_sites.size()) +
            " entries, derived stitch has " + std::to_string(num_sites));
  }
  if (!res.ok()) return res;

  // Byte-level audit of every instruction.
  for (size_t pc = 0; pc < n; ++pc) {
    const OpTemplate& t = *sel[pc];
    const Insn& insn = prog.code[pc];
    BcOp op = static_cast<BcOp>(insn.op);
    size_t at0 = want_entry[pc];
    uint32_t upc = static_cast<uint32_t>(pc);

    // Unpatched template bytes must be byte-identical to the template.
    std::vector<uint8_t> is_field(t.size, 0);
    for (uint8_t i = 0; i < t.num_patches; ++i) {
      uint32_t w = uint32_t(PatchWidth(t.patches[i].kind));
      for (uint32_t b = 0; b < w && t.patches[i].offset + b < t.size; ++b) {
        is_field[t.patches[i].offset + b] = 1;
      }
    }
    for (uint16_t i = 0; i < t.size; ++i) {
      if (!is_field[i] && code[at0 + i] != t.code[i]) {
        add(upc, "patch-value",
            std::string(BcOpName(op)) + ": unpatched template byte at +" +
                std::to_string(i) + " differs from the template");
        break;
      }
    }

    auto want32 = [&](const jit::PatchPoint& p, uint32_t want,
                      const char* what) {
      uint32_t got = Rd32(code, at0 + p.offset);
      if (got != want) {
        add(upc, "patch-value",
            std::string(BcOpName(op)) + " " + PatchKindName(p.kind) + ": " +
                what + " patched as " + std::to_string(got) + ", want " +
                std::to_string(want));
      }
    };
    auto want64 = [&](const jit::PatchPoint& p, uint64_t want,
                      const char* what) {
      uint64_t got = Rd64(code, at0 + p.offset);
      if (got != want) {
        add(upc, "patch-value",
            std::string(BcOpName(op)) + " " + PatchKindName(p.kind) + ": " +
                what + " does not match the program's resolved value");
      }
    };
    auto slot = [&](const jit::PatchPoint& p, uint32_t reg) {
      if (reg >= prog.num_regs) {
        add(upc, "patch-value",
            std::string(BcOpName(op)) + " " + PatchKindName(p.kind) +
                ": register r" + std::to_string(reg) +
                " outside the register file (num_regs " +
                std::to_string(prog.num_regs) + ")");
        return;
      }
      want32(p, reg * 8u, "register-file displacement");
    };

    for (uint8_t i = 0; i < t.num_patches; ++i) {
      const jit::PatchPoint& p = t.patches[i];
      if (p.offset + uint32_t(PatchWidth(p.kind)) > t.size) continue;  // audited
      size_t at = at0 + p.offset;
      switch (p.kind) {
        case PatchKind::kSlotA: slot(p, insn.a); break;
        case PatchKind::kSlotB: slot(p, insn.b); break;
        case PatchKind::kSlotC: slot(p, insn.c); break;
        case PatchKind::kSlotD: slot(p, static_cast<uint32_t>(insn.d)); break;
        case PatchKind::kFieldB: want32(p, insn.b * 8u, "field offset"); break;
        case PatchKind::kFieldC: want32(p, insn.c * 8u, "field offset"); break;
        case PatchKind::kPtrB:
          if (insn.b >= prog.ptrs.size()) {
            add(upc, "patch-value", "kPtrB index outside the pointer pool");
          } else {
            want64(p, reinterpret_cast<uint64_t>(prog.ptrs[insn.b]),
                   "resolved pointer");
          }
          break;
        case PatchKind::kConstB:
          if (insn.b >= prog.consts.size()) {
            add(upc, "patch-value", "kConstB index outside the const pool");
          } else {
            want64(p, static_cast<uint64_t>(prog.consts[insn.b].i),
                   "constant bits");
          }
          break;
        case PatchKind::kExtraA:
          if (insn.a > prog.extra.size()) {
            add(upc, "patch-value", "kExtraA offset outside the extra pool");
          } else {
            want64(p, reinterpret_cast<uint64_t>(prog.extra.data() + insn.a),
                   "extra-pool address");
          }
          break;
        case PatchKind::kExtraB:
          if (insn.b > prog.extra.size()) {
            add(upc, "patch-value", "kExtraB offset outside the extra pool");
          } else {
            want64(p, reinterpret_cast<uint64_t>(prog.extra.data() + insn.b),
                   "extra-pool address");
          }
          break;
        case PatchKind::kImmN: want32(p, insn.n, "operand count"); break;
        case PatchKind::kImmN8:
          want32(p, uint32_t(insn.n) * 8u, "operand byte count");
          break;
        case PatchKind::kImmC: want32(p, insn.c, "immediate c"); break;
        case PatchKind::kImmD:
          want32(p, static_cast<uint32_t>(insn.d), "immediate d");
          break;
        case PatchKind::kGovCnt:
          want32(p, prog.gov_cnt_reg * 8u, "governance countdown slot");
          break;
        case PatchKind::kState:
          slot(p, prog.state_reg);
          break;
        case PatchKind::kTypeB:
          if (insn.b >= prog.types.size()) {
            add(upc, "patch-value", "kTypeB index outside the type pool");
          } else {
            want64(p, reinterpret_cast<uint64_t>(prog.types[insn.b]),
                   "key type");
          }
          break;
        case PatchKind::kParLoopA:
          if (insn.a >= prog.par_loops.size()) {
            add(upc, "patch-value", "kParLoopA index outside par_loops");
          } else {
            want64(p, reinterpret_cast<uint64_t>(&prog.par_loops[insn.a]),
                   "parallel-loop descriptor address");
          }
          break;
        case PatchKind::kPatternC:
          if (insn.c >= prog.patterns.size()) {
            add(upc, "patch-value", "kPatternC index outside the pattern pool");
          } else {
            want64(p, reinterpret_cast<uint64_t>(&prog.patterns[insn.c]),
                   "pattern address");
          }
          break;
        case PatchKind::kSortSite: {
          if (site_of[pc] == kNoEntry ||
              site_of[pc] >= stitched.sort_sites.size()) {
            add(upc, "sort-site",
                "sort without a derived descriptor");
            break;
          }
          const jit::JitSortSite& s = stitched.sort_sites[site_of[pc]];
          want64(p, reinterpret_cast<uint64_t>(&s), "sort-site address");
          auto site_bad = [&](std::string detail) {
            add(upc, "sort-site", std::move(detail));
          };
          if (s.cmp_entry != insn.c || insn.c >= pc) {
            site_bad("descriptor comparator entry " +
                     std::to_string(s.cmp_entry) + " != insn operand " +
                     std::to_string(insn.c) + " or not before the sort");
          }
          if (insn.d < 0 ||
              size_t(uint32_t(insn.d)) + 3 > prog.extra.size()) {
            site_bad("param/result triple outside the extra pool");
          } else if (s.ps != prog.extra.data() + uint32_t(insn.d)) {
            site_bad("descriptor param/result triple does not point at the "
                     "instruction's extra-pool entry");
          }
          if (s.obj_reg != insn.a || s.n_reg != insn.b) {
            site_bad("descriptor registers do not match the instruction");
          }
          if (s.is_list != (op == BcOp::kListSort)) {
            site_bad("descriptor kind does not match the opcode");
          }
          if (s.par_safe != (insn.n != 0)) {
            site_bad("descriptor purity flag does not match the "
                     "instruction's parallel-safe bit");
          }
          if (s.num_regs != prog.num_regs || s.state_reg != prog.state_reg) {
            site_bad("descriptor register-file/governance binding does not "
                     "match the program");
          }
          break;
        }
        case PatchKind::kJumpD: {
          int64_t t64 = int64_t(pc) + 1 + insn.d;
          if (t64 < 0 || t64 >= int64_t(n)) break;  // flagged above
          uint32_t target = static_cast<uint32_t>(t64);
          uint32_t rel = Rd32(code, at);
          size_t dest = size_t(uint32_t(at) + 4u + rel);  // wraps as emitted
          if (dest != want_entry[target]) {
            add(upc, "jump-fixup",
                std::string(BcOpName(op)) + " branch to pc " +
                    std::to_string(target) + " resolves to blob offset " +
                    std::to_string(dest) + ", native entry is at " +
                    std::to_string(want_entry[target]));
          }
          break;
        }
        case PatchKind::kJumpAbort: {
          uint32_t rel = Rd32(code, at);
          size_t dest = size_t(uint32_t(at) + 4u + rel);
          uint32_t imm = 0;
          if (!DecodeStub(code, dest, &imm)) {
            add(upc, "abort-thunk",
                std::string(BcOpName(op)) +
                    " abort branch does not land on an exit stub");
          } else if (imm != 0xFFFFFFFEu) {  // jit::kAbortPc (engine.h)
            add(upc, "abort-thunk",
                "abort thunk returns pc " + std::to_string(imm) +
                    ", want the kAbortPc sentinel");
          }
          break;
        }
      }
    }

  }
  return res;
}

VerifyResult AuditWx(const void* base, size_t size) {
  VerifyResult res;
#if defined(__linux__)
  if (base == nullptr || size == 0) return res;
  std::FILE* f = std::fopen("/proc/self/maps", "r");
  if (f == nullptr) return res;  // unverifiable here; not a violation
  uintptr_t lo = reinterpret_cast<uintptr_t>(base);
  uintptr_t hi = lo + size;
  bool found = false;
  char line[512];
  while (std::fgets(line, sizeof line, f) != nullptr) {
    uintptr_t mlo = 0;
    uintptr_t mhi = 0;
    char perms[8] = {0};
    if (std::sscanf(line, "%" SCNxPTR "-%" SCNxPTR " %7s", &mlo, &mhi,
                    perms) != 3) {
      continue;
    }
    if (mlo >= hi || mhi <= lo) continue;
    found = true;
    bool writable = std::strchr(perms, 'w') != nullptr;
    bool executable = std::strchr(perms, 'x') != nullptr;
    bool readable = std::strchr(perms, 'r') != nullptr;
    if (writable || !executable || !readable) {
      res.violations.push_back(
          {kNoPc, "wx-policy",
           std::string("installed code mapping has permissions '") + perms +
               "', want r-x (never writable)"});
    }
  }
  std::fclose(f);
  if (!found) {
    res.violations.push_back(
        {kNoPc, "wx-policy",
         "installed code range not found in /proc/self/maps"});
  }
#else
  (void)base;
  (void)size;
#endif
  return res;
}

}  // namespace qc::exec::analysis
