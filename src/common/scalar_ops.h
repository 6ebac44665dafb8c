// The scalar runtime ops, each defined once for every backend: the Volcano
// oracle, the runtime hash tables, the VM and the JIT (through the
// exec/bytecode.h ops:: wrappers) and the generated C (through
// cgen/qc_runtime.h). C standard headers only and every op inline, so each
// generated program compiles no slower and gcc still inlines the ops.
#ifndef QC_COMMON_SCALAR_OPS_H_
#define QC_COMMON_SCALAR_OPS_H_

#include <cstddef>
#include <cstdint>
#include <cstring>

namespace qc {

// splitmix64's increment and multipliers, which the JIT's inline
// hash-probe template (src/jit/templates.cc) encodes too.
constexpr uint64_t kHashGamma = 0x9e3779b97f4a7c15ULL;
constexpr uint64_t kHashMul1 = 0xbf58476d1ce4e5b9ULL;
constexpr uint64_t kHashMul2 = 0x94d049bb133111ebULL;

// 64-bit mix (splitmix64 finalizer) — cheap and well distributed. constexpr
// so the JIT template, which hard-codes this sequence in machine code, can
// static_assert it has not drifted.
constexpr uint64_t HashMix(uint64_t x) {
  x += kHashGamma;
  x = (x ^ (x >> 30)) * kHashMul1;
  x = (x ^ (x >> 27)) * kHashMul2;
  return x ^ (x >> 31);
}

inline uint64_t HashCombine(uint64_t seed, uint64_t v) {
  return HashMix(seed ^ (v + kHashGamma + (seed << 6) + (seed >> 2)));
}

// A record key's hash is HashCombine over its fields, from this seed.
constexpr uint64_t kRecordHashSeed = 0x42;

// FNV-1a over bytes, for string keys.
inline uint64_t HashBytes(const void* data, size_t len) {
  const unsigned char* p = static_cast<const unsigned char*>(data);
  uint64_t h = 1469598103934665603ULL;
  for (size_t i = 0; i < len; ++i) {
    h ^= p[i];
    h *= 1099511628211ULL;
  }
  return h;
}

inline uint64_t HashCStr(const char* s) { return HashBytes(s, std::strlen(s)); }

inline bool StrStartsWith(const char* s, const char* prefix) {
  return std::strncmp(s, prefix, std::strlen(prefix)) == 0;
}

inline bool StrEndsWith(const char* s, const char* suffix) {
  size_t ls = std::strlen(s), lx = std::strlen(suffix);
  return ls >= lx && std::memcmp(s + ls - lx, suffix, lx) == 0;
}

inline bool StrContains(const char* s, const char* infix) {
  return std::strstr(s, infix) != nullptr;
}

// One literal segment of a LIKE pattern, NUL-terminated.
struct LikeSeg {
  const char* text;
  size_t len;
};

// SQL LIKE with '%' wildcards only (no '_') over a pattern already split on
// '%' into n >= 1 segments (common/str.h SplitLike): the first segment is
// anchored at the start, the last at the end, and the middle ones appear in
// order without overlapping.
inline bool StrLikeSegs(const char* s, const LikeSeg* segs, size_t n) {
  if (n == 1) return std::strcmp(s, segs[0].text) == 0;
  if (std::strncmp(s, segs[0].text, segs[0].len) != 0) return false;
  const char* pos = s + segs[0].len;
  for (size_t i = 1; i + 1 < n; ++i) {
    if (segs[i].len == 0) continue;
    const char* found = std::strstr(pos, segs[i].text);
    if (found == nullptr) return false;
    pos = found + segs[i].len;
  }
  const LikeSeg& last = segs[n - 1];
  if (last.len == 0) return true;
  size_t rest = std::strlen(pos);
  return rest >= last.len &&
         std::memcmp(pos + rest - last.len, last.text, last.len) == 0;
}

// SUBSTR's bounds: s[start, start + count) clamped to the string. Stores the
// clamped start in *from and returns the byte count. A negative count
// converts to a huge size_t, so it reads as "to the end".
inline size_t SubstrClamp(const char* s, size_t start, size_t count,
                          size_t* from) {
  size_t len = std::strlen(s);
  *from = start < len ? start : len;
  return count < len - *from ? count : len - *from;
}

}  // namespace qc

#endif  // QC_COMMON_SCALAR_OPS_H_
