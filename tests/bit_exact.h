// Shared oracle helpers for the engine-agreement suites: the engine matrix
// they iterate, bit-exact result equality, and exact AllocStats equality
// (the Figure 8 accounting must not depend on engine or thread count).
#ifndef QC_TESTS_BIT_EXACT_H_
#define QC_TESTS_BIT_EXACT_H_

#include <gtest/gtest.h>

#include <string>

#include "exec/interp.h"
#include "exec/runtime.h"
#include "storage/result.h"

namespace qc {

inline constexpr exec::InterpOptions::Engine kEngines[] = {
    exec::InterpOptions::Engine::kBytecode, exec::InterpOptions::Engine::kJit};

inline const char* EngineName(exec::InterpOptions::Engine e) {
  return e == exec::InterpOptions::Engine::kJit ? "jit" : "bytecode";
}

// Bit-exact, position-exact equality. Doubles are compared on their bit
// patterns (via the .i view of the slot union), so even sign-of-zero or
// summation-order differences are caught.
inline void ExpectBitExact(const storage::ResultTable& got,
                           const storage::ResultTable& want,
                           const std::string& tag) {
  ASSERT_EQ(got.size(), want.size()) << tag << ": row count";
  ASSERT_EQ(got.types().size(), want.types().size()) << tag << ": arity";
  for (size_t r = 0; r < got.size(); ++r) {
    for (size_t c = 0; c < got.types().size(); ++c) {
      if (got.types()[c] == storage::ColType::kStr) {
        ASSERT_STREQ(got.row(r)[c].s, want.row(r)[c].s)
            << tag << ": row " << r << " col " << c;
      } else {
        ASSERT_EQ(got.row(r)[c].i, want.row(r)[c].i)
            << tag << ": row " << r << " col " << c;
      }
    }
  }
}

inline void ExpectStatsEqual(const exec::AllocStats& got,
                             const exec::AllocStats& want,
                             const std::string& tag) {
  EXPECT_EQ(got.heap_bytes, want.heap_bytes) << tag << ": heap_bytes";
  EXPECT_EQ(got.heap_allocs, want.heap_allocs) << tag << ": heap_allocs";
  EXPECT_EQ(got.pool_bytes, want.pool_bytes) << tag << ": pool_bytes";
  EXPECT_EQ(got.vector_bytes, want.vector_bytes) << tag << ": vector_bytes";
}

}  // namespace qc

#endif  // QC_TESTS_BIT_EXACT_H_
