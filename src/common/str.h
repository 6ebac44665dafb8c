// SQL LIKE's pattern split. LIKE is restricted to the '%'-wildcard patterns
// TPC-H uses (prefix, suffix, infix, and %a%b%-style containment); its
// matching core StrLikeSegs and the other string predicates are
// common/scalar_ops.h's, the one definition the engines and the C share.
#ifndef QC_COMMON_STR_H_
#define QC_COMMON_STR_H_

#include <string>
#include <string_view>
#include <vector>

#include "common/scalar_ops.h"

namespace qc {

// Splits a '%'-pattern into its literal segments. Callers that can split
// once (the bytecode compiler at compile time, the C emitter at generation
// time) pass the segments to StrLikeSegs themselves.
std::vector<std::string> SplitLike(std::string_view pattern);

// Matches SQL LIKE with '%' wildcards only (no '_') against the
// NUL-terminated `s`: SplitLike + StrLikeSegs.
bool StrLike(const char* s, std::string_view pattern);

}  // namespace qc

#endif  // QC_COMMON_STR_H_
