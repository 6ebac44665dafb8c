// String predicates used by the query runtime. SQL LIKE is restricted to the
// '%'-wildcard patterns TPC-H uses (prefix, suffix, infix, and
// %a%b%-style multi-segment containment).
#ifndef QC_COMMON_STR_H_
#define QC_COMMON_STR_H_

#include <string>
#include <string_view>
#include <vector>

namespace qc {

bool StrStartsWith(std::string_view s, std::string_view prefix);
bool StrEndsWith(std::string_view s, std::string_view suffix);
bool StrContains(std::string_view s, std::string_view infix);

// Matches SQL LIKE with '%' wildcards only (no '_') against the
// NUL-terminated `s`: the pattern is split on '%' and segments must appear
// in order, anchored at the ends when the pattern does not start/end with
// '%'.
bool StrLike(const char* s, std::string_view pattern);

// Splits a '%'-pattern into its literal segments.
std::vector<std::string> SplitLike(std::string_view pattern);

// The matching core over already-split segments — StrLike is
// SplitLike + this. Callers that can split once (the bytecode compiler
// splits each pattern at compile time) use it directly, so the two paths
// cannot diverge. The algorithm is the generated C's qc_str_like
// (cgen/qc_runtime.h): strncmp for the anchored prefix, strstr for each
// middle segment, one strlen and memcmp for the anchored suffix.
bool StrLikeSegs(const char* s, const std::vector<std::string>& segs);

}  // namespace qc

#endif  // QC_COMMON_STR_H_
