// Data-structure specialization (§5.2, Appendix B): the lowering out of
// ScaLite[Map, List].
//
// HashMaps (aggregation): when the grouping key has a statically known,
// small range (value-range analysis over catalog statistics — single
// integral keys, or key records whose integral/dictionary-coded components
// all have known ranges), the hash table becomes a direct-addressed array of
// aggregation records indexed by (key - lo), or by the linearized composite
// index sum_i (k_i - lo_i) * stride_i. No hashing, no collision chains, no
// per-entry nodes.
//
// MultiMaps (hash join): with a single integral build key of known range,
// the multimap becomes a bucket array indexed the same way. Buckets are
// either generic Lists (4-level stack) or — with `intrusive_lists`, the
// ScaLite[List] -> ScaLite list specialization of §4.4 — intrusive linked
// lists threaded through a `next` pointer appended to the build records,
// removing the separate bucket allocations entirely (Fig. 4f).
//
// Structures that do not qualify (string or unbounded keys) keep their
// generic implementation and are later marked as library calls.
#ifndef QC_OPT_HASH_SPEC_H_
#define QC_OPT_HASH_SPEC_H_

#include <cstdint>
#include <memory>

#include "ir/stmt.h"
#include "storage/database.h"

namespace qc::opt {

// Largest direct-addressed table (slots) we are willing to allocate; the
// paper trades memory aggressively for speed (B.1), this is the cap.
constexpr uint64_t kHashSpecMaxSlots = 1ull << 22;

// `intrusive_lists`: also specialize bucket Lists into intrusive linked
// lists (level 5).
std::unique_ptr<ir::Function> SpecializeHashStructures(
    const ir::Function& fn, storage::Database* db,
    bool intrusive_lists = false);

}  // namespace qc::opt

#endif  // QC_OPT_HASH_SPEC_H_
