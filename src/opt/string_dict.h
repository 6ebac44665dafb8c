// String dictionaries (§5.3, Table 2): string operations against constants
// on dictionary-eligible columns become integer operations on
// order-preserving dictionary codes built at load time:
//
//     equals      strcmp(x,y)==0             ->  x == code
//     notEquals   strcmp(x,y)!=0             ->  x != code
//     lessThan    strcmp(x,y)<0              ->  x <  code   (ordered dict)
//     startsWith  strncmp(x,y,strlen(y))==0  ->  lo <= x && x <= hi
//
// Additionally, string components of hash *keys* (group-by key records) are
// replaced by their dictionary codes, which both removes strcmp/hashing from
// the per-row path and gives the keys a small known range — unlocking
// direct-addressed aggregation in the hash-specialization pass (the Q1
// partitioning effect). Output values (kEmit arguments, record fields used
// for output) are untouched, so results still carry real strings.
//
// Following §5.3's caveat, columns with too many distinct values (comments,
// names, addresses) are not eligible: the dictionary would be large and the
// load-time cost unjustified.
#ifndef QC_OPT_STRING_DICT_H_
#define QC_OPT_STRING_DICT_H_

#include <cstdint>
#include <memory>

#include "ir/stmt.h"
#include "storage/database.h"

namespace qc::opt {

// Columns with more distinct values than this are left alone.
constexpr int64_t kDictMaxDistinct = 1024;

std::unique_ptr<ir::Function> ApplyStringDictionaries(const ir::Function& fn,
                                                      storage::Database* db);

}  // namespace qc::opt

#endif  // QC_OPT_STRING_DICT_H_
