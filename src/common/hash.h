// HashString over a std::string_view, for host-side keys such as the C
// compiler driver's binary cache. The hash ops themselves are
// common/scalar_ops.h's, shared with the runtime and the generated C.
#ifndef QC_COMMON_HASH_H_
#define QC_COMMON_HASH_H_

#include <cstdint>
#include <string_view>

#include "common/scalar_ops.h"

namespace qc {

inline uint64_t HashString(std::string_view s) {
  return HashBytes(s.data(), s.size());
}

}  // namespace qc

#endif  // QC_COMMON_HASH_H_
