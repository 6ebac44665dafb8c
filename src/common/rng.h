// Deterministic PRNG for the synthetic TPC-H generator. xorshift128+ keeps
// generation fast and reproducible across platforms (std::mt19937 would also
// work but distributions are not portable across standard libraries).
#ifndef QC_COMMON_RNG_H_
#define QC_COMMON_RNG_H_

#include <cstdint>

#include "common/scalar_ops.h"

namespace qc {

class Rng {
 public:
  explicit Rng(uint64_t seed = 42) {
    s0_ = HashMix(seed);
    s1_ = HashMix(seed + kHashGamma);
  }

  uint64_t Next() {
    uint64_t x = s0_;
    uint64_t y = s1_;
    s0_ = y;
    x ^= x << 23;
    s1_ = x ^ y ^ (x >> 17) ^ (y >> 26);
    return s1_ + y;
  }

  // Uniform integer in [lo, hi] inclusive.
  int64_t Uniform(int64_t lo, int64_t hi) {
    return lo + static_cast<int64_t>(Next() % static_cast<uint64_t>(
                                                  hi - lo + 1));
  }

  // Uniform double in [lo, hi).
  double UniformDouble(double lo, double hi) {
    return lo + (hi - lo) * (Next() >> 11) * (1.0 / 9007199254740992.0);
  }

 private:
  uint64_t s0_, s1_;
};

}  // namespace qc

#endif  // QC_COMMON_RNG_H_
