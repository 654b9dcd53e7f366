// Lint fixture: lane arithmetic that follows rule D5. The product and the
// sum round separately, as in the scalar expression; "fma" may appear in
// comments and in CPU-feature strings, which D5 does not read as a use.
#pragma once

#include <immintrin.h>

namespace fixture {

__attribute__((target("avx2"))) inline __m256d unfused_step(__m256d p, __m256d k,
                                                            __m256d h) {
  return _mm256_add_pd(p, _mm256_mul_pd(k, h));  // not _mm256_fmadd_pd
}

inline bool host_has_fma() { return __builtin_cpu_supports("fma"); }

}  // namespace fixture
