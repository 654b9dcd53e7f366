// Lint fixture: lane arithmetic that violates rule D5 — a fused
// multiply-add, spelled as an intrinsic, as std::fma and through a target
// attribute that lets the compiler contract on its own. Each rounds a
// product and a sum once where the scalar expression rounds twice.
#pragma once

#include <immintrin.h>

#include <cmath>

namespace fixture {

__attribute__((target("avx2,fma"))) inline __m256d fused_step(__m256d p, __m256d k,
                                                              __m256d h) {
  return _mm256_fmadd_pd(k, h, p);
}

inline double fused_scalar_step(double p, double k, double h) { return std::fma(k, h, p); }

}  // namespace fixture
