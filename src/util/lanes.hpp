// Lane arithmetic on doubles for the lane-parallel genP paths: the bent-spot
// streamline march (particles/tracer.hpp) and the analytic fields'
// sample_lanes (field/analytic.cpp).
//
// One interface, two implementations:
//   * Scalar<N> — N lanes of plain C++, one IEEE operation per lane per
//     operator. Scalar<4> is the scalar tier; Scalar<1> is the one-lane
//     march behind single-spot calls.
//   * Avx2x4 — the same four lanes in one __m256d register per operation,
//     compiled with the per-function target("avx2") attribute (never FMA,
//     so the binary still boots on SSE2-only hosts and no product/sum pair
//     is ever fused).
// Plain doubles join in through the free functions below, so a field
// writes its velocity expression once, as a template over the lane type.
//
// Determinism contract: each lane performs exactly the scalar expression's
// operations in the same order. IEEE add, sub, mul, div and sqrt are
// correctly rounded in both implementations; comparisons keep the C++
// operators' NaN behaviour (ordered <, <=, >=; unordered !=);
// select() is a per-lane choice, not min/max; negation flips the sign bit.
// So every lane is bit-identical to the scalar expression.
//
// Calling convention: both types keep their lanes in a plain double array,
// which makes them memory-class aggregates that pass the same way in
// default-target and avx2-target code. Generic templates therefore compile
// once without a target attribute, and only the AVX2 entry point of a path
// carries target("avx2") plus flatten, which inlines the whole chain into
// AVX2 code. (A raw __m256d crossing a default-target function would change
// the calling convention between caller and callee.)
#pragma once

#include <cmath>
#include <cstdint>

#if defined(__x86_64__)
#include <immintrin.h>
#endif

namespace dcsn::util::lanes {

// ------------------------------------------------------------ one lane ---

[[nodiscard]] inline double sqrt(double a) { return std::sqrt(a); }
[[nodiscard]] inline double select(bool m, double a, double b) { return m ? a : b; }

// ------------------------------------------------------------ Scalar<N> ---

template <int N>
struct ScalarMask {
  bool m[N];

  [[nodiscard]] static ScalarMask from_bits(std::uint32_t bits) {
    ScalarMask r;
    for (int i = 0; i < N; ++i) r.m[i] = ((bits >> i) & 1u) != 0;
    return r;
  }
  /// Bit i set when lane i is set.
  [[nodiscard]] std::uint32_t bits() const {
    std::uint32_t b = 0;
    for (int i = 0; i < N; ++i) b |= static_cast<std::uint32_t>(m[i]) << i;
    return b;
  }
};

template <int N>
struct Scalar {
  static constexpr int kWidth = N;
  using Mask = ScalarMask<N>;

  double v[N];

  Scalar() = default;
  explicit Scalar(double s) {
    for (double& x : v) x = s;
  }
  [[nodiscard]] static Scalar load(const double* p) {
    Scalar r;
    for (int i = 0; i < N; ++i) r.v[i] = p[i];
    return r;
  }
  void store(double* p) const {
    for (int i = 0; i < N; ++i) p[i] = v[i];
  }
};

namespace detail {
template <int N, class Op>
[[nodiscard]] Scalar<N> zip(const Scalar<N>& a, const Scalar<N>& b, Op op) {
  Scalar<N> r;
  for (int i = 0; i < N; ++i) r.v[i] = op(a.v[i], b.v[i]);
  return r;
}
template <int N, class Op>
[[nodiscard]] ScalarMask<N> compare(const Scalar<N>& a, const Scalar<N>& b, Op op) {
  ScalarMask<N> r;
  for (int i = 0; i < N; ++i) r.m[i] = op(a.v[i], b.v[i]);
  return r;
}
}  // namespace detail

template <int N>
[[nodiscard]] Scalar<N> operator+(const Scalar<N>& a, const Scalar<N>& b) {
  return detail::zip(a, b, [](double x, double y) { return x + y; });
}
template <int N>
[[nodiscard]] Scalar<N> operator-(const Scalar<N>& a, const Scalar<N>& b) {
  return detail::zip(a, b, [](double x, double y) { return x - y; });
}
template <int N>
[[nodiscard]] Scalar<N> operator*(const Scalar<N>& a, const Scalar<N>& b) {
  return detail::zip(a, b, [](double x, double y) { return x * y; });
}
template <int N>
[[nodiscard]] Scalar<N> operator/(const Scalar<N>& a, const Scalar<N>& b) {
  return detail::zip(a, b, [](double x, double y) { return x / y; });
}
template <int N>
[[nodiscard]] Scalar<N> operator-(const Scalar<N>& a) {
  Scalar<N> r;
  for (int i = 0; i < N; ++i) r.v[i] = -a.v[i];
  return r;
}
template <int N>
[[nodiscard]] ScalarMask<N> operator<(const Scalar<N>& a, const Scalar<N>& b) {
  return detail::compare(a, b, [](double x, double y) { return x < y; });
}
template <int N>
[[nodiscard]] ScalarMask<N> operator<=(const Scalar<N>& a, const Scalar<N>& b) {
  return detail::compare(a, b, [](double x, double y) { return x <= y; });
}
template <int N>
[[nodiscard]] ScalarMask<N> operator>=(const Scalar<N>& a, const Scalar<N>& b) {
  return detail::compare(a, b, [](double x, double y) { return x >= y; });
}
template <int N>
[[nodiscard]] ScalarMask<N> operator!=(const Scalar<N>& a, const Scalar<N>& b) {
  return detail::compare(a, b, [](double x, double y) { return x != y; });
}
template <int N>
[[nodiscard]] ScalarMask<N> operator&(const ScalarMask<N>& a, const ScalarMask<N>& b) {
  ScalarMask<N> r;
  for (int i = 0; i < N; ++i) r.m[i] = a.m[i] && b.m[i];
  return r;
}
template <int N>
[[nodiscard]] Scalar<N> sqrt(const Scalar<N>& a) {
  Scalar<N> r;
  for (int i = 0; i < N; ++i) r.v[i] = std::sqrt(a.v[i]);
  return r;
}
/// a where `m` is set, else b, lane by lane.
template <int N>
[[nodiscard]] Scalar<N> select(const ScalarMask<N>& m, const Scalar<N>& a,
                               const Scalar<N>& b) {
  Scalar<N> r;
  for (int i = 0; i < N; ++i) r.v[i] = m.m[i] ? a.v[i] : b.v[i];
  return r;
}

// --------------------------------------------------------------- Avx2x4 ---

#if defined(__x86_64__)
#define DCSN_LANES_AVX2 __attribute__((target("avx2")))

struct Avx2Mask {
  double m[4];  ///< all-ones or all-zero lanes, as vcmppd leaves them

  DCSN_LANES_AVX2 explicit Avx2Mask(__m256d r) { _mm256_storeu_pd(m, r); }
  [[nodiscard]] DCSN_LANES_AVX2 __m256d reg() const { return _mm256_loadu_pd(m); }

  [[nodiscard]] DCSN_LANES_AVX2 static Avx2Mask from_bits(std::uint32_t bits) {
    const __m256i lane_bit = _mm256_setr_epi64x(1, 2, 4, 8);
    const __m256i hit = _mm256_and_si256(_mm256_set1_epi64x(bits), lane_bit);
    return Avx2Mask(_mm256_castsi256_pd(_mm256_cmpeq_epi64(hit, lane_bit)));
  }
  [[nodiscard]] DCSN_LANES_AVX2 std::uint32_t bits() const {
    return static_cast<std::uint32_t>(_mm256_movemask_pd(reg()));
  }
};

struct Avx2x4 {
  static constexpr int kWidth = 4;
  using Mask = Avx2Mask;

  double v[4];

  Avx2x4() = default;
  DCSN_LANES_AVX2 explicit Avx2x4(double s) { _mm256_storeu_pd(v, _mm256_set1_pd(s)); }
  DCSN_LANES_AVX2 explicit Avx2x4(__m256d r) { _mm256_storeu_pd(v, r); }
  [[nodiscard]] DCSN_LANES_AVX2 __m256d reg() const { return _mm256_loadu_pd(v); }

  [[nodiscard]] DCSN_LANES_AVX2 static Avx2x4 load(const double* p) {
    return Avx2x4(_mm256_loadu_pd(p));
  }
  DCSN_LANES_AVX2 void store(double* p) const { _mm256_storeu_pd(p, reg()); }
};

[[nodiscard]] DCSN_LANES_AVX2 inline Avx2x4 operator+(const Avx2x4& a, const Avx2x4& b) {
  return Avx2x4(_mm256_add_pd(a.reg(), b.reg()));
}
[[nodiscard]] DCSN_LANES_AVX2 inline Avx2x4 operator-(const Avx2x4& a, const Avx2x4& b) {
  return Avx2x4(_mm256_sub_pd(a.reg(), b.reg()));
}
[[nodiscard]] DCSN_LANES_AVX2 inline Avx2x4 operator*(const Avx2x4& a, const Avx2x4& b) {
  return Avx2x4(_mm256_mul_pd(a.reg(), b.reg()));
}
[[nodiscard]] DCSN_LANES_AVX2 inline Avx2x4 operator/(const Avx2x4& a, const Avx2x4& b) {
  return Avx2x4(_mm256_div_pd(a.reg(), b.reg()));
}
[[nodiscard]] DCSN_LANES_AVX2 inline Avx2x4 operator-(const Avx2x4& a) {
  return Avx2x4(_mm256_xor_pd(a.reg(), _mm256_set1_pd(-0.0)));
}
[[nodiscard]] DCSN_LANES_AVX2 inline Avx2Mask operator<(const Avx2x4& a,
                                                       const Avx2x4& b) {
  return Avx2Mask(_mm256_cmp_pd(a.reg(), b.reg(), _CMP_LT_OQ));
}
[[nodiscard]] DCSN_LANES_AVX2 inline Avx2Mask operator<=(const Avx2x4& a,
                                                       const Avx2x4& b) {
  return Avx2Mask(_mm256_cmp_pd(a.reg(), b.reg(), _CMP_LE_OQ));
}
[[nodiscard]] DCSN_LANES_AVX2 inline Avx2Mask operator>=(const Avx2x4& a,
                                                       const Avx2x4& b) {
  return Avx2Mask(_mm256_cmp_pd(a.reg(), b.reg(), _CMP_GE_OQ));
}
[[nodiscard]] DCSN_LANES_AVX2 inline Avx2Mask operator!=(const Avx2x4& a,
                                                       const Avx2x4& b) {
  return Avx2Mask(_mm256_cmp_pd(a.reg(), b.reg(), _CMP_NEQ_UQ));
}
[[nodiscard]] DCSN_LANES_AVX2 inline Avx2Mask operator&(const Avx2Mask& a,
                                                      const Avx2Mask& b) {
  return Avx2Mask(_mm256_and_pd(a.reg(), b.reg()));
}
[[nodiscard]] DCSN_LANES_AVX2 inline Avx2x4 sqrt(const Avx2x4& a) {
  return Avx2x4(_mm256_sqrt_pd(a.reg()));
}
[[nodiscard]] DCSN_LANES_AVX2 inline Avx2x4 select(const Avx2Mask& m, const Avx2x4& a,
                                                   const Avx2x4& b) {
  return Avx2x4(_mm256_blendv_pd(b.reg(), a.reg(), m.reg()));
}

#undef DCSN_LANES_AVX2

/// The attribute of a lane path's AVX2 entry point: a function that
/// instantiates the path's generic template with Avx2x4. flatten inlines the
/// whole call chain into it, so the generic code runs as AVX2 code.
#define DCSN_LANES_AVX2_ENTRY __attribute__((target("avx2"), flatten))
#endif  // __x86_64__

}  // namespace dcsn::util::lanes
