// Lane arithmetic for the lane-parallel paths: doubles for genP (the
// bent-spot streamline march in particles/tracer.hpp and the analytic
// fields' sample_lanes in field/analytic.cpp) and for the rasterizer's UV
// constants, floats for the rasterizer's triangle setup and row solve
// (render/rasterizer.cpp).
//
// One interface per element type, two implementations each:
//   * Scalar<N> — N double lanes of plain C++, one IEEE operation per lane
//     per operator. Scalar<4> is the scalar tier; Scalar<1> is the one-lane
//     march behind single-spot calls.
//   * Avx2x4 — the same four double lanes in one __m256d register per
//     operation.
//   * Vec8f — eight float lanes as two 4-lane GCC/Clang vectors: 128-bit
//     code on the default target (SSE2 on x86-64, the scalar and SSE2
//     tiers). A single 8-lane generic vector would be split element by
//     element there.
//   * Avx2x8f — the same eight float lanes in one __m256 register.
// The Avx2 types are compiled with the per-function target("avx2")
// attribute (never FMA, so the binary still boots on SSE2-only hosts and no
// product/sum pair is ever fused).
// Plain doubles join in through the free functions below, so a field
// writes its velocity expression once, as a template over the lane type.
//
// Determinism contract: each lane performs exactly the scalar expression's
// operations in the same order. IEEE add, sub, mul, div and sqrt are
// correctly rounded in every implementation; comparisons keep the C++
// operators' NaN behaviour (ordered <, <=, >, >=, ==; unordered !=);
// select() is a per-lane choice, not min/max; negation flips the sign bit;
// floor() and ceil() are exact for every input but may return +0.0 where
// std::floor/std::ceil return -0.0. So every lane is bit-identical to the
// scalar expression.
//
// Calling convention: the Scalar and Avx2 types keep their lanes in a plain
// array, which makes them memory-class aggregates that pass the same way in
// default-target and avx2-target code (Vec8f, two 16-byte vectors, passes
// in memory on both as well). Generic templates therefore compile once
// without a target attribute, and only the AVX2 entry point of a path
// carries target("avx2") plus flatten, which inlines the whole chain into
// AVX2 code. (A raw __m256d crossing a default-target function would change
// the calling convention between caller and callee.)
#pragma once

#include <cmath>
#include <cstdint>
#include <cstring>

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
  /// Widens N floats; float -> double is exact.
  [[nodiscard]] static Scalar load(const float* p) {
    Scalar r;
    for (int i = 0; i < N; ++i) r.v[i] = static_cast<double>(p[i]);
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

// --------------------------------------------------------------- Vec8f ---

using Lane4f = float __attribute__((vector_size(16)));
using Lane4i = std::int32_t __attribute__((vector_size(16)));

/// Eight lanes of all-ones or all-zero bits (what a vector compare leaves),
/// or of one raw 32-bit pattern (raw()), for bit arithmetic.
struct Vec8fMask {
  Lane4i lo, hi;

  [[nodiscard]] static Vec8fMask from_bits(std::uint32_t bits) {
    const Lane4i lane_lo{1, 2, 4, 8};
    const Lane4i lane_hi{16, 32, 64, 128};
    const auto b = static_cast<std::int32_t>(bits);
    return {((Lane4i{} + b) & lane_lo) == lane_lo, ((Lane4i{} + b) & lane_hi) == lane_hi};
  }
  /// Every lane holds `pattern`.
  [[nodiscard]] static Vec8fMask raw(std::uint32_t pattern) {
    const Lane4i p = Lane4i{} + static_cast<std::int32_t>(pattern);
    return {p, p};
  }
  /// Bit i set when lane i is set.
  [[nodiscard]] std::uint32_t bits() const {
#if defined(__x86_64__)
    return static_cast<std::uint32_t>(_mm_movemask_ps(reinterpret_cast<__m128>(lo)) |
                                      (_mm_movemask_ps(reinterpret_cast<__m128>(hi)) << 4));
#else
    std::uint32_t b = 0;
    for (int i = 0; i < 4; ++i) {
      b |= static_cast<std::uint32_t>(lo[i] < 0) << i;
      b |= static_cast<std::uint32_t>(hi[i] < 0) << (i + 4);
    }
    return b;
#endif
  }
  /// The lanes' raw 32-bit patterns.
  void store_raw(std::uint32_t* p) const {
    std::memcpy(p, &lo, sizeof lo);
    std::memcpy(p + 4, &hi, sizeof hi);
  }
};

[[nodiscard]] inline Vec8fMask operator&(const Vec8fMask& a, const Vec8fMask& b) {
  return {a.lo & b.lo, a.hi & b.hi};
}
[[nodiscard]] inline Vec8fMask operator|(const Vec8fMask& a, const Vec8fMask& b) {
  return {a.lo | b.lo, a.hi | b.hi};
}

struct Vec8f {
  static constexpr int kWidth = 8;
  using Mask = Vec8fMask;

  Lane4f lo, hi;

  Vec8f() = default;
  Vec8f(Lane4f l, Lane4f h) : lo(l), hi(h) {}
  explicit Vec8f(float s) : lo(Lane4f{} + s), hi(Lane4f{} + s) {}
  [[nodiscard]] static Vec8f load(const float* p) {
    Vec8f r;
    std::memcpy(&r.lo, p, sizeof r.lo);
    std::memcpy(&r.hi, p + 4, sizeof r.hi);
    return r;
  }
  /// Lane i holds float(base + i), converted from the exact int sum.
  [[nodiscard]] static Vec8f ramp(std::int32_t base) {
    const Lane4i b = Lane4i{} + base;
    return {__builtin_convertvector(b + Lane4i{0, 1, 2, 3}, Lane4f),
            __builtin_convertvector(b + Lane4i{4, 5, 6, 7}, Lane4f)};
  }
  void store(float* p) const {
    std::memcpy(p, &lo, sizeof lo);
    std::memcpy(p + 4, &hi, sizeof hi);
  }
  /// Truncating conversion. Precondition: every lane is integral-valued or
  /// at least in int32 range (the conversion of other values is undefined).
  void store_int(std::int32_t* p) const {
    const Lane4i l = __builtin_convertvector(lo, Lane4i);
    const Lane4i h = __builtin_convertvector(hi, Lane4i);
    std::memcpy(p, &l, sizeof l);
    std::memcpy(p + 4, &h, sizeof h);
  }
};

namespace detail {
// floor (up = false) or ceil (up = true) of four lanes: through the int
// conversion below 2^23, where it is exact; at or above 2^23 every float is
// integral already, and NaN fails the range test and passes through.
[[nodiscard]] inline Lane4f round4(Lane4f x, bool up) {
  const Lane4f big = Lane4f{} + 8388608.0f;
  const Lane4i small = (x < big) & (x > -big);
  const Lane4f xs = reinterpret_cast<Lane4f>(reinterpret_cast<Lane4i>(x) & small);
  const Lane4f t = __builtin_convertvector(__builtin_convertvector(xs, Lane4i), Lane4f);
  const Lane4i off = up ? (xs > t) : (xs < t);
  // off is -1 (all ones) where the truncation went the wrong way.
  const Lane4f r = up ? t - __builtin_convertvector(off, Lane4f)
                      : t + __builtin_convertvector(off, Lane4f);
  return reinterpret_cast<Lane4f>((reinterpret_cast<Lane4i>(r) & small) |
                                  (reinterpret_cast<Lane4i>(x) & ~small));
}
}  // namespace detail

[[nodiscard]] inline Vec8f operator+(const Vec8f& a, const Vec8f& b) {
  return {a.lo + b.lo, a.hi + b.hi};
}
[[nodiscard]] inline Vec8f operator-(const Vec8f& a, const Vec8f& b) {
  return {a.lo - b.lo, a.hi - b.hi};
}
[[nodiscard]] inline Vec8f operator*(const Vec8f& a, const Vec8f& b) {
  return {a.lo * b.lo, a.hi * b.hi};
}
[[nodiscard]] inline Vec8f operator/(const Vec8f& a, const Vec8f& b) {
  return {a.lo / b.lo, a.hi / b.hi};
}
[[nodiscard]] inline Vec8f operator-(const Vec8f& a) { return {-a.lo, -a.hi}; }
[[nodiscard]] inline Vec8fMask operator<(const Vec8f& a, const Vec8f& b) {
  return {a.lo < b.lo, a.hi < b.hi};
}
[[nodiscard]] inline Vec8fMask operator<=(const Vec8f& a, const Vec8f& b) {
  return {a.lo <= b.lo, a.hi <= b.hi};
}
[[nodiscard]] inline Vec8fMask operator>(const Vec8f& a, const Vec8f& b) {
  return {a.lo > b.lo, a.hi > b.hi};
}
[[nodiscard]] inline Vec8fMask operator>=(const Vec8f& a, const Vec8f& b) {
  return {a.lo >= b.lo, a.hi >= b.hi};
}
[[nodiscard]] inline Vec8fMask operator==(const Vec8f& a, const Vec8f& b) {
  return {a.lo == b.lo, a.hi == b.hi};
}
[[nodiscard]] inline Vec8fMask operator!=(const Vec8f& a, const Vec8f& b) {
  return {a.lo != b.lo, a.hi != b.hi};
}
[[nodiscard]] inline Vec8f select(const Vec8fMask& m, const Vec8f& a, const Vec8f& b) {
  const auto pick = [](Lane4i mask, Lane4f x, Lane4f y) {
    return reinterpret_cast<Lane4f>((reinterpret_cast<Lane4i>(x) & mask) |
                                    (reinterpret_cast<Lane4i>(y) & ~mask));
  };
  return {pick(m.lo, a.lo, b.lo), pick(m.hi, a.hi, b.hi)};
}
[[nodiscard]] inline Vec8f floor(const Vec8f& a) {
  return {detail::round4(a.lo, false), detail::round4(a.hi, false)};
}
[[nodiscard]] inline Vec8f ceil(const Vec8f& a) {
  return {detail::round4(a.lo, true), detail::round4(a.hi, true)};
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
  /// Widens four floats; float -> double is exact.
  [[nodiscard]] DCSN_LANES_AVX2 static Avx2x4 load(const float* p) {
    return Avx2x4(_mm256_cvtps_pd(_mm_loadu_ps(p)));
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

// -------------------------------------------------------------- Avx2x8f ---

struct Avx2x8fMask {
  float m[8];  ///< all-ones or all-zero lanes as vcmpps leaves them, or raw()

  DCSN_LANES_AVX2 explicit Avx2x8fMask(__m256 r) { _mm256_storeu_ps(m, r); }
  [[nodiscard]] DCSN_LANES_AVX2 __m256 reg() const { return _mm256_loadu_ps(m); }

  [[nodiscard]] DCSN_LANES_AVX2 static Avx2x8fMask from_bits(std::uint32_t bits) {
    const __m256i lane_bit = _mm256_setr_epi32(1, 2, 4, 8, 16, 32, 64, 128);
    const __m256i hit =
        _mm256_and_si256(_mm256_set1_epi32(static_cast<std::int32_t>(bits)), lane_bit);
    return Avx2x8fMask(_mm256_castsi256_ps(_mm256_cmpeq_epi32(hit, lane_bit)));
  }
  /// Every lane holds `pattern`.
  [[nodiscard]] DCSN_LANES_AVX2 static Avx2x8fMask raw(std::uint32_t pattern) {
    return Avx2x8fMask(
        _mm256_castsi256_ps(_mm256_set1_epi32(static_cast<std::int32_t>(pattern))));
  }
  [[nodiscard]] DCSN_LANES_AVX2 std::uint32_t bits() const {
    return static_cast<std::uint32_t>(_mm256_movemask_ps(reg()));
  }
  DCSN_LANES_AVX2 void store_raw(std::uint32_t* p) const {
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(p), _mm256_castps_si256(reg()));
  }
};

struct Avx2x8f {
  static constexpr int kWidth = 8;
  using Mask = Avx2x8fMask;

  float v[8];

  Avx2x8f() = default;
  DCSN_LANES_AVX2 explicit Avx2x8f(float s) { _mm256_storeu_ps(v, _mm256_set1_ps(s)); }
  DCSN_LANES_AVX2 explicit Avx2x8f(__m256 r) { _mm256_storeu_ps(v, r); }
  [[nodiscard]] DCSN_LANES_AVX2 __m256 reg() const { return _mm256_loadu_ps(v); }

  [[nodiscard]] DCSN_LANES_AVX2 static Avx2x8f load(const float* p) {
    return Avx2x8f(_mm256_loadu_ps(p));
  }
  /// Lane i holds float(base + i), converted from the exact int sum.
  [[nodiscard]] DCSN_LANES_AVX2 static Avx2x8f ramp(std::int32_t base) {
    const __m256i k = _mm256_add_epi32(_mm256_set1_epi32(base),
                                       _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
    return Avx2x8f(_mm256_cvtepi32_ps(k));
  }
  DCSN_LANES_AVX2 void store(float* p) const { _mm256_storeu_ps(p, reg()); }
  /// Truncating conversion; the same precondition as Vec8f::store_int.
  DCSN_LANES_AVX2 void store_int(std::int32_t* p) const {
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(p), _mm256_cvttps_epi32(reg()));
  }
};

[[nodiscard]] DCSN_LANES_AVX2 inline Avx2x8fMask operator&(const Avx2x8fMask& a,
                                                         const Avx2x8fMask& b) {
  return Avx2x8fMask(_mm256_and_ps(a.reg(), b.reg()));
}
[[nodiscard]] DCSN_LANES_AVX2 inline Avx2x8fMask operator|(const Avx2x8fMask& a,
                                                         const Avx2x8fMask& b) {
  return Avx2x8fMask(_mm256_or_ps(a.reg(), b.reg()));
}
[[nodiscard]] DCSN_LANES_AVX2 inline Avx2x8f operator+(const Avx2x8f& a, const Avx2x8f& b) {
  return Avx2x8f(_mm256_add_ps(a.reg(), b.reg()));
}
[[nodiscard]] DCSN_LANES_AVX2 inline Avx2x8f operator-(const Avx2x8f& a, const Avx2x8f& b) {
  return Avx2x8f(_mm256_sub_ps(a.reg(), b.reg()));
}
[[nodiscard]] DCSN_LANES_AVX2 inline Avx2x8f operator*(const Avx2x8f& a, const Avx2x8f& b) {
  return Avx2x8f(_mm256_mul_ps(a.reg(), b.reg()));
}
[[nodiscard]] DCSN_LANES_AVX2 inline Avx2x8f operator/(const Avx2x8f& a, const Avx2x8f& b) {
  return Avx2x8f(_mm256_div_ps(a.reg(), b.reg()));
}
[[nodiscard]] DCSN_LANES_AVX2 inline Avx2x8f operator-(const Avx2x8f& a) {
  return Avx2x8f(_mm256_xor_ps(a.reg(), _mm256_set1_ps(-0.0f)));
}
[[nodiscard]] DCSN_LANES_AVX2 inline Avx2x8fMask operator<(const Avx2x8f& a,
                                                         const Avx2x8f& b) {
  return Avx2x8fMask(_mm256_cmp_ps(a.reg(), b.reg(), _CMP_LT_OQ));
}
[[nodiscard]] DCSN_LANES_AVX2 inline Avx2x8fMask operator<=(const Avx2x8f& a,
                                                          const Avx2x8f& b) {
  return Avx2x8fMask(_mm256_cmp_ps(a.reg(), b.reg(), _CMP_LE_OQ));
}
[[nodiscard]] DCSN_LANES_AVX2 inline Avx2x8fMask operator>(const Avx2x8f& a,
                                                         const Avx2x8f& b) {
  return Avx2x8fMask(_mm256_cmp_ps(a.reg(), b.reg(), _CMP_GT_OQ));
}
[[nodiscard]] DCSN_LANES_AVX2 inline Avx2x8fMask operator>=(const Avx2x8f& a,
                                                          const Avx2x8f& b) {
  return Avx2x8fMask(_mm256_cmp_ps(a.reg(), b.reg(), _CMP_GE_OQ));
}
[[nodiscard]] DCSN_LANES_AVX2 inline Avx2x8fMask operator==(const Avx2x8f& a,
                                                          const Avx2x8f& b) {
  return Avx2x8fMask(_mm256_cmp_ps(a.reg(), b.reg(), _CMP_EQ_OQ));
}
[[nodiscard]] DCSN_LANES_AVX2 inline Avx2x8fMask operator!=(const Avx2x8f& a,
                                                          const Avx2x8f& b) {
  return Avx2x8fMask(_mm256_cmp_ps(a.reg(), b.reg(), _CMP_NEQ_UQ));
}
[[nodiscard]] DCSN_LANES_AVX2 inline Avx2x8f select(const Avx2x8fMask& m, const Avx2x8f& a,
                                                    const Avx2x8f& b) {
  return Avx2x8f(_mm256_blendv_ps(b.reg(), a.reg(), m.reg()));
}
[[nodiscard]] DCSN_LANES_AVX2 inline Avx2x8f floor(const Avx2x8f& a) {
  return Avx2x8f(_mm256_round_ps(a.reg(), _MM_FROUND_TO_NEG_INF | _MM_FROUND_NO_EXC));
}
[[nodiscard]] DCSN_LANES_AVX2 inline Avx2x8f ceil(const Avx2x8f& a) {
  return Avx2x8f(_mm256_round_ps(a.reg(), _MM_FROUND_TO_POS_INF | _MM_FROUND_NO_EXC));
}

#undef DCSN_LANES_AVX2

/// The attribute of a lane path's AVX2 entry point: a function that
/// instantiates the path's generic template with Avx2x4. flatten inlines the
/// whole call chain into it, so the generic code runs as AVX2 code.
#define DCSN_LANES_AVX2_ENTRY __attribute__((target("avx2"), flatten))
#endif  // __x86_64__

}  // namespace dcsn::util::lanes
