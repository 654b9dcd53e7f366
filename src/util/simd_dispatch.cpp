// Explicit-SIMD kernel tiers + runtime dispatch. See simd_dispatch.hpp for
// the determinism contract; the one-line version: every lane performs the
// exact IEEE operations of the scalar expression — multiply, add, subtract,
// compare-and-select — in the same order, with no FMA and no reassociation,
// so all tiers return byte-identical results and the contribution lattice
// stays exact. tests/test_simd.cpp asserts the byte equality per kernel and
// per tier; the determinism lint (rule D4) keeps unquantized vector
// accumulation from sneaking into this file.
#include "util/simd_dispatch.hpp"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "util/error.hpp"
#include "util/simd.hpp"

#if defined(__x86_64__)
#include <immintrin.h>
#endif

namespace dcsn::util::simd {

namespace {

// Staging geometry shared by the non-gathering tiers: texels for one chunk
// of a span live in a small stack SoA buffer (contiguous floats, no
// allocation), then a straight-line blend kernel runs over them. These are
// the same constants the rasterizer used before the hoist — performance of
// the scalar tier IS the pre-dispatch span kernel.
constexpr std::size_t kRowTile = 256;   // texel staging chunk
constexpr std::size_t kFusedSpan = 16;  // below this, fused stepping wins

// The scalar fixed-point bilinear fetch, shared verbatim by every tier's
// remainder loop. Mirrors render::SpotProfile::RowSampler::sample_at bit
// for bit: 32.32 position step in exact int64 arithmetic, low-side clamp,
// shift/mask split, three single-rounded lerps.
inline float bilinear_at(const SampleSpan& s, std::size_t k) {
  std::int64_t fx = s.fx0 + static_cast<std::int64_t>(k) * s.dfx;
  std::int64_t fy = s.fy0 + static_cast<std::int64_t>(k) * s.dfy;
  fx = fx < 0 ? 0 : fx;
  fy = fy < 0 ? 0 : fy;
  const int x0 = static_cast<int>(fx >> 32);
  const int y0 = static_cast<int>(fy >> 32);
  const float tx = static_cast<float>(static_cast<std::uint32_t>(fx)) * 0x1p-32f;
  const float ty = static_cast<float>(static_cast<std::uint32_t>(fy)) * 0x1p-32f;
  const float* row0 = s.table + static_cast<std::size_t>(y0) * s.stride;
  const float* row1 = row0 + s.stride;
  const float a = row0[x0] + (row0[x0 + 1] - row0[x0]) * tx;
  const float b = row1[x0] + (row1[x0 + 1] - row1[x0]) * tx;
  return a + (b - a) * ty;
}

// ---------------------------------------------------------------------------
// Scalar tier: the util/simd.hpp portable kernels, plus the staged span
// sampler exactly as the rasterizer's pre-SoA hot loop wrote it.
// ---------------------------------------------------------------------------

void add_portable(float* dst, const float* src, std::size_t n) {
  simd::add(dst, src, n);
}
void add_scaled_portable(float* dst, const float* src, float w, std::size_t n) {
  simd::add_scaled(dst, src, w, n);
}
void max_scaled_portable(float* dst, const float* src, float w, std::size_t n) {
  simd::max_scaled(dst, src, w, n);
}
void max_with_portable(float* dst, float v, std::size_t n) {
  simd::max_with(dst, v, n);
}
void quantize_portable(float* dst, const float* src, std::size_t n) {
  simd::quantize_span(dst, src, n);
}

template <bool Additive>
void sample_row_portable(float* dst, const SampleSpan& s, std::size_t n) {
  if (n < kFusedSpan) {
    // Short span: fused step+sample+blend, no staging overhead.
    for (std::size_t k = 0; k < n; ++k) {
      const float value = quantize_contribution(s.weight * bilinear_at(s, k));
      if constexpr (Additive) {
        dst[k] += value;
      } else {
        dst[k] = dst[k] < value ? value : dst[k];
      }
    }
    return;
  }
  // Long span: stage texels into the stack SoA buffer, then run the
  // straight-line blend kernel over the contiguous floats.
  float texels[kRowTile];
  std::size_t k = 0;
  while (k < n) {
    const std::size_t chunk = n - k < kRowTile ? n - k : kRowTile;
#pragma omp simd
    for (std::size_t i = 0; i < chunk; ++i) texels[i] = bilinear_at(s, k + i);
    if constexpr (Additive) {
      simd::add_scaled(dst + k, texels, s.weight, chunk);
    } else {
      simd::max_scaled(dst + k, texels, s.weight, chunk);
    }
    k += chunk;
  }
}

template <bool Additive>
void sample_rows_portable(float* const* dst, const SampleSpan* spans,
                          const std::uint32_t* lens, std::size_t count) {
  for (std::size_t i = 0; i < count; ++i) {
    sample_row_portable<Additive>(dst[i], spans[i], lens[i]);
  }
}

constexpr KernelTable kScalarTable = {
    &add_portable,        &add_scaled_portable,
    &max_scaled_portable, &max_with_portable,
    &quantize_portable,   &sample_row_portable<true>,
    &sample_row_portable<false>,
    &sample_rows_portable<true>,
    &sample_rows_portable<false>,
};

// ---------------------------------------------------------------------------
// SSE2 tier (x86-64 baseline): 128-bit lanes. Select is spelled with
// and/andnot/or (no SSE4.1 blendv at this tier); comparisons are the quiet
// ordered forms, so a NaN lane selects the scalar expression's branch.
// ---------------------------------------------------------------------------
#if defined(__x86_64__)

// mask ? b : a, bit-select semantics (mask lanes are all-ones/all-zeros).
inline __m128 select128(__m128 a, __m128 b, __m128 mask) {
  return _mm_or_ps(_mm_and_ps(mask, b), _mm_andnot_ps(mask, a));
}

// The lattice snap, lane-for-lane identical to quantize_contribution:
// the same three single-rounded ops, the same negated in-range guard
// (a NaN lane fails both compares and passes through untouched).
inline __m128 quantize128(__m128 v) {
  const __m128 x = _mm_mul_ps(v, _mm_set1_ps(kContributionScale));
  const __m128 in_range = _mm_and_ps(_mm_cmpgt_ps(x, _mm_set1_ps(-4194304.0f)),
                                     _mm_cmplt_ps(x, _mm_set1_ps(4194304.0f)));
  const __m128 magic = _mm_set1_ps(12582912.0f);  // 1.5 * 2^23
  const __m128 snapped = _mm_mul_ps(_mm_sub_ps(_mm_add_ps(x, magic), magic),
                                    _mm_set1_ps(kContributionQuantum));
  return select128(v, snapped, in_range);
}

void add_sse2(float* dst, const float* src, std::size_t n) {
  std::size_t k = 0;
  for (; k + 4 <= n; k += 4) {
    // determinism: lattice-exact — both operands hold in-range lattice sums
    const __m128 sum = _mm_add_ps(_mm_loadu_ps(dst + k), _mm_loadu_ps(src + k));
    _mm_storeu_ps(dst + k, sum);
  }
  if (k < n) simd::add(dst + k, src + k, n - k);
}

void add_scaled_sse2(float* dst, const float* src, float w, std::size_t n) {
  const __m128 wv = _mm_set1_ps(w);
  std::size_t k = 0;
  for (; k + 4 <= n; k += 4) {
    const __m128 s = quantize128(_mm_mul_ps(wv, _mm_loadu_ps(src + k)));
    _mm_storeu_ps(dst + k, _mm_add_ps(_mm_loadu_ps(dst + k), s));
  }
  if (k < n) simd::add_scaled(dst + k, src + k, w, n - k);
}

void max_scaled_sse2(float* dst, const float* src, float w, std::size_t n) {
  const __m128 wv = _mm_set1_ps(w);
  std::size_t k = 0;
  for (; k + 4 <= n; k += 4) {
    const __m128 s = quantize128(_mm_mul_ps(wv, _mm_loadu_ps(src + k)));
    const __m128 d = _mm_loadu_ps(dst + k);
    _mm_storeu_ps(dst + k, select128(d, s, _mm_cmplt_ps(d, s)));
  }
  if (k < n) simd::max_scaled(dst + k, src + k, w, n - k);
}

void max_with_sse2(float* dst, float v, std::size_t n) {
  const __m128 s = _mm_set1_ps(v);
  std::size_t k = 0;
  for (; k + 4 <= n; k += 4) {
    const __m128 d = _mm_loadu_ps(dst + k);
    _mm_storeu_ps(dst + k, select128(d, s, _mm_cmplt_ps(d, s)));
  }
  if (k < n) simd::max_with(dst + k, v, n - k);
}

void quantize_sse2(float* dst, const float* src, std::size_t n) {
  std::size_t k = 0;
  for (; k + 4 <= n; k += 4) {
    _mm_storeu_ps(dst + k, quantize128(_mm_loadu_ps(src + k)));
  }
  if (k < n) simd::quantize_span(dst + k, src + k, n - k);
}

// SSE2 has no gather: stage texels with the scalar fetch (identical bits),
// then blend the contiguous chunk with the 128-bit kernels.
template <bool Additive>
void sample_row_sse2(float* dst, const SampleSpan& s, std::size_t n) {
  if (n < kFusedSpan) {
    sample_row_portable<Additive>(dst, s, n);
    return;
  }
  float texels[kRowTile];
  std::size_t k = 0;
  while (k < n) {
    const std::size_t chunk = n - k < kRowTile ? n - k : kRowTile;
    for (std::size_t i = 0; i < chunk; ++i) texels[i] = bilinear_at(s, k + i);
    if constexpr (Additive) {
      add_scaled_sse2(dst + k, texels, s.weight, chunk);
    } else {
      max_scaled_sse2(dst + k, texels, s.weight, chunk);
    }
    k += chunk;
  }
}

template <bool Additive>
void sample_rows_sse2(float* const* dst, const SampleSpan* spans,
                      const std::uint32_t* lens, std::size_t count) {
  for (std::size_t i = 0; i < count; ++i) {
    sample_row_sse2<Additive>(dst[i], spans[i], lens[i]);
  }
}

constexpr KernelTable kSse2Table = {
    &add_sse2,        &add_scaled_sse2,
    &max_scaled_sse2, &max_with_sse2,
    &quantize_sse2,   &sample_row_sse2<true>,
    &sample_row_sse2<false>,
    &sample_rows_sse2<true>,
    &sample_rows_sse2<false>,
};

// ---------------------------------------------------------------------------
// AVX2 tier: 256-bit lanes and the fully fused span sampler — the 32.32
// fixed-point walk runs eight fragments at a time in 64-bit integer lanes,
// the four bilinear neighbours come in as gathers from the padded profile
// table, and the lerp/quantize/blend is straight-line vector float math.
// Compiled with the per-function target attribute, so the translation unit
// itself needs no -mavx2 and the binary still boots on SSE2-only hosts.
// Every AVX2 function starts on a 64-byte boundary, so the placement of its
// loops does not move when unrelated code changes size: a 32-byte shift of
// sample_rows_avx2 measured ~20% slower span replay on a 4-vCPU AVX2 host.
// ---------------------------------------------------------------------------
#define DCSN_TARGET_AVX2 __attribute__((target("avx2"), aligned(64)))

DCSN_TARGET_AVX2 inline __m256 quantize256(__m256 v) {
  const __m256 x = _mm256_mul_ps(v, _mm256_set1_ps(kContributionScale));
  const __m256 in_range =
      _mm256_and_ps(_mm256_cmp_ps(x, _mm256_set1_ps(-4194304.0f), _CMP_GT_OQ),
                    _mm256_cmp_ps(x, _mm256_set1_ps(4194304.0f), _CMP_LT_OQ));
  const __m256 magic = _mm256_set1_ps(12582912.0f);  // 1.5 * 2^23
  const __m256 snapped = _mm256_mul_ps(_mm256_sub_ps(_mm256_add_ps(x, magic), magic),
                                       _mm256_set1_ps(kContributionQuantum));
  return _mm256_blendv_ps(v, snapped, in_range);
}

void DCSN_TARGET_AVX2 add_avx2(float* dst, const float* src, std::size_t n) {
  std::size_t k = 0;
  for (; k + 8 <= n; k += 8) {
    // determinism: lattice-exact — both operands hold in-range lattice sums
    const __m256 sum = _mm256_add_ps(_mm256_loadu_ps(dst + k), _mm256_loadu_ps(src + k));
    _mm256_storeu_ps(dst + k, sum);
  }
  if (k < n) simd::add(dst + k, src + k, n - k);
}

void DCSN_TARGET_AVX2 add_scaled_avx2(float* dst, const float* src, float w,
                                      std::size_t n) {
  const __m256 wv = _mm256_set1_ps(w);
  std::size_t k = 0;
  for (; k + 8 <= n; k += 8) {
    const __m256 s = quantize256(_mm256_mul_ps(wv, _mm256_loadu_ps(src + k)));
    _mm256_storeu_ps(dst + k, _mm256_add_ps(_mm256_loadu_ps(dst + k), s));
  }
  if (k < n) simd::add_scaled(dst + k, src + k, w, n - k);
}

void DCSN_TARGET_AVX2 max_scaled_avx2(float* dst, const float* src, float w,
                                      std::size_t n) {
  const __m256 wv = _mm256_set1_ps(w);
  std::size_t k = 0;
  for (; k + 8 <= n; k += 8) {
    const __m256 s = quantize256(_mm256_mul_ps(wv, _mm256_loadu_ps(src + k)));
    const __m256 d = _mm256_loadu_ps(dst + k);
    // dst < s ? s : dst — blendv, not maxps, to keep scalar NaN semantics.
    _mm256_storeu_ps(dst + k, _mm256_blendv_ps(d, s, _mm256_cmp_ps(d, s, _CMP_LT_OQ)));
  }
  if (k < n) simd::max_scaled(dst + k, src + k, w, n - k);
}

void DCSN_TARGET_AVX2 max_with_avx2(float* dst, float v, std::size_t n) {
  const __m256 s = _mm256_set1_ps(v);
  std::size_t k = 0;
  for (; k + 8 <= n; k += 8) {
    const __m256 d = _mm256_loadu_ps(dst + k);
    _mm256_storeu_ps(dst + k, _mm256_blendv_ps(d, s, _mm256_cmp_ps(d, s, _CMP_LT_OQ)));
  }
  if (k < n) simd::max_with(dst + k, v, n - k);
}

void DCSN_TARGET_AVX2 quantize_avx2(float* dst, const float* src, std::size_t n) {
  std::size_t k = 0;
  for (; k + 8 <= n; k += 8) {
    _mm256_storeu_ps(dst + k, quantize256(_mm256_loadu_ps(src + k)));
  }
  if (k < n) simd::quantize_span(dst + k, src + k, n - k);
}

// Bit-exact unsigned 32 -> float: split into exact 16-bit halves; the one
// float add rounds once, which is precisely what the scalar
// static_cast<float>(uint32) performs (round-to-nearest-even of the exact
// value). cvtepi32 alone would misread bit 31 as a sign.
DCSN_TARGET_AVX2 inline __m256 u32_to_float(__m256i u) {
  const __m256i lo16 = _mm256_and_si256(u, _mm256_set1_epi32(0xffff));
  const __m256i hi16 = _mm256_srli_epi32(u, 16);
  // determinism: exact 16-bit halves — the one add rounds once, like the cast
  return _mm256_add_ps(
      _mm256_mul_ps(_mm256_cvtepi32_ps(hi16), _mm256_set1_ps(65536.0f)),
      _mm256_cvtepi32_ps(lo16));
}

// Lane-count -> vmaskmovps/vgatherdps mask: loading 8 ints at &[8 - m]
// yields m leading all-ones lanes. The masked tail is what lets the fused
// walk cover the workload's dominant 5..16-fragment spans end to end —
// masked-off lanes touch no memory, so the active lanes stay bit-identical
// to the scalar walk and out-of-span positions are never dereferenced.
alignas(32) constexpr std::int32_t kTailMask[16] = {-1, -1, -1, -1, -1, -1, -1, -1,
                                                   0,  0,  0,  0,  0,  0,  0,  0};

// The eight 32.32 lane positions, split per axis into the signed high word
// (texel index) and the unsigned low word (lerp fraction), each in a single
// 8x32 register. Stepping is exact multiword integer arithmetic — add the
// step's low word, detect the unsigned carry, fold step-high plus carry
// into the high word — so every lane position equals the scalar sampler's
// int64 `f0 + k * df` bit for bit, while the per-block work stays in cheap
// full-width 32-bit ops (no 64-bit lane pairs to clamp, shift and re-pack).
struct Avx2Span {
  __m256i x_hi, x_lo, y_hi, y_lo;          // lane positions, split 32/32
  __m256i sx_hi, sx_lo_f, sy_hi, sy_lo_f;  // step high; step low sign-flipped
  __m256i sx_lo, sy_lo;                    // step low, raw
  __m256i stride_v;
  __m256 wv;
  const float* table;
};

// Packs one 32-bit half of eight 64-bit lanes (lo = lanes 0-3, hi = 4-7)
// into a single 8x32 vector, preserving lane order. `kHalf` picks the
// dword: 0x88 keeps the low words, 0xdd the high words. shufps is a raw bit
// move, so routing integer lanes through the float domain is exact; two
// shuffles per split instead of the four a shuffle+blend sequence needs.
template <int kHalf>
DCSN_TARGET_AVX2 inline __m256i pack_shufps(__m256i lo, __m256i hi) {
  const __m256 m = _mm256_shuffle_ps(_mm256_castsi256_ps(lo),
                                     _mm256_castsi256_ps(hi), kHalf);
  return _mm256_permute4x64_epi64(_mm256_castps_si256(m), 0xd8);
}

// Lanes k = 0..3 of `f0 + k*df` as exact 4x64 lanes, built with broadcast
// loads and vpmuludq ramps. The obvious _mm256_setr_epi64x spelling costs a
// chain of GPR->vector inserts (port-5 serialized, measurably slower);
// here k*df is assembled mod 2^64 from k*lo32(df) (vpmuludq reads only the
// low dword of each lane, the product is exact) plus k*hi32(df) shifted up
// — identical bits, ~3 cycles cheaper per span.
DCSN_TARGET_AVX2 inline __m256i avx2_axis_ramp(std::int64_t f0, std::int64_t df) {
  const __m256i r03 = _mm256_setr_epi64x(0, 1, 2, 3);
  const __m256i bf = _mm256_set1_epi64x(f0);
  const __m256i bd = _mm256_set1_epi64x(df);
  const __m256i p_lo = _mm256_mul_epu32(r03, bd);
  const __m256i p_hi =
      _mm256_slli_epi64(_mm256_mul_epu32(r03, _mm256_srli_epi64(bd, 32)), 32);
  return _mm256_add_epi64(bf, _mm256_add_epi64(p_lo, p_hi));
}

DCSN_TARGET_AVX2 inline Avx2Span avx2_span_positions(const SampleSpan& s) {
  // Build the eight exact int64 positions once, then split into the 32/32
  // working form; everything after steps in 32-bit lanes. Step constants
  // are NOT set here — avx2_span_steps() folds them in only when the span
  // has a second block, so the workload's dominant single-block spans skip
  // six broadcasts.
  const __m256i fx_lo = avx2_axis_ramp(s.fx0, s.dfx);
  const __m256i fx_hi = _mm256_add_epi64(fx_lo, _mm256_set1_epi64x(4 * s.dfx));
  const __m256i fy_lo = avx2_axis_ramp(s.fy0, s.dfy);
  const __m256i fy_hi = _mm256_add_epi64(fy_lo, _mm256_set1_epi64x(4 * s.dfy));
  Avx2Span v;
  v.x_hi = pack_shufps<0xdd>(fx_lo, fx_hi);
  v.x_lo = pack_shufps<0x88>(fx_lo, fx_hi);
  v.y_hi = pack_shufps<0xdd>(fy_lo, fy_hi);
  v.y_lo = pack_shufps<0x88>(fy_lo, fy_hi);
  v.stride_v = _mm256_set1_epi32(static_cast<int>(s.stride));
  v.wv = _mm256_set1_ps(s.weight);
  v.table = s.table;
  return v;
}

DCSN_TARGET_AVX2 inline void avx2_span_steps(Avx2Span& v, const SampleSpan& s) {
  const std::int64_t step_x = 8 * s.dfx;
  const std::int64_t step_y = 8 * s.dfy;
  const auto sign = _mm256_set1_epi32(static_cast<std::int32_t>(0x80000000));
  v.sx_hi = _mm256_set1_epi32(static_cast<std::int32_t>(step_x >> 32));
  v.sx_lo = _mm256_set1_epi32(static_cast<std::int32_t>(step_x));
  v.sx_lo_f = _mm256_xor_si256(v.sx_lo, sign);
  v.sy_hi = _mm256_set1_epi32(static_cast<std::int32_t>(step_y >> 32));
  v.sy_lo = _mm256_set1_epi32(static_cast<std::int32_t>(step_y));
  v.sy_lo_f = _mm256_xor_si256(v.sy_lo, sign);
}

// Step all lanes by eight fragments: exact 64-bit add, lane-split. The
// unsigned carry out of the low word is `new_lo <u step_lo` (sign-flip
// compare; the flipped step is precomputed), and the carry mask is all-ones
// where set, so *subtracting* it adds one to the high word.
DCSN_TARGET_AVX2 inline void avx2_span_advance(Avx2Span& v) {
  const auto sign = _mm256_set1_epi32(static_cast<std::int32_t>(0x80000000));
  const __m256i nx_lo = _mm256_add_epi32(v.x_lo, v.sx_lo);
  const __m256i cx =
      _mm256_cmpgt_epi32(v.sx_lo_f, _mm256_xor_si256(nx_lo, sign));
  v.x_hi = _mm256_sub_epi32(_mm256_add_epi32(v.x_hi, v.sx_hi), cx);
  v.x_lo = nx_lo;
  const __m256i ny_lo = _mm256_add_epi32(v.y_lo, v.sy_lo);
  const __m256i cy =
      _mm256_cmpgt_epi32(v.sy_lo_f, _mm256_xor_si256(ny_lo, sign));
  v.y_hi = _mm256_sub_epi32(_mm256_add_epi32(v.y_hi, v.sy_hi), cy);
  v.y_lo = ny_lo;
}

// One block of the fused sampler. The lane positions arrive pre-split into
// texel index (signed high word) and lerp fraction (low word); the int64
// position is negative exactly when its high word is, so the scalar
// `fx < 0 ? 0 : fx` clamp is one compare-and-mask over both words. The four
// bilinear neighbours come in as gathers under `gmask` (all-ones for a full
// block — the same vgatherdps the unmasked intrinsic emits; 64-bit pair
// gathers were tried and measured slower here), and everything after is the
// scalar lerp/quantize expression, lane-for-lane. Masked-off lanes never
// touch memory, so a tail block reads nothing past the span.
DCSN_TARGET_AVX2 inline __m256 avx2_span_value(const Avx2Span& v, __m256 gmask) {
  const __m256i zero = _mm256_setzero_si256();
  const __m256i neg_x = _mm256_cmpgt_epi32(zero, v.x_hi);
  const __m256i neg_y = _mm256_cmpgt_epi32(zero, v.y_hi);
  const __m256i x0 = _mm256_andnot_si256(neg_x, v.x_hi);
  const __m256i y0 = _mm256_andnot_si256(neg_y, v.y_hi);
  const __m256i frac_x = _mm256_andnot_si256(neg_x, v.x_lo);
  const __m256i frac_y = _mm256_andnot_si256(neg_y, v.y_lo);
  const __m256i one = _mm256_set1_epi32(1);
  const __m256i idx = _mm256_add_epi32(_mm256_mullo_epi32(y0, v.stride_v), x0);
  const __m256i idx1 = _mm256_add_epi32(idx, v.stride_v);
  const __m256 zf = _mm256_setzero_ps();
  const __m256 r00 = _mm256_mask_i32gather_ps(zf, v.table, idx, gmask, 4);
  const __m256 r01 =
      _mm256_mask_i32gather_ps(zf, v.table, _mm256_add_epi32(idx, one), gmask, 4);
  const __m256 r10 = _mm256_mask_i32gather_ps(zf, v.table, idx1, gmask, 4);
  const __m256 r11 =
      _mm256_mask_i32gather_ps(zf, v.table, _mm256_add_epi32(idx1, one), gmask, 4);
  const __m256 inv232 = _mm256_set1_ps(0x1p-32f);
  const __m256 tx = _mm256_mul_ps(u32_to_float(frac_x), inv232);
  const __m256 ty = _mm256_mul_ps(u32_to_float(frac_y), inv232);
  // The scalar bilinear lerp, three single-rounded mul/adds per lane.
  const __m256 a = _mm256_add_ps(r00, _mm256_mul_ps(_mm256_sub_ps(r01, r00), tx));
  const __m256 b = _mm256_add_ps(r10, _mm256_mul_ps(_mm256_sub_ps(r11, r10), tx));
  const __m256 texel = _mm256_add_ps(a, _mm256_mul_ps(_mm256_sub_ps(b, a), ty));
  return quantize256(_mm256_mul_ps(v.wv, texel));
}

// The fused span sampler: full eight-lane blocks while more than one block
// remains, then ONE masked block for whatever is left (1..8 lanes; the mask
// is all-ones when exactly eight remain, in which case vgatherdps and
// vmaskmovps touch the same memory the unmasked forms would). Masked-off
// lanes never touch memory, so the active lanes are the same bits the
// scalar loop would produce and nothing reads past the span. One
// straight-line path for every length — even one-fragment spans take the
// masked block: under the workload's mixed span-length stream, every
// data-dependent branch (a short-span scalar fallback, masked-vs-scalar
// tail choice, scalar remainder trip counts) costs more in mispredicts
// than a masked block ever costs in lanes.
// One masked block: blends `rem` (1..8) lanes of the span's current
// position into dst. Masked-off lanes never touch memory.
template <bool Additive>
DCSN_TARGET_AVX2 inline void avx2_masked_block(float* dst, const Avx2Span& v,
                                               std::size_t rem) {
  const __m256i im = _mm256_loadu_si256(
      reinterpret_cast<const __m256i*>(kTailMask + (8 - rem)));
  const __m256 value = avx2_span_value(v, _mm256_castsi256_ps(im));
  const __m256 d = _mm256_maskload_ps(dst, im);
  if constexpr (Additive) {
    // determinism: lattice-exact — avx2_span_value returns quantized lanes
    _mm256_maskstore_ps(dst, im, _mm256_add_ps(d, value));
  } else {
    _mm256_maskstore_ps(
        dst, im,
        _mm256_blendv_ps(d, value, _mm256_cmp_ps(d, value, _CMP_LT_OQ)));
  }
}

// Full eight-lane blocks while more than one block remains, then one masked
// block for the 1..8 leftover lanes. Positions (and steps, when n > 8) must
// already be loaded into `v`.
template <bool Additive>
DCSN_TARGET_AVX2 inline void avx2_row_blocks(float* dst, Avx2Span& v,
                                             std::size_t n) {
  std::size_t k = 0;
  if (n > 8) {
    const __m256 full = _mm256_castsi256_ps(_mm256_set1_epi32(-1));
    do {
      const __m256 value = avx2_span_value(v, full);
      const __m256 d = _mm256_loadu_ps(dst + k);
      if constexpr (Additive) {
        // determinism: lattice-exact — avx2_span_value returns quantized lanes
        _mm256_storeu_ps(dst + k, _mm256_add_ps(d, value));
      } else {
        // dst < s ? s : dst — blendv, not maxps, to keep scalar NaN semantics.
        _mm256_storeu_ps(
            dst + k,
            _mm256_blendv_ps(d, value, _mm256_cmp_ps(d, value, _CMP_LT_OQ)));
      }
      avx2_span_advance(v);
      k += 8;
    } while (n - k > 8);
  }
  avx2_masked_block<Additive>(dst + k, v, n - k);
}

template <bool Additive>
void DCSN_TARGET_AVX2 sample_row_avx2(float* dst, const SampleSpan& s,
                                      std::size_t n) {
  if (n == 0) return;
  Avx2Span v = avx2_span_positions(s);
  if (n > 8) avx2_span_steps(v, s);
  avx2_row_blocks<Additive>(dst, v, n);
}

// One packed pair block: span a -> dst_a (na <= 4 lanes 0-3), span b ->
// dst_b (nb <= 4 lanes 4-7). The half masks load straight from kTailMask
// (na ones in four lanes = the xmm at &kTailMask[8 - na]); destinations are
// touched with per-half xmm maskmov, so each span's framebuffer access is
// exactly the single-span path's.
template <bool Additive>
DCSN_TARGET_AVX2 inline void avx2_pair_block(float* dst_a, float* dst_b,
                                             const Avx2Span& v, std::size_t na,
                                             std::size_t nb) {
  const __m128i im_a = _mm_loadu_si128(
      reinterpret_cast<const __m128i*>(kTailMask + (8 - na)));
  const __m128i im_b = _mm_loadu_si128(
      reinterpret_cast<const __m128i*>(kTailMask + (8 - nb)));
  const __m256i im =
      _mm256_inserti128_si256(_mm256_castsi128_si256(im_a), im_b, 1);
  const __m256 value = avx2_span_value(v, _mm256_castsi256_ps(im));
  const __m128 da = _mm_maskload_ps(dst_a, im_a);
  const __m128 db = _mm_maskload_ps(dst_b, im_b);
  const __m256 d =
      _mm256_insertf128_ps(_mm256_castps128_ps256(da), db, 1);
  __m256 out;
  if constexpr (Additive) {
    // determinism: lattice-exact — avx2_span_value returns quantized lanes
    out = _mm256_add_ps(d, value);
  } else {
    out = _mm256_blendv_ps(d, value, _mm256_cmp_ps(d, value, _CMP_LT_OQ));
  }
  _mm_maskstore_ps(dst_a, im_a, _mm256_castps256_ps128(out));
  _mm_maskstore_ps(dst_b, im_b, _mm256_extractf128_ps(out, 1));
}

// A pending 1..4-lane block: the computed low-half lane state of a span
// remainder, parked until a partner shows up. This is where the batched
// kernel earns its keep — the spans of one batch never alias, so processing
// order cannot change a single output byte, which licenses holding a
// remainder back and packing it with the NEXT remainder into one 8-lane
// block (lanes 0-3 from the first, 4-7 from the second), halving the
// gather/lerp/quantize cost of the short work. Under the production span
// histogram roughly a third of spans are <= 4 fragments outright, and the
// multi-block spans park their tails here too.
struct Avx2Tail {
  float* dst;
  std::size_t rem;  // 1..4
  const float* table;
  std::size_t stride;
  __m256i x_hi, x_lo, y_hi, y_lo;
  __m256i stride_v;
  __m256 wv;
};

DCSN_TARGET_AVX2 inline void avx2_park_tail(Avx2Tail& t, float* dst,
                                            const Avx2Span& v,
                                            const SampleSpan& s,
                                            std::size_t rem) {
  t.dst = dst;
  t.rem = rem;
  t.table = v.table;
  t.stride = s.stride;
  t.x_hi = v.x_hi;
  t.x_lo = v.x_lo;
  t.y_hi = v.y_hi;
  t.y_lo = v.y_lo;
  t.stride_v = v.stride_v;
  t.wv = v.wv;
}

// Merge the parked low half with the incoming remainder's low half: four
// integer inserts for the positions, one float insert for the weight. Both
// remainders' live lanes sit in lanes 0..rem-1, so the combine is pure
// 128-bit lane surgery; stride/table come from the (checked equal) pair.
DCSN_TARGET_AVX2 inline Avx2Span avx2_merge_tails(const Avx2Tail& t,
                                                  const Avx2Span& v) {
  Avx2Span m;
  m.x_hi = _mm256_inserti128_si256(t.x_hi, _mm256_castsi256_si128(v.x_hi), 1);
  m.x_lo = _mm256_inserti128_si256(t.x_lo, _mm256_castsi256_si128(v.x_lo), 1);
  m.y_hi = _mm256_inserti128_si256(t.y_hi, _mm256_castsi256_si128(v.y_hi), 1);
  m.y_lo = _mm256_inserti128_si256(t.y_lo, _mm256_castsi256_si128(v.y_lo), 1);
  m.wv = _mm256_insertf128_ps(t.wv, _mm256_castps256_ps128(v.wv), 1);
  m.stride_v = t.stride_v;
  m.table = t.table;
  return m;
}

DCSN_TARGET_AVX2 inline Avx2Span avx2_tail_span(const Avx2Tail& t) {
  Avx2Span v;
  v.x_hi = t.x_hi;
  v.x_lo = t.x_lo;
  v.y_hi = t.y_hi;
  v.y_lo = t.y_lo;
  v.stride_v = t.stride_v;
  v.wv = t.wv;
  v.table = t.table;
  return v;
}

// The batched sampler: full blocks run immediately; every 1..4-lane
// remainder — a short span or a multi-block span's tail — is parked and
// packed in pairs (see Avx2Tail above). A remainder of 5..8 lanes fills a
// block well enough on its own.
template <bool Additive>
void DCSN_TARGET_AVX2 sample_rows_avx2(float* const* dst, const SampleSpan* spans,
                                       const std::uint32_t* lens,
                                       std::size_t count) {
  Avx2Tail pend;
  bool pending = false;
  for (std::size_t i = 0; i < count; ++i) {
    std::size_t n = lens[i];
    if (n == 0) continue;
    const SampleSpan& s = spans[i];
    float* d = dst[i];
    Avx2Span v = avx2_span_positions(s);
    if (n > 8) {
      avx2_span_steps(v, s);
      const __m256 full = _mm256_castsi256_ps(_mm256_set1_epi32(-1));
      do {
        const __m256 value = avx2_span_value(v, full);
        const __m256 dv = _mm256_loadu_ps(d);
        if constexpr (Additive) {
          // determinism: lattice-exact — avx2_span_value returns quantized
          _mm256_storeu_ps(d, _mm256_add_ps(dv, value));
        } else {
          _mm256_storeu_ps(
              d, _mm256_blendv_ps(dv, value,
                                  _mm256_cmp_ps(dv, value, _CMP_LT_OQ)));
        }
        avx2_span_advance(v);
        d += 8;
        n -= 8;
      } while (n > 8);
    }
    if (n > 4) {
      avx2_masked_block<Additive>(d, v, n);
      continue;
    }
    if (!pending) {
      avx2_park_tail(pend, d, v, s, n);
      pending = true;
      continue;
    }
    if (pend.table == s.table && pend.stride == s.stride) {
      const Avx2Span m = avx2_merge_tails(pend, v);
      avx2_pair_block<Additive>(pend.dst, d, m, pend.rem, n);
      pending = false;
    } else {  // different profiles in one batch — flush singly, park anew
      const Avx2Span pv = avx2_tail_span(pend);
      avx2_masked_block<Additive>(pend.dst, pv, pend.rem);
      avx2_park_tail(pend, d, v, s, n);
    }
  }
  if (pending) {
    const Avx2Span pv = avx2_tail_span(pend);
    avx2_masked_block<Additive>(pend.dst, pv, pend.rem);
  }
}

constexpr KernelTable kAvx2Table = {
    &add_avx2,        &add_scaled_avx2,
    &max_scaled_avx2, &max_with_avx2,
    &quantize_avx2,   &sample_row_avx2<true>,
    &sample_row_avx2<false>,
    &sample_rows_avx2<true>,
    &sample_rows_avx2<false>,
};

#endif  // __x86_64__

// ---------------------------------------------------------------------------
// Detection and dispatch
// ---------------------------------------------------------------------------

Tier detect_best() {
#if defined(__x86_64__)
  __builtin_cpu_init();
  if (__builtin_cpu_supports("avx2")) return Tier::kAvx2;
  return Tier::kSse2;  // architectural baseline on x86-64
#else
  return Tier::kScalar;
#endif
}

Tier init_tier() {
  const Tier best = detect_best();
  const char* env = std::getenv("DCSN_SIMD");
  if (env == nullptr || *env == '\0') return best;
  Tier requested;
  if (!tier_from_name(env, requested)) {
    std::fprintf(stderr,
                 "dcsn: unknown DCSN_SIMD value '%s' "
                 "(expected scalar|sse2|avx2); using %s\n",
                 env, tier_name(best));
    return best;
  }
  if (!tier_available(requested)) {
    std::fprintf(stderr, "dcsn: DCSN_SIMD=%s is not available on this host; using %s\n",
                 env, tier_name(best));
    return best;
  }
  return requested;
}

// -1 = not yet initialized. Racing first calls all compute the same value,
// so the benign double-store needs no lock; set_active_tier's later writes
// become visible to workers through the job-queue handoff that precedes any
// rasterization.
std::atomic<int> g_active_tier{-1};

}  // namespace

bool tier_available(Tier tier) {
  switch (tier) {
    case Tier::kScalar:
      return true;
#if defined(__x86_64__)
    case Tier::kSse2:
      return true;
    case Tier::kAvx2:
      __builtin_cpu_init();
      return __builtin_cpu_supports("avx2");
#endif
    default:
      return false;
  }
}

std::vector<Tier> available_tiers() {
  std::vector<Tier> tiers;
  for (const Tier t : {Tier::kScalar, Tier::kSse2, Tier::kAvx2}) {
    if (tier_available(t)) tiers.push_back(t);
  }
  return tiers;
}

const KernelTable& kernels_for(Tier tier) {
  DCSN_CHECK(tier_available(tier), "requested SIMD tier is not available on this host");
  switch (tier) {
#if defined(__x86_64__)
    case Tier::kSse2:
      return kSse2Table;
    case Tier::kAvx2:
      return kAvx2Table;
#endif
    default:
      return kScalarTable;
  }
}

Tier active_tier() {
  int tier = g_active_tier.load(std::memory_order_acquire);
  if (tier < 0) {
    tier = static_cast<int>(init_tier());
    g_active_tier.store(tier, std::memory_order_release);
  }
  return static_cast<Tier>(tier);
}

void set_active_tier(Tier tier) {
  DCSN_CHECK(tier_available(tier), "cannot activate an unavailable SIMD tier");
  g_active_tier.store(static_cast<int>(tier), std::memory_order_release);
}

const KernelTable& kernels() { return kernels_for(active_tier()); }

const char* tier_name(Tier tier) {
  switch (tier) {
    case Tier::kScalar:
      return "scalar";
    case Tier::kSse2:
      return "sse2";
    case Tier::kAvx2:
      return "avx2";
  }
  return "unknown";
}

bool tier_from_name(std::string_view name, Tier& out) {
  for (const Tier t : {Tier::kScalar, Tier::kSse2, Tier::kAvx2}) {
    if (name == tier_name(t)) {
      out = t;
      return true;
    }
  }
  return false;
}

std::string cpu_flags() {
  std::string flags;
  const auto append = [&flags](const char* name) {
    if (!flags.empty()) flags += ' ';
    flags += name;
  };
#if defined(__x86_64__)
  __builtin_cpu_init();
  if (__builtin_cpu_supports("sse2")) append("sse2");
  if (__builtin_cpu_supports("sse4.2")) append("sse4.2");
  if (__builtin_cpu_supports("avx")) append("avx");
  if (__builtin_cpu_supports("avx2")) append("avx2");
  if (__builtin_cpu_supports("fma")) append("fma");
  if (__builtin_cpu_supports("avx512f")) append("avx512f");
#else
  append("generic");
#endif
  return flags;
}

}  // namespace dcsn::util::simd
