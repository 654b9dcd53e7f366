// Portable SIMD kernel layer for the pixel hot paths.
//
// Every kernel is a restrict-qualified straight-line loop annotated with
// `#pragma omp simd`. The build passes -fopenmp-simd, which honours the
// pragma without linking an OpenMP runtime, so the loop vectorizes; a
// compiler that ignores the pragma runs the same code as the scalar
// fallback — no intrinsics, no runtime dispatch, no second code path to
// keep correct. Callers guarantee that `dst` and `src`
// do not alias; the restrict qualifier is what licenses the vectorization.
//
// Semantics are pinned to the scalar expression the rasterizer uses
// (`dst += quantize_contribution(w * src)`), so switching a call site to
// these kernels never changes results, only speed.
//
// ---------------------------------------------------------------------------
// The contribution lattice (exact, order-independent accumulation)
// ---------------------------------------------------------------------------
// Spot noise is a sum of fragment contributions, and the engine adds them in
// whatever order the scheduler produces: chunk arrival order varies with
// slave interleaving and work stealing, partial textures are grouped by pipe
// and tile layout, and the gather adds the groups. Raw float addition is not
// associative, so every one of those choices would perturb the last bits —
// no golden-frame hash could be stable, and an incrementally reused tile
// could never be *proved* equal to a re-rendered one.
//
// Instead, every fragment contribution is rounded to the nearest multiple of
// kContributionQuantum (2^-17) before blending. A float holds integer
// multiples of the quantum exactly up to 2^24 quanta = kContributionExactBound
// (128.0), far above any real per-pixel sum (worst measured workloads stay
// under ~100 summed absolute contributions), so every partial sum is exact —
// no rounding ever happens in the additions. Exact addition IS associative
// and commutative: any accumulation order, grouping, pipe count, tile
// decomposition, or steal pattern produces bit-identical textures. That
// invariant is what the determinism suite asserts and what makes temporal
// tile reuse (core::SynthesisCache) exactly equal to full resynthesis.
//
// Delta-rendered tiles lean on the same budget. An incremental frame renders
// a dirty tile as Σnew − Σold over its moved spots (old instances with their
// intensity negated) and adds that onto the retained pixels. The snap rounds
// ties to even, so quantize(-v) == -quantize(v) and the old contributions
// cancel exactly; every partial sum of the delta, and the retained pixel plus
// the delta, stay lattice multiples. The requirement is that per pixel
// Σ|old| + Σ|new| over the moved spots, like the full sum, stays below
// kContributionExactBound; FrameStats::peak_pixel_magnitude folds in each
// delta readback's peak. A snap never yields -0.0 and cleared targets start
// at +0.0, so no sum ever holds a negative zero either.
//
// The quantum (7.6e-6) is ~500x below the 8-bit tone-map step at typical
// texture contrast — invisible — and quantization costs three flops per
// fragment next to a bilinear texture fetch.
#pragma once

#include <cstddef>

namespace dcsn::util::simd {

inline constexpr float kContributionScale = 131072.0f;  // 2^17
inline constexpr float kContributionQuantum = 1.0f / kContributionScale;
/// Largest magnitude up to which lattice sums stay exact (2^24 quanta).
inline constexpr float kContributionExactBound = 128.0f;

/// Rounds `v` to the nearest lattice multiple (ties to even), via the
/// magic-constant trick: adding 1.5 * 2^23 to a float in (-2^22, 2^22)
/// forces its ulp to 1, i.e. rounds it to an integer, and the subtraction
/// is exact. The power-of-two scale multiplies are exact too, so the whole
/// function is a correctly rounded snap-to-lattice. NaN and out-of-range
/// magnitudes (|v| >= 32, far outside the design range) pass through
/// unchanged — the guard is written negated so NaN lands in it.
inline float quantize_contribution(float v) {
  const float x = v * kContributionScale;
  if (!(x > -4194304.0f && x < 4194304.0f)) return v;
  const float magic = 12582912.0f;  // 1.5 * 2^23
  return ((x + magic) - magic) * kContributionQuantum;
}

/// dst[i] += src[i] — the gather-blend accumulation. Lattice-exact when both
/// operands hold in-range lattice sums.
inline void add(float* __restrict__ dst, const float* __restrict__ src,
                std::size_t n) {
#pragma omp simd
  // determinism: lattice-exact — both operands hold in-range lattice sums
  for (std::size_t i = 0; i < n; ++i) dst[i] += src[i];
}

/// dst[i] += quantize(w * src[i]) — additive spot blending (the spot-noise
/// sum, snapped to the contribution lattice).
inline void add_scaled(float* __restrict__ dst, const float* __restrict__ src,
                       float w, std::size_t n) {
#pragma omp simd
  for (std::size_t i = 0; i < n; ++i) dst[i] += quantize_contribution(w * src[i]);
}

}  // namespace dcsn::util::simd
