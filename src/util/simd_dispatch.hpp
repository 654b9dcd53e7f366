// Runtime-dispatched explicit-SIMD kernels for the pixel hot paths.
//
// util/simd.hpp holds the portable reference kernels: `#pragma omp simd`
// loops whose vectorization is at the compiler's mercy. This layer adds
// hand-written SSE2 / AVX2 implementations of the two kernels the renderer
// calls — the framebuffer gather `add` and the batched span sampler
// `sample_rows_add` the rasterizer flushes its spans through — selected once
// at startup from CPU feature detection (CPUID on x86-64; other
// architectures run the scalar tier). The binary needs no -march flags and
// still runs the widest ISA the host offers.
//
// Determinism contract: every tier is pinned to the scalar expressions
// BIT-FOR-BIT. The contribution-lattice snap (util/simd.hpp) is the magic-
// constant round `((x + 1.5*2^23) - 1.5*2^23) * 2^-17`, three IEEE
// single-rounded operations — a vector lane performs the identical
// operations on the identical bits, so the snap vectorizes exactly. FMA is
// *never* used, not even on tiers that have it: a fused multiply-add rounds
// once where the scalar expression rounds twice, which would break lattice
// exactness and with it every golden hash, incremental-reuse proof and
// delta stream. The cross-tier byte-equality suite (tests/test_simd.cpp,
// ctest -L simd) and the per-tier golden runs (scripts/verify.sh
// --simd-tiers) enforce all of this.
//
// Thread safety: the active tier is read with an atomic load and written
// only by startup init or set_active_tier() (tests/benches, between renders
// — never while workers are rasterizing). The kernel tables themselves are
// immutable statics.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace dcsn::util::simd {

/// Implementation tiers, ordered by preference within an architecture.
enum class Tier : int {
  kScalar = 0,  ///< util/simd.hpp portable kernels (`omp simd` hints,
                ///< honoured under -fopenmp-simd; no OpenMP runtime)
  kSse2 = 1,    ///< 128-bit, baseline on x86-64
  kAvx2 = 2,    ///< 256-bit + gathers, detected via CPUID
};

/// Everything the fused span sampler needs: the padded bilinear table and
/// the 32.32 fixed-point walk (render::SpotProfile::RowSampler state,
/// rebased to the span start). Plain data so util/ stays independent of
/// render/ — the rasterizer builds one per rendered span.
struct SampleSpan {
  const float* table = nullptr;  ///< padded profile table, row-major
  std::size_t stride = 0;        ///< table row stride in floats (padded)
  std::int64_t fx0 = 0, fy0 = 0; ///< 32.32 texel position of fragment 0
  std::int64_t dfx = 0, dfy = 0; ///< 32.32 per-fragment step
  float weight = 0.0f;           ///< spot intensity, applied pre-quantize
};

/// One tier's kernel set: exactly what the renderer calls. All pointers are
/// non-null in every table.
struct KernelTable {
  /// dst[k] += src[k] — the framebuffer gather. dst and src never alias.
  void (*add)(float* dst, const float* src, std::size_t n);
  /// Span i blends into dst[i][0..lens[i]):
  ///   dst[i][k] += quantize(weight * bilinear(fx0 + k*dfx, fy0 + k*dfy)).
  /// PRECONDITIONS: every fragment position lies inside the table (the
  /// rasterizer's in-range sub-span solve guarantees it), and the spans of
  /// one batch never alias (the rasterizer batches one triangle's rows —
  /// distinct framebuffer rows). The latter makes the result byte-identical
  /// to calling the kernel one span at a time in ANY order, and tiers
  /// exploit it: a tier may reorder the batch (e.g. to pack short spans in
  /// pairs) and keep its lane constants resident across the whole batch.
  void (*sample_rows_add)(float* const* dst, const SampleSpan* spans,
                          const std::uint32_t* lens, std::size_t count);
};

/// The ambient dispatched table: best available tier, or the DCSN_SIMD
/// override (scalar|sse2|avx2; unknown or unavailable values warn on
/// stderr and fall back to the detected best). First call decides.
[[nodiscard]] const KernelTable& kernels();

/// Tier behind kernels().
[[nodiscard]] Tier active_tier();

/// Re-points kernels() at another *available* tier (util::Error otherwise).
/// For tests and tier-ablation benches only; call between renders, never
/// while workers are inside the rasterizer.
void set_active_tier(Tier tier);

/// True when this host can run `tier`.
[[nodiscard]] bool tier_available(Tier tier);

/// Every tier this host can run, scalar first.
[[nodiscard]] std::vector<Tier> available_tiers();

/// A specific tier's kernels (util::Error when unavailable).
[[nodiscard]] const KernelTable& kernels_for(Tier tier);

/// "scalar" / "sse2" / "avx2".
[[nodiscard]] const char* tier_name(Tier tier);

/// Parses a DCSN_SIMD-style name; returns false on unknown names.
[[nodiscard]] bool tier_from_name(std::string_view name, Tier& out);

/// Detected CPU features, e.g. "sse2 sse4.2 avx avx2 fma" — recorded in
/// bench JSON reports so perf baselines name the ISA they ran on.
[[nodiscard]] std::string cpu_flags();

}  // namespace dcsn::util::simd
