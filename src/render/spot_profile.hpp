// The spot function h(x): intensity profiles sampled as textures.
//
// A spot is "any geometric shape ... usually a small circle" (paper §1).
// On the Onyx2 the spot was a texture map applied to the spot polygon; here
// the profile is a precomputed table the rasterizer samples bilinearly —
// the same role, same cost structure (one filtered texture fetch per
// fragment). Profiles are immutable after construction and shared across
// threads by shared_ptr (they are the pipe's "texture objects").
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "util/simd_dispatch.hpp"

namespace dcsn::render {

enum class SpotShape {
  kDisc,      ///< hard-edged circle — van Wijk's original spot
  kGaussian,  ///< exp(-r^2/2sigma^2) falloff, sigma = radius/2
  kCosine,    ///< raised-cosine falloff, C1 at the rim
  kRing,      ///< annulus, peak at r = 0.5 — used for filtered spot variants
};

class SpotProfile {
 public:
  /// Largest table side: 1024^2 floats are 4 MiB. The wire decoder
  /// (net::OpenSessionMsg) rejects larger resolutions before any table is
  /// built.
  static constexpr int kMaxResolution = 1024;

  /// Builds a `resolution`-squared table of the given shape, 2 <= resolution
  /// <= kMaxResolution. The profile's support is the inscribed circle of the
  /// unit square; integral over the square is normalized to a
  /// shape-independent constant so textures built from different shapes
  /// have comparable energy.
  SpotProfile(SpotShape shape, int resolution = 64);

  /// Bilinear sample at (u, v) in [0,1]^2; zero outside. The guard is
  /// written negated so a NaN coordinate (degenerate barycentric weights on
  /// near-zero-area triangles) falls into the zero branch instead of
  /// reaching the int cast, which would be undefined.
  ///
  /// The table stores one duplicated row and column past the logical
  /// resolution (row stride padded further for alignment, see
  /// padded_stride), so the +1 neighbour fetch needs no clamp: at the last
  /// texel it lerps between equal values, which is exactly what the clamped
  /// fetch produced.
  [[nodiscard]] float sample(float u, float v) const {
    if (!(u >= 0.0f && u < 1.0f && v >= 0.0f && v < 1.0f)) return 0.0f;
    const float fx = u * static_cast<float>(res_ - 1);
    const float fy = v * static_cast<float>(res_ - 1);
    const int x0 = static_cast<int>(fx);
    const int y0 = static_cast<int>(fy);
    const float tx = fx - static_cast<float>(x0);
    const float ty = fy - static_cast<float>(y0);
    const float a = at(x0, y0) + (at(x0 + 1, y0) - at(x0, y0)) * tx;
    const float b = at(x0, y0 + 1) + (at(x0 + 1, y0 + 1) - at(x0, y0 + 1)) * tx;
    return a + (b - a) * ty;
  }

  /// Incremental bilinear fetch along raster spans. UV is affine across a
  /// span (du/dx, dv/dx are per-triangle constants), so the sampler is
  /// built once per triangle with the gradient, rebased per row with
  /// start_row(), and each fragment costs one fixed-point position step
  /// plus the four-texel lerp — no bounds checks: the caller restricts each
  /// span to fragments whose UV lies in [0,1) (the span rasterizer's
  /// in-range sub-span solve), and the duplicated table row/column covers
  /// the +1 neighbour at the last texel.
  ///
  /// Texel positions are stepped in 32.32 fixed point: `base + k * step` is
  /// exact integer arithmetic (no error accumulation over the span), the
  /// texel index is a shift and the lerp fraction a mask — far cheaper per
  /// fragment than double evaluation plus float/int conversions, while the
  /// one-shot quantization error (< 2^-32 texel) is invisible at float
  /// precision.
  class RowSampler {
   public:
    /// (du, dv): UV change per step. Gradients whose magnitude exceeds one
    /// profile width per step are recorded as zero: a span of two or more
    /// in-range fragments bounds |du| by 1/(steps-1) <= 1 and therefore
    /// |du * scale| by scale (plus rounding slack), so an oversized
    /// gradient can only occur on single-fragment spans, where the step is
    /// never applied — the cap exists purely to keep fixed() in range for
    /// arbitrary (NaN/huge) gradients of degenerate geometry.
    RowSampler(const SpotProfile& p, double du, double dv)
        : table_(p.table_.data()),
          stride_(p.stride_),
          scale_(static_cast<double>(p.res_ - 1)) {
      const double cap = scale_ + 1.0;
      const double sx = du * scale_;
      const double sy = dv * scale_;
      dfx_ = sx >= -cap && sx <= cap ? fixed(sx) : 0;
      dfy_ = sy >= -cap && sy <= cap ? fixed(sy) : 0;
    }

    /// Rebase to a row's span start. Precondition: (u0, v0) in [0,1)^2.
    void start_row(double u0, double v0) {
      fx0_ = fixed(u0 * scale_);
      fy0_ = fixed(v0 * scale_);
    }

    /// Texel at step k of the current row. Precondition: the UV at step k
    /// is in [0,1)^2.
    [[nodiscard]] float sample_at(int k) const {
      std::int64_t fx = fx0_ + k * dfx_;
      std::int64_t fy = fy0_ + k * dfy_;
      // Quantization slack is under a millionth of a texel but can dip one
      // fixed-point ulp below zero; clamp instead of faulting. (The high
      // side needs no clamp: the slack keeps the index at res-1 and the +1
      // neighbour lands on the duplicated table column/row.)
      fx = fx < 0 ? 0 : fx;
      fy = fy < 0 ? 0 : fy;
      const int x0 = static_cast<int>(fx >> 32);
      const int y0 = static_cast<int>(fy >> 32);
      const float tx =
          static_cast<float>(static_cast<std::uint32_t>(fx)) * 0x1p-32f;
      const float ty =
          static_cast<float>(static_cast<std::uint32_t>(fy)) * 0x1p-32f;
      const float* row0 = table_ + static_cast<std::size_t>(y0) * stride_;
      const float* row1 = row0 + stride_;
      const float a = row0[x0] + (row0[x0 + 1] - row0[x0]) * tx;
      const float b = row1[x0] + (row1[x0 + 1] - row1[x0]) * tx;
      return a + (b - a) * ty;
    }

    /// The sampler state rebased to step `base`, packaged for the
    /// runtime-dispatched span kernel (util::simd::KernelTable's
    /// sample_rows_add). Exact: `fx0_ + base * dfx_` is the same int64
    /// arithmetic sample_at(base + k) performs, so a kernel walking the
    /// returned span reproduces sample_at's positions bit-for-bit.
    /// Precondition: as for sample_at, every sampled step stays in [0,1)^2.
    [[nodiscard]] util::simd::SampleSpan span(int base, float weight) const {
      return {table_,
              stride_,
              fx0_ + static_cast<std::int64_t>(base) * dfx_,
              fy0_ + static_cast<std::int64_t>(base) * dfy_,
              dfx_,
              dfy_,
              weight};
    }

   private:
    static std::int64_t fixed(double texels) {
      return static_cast<std::int64_t>(texels * 4294967296.0 +
                                       (texels < 0 ? -0.5 : 0.5));
    }

    const float* table_;
    std::size_t stride_;
    double scale_;
    std::int64_t fx0_ = 0, fy0_ = 0, dfx_ = 0, dfy_ = 0;
  };

  [[nodiscard]] SpotShape shape() const { return shape_; }
  [[nodiscard]] int resolution() const { return res_; }

  /// Shared immutable profile (a "texture object" bound via pipe state).
  [[nodiscard]] static std::shared_ptr<const SpotProfile> make_shared(
      SpotShape shape, int resolution = 64) {
    return std::make_shared<const SpotProfile>(shape, resolution);
  }

 private:
  /// Valid for x, y in [0, res]: the table is padded with one duplicated
  /// row and column so bilinear neighbour fetches never need a clamp.
  [[nodiscard]] float at(int x, int y) const {
    return table_[static_cast<std::size_t>(y) * stride_ + static_cast<std::size_t>(x)];
  }

  /// Row stride: the res+1 logical columns (one duplicated for the +1
  /// neighbour) rounded up to a 16-float (64-byte) multiple, so every table
  /// row starts on a cache-line boundary and the vectorized neighbour
  /// gathers stay alignment-friendly. The pad floats past column res are
  /// never fetched (they hold zero).
  [[nodiscard]] static std::size_t padded_stride(int res) {
    const std::size_t needed = static_cast<std::size_t>(res) + 1;
    return (needed + 15) & ~static_cast<std::size_t>(15);
  }

  SpotShape shape_;
  int res_;
  std::size_t stride_;        ///< padded row stride in floats
  std::vector<float> table_;  ///< (res+1) rows x stride_ floats, row-major
};

}  // namespace dcsn::render
