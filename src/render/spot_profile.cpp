#include "render/spot_profile.hpp"

#include <cmath>
#include <numbers>

#include "util/error.hpp"

namespace dcsn::render {

namespace {

float shape_value(SpotShape shape, float r) {
  // r is the distance from the spot center in units of the spot radius
  // (r = 1 at the rim of the inscribed circle).
  if (r >= 1.0f) return 0.0f;
  switch (shape) {
    case SpotShape::kDisc:
      return 1.0f;
    case SpotShape::kGaussian: {
      // sigma = 1/2 of the radius; truncated at the rim.
      const float s = r * 2.0f;
      return std::exp(-0.5f * s * s);
    }
    case SpotShape::kCosine:
      return 0.5f * (1.0f + std::cos(std::numbers::pi_v<float> * r));
    case SpotShape::kRing: {
      // Raised cosine bump centered at r = 0.5, width 0.5.
      const float d = std::abs(r - 0.5f) * 4.0f;
      return d >= 1.0f ? 0.0f
                       : 0.5f * (1.0f + std::cos(std::numbers::pi_v<float> * d));
    }
  }
  return 0.0f;
}

}  // namespace

SpotProfile::SpotProfile(SpotShape shape, int resolution)
    : shape_(shape), res_(resolution), stride_(padded_stride(resolution)) {
  DCSN_CHECK(resolution >= 2 && resolution <= kMaxResolution,
             "profile resolution must be within [2, 1024]");
  // One duplicated row and column let the bilinear samplers fetch the +1
  // neighbour unconditionally; the row stride is additionally padded to a
  // cache-line multiple (padded_stride) for the vectorized gathers. Pad
  // floats beyond column res are never read and stay zero.
  const std::size_t stride = stride_;
  table_.resize(stride * (static_cast<std::size_t>(res_) + 1));
  double integral = 0.0;
  for (int y = 0; y < res_; ++y) {
    for (int x = 0; x < res_; ++x) {
      const float u = (static_cast<float>(x) + 0.5f) / static_cast<float>(res_);
      const float v = (static_cast<float>(y) + 0.5f) / static_cast<float>(res_);
      const float dx = u - 0.5f;
      const float dy = v - 0.5f;
      const float r = 2.0f * std::sqrt(dx * dx + dy * dy);  // 1 at inscribed rim
      const float value = shape_value(shape, r);
      table_[static_cast<std::size_t>(y) * stride + static_cast<std::size_t>(x)] =
          value;
      integral += value;
    }
  }
  // Normalize energy: scale so the mean over the unit square is 0.25 (the
  // disc's natural level ~ pi/4 / ~3). Keeps textures from different shapes
  // at comparable contrast. (Padding excluded from the mean.)
  const double mean =
      integral / (static_cast<double>(res_) * static_cast<double>(res_));
  if (mean > 0.0) {
    const auto scale = static_cast<float>(0.25 / mean);
    for (float& v : table_) v *= scale;
  }
  // Fill the padding after normalization: copy the last real column into
  // the padded one, then the last real row into the padded row.
  for (int y = 0; y < res_; ++y) {
    table_[static_cast<std::size_t>(y) * stride + static_cast<std::size_t>(res_)] =
        table_[static_cast<std::size_t>(y) * stride +
               static_cast<std::size_t>(res_ - 1)];
  }
  for (std::size_t x = 0; x < stride; ++x) {
    table_[static_cast<std::size_t>(res_) * stride + x] =
        table_[static_cast<std::size_t>(res_ - 1) * stride + x];
  }
}

}  // namespace dcsn::render
