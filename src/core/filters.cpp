#include "core/filters.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <vector>

#include "core/runtime.hpp"
#include "render/image.hpp"
#include "util/error.hpp"

namespace dcsn::core {

namespace {

// One horizontal box-blur pass from src into dst (running-sum, O(1) per px).
void blur_rows(util::Span2D<const float> src, util::Span2D<float> dst, int radius) {
  const int w = src.width();
  const int h = src.height();
  const float inv = 1.0f / static_cast<float>(2 * radius + 1);
  for (int y = 0; y < h; ++y) {
    const auto in = src.row(y);
    auto out = dst.row(y);
    float sum = 0.0f;
    // Border-clamped initial window around x = 0.
    for (int k = -radius; k <= radius; ++k)
      sum += in[static_cast<std::size_t>(std::clamp(k, 0, w - 1))];
    for (int x = 0; x < w; ++x) {
      out[static_cast<std::size_t>(x)] = sum * inv;
      const int leaving = std::clamp(x - radius, 0, w - 1);
      const int entering = std::clamp(x + radius + 1, 0, w - 1);
      sum += in[static_cast<std::size_t>(entering)] -
             in[static_cast<std::size_t>(leaving)];
    }
  }
}

// Transpose so the vertical pass can reuse blur_rows on contiguous rows.
// Each participant writes whole output rows, so no two share a cache line
// but at a range's ends. The high-pass subtraction and the contrast
// normalization stay plain loops: they stream memory at one add or
// multiply per pixel, and bench_micro shows no gain from the pool there.
render::Framebuffer transpose(const render::Framebuffer& src) {
  render::Framebuffer dst(src.height(), src.width());
  const auto in = src.pixels();
  auto out = dst.pixels();
  parallel_for(out.height(), [&](std::int64_t y0, std::int64_t y1) {
    for (auto y = static_cast<int>(y0); y < y1; ++y)
      for (int x = 0; x < out.width(); ++x) out(x, y) = in(y, x);
  });
  return dst;
}

}  // namespace

render::Framebuffer box_blur(const render::Framebuffer& texture, int radius) {
  DCSN_CHECK(radius >= 0, "blur radius must be non-negative");
  if (radius == 0) return texture;
  render::Framebuffer tmp(texture.width(), texture.height());
  blur_rows(texture.pixels(), tmp.pixels(), radius);
  render::Framebuffer tmp_t = transpose(tmp);
  render::Framebuffer out_t(tmp_t.width(), tmp_t.height());
  blur_rows(tmp_t.pixels(), out_t.pixels(), radius);
  return transpose(out_t);
}

render::Framebuffer high_pass(const render::Framebuffer& texture, int radius) {
  render::Framebuffer low = box_blur(texture, radius);
  render::Framebuffer out(texture.width(), texture.height());
  const auto in = texture.pixels();
  const auto lo = low.pixels();
  auto dst = out.pixels();
  for (int y = 0; y < in.height(); ++y)
    for (int x = 0; x < in.width(); ++x) dst(x, y) = in(x, y) - lo(x, y);
  return out;
}

void normalize_contrast(render::Framebuffer& texture, double sigmas) {
  DCSN_CHECK(sigmas > 0.0, "sigma range must be positive");
  const double mean = texture.mean();
  const double sigma = render::texture_stddev(texture);
  if (sigma <= 0.0) return;
  const auto scale = static_cast<float>(1.0 / (sigmas * sigma));
  const auto offset = static_cast<float>(mean);
  auto px = texture.pixels();
  for (int y = 0; y < px.height(); ++y)
    for (int x = 0; x < px.width(); ++x) px(x, y) = (px(x, y) - offset) * scale;
}

void equalize_histogram(render::Framebuffer& texture) {
  const auto [lo, hi] = texture.min_max();
  if (!(hi > lo)) return;
  constexpr int kBins = 256;
  std::array<std::int64_t, kBins> histogram{};
  auto px = texture.pixels();
  const float scale = static_cast<float>(kBins - 1) / (hi - lo);
  for (int y = 0; y < px.height(); ++y)
    for (int x = 0; x < px.width(); ++x) {
      const int bin = static_cast<int>((px(x, y) - lo) * scale);
      ++histogram[static_cast<std::size_t>(std::clamp(bin, 0, kBins - 1))];
    }
  std::array<double, kBins> cdf{};
  double acc = 0.0;
  const double total = static_cast<double>(texture.pixel_count());
  for (int b = 0; b < kBins; ++b) {
    acc += static_cast<double>(histogram[static_cast<std::size_t>(b)]);
    cdf[static_cast<std::size_t>(b)] = acc / total;
  }
  parallel_for(px.height(), [&](std::int64_t y0, std::int64_t y1) {
    for (auto y = static_cast<int>(y0); y < y1; ++y)
      for (int x = 0; x < px.width(); ++x) {
        const int bin = static_cast<int>((px(x, y) - lo) * scale);
        const double c = cdf[static_cast<std::size_t>(std::clamp(bin, 0, kBins - 1))];
        px(x, y) = static_cast<float>(c * 2.0 - 1.0);
      }
  });
}

}  // namespace dcsn::core
