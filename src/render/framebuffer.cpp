#include "render/framebuffer.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "util/error.hpp"
#include "util/hash.hpp"
#include "util/simd.hpp"
#include "util/simd_dispatch.hpp"

namespace dcsn::render {

namespace {
// Validated before the pixel vector is sized: a negative dimension cast to
// size_t would otherwise hit the allocator first and throw the wrong type.
std::size_t checked_pixel_count(int width, int height) {
  DCSN_CHECK(width > 0 && height > 0, "framebuffer dimensions must be positive");
  return static_cast<std::size_t>(width) * static_cast<std::size_t>(height);
}
}  // namespace

Framebuffer::Framebuffer(int width, int height)
    : width_(width), height_(height), data_(checked_pixel_count(width, height), 0.0f) {}

void Framebuffer::clear(float value) {
  std::fill(data_.begin(), data_.end(), value);
}

void Framebuffer::reset(int width, int height) {
  const std::size_t count = checked_pixel_count(width, height);
  width_ = width;
  height_ = height;
  data_.assign(count, 0.0f);
}

void Framebuffer::accumulate(const Framebuffer& src) {
  DCSN_CHECK(src.width_ == width_ && src.height_ == height_,
             "accumulate requires equal framebuffer sizes");
  // Dispatched util::simd tier; every tier's add is the lattice-exact
  // gather-blend accumulation, bit-identical across tiers.
  util::simd::kernels().add(data_.data(), src.data_.data(), data_.size());
}

void Framebuffer::copy_rect_from(const Framebuffer& src, int x0, int y0) {
  // Widen before adding: for hostile origins near INT_MAX the naive
  // `x0 + src.width_` wraps (signed overflow, UB) and can accept an
  // out-of-bounds rect. See Framebuffer.CopyRectRejectsOverflowingOrigin.
  DCSN_CHECK(x0 >= 0 && y0 >= 0 &&
                 static_cast<std::int64_t>(x0) + src.width_ <= width_ &&
                 static_cast<std::int64_t>(y0) + src.height_ <= height_,
             "tile must fit inside the destination");
  for (int y = 0; y < src.height_; ++y) {
    const auto src_row = src.pixels().row(y);
    std::copy(src_row.begin(), src_row.end(), pixels().row(y + y0).begin() + x0);
  }
}

void Framebuffer::add_rect_from(const Framebuffer& src, int x0, int y0) {
  // Same signed-overflow hazard as copy_rect_from: widen before adding.
  DCSN_CHECK(x0 >= 0 && y0 >= 0 &&
                 static_cast<std::int64_t>(x0) + src.width_ <= width_ &&
                 static_cast<std::int64_t>(y0) + src.height_ <= height_,
             "tile must fit inside the destination");
  const auto& kernels = util::simd::kernels();
  for (int y = 0; y < src.height_; ++y) {
    kernels.add(pixels().row(y + y0).data() + x0, src.pixels().row(y).data(),
                static_cast<std::size_t>(src.width_));
  }
}

void Framebuffer::extract_rect_into(Framebuffer& dst, int x0, int y0) const {
  // Same signed-overflow hazard as copy_rect_from: widen before adding.
  DCSN_CHECK(x0 >= 0 && y0 >= 0 &&
                 static_cast<std::int64_t>(x0) + dst.width_ <= width_ &&
                 static_cast<std::int64_t>(y0) + dst.height_ <= height_,
             "extracted rect must lie inside the source");
  for (int y = 0; y < dst.height_; ++y) {
    const auto src_row = pixels().row(y + y0);
    std::copy(src_row.begin() + x0, src_row.begin() + x0 + dst.width_,
              dst.pixels().row(y).begin());
  }
}

float Framebuffer::max_abs_diff(const Framebuffer& other) const {
  DCSN_CHECK(other.width_ == width_ && other.height_ == height_,
             "max_abs_diff requires equal framebuffer sizes");
  float worst = 0.0f;
  for (std::size_t i = 0; i < data_.size(); ++i) {
    worst = std::max(worst, std::abs(data_[i] - other.data_[i]));
  }
  return worst;
}

std::uint64_t Framebuffer::content_hash() const {
  // Dimensions fold in first so reshaped buffers with equal bytes cannot
  // collide; pixels hash as raw bits, which is exactly as strict as
  // operator== except that it distinguishes -0.0f from +0.0f (the engine
  // never produces -0.0f — contributions are lattice-snapped, see
  // util/simd.hpp). lane_hash, not fnv1a: this runs several times per
  // served frame.
  const int dims[2] = {width_, height_};
  const std::uint64_t h = util::lane_hash(dims, sizeof dims);
  return util::lane_hash(data_.data(), data_.size() * sizeof(float), h);
}

std::pair<float, float> Framebuffer::min_max() const {
  if (data_.empty()) return {0.0f, 0.0f};
  const auto [lo, hi] = std::minmax_element(data_.begin(), data_.end());
  return {*lo, *hi};
}

double Framebuffer::mean() const {
  if (data_.empty()) return 0.0;
  double sum = 0.0;
  for (const float v : data_) sum += v;
  return sum / static_cast<double>(data_.size());
}

bool Framebuffer::operator==(const Framebuffer& other) const {
  return width_ == other.width_ && height_ == other.height_ && data_ == other.data_;
}

}  // namespace dcsn::render
