// Unit tests for the software graphics subsystem: framebuffer, spot
// profiles, rasterizer (fill rule, UV interpolation, clipping), command
// buffers, colormaps, images and overlays.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "render/colormap.hpp"
#include "render/command_buffer.hpp"
#include "render/framebuffer.hpp"
#include "render/image.hpp"
#include "render/overlay.hpp"
#include "render/rasterizer.hpp"
#include "render/spot_profile.hpp"
#include "util/simd.hpp"
#include "util/error.hpp"

namespace {

using namespace dcsn;
using render::MeshVertex;

// ------------------------------------------------------------ Framebuffer ---

TEST(Framebuffer, ClearAndAccess) {
  render::Framebuffer fb(8, 4);
  fb.clear(0.5f);
  EXPECT_EQ(fb.at(7, 3), 0.5f);
  fb.at(2, 1) = -1.0f;
  EXPECT_EQ(fb.at(2, 1), -1.0f);
  EXPECT_EQ(fb.pixel_count(), 32u);
  EXPECT_EQ(fb.byte_size(), 128u);
}

TEST(Framebuffer, AccumulateAdds) {
  render::Framebuffer a(4, 4), b(4, 4);
  a.clear(1.0f);
  b.clear(0.25f);
  a.accumulate(b);
  EXPECT_EQ(a.at(3, 3), 1.25f);
}

TEST(Framebuffer, AccumulateRejectsSizeMismatch) {
  render::Framebuffer a(4, 4), b(4, 5);
  EXPECT_THROW(a.accumulate(b), util::Error);
}

TEST(Framebuffer, CopyRectPlacesTile) {
  render::Framebuffer big(8, 8), tile(3, 2);
  tile.clear(2.0f);
  big.copy_rect_from(tile, 4, 5);
  EXPECT_EQ(big.at(4, 5), 2.0f);
  EXPECT_EQ(big.at(6, 6), 2.0f);
  EXPECT_EQ(big.at(3, 5), 0.0f);
  EXPECT_EQ(big.at(4, 4), 0.0f);
  EXPECT_THROW(big.copy_rect_from(tile, 7, 7), util::Error);
}

// Hostile origins near INT_MAX: naive `x0 + src.width() <= width()` wraps
// (signed overflow, UB) and can ACCEPT an out-of-bounds rect. The checks
// widen to 64-bit before adding; these inputs must throw, not wrap.
TEST(Framebuffer, CopyRectRejectsOverflowingOrigin) {
  render::Framebuffer big(8, 8), tile(3, 2);
  const int huge = std::numeric_limits<int>::max() - 1;
  EXPECT_THROW(big.copy_rect_from(tile, huge, 0), util::Error);
  EXPECT_THROW(big.copy_rect_from(tile, 0, huge), util::Error);
  EXPECT_THROW(big.copy_rect_from(tile, huge, huge), util::Error);
  EXPECT_THROW(big.copy_rect_from(tile, -1, 0), util::Error);
  EXPECT_THROW(big.copy_rect_from(tile, 0, -1), util::Error);
}

TEST(Framebuffer, ExtractRectRoundTripsAndRejectsHostileOrigins) {
  render::Framebuffer big(8, 8), tile(3, 2);
  big.clear(4.0f);
  big.extract_rect_into(tile, 2, 3);
  EXPECT_EQ(tile.at(0, 0), 4.0f);
  EXPECT_EQ(tile.at(2, 1), 4.0f);

  const int huge = std::numeric_limits<int>::max() - 1;
  EXPECT_THROW(big.extract_rect_into(tile, huge, 0), util::Error);
  EXPECT_THROW(big.extract_rect_into(tile, 0, huge), util::Error);
  EXPECT_THROW(big.extract_rect_into(tile, huge, huge), util::Error);
  EXPECT_THROW(big.extract_rect_into(tile, -1, -1), util::Error);
  EXPECT_THROW(big.extract_rect_into(tile, 7, 7), util::Error);
}

TEST(Framebuffer, MeanAndMinMax) {
  render::Framebuffer fb(2, 2);
  fb.at(0, 0) = 1.0f;
  fb.at(1, 0) = -1.0f;
  fb.at(0, 1) = 3.0f;
  fb.at(1, 1) = 1.0f;
  EXPECT_DOUBLE_EQ(fb.mean(), 1.0);
  const auto [lo, hi] = fb.min_max();
  EXPECT_EQ(lo, -1.0f);
  EXPECT_EQ(hi, 3.0f);
}

// ------------------------------------------------------------ SpotProfile ---

TEST(SpotProfile, CenterIsBrightestRimIsZero) {
  for (const auto shape : {render::SpotShape::kDisc, render::SpotShape::kGaussian,
                           render::SpotShape::kCosine}) {
    const render::SpotProfile profile(shape, 64);
    const float center = profile.sample(0.5f, 0.5f);
    EXPECT_GT(center, 0.0f) << static_cast<int>(shape);
    // Corners lie outside the inscribed circle.
    EXPECT_EQ(profile.sample(0.02f, 0.02f), 0.0f);
    EXPECT_EQ(profile.sample(0.98f, 0.98f), 0.0f);
    // Outside [0,1]^2 is zero by contract.
    EXPECT_EQ(profile.sample(-0.1f, 0.5f), 0.0f);
    EXPECT_EQ(profile.sample(0.5f, 1.1f), 0.0f);
  }
}

TEST(SpotProfile, RingPeaksAtMidRadius) {
  const render::SpotProfile ring(render::SpotShape::kRing, 128);
  const float center = ring.sample(0.5f, 0.5f);
  const float mid = ring.sample(0.75f, 0.5f);  // r = 0.5
  EXPECT_GT(mid, center);
}

TEST(SpotProfile, EnergyNormalizedAcrossShapes) {
  // All shapes integrate to the same mean (0.25) over the unit square, so
  // switching shapes keeps texture contrast comparable.
  for (const auto shape : {render::SpotShape::kDisc, render::SpotShape::kGaussian,
                           render::SpotShape::kCosine, render::SpotShape::kRing}) {
    const render::SpotProfile profile(shape, 64);
    double sum = 0.0;
    constexpr int kN = 200;
    for (int y = 0; y < kN; ++y)
      for (int x = 0; x < kN; ++x)
        sum += profile.sample((x + 0.5f) / kN, (y + 0.5f) / kN);
    EXPECT_NEAR(sum / (kN * kN), 0.25, 0.02) << static_cast<int>(shape);
  }
}

TEST(SpotProfile, IsRadiallySymmetric) {
  const render::SpotProfile profile(render::SpotShape::kCosine, 128);
  const float right = profile.sample(0.75f, 0.5f);
  const float left = profile.sample(0.25f, 0.5f);
  const float up = profile.sample(0.5f, 0.75f);
  EXPECT_NEAR(right, left, 1e-5f);
  EXPECT_NEAR(right, up, 1e-5f);
}

// ---------------------------------------------------------- CommandBuffer ---

TEST(CommandBuffer, AddMeshLayout) {
  render::CommandBuffer buf;
  auto v = buf.add_mesh(0.5f, 3, 2);
  EXPECT_EQ(v.size(), 6u);
  EXPECT_EQ(buf.mesh_count(), 1u);
  EXPECT_EQ(buf.vertex_count(), 6u);
  const auto& h = buf.meshes()[0];
  EXPECT_EQ(h.cols, 3);
  EXPECT_EQ(h.rows, 2);
  EXPECT_EQ(h.intensity, 0.5f);
  EXPECT_EQ(buf.vertices_of(h).size(), 6u);
}

TEST(CommandBuffer, ByteSizeMatchesBandwidthAccounting) {
  render::CommandBuffer buf;
  buf.add_mesh(1.0f, 32, 17);  // the paper's atmospheric mesh
  // 544 vertices * 16 bytes + 1 header * 12 bytes.
  EXPECT_EQ(buf.byte_size(), 544u * 16u + sizeof(render::MeshHeader));
}

TEST(CommandBuffer, SecondMeshOffsets) {
  render::CommandBuffer buf;
  buf.add_mesh(1.0f, 2, 2);
  auto v2 = buf.add_mesh(2.0f, 2, 2);
  v2[0].x = 99.0f;
  EXPECT_EQ(buf.meshes()[1].vertex_offset, 4u);
  EXPECT_EQ(buf.vertices_of(buf.meshes()[1])[0].x, 99.0f);
}

TEST(CommandBuffer, RejectsDegenerateMesh) {
  render::CommandBuffer buf;
  EXPECT_THROW(buf.add_mesh(1.0f, 1, 2), util::Error);
}

// -------------------------------------------------------------- Rasterizer ---

render::SpotProfile flat_profile() {
  // A disc profile normalized to mean 0.25 has value 0.25/(pi/4) ~ 0.318
  // inside the inscribed circle. For coverage tests we want a profile that
  // is 1 everywhere, so use the disc and divide expectations by its level.
  return render::SpotProfile(render::SpotShape::kDisc, 64);
}

// Fills a rectangle [0,w]x[0,h] with a 2x2 mesh and returns the framebuffer.
render::Framebuffer raster_rect(int fbw, int fbh, float x0, float y0, float x1,
                                float y1, float weight = 1.0f) {
  render::Framebuffer fb(fbw, fbh);
  const render::SpotProfile profile = flat_profile();
  render::CommandBuffer buf;
  auto v = buf.add_mesh(weight, 2, 2);
  // Constant UV at the profile center: every fragment samples the same value.
  v[0] = {x0, y0, 0.5f, 0.5f};
  v[1] = {x1, y0, 0.5f, 0.5f};
  v[2] = {x0, y1, 0.5f, 0.5f};
  v[3] = {x1, y1, 0.5f, 0.5f};
  render::RasterStats stats;
  render::rasterize_buffer({fb.pixels(), 0, 0}, buf, profile,
                           render::BlendMode::kAdditive, stats);
  return fb;
}

int count_nonzero(const render::Framebuffer& fb) {
  int count = 0;
  for (int y = 0; y < fb.height(); ++y)
    for (int x = 0; x < fb.width(); ++x)
      if (fb.at(x, y) != 0.0f) ++count;
  return count;
}

TEST(Rasterizer, PixelExactRectangleCoverage) {
  // A rectangle covering [2,6)x[1,5) in pixel coordinates touches exactly
  // those pixel centers: 4x4 = 16 pixels.
  const auto fb = raster_rect(16, 16, 2.0f, 1.0f, 6.0f, 5.0f);
  EXPECT_EQ(count_nonzero(fb), 16);
  EXPECT_NE(fb.at(2, 1), 0.0f);
  EXPECT_NE(fb.at(5, 4), 0.0f);
  EXPECT_EQ(fb.at(6, 4), 0.0f);  // right edge exclusive
  EXPECT_EQ(fb.at(2, 5), 0.0f);  // bottom edge exclusive
}

TEST(Rasterizer, SharedQuadEdgeBlendsEachPixelOnce) {
  // Two quads of one mesh share the edge x = 8: with the top-left fill rule
  // no pixel may receive two contributions (additive doubling would show).
  render::Framebuffer fb(32, 16);
  const render::SpotProfile profile = flat_profile();
  render::CommandBuffer buf;
  auto v = buf.add_mesh(1.0f, 3, 2);
  v[0] = {2.0f, 2.0f, 0.5f, 0.5f};
  v[1] = {8.0f, 2.0f, 0.5f, 0.5f};
  v[2] = {14.0f, 2.0f, 0.5f, 0.5f};
  v[3] = {2.0f, 10.0f, 0.5f, 0.5f};
  v[4] = {8.0f, 10.0f, 0.5f, 0.5f};
  v[5] = {14.0f, 10.0f, 0.5f, 0.5f};
  render::RasterStats stats;
  render::rasterize_buffer({fb.pixels(), 0, 0}, buf, profile,
                           render::BlendMode::kAdditive, stats);
  EXPECT_EQ(stats.quads, 2);
  // All covered pixels must carry the same value (single contribution).
  const float value = fb.at(4, 4);
  ASSERT_NE(value, 0.0f);
  for (int y = 0; y < 16; ++y)
    for (int x = 0; x < 32; ++x) {
      const float p = fb.at(x, y);
      EXPECT_TRUE(p == 0.0f || std::abs(p - value) < 1e-6f)
          << "pixel (" << x << "," << y << ") = " << p;
    }
  // Total coverage = 12 x 8 pixels.
  EXPECT_EQ(count_nonzero(fb), 96);
}

TEST(Rasterizer, WindingOrderDoesNotMatter) {
  // A folded ribbon flips triangle winding; both orientations must fill.
  render::Framebuffer fb1(16, 16), fb2(16, 16);
  const render::SpotProfile profile = flat_profile();
  const MeshVertex a{2, 2, 0.5f, 0.5f}, b{10, 2, 0.5f, 0.5f}, c{2, 10, 0.5f, 0.5f};
  render::RasterStats stats;
  render::rasterize_triangle({fb1.pixels(), 0, 0}, a, b, c, 1.0f, profile,
                             render::BlendMode::kAdditive, stats);
  render::rasterize_triangle({fb2.pixels(), 0, 0}, a, c, b, 1.0f, profile,
                             render::BlendMode::kAdditive, stats);
  EXPECT_EQ(count_nonzero(fb1), count_nonzero(fb2));
  EXPECT_GT(count_nonzero(fb1), 20);
}

TEST(Rasterizer, DegenerateTriangleIsSkipped) {
  render::Framebuffer fb(8, 8);
  const render::SpotProfile profile = flat_profile();
  render::RasterStats stats;
  const MeshVertex a{1, 1, 0.5f, 0.5f}, b{5, 5, 0.5f, 0.5f};
  render::rasterize_triangle({fb.pixels(), 0, 0}, a, a, b, 1.0f, profile,
                             render::BlendMode::kAdditive, stats);
  EXPECT_EQ(count_nonzero(fb), 0);
  EXPECT_EQ(stats.fragments, 0);
}

TEST(Rasterizer, NonFiniteVerticesAreSkipped) {
  render::Framebuffer fb(8, 8);
  const render::SpotProfile profile = flat_profile();
  render::RasterStats stats;
  const float nan = std::nanf("");
  const MeshVertex a{nan, 1, 0.5f, 0.5f}, b{5, 1, 0.5f, 0.5f}, c{3, 6, 0.5f, 0.5f};
  render::rasterize_triangle({fb.pixels(), 0, 0}, a, b, c, 1.0f, profile,
                             render::BlendMode::kAdditive, stats);
  EXPECT_EQ(count_nonzero(fb), 0);
}

TEST(Rasterizer, ClipsToTargetBounds) {
  // Geometry hanging off all four sides must only touch valid pixels.
  const auto fb = raster_rect(8, 8, -5.0f, -5.0f, 13.0f, 13.0f);
  EXPECT_EQ(count_nonzero(fb), 64);
}

TEST(Rasterizer, ViewportOriginShiftsGeometry) {
  // Tile rasterization: a tile at origin (8, 4) sees global coordinates.
  render::Framebuffer tile(8, 8);
  const render::SpotProfile profile = flat_profile();
  render::CommandBuffer buf;
  auto v = buf.add_mesh(1.0f, 2, 2);
  v[0] = {8.0f, 4.0f, 0.5f, 0.5f};
  v[1] = {12.0f, 4.0f, 0.5f, 0.5f};
  v[2] = {8.0f, 8.0f, 0.5f, 0.5f};
  v[3] = {12.0f, 8.0f, 0.5f, 0.5f};
  render::RasterStats stats;
  render::rasterize_buffer({tile.pixels(), 8, 4}, buf, profile,
                           render::BlendMode::kAdditive, stats);
  EXPECT_EQ(count_nonzero(tile), 16);
  EXPECT_NE(tile.at(0, 0), 0.0f);  // global (8,4) = local (0,0)
}

TEST(Rasterizer, AdditiveBlendAccumulates) {
  auto fb = raster_rect(8, 8, 1, 1, 5, 5, 1.0f);
  const float single = fb.at(2, 2);
  const render::SpotProfile profile = flat_profile();
  render::CommandBuffer buf;
  auto v = buf.add_mesh(1.0f, 2, 2);
  v[0] = {1, 1, 0.5f, 0.5f};
  v[1] = {5, 1, 0.5f, 0.5f};
  v[2] = {1, 5, 0.5f, 0.5f};
  v[3] = {5, 5, 0.5f, 0.5f};
  render::RasterStats stats;
  render::rasterize_buffer({fb.pixels(), 0, 0}, buf, profile,
                           render::BlendMode::kAdditive, stats);
  EXPECT_NEAR(fb.at(2, 2), 2.0f * single, 1e-6f);
}

TEST(Rasterizer, MaximumBlendTakesMax) {
  render::Framebuffer fb(8, 8);
  const render::SpotProfile profile = flat_profile();
  render::CommandBuffer buf;
  auto add_quad = [&buf](float w) {
    auto v = buf.add_mesh(w, 2, 2);
    v[0] = {1, 1, 0.5f, 0.5f};
    v[1] = {5, 1, 0.5f, 0.5f};
    v[2] = {1, 5, 0.5f, 0.5f};
    v[3] = {5, 5, 0.5f, 0.5f};
  };
  add_quad(1.0f);
  add_quad(0.5f);  // smaller: must not reduce the max
  render::RasterStats stats;
  render::rasterize_buffer({fb.pixels(), 0, 0}, buf, profile,
                           render::BlendMode::kMaximum, stats);
  const float center_profile = profile.sample(0.5f, 0.5f);
  // Blended values sit on the contribution lattice (util/simd.hpp), so the
  // raw profile sample can differ by up to half a quantum.
  EXPECT_NEAR(fb.at(2, 2), center_profile, util::simd::kContributionQuantum);
}

TEST(Rasterizer, NegativeWeightSubtracts) {
  // Spot intensities are zero-mean: negative spots darken.
  const auto fb = raster_rect(8, 8, 1, 1, 5, 5, -1.0f);
  EXPECT_LT(fb.at(2, 2), 0.0f);
}

TEST(Rasterizer, UvInterpolationSamplesProfile) {
  // Rasterize a quad with full UV range; the framebuffer must reproduce the
  // profile's radial falloff (center bright, corners zero).
  render::Framebuffer fb(64, 64);
  const render::SpotProfile profile(render::SpotShape::kGaussian, 64);
  render::CommandBuffer buf;
  auto v = buf.add_mesh(1.0f, 2, 2);
  v[0] = {0, 0, 0, 0};
  v[1] = {64, 0, 1, 0};
  v[2] = {0, 64, 0, 1};
  v[3] = {64, 64, 1, 1};
  render::RasterStats stats;
  render::rasterize_buffer({fb.pixels(), 0, 0}, buf, profile,
                           render::BlendMode::kAdditive, stats);
  EXPECT_GT(fb.at(32, 32), fb.at(16, 16));
  EXPECT_GT(fb.at(16, 16), 0.0f);
  EXPECT_EQ(fb.at(1, 1), 0.0f);  // outside the inscribed circle
  EXPECT_EQ(stats.fragments, 64 * 64);
}

TEST(Rasterizer, StatsCountQuadsAndTriangles) {
  render::Framebuffer fb(32, 32);
  const render::SpotProfile profile = flat_profile();
  render::CommandBuffer buf;
  auto v = buf.add_mesh(1.0f, 4, 3);  // 3x2 quads
  for (int j = 0; j < 3; ++j)
    for (int i = 0; i < 4; ++i)
      v[static_cast<std::size_t>(j * 4 + i)] = {static_cast<float>(4 * i),
                                                static_cast<float>(4 * j), 0.5f, 0.5f};
  render::RasterStats stats;
  render::rasterize_buffer({fb.pixels(), 0, 0}, buf, profile,
                           render::BlendMode::kAdditive, stats);
  EXPECT_EQ(stats.quads, 6);
  EXPECT_EQ(stats.triangles, 12);
}

// --------------------------------------------------------------- colormap ---

TEST(Colormap, EndpointsAndClamping) {
  using render::ColormapKind;
  // Grayscale endpoints.
  EXPECT_EQ(render::colormap(ColormapKind::kGrayscale, 0.0), (render::Rgb{0, 0, 0}));
  EXPECT_EQ(render::colormap(ColormapKind::kGrayscale, 1.0),
            (render::Rgb{255, 255, 255}));
  // Rainbow: blue at 0, red at 1 (the paper's map).
  const auto blue = render::colormap(ColormapKind::kRainbow, 0.0);
  EXPECT_GT(blue.b, 200);
  EXPECT_LT(blue.r, 50);
  const auto red = render::colormap(ColormapKind::kRainbow, 1.0);
  EXPECT_GT(red.r, 200);
  EXPECT_LT(red.b, 50);
  // Values outside [0,1] clamp instead of wrapping.
  EXPECT_EQ(render::colormap(ColormapKind::kRainbow, -5.0), blue);
  EXPECT_EQ(render::colormap(ColormapKind::kRainbow, 5.0), red);
}

TEST(Colormap, DivergingIsWhiteAtCenter) {
  const auto mid = render::colormap(render::ColormapKind::kDiverging, 0.5);
  EXPECT_GT(mid.r, 240);
  EXPECT_GT(mid.g, 240);
  EXPECT_GT(mid.b, 240);
}

TEST(Colormap, ViridisIsMonotonicInLuminance) {
  double last = -1.0;
  for (int k = 0; k <= 10; ++k) {
    const auto c = render::colormap(render::ColormapKind::kViridis, k / 10.0);
    const double luma = 0.2126 * c.r + 0.7152 * c.g + 0.0722 * c.b;
    EXPECT_GT(luma, last);
    last = luma;
  }
}

// ------------------------------------------------------------------ image ---

TEST(Image, ToneMapCentersZeroAtMidGray) {
  render::Framebuffer fb(4, 4);  // all zeros
  const render::Image img = render::texture_to_image(fb);
  EXPECT_EQ(img.at(0, 0).r, 128);  // lround(0.5 * 255) rounds half up
}

TEST(Image, ToneMapUsesSymmetricRange) {
  render::Framebuffer fb(2, 1);
  fb.at(0, 0) = -1.0f;
  fb.at(1, 0) = 1.0f;
  const render::Image img = render::texture_to_image(fb);
  // Symmetric values map symmetrically around mid-gray.
  EXPECT_NEAR(img.at(0, 0).r + img.at(1, 0).r, 255, 1);
  EXPECT_LT(img.at(0, 0).r, img.at(1, 0).r);
}

TEST(Image, BlendIgnoresOutOfBounds) {
  render::Image img(2, 2);
  EXPECT_NO_THROW(img.blend(-1, 0, {255, 0, 0}, 1.0));
  EXPECT_NO_THROW(img.blend(5, 5, {255, 0, 0}, 1.0));
  img.blend(1, 1, {200, 100, 50}, 1.0);
  EXPECT_EQ(img.at(1, 1), (render::Rgb{200, 100, 50}));
  img.blend(1, 1, {0, 0, 0}, 0.5);
  EXPECT_EQ(img.at(1, 1).r, 100);
}

TEST(Image, StddevOfConstantIsZero) {
  render::Framebuffer fb(8, 8);
  fb.clear(3.0f);
  EXPECT_NEAR(render::texture_stddev(fb), 0.0, 1e-9);
}

// ---------------------------------------------------------------- overlay ---

TEST(Overlay, WorldToImageMapsCornersAndFlipsY) {
  const render::WorldToImage mapping(field::Rect{0, 0, 10, 20}, 100, 200);
  auto [x0, y0] = mapping.map({0.0, 0.0});
  EXPECT_NEAR(x0, 0.0, 1e-12);
  EXPECT_NEAR(y0, 200.0, 1e-12);  // world bottom -> image bottom row
  auto [x1, y1] = mapping.map({10.0, 20.0});
  EXPECT_NEAR(x1, 100.0, 1e-12);
  EXPECT_NEAR(y1, 0.0, 1e-12);
  // unmap is the inverse.
  const auto p = mapping.unmap(50.0, 100.0);
  EXPECT_NEAR(p.x, 5.0, 1e-12);
  EXPECT_NEAR(p.y, 10.0, 1e-12);
}

TEST(Overlay, ScalarOverlayRespectsAlpha) {
  render::Image img(8, 8);
  const render::WorldToImage mapping(field::Rect{0, 0, 1, 1}, 8, 8);
  // Left half value 0 (alpha 0 -> untouched), right half value 1 (opaque).
  render::overlay_scalar(
      img, mapping, [](field::Vec2 p) { return p.x < 0.5 ? 0.0 : 1.0; }, 0.0, 1.0,
      render::ColormapKind::kGrayscale, [](double t) { return t; });
  EXPECT_EQ(img.at(0, 4), (render::Rgb{0, 0, 0}));
  EXPECT_GT(img.at(7, 4).r, 200);
}

TEST(Overlay, PolylineDrawsConnectedPixels) {
  render::Image img(32, 32);
  const render::WorldToImage mapping(field::Rect{0, 0, 32, 32}, 32, 32);
  const std::vector<field::Vec2> line = {{2.0, 16.0}, {30.0, 16.0}};
  render::draw_polyline(img, mapping, line, {255, 0, 0}, 1.0, 1);
  int red = 0;
  for (int x = 0; x < 32; ++x)
    for (int y = 0; y < 32; ++y)
      if (img.at(x, y).r == 255) ++red;
  EXPECT_GE(red, 25);  // a near-horizontal line of ~28 pixels
}

TEST(Overlay, FillRectCoversWorldRect) {
  render::Image img(16, 16);
  const render::WorldToImage mapping(field::Rect{0, 0, 16, 16}, 16, 16);
  render::fill_rect(img, mapping, field::Rect{4, 4, 8, 8}, {0, 255, 0});
  EXPECT_EQ(img.at(6, 9).g, 255);   // inside (world y=6 -> image y=9)
  EXPECT_EQ(img.at(1, 1).g, 0);     // outside
}

}  // namespace
