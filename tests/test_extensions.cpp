// Tests for the extension modules: LIC comparator, arrow/streamline glyph
// baselines and the scene renderer (pipeline step 4).
#include <gtest/gtest.h>

#include <cmath>

#include "core/lic.hpp"
#include "field/analytic.hpp"
#include "render/glyphs.hpp"
#include "render/scene.hpp"
#include "util/error.hpp"

namespace {

using namespace dcsn;
using field::Rect;
using field::Vec2;

// -------------------------------------------------------------------- LIC ---

TEST(Lic, NoiseIsZeroMean) {
  const auto noise = core::make_lic_noise(128, 128, 3);
  EXPECT_LT(std::abs(noise.mean()), 0.05);
  EXPECT_GT(render::texture_stddev(noise), 0.3);
}

TEST(Lic, SmoothsAlongFlowOnly) {
  // In a horizontal flow, LIC correlates pixels along x and leaves y
  // decorrelated — the same anisotropy property spot noise has.
  core::LicConfig config;
  config.width = 128;
  config.height = 128;
  config.kernel_half_length_px = 10.0;
  const Rect domain{0, 0, 1, 1};
  const auto f = field::analytic::uniform({1.0, 0.0}, domain);
  const auto noise = core::make_lic_noise(128, 128, config.noise_seed);
  const auto out = core::lic(*f, noise, config);

  double horizontal = 0.0, vertical = 0.0;
  for (int y = 4; y < 124; ++y)
    for (int x = 4; x < 124; ++x) {
      horizontal += double(out.at(x, y)) * out.at(x + 3, y);
      vertical += double(out.at(x, y)) * out.at(x, y + 3);
    }
  EXPECT_GT(horizontal, 2.0 * std::abs(vertical));
}

TEST(Lic, ReducesVarianceByKernelLength) {
  // Box-convolving N independent samples divides variance by ~N.
  core::LicConfig config;
  config.width = 96;
  config.height = 96;
  config.kernel_half_length_px = 12.0;
  const auto f = field::analytic::uniform({1.0, 0.0}, Rect{0, 0, 1, 1});
  const auto noise = core::make_lic_noise(96, 96, 5);
  const auto out = core::lic(*f, noise, config);
  const double in_sigma = render::texture_stddev(noise);
  const double out_sigma = render::texture_stddev(out);
  EXPECT_LT(out_sigma, in_sigma * 0.5);
  EXPECT_GT(out_sigma, in_sigma * 0.05);
}

TEST(Lic, StagnationPointDegradesGracefully) {
  core::LicConfig config;
  config.width = 64;
  config.height = 64;
  const auto f = field::analytic::saddle({0.5, 0.5}, 1.0, Rect{0, 0, 1, 1});
  const auto noise = core::make_lic_noise(64, 64, 7);
  const auto out = core::lic(*f, noise, config);
  for (int y = 0; y < 64; ++y)
    for (int x = 0; x < 64; ++x) ASSERT_TRUE(std::isfinite(out.at(x, y)));
}

TEST(Lic, RejectsMismatchedNoise) {
  core::LicConfig config;
  config.width = 64;
  config.height = 64;
  const auto f = field::analytic::uniform({1, 0}, Rect{0, 0, 1, 1});
  const auto noise = core::make_lic_noise(32, 32, 1);
  EXPECT_THROW((void)core::lic(*f, noise, config), util::Error);
}

TEST(Lic, DeterministicForFixedSeed) {
  core::LicConfig config;
  config.width = 64;
  config.height = 64;
  config.threads = 4;  // parallel rows must not change the result
  const auto f = field::analytic::rigid_vortex({0.5, 0.5}, 1.0, Rect{0, 0, 1, 1});
  const auto noise = core::make_lic_noise(64, 64, config.noise_seed);
  const auto a = core::lic(*f, noise, config);
  const auto b = core::lic(*f, noise, config);
  EXPECT_TRUE(a == b);
}

// ------------------------------------------------------------------ glyphs ---

TEST(Glyphs, ArrowPlotDrawsSomething) {
  render::Image img(128, 128, {255, 255, 255});
  const Rect domain{0, 0, 1, 1};
  const auto f = field::analytic::uniform({1.0, 0.5}, domain);
  const render::WorldToImage mapping(domain, 128, 128);
  render::ArrowPlotConfig config;
  config.nx = 6;
  config.ny = 6;
  render::draw_arrow_plot(img, mapping, *f, config);
  int dark = 0;
  for (int y = 0; y < 128; ++y)
    for (int x = 0; x < 128; ++x)
      if (img.at(x, y).r < 128) ++dark;
  EXPECT_GT(dark, 100);  // 36 arrows of ~15 px plus heads
}

TEST(Glyphs, ArrowPlotSkipsZeroField) {
  render::Image img(64, 64, {255, 255, 255});
  const Rect domain{0, 0, 1, 1};
  const auto f = field::analytic::uniform({0.0, 0.0}, domain);
  const render::WorldToImage mapping(domain, 64, 64);
  render::draw_arrow_plot(img, mapping, *f, {});
  for (int y = 0; y < 64; ++y)
    for (int x = 0; x < 64; ++x) ASSERT_EQ(img.at(x, y).r, 255);
}

TEST(Glyphs, ArrowLengthScalesWithSpeed) {
  // A shear field: arrows near the center line are shorter.
  render::Image img(256, 256, {255, 255, 255});
  const Rect domain{0, 0, 1, 1};
  const auto f = field::analytic::shear(2.0, domain);
  const render::WorldToImage mapping(domain, 256, 256);
  render::ArrowPlotConfig config;
  config.nx = 1;
  config.ny = 5;  // arrows at y = .1, .3, .5, .7, .9
  render::draw_arrow_plot(img, mapping, *f, config);
  auto dark_in_band = [&](int y0, int y1) {
    int count = 0;
    for (int y = y0; y < y1; ++y)
      for (int x = 0; x < 256; ++x)
        if (img.at(x, y).r < 128) ++count;
    return count;
  };
  // The center arrow (y = 0.5 -> rows ~128) is nearly zero-length.
  EXPECT_LT(dark_in_band(115, 141), dark_in_band(13, 39));
}

TEST(Glyphs, StreamlinePlotFollowsVortex) {
  render::Image img(128, 128, {255, 255, 255});
  const Rect domain{-1, -1, 1, 1};
  const auto f = field::analytic::rigid_vortex({0, 0}, 1.0, domain);
  const render::WorldToImage mapping(domain, 128, 128);
  render::StreamlinePlotConfig config;
  config.seeds_x = 1;
  config.seeds_y = 1;  // single seed at the domain center... offset it:
  config.steps_each_way = 300;
  render::draw_streamline_plot(img, mapping, *f, config);
  // The seed sits at (0,0) exactly -> stagnation, so allow empty; then seed
  // a 2x2 grid which orbits at radius ~0.5.
  render::StreamlinePlotConfig grid_config;
  grid_config.seeds_x = 2;
  grid_config.seeds_y = 2;
  grid_config.steps_each_way = 400;
  render::draw_streamline_plot(img, mapping, *f, grid_config);
  // Circle of radius ~sqrt(.25^2+.25^2)*... pixels on the ring around the
  // center must be drawn; center pixel must not.
  int dark = 0;
  for (int y = 0; y < 128; ++y)
    for (int x = 0; x < 128; ++x)
      if (img.at(x, y).r < 128) ++dark;
  EXPECT_GT(dark, 150);
  EXPECT_EQ(img.at(64, 64).r, 255);  // stagnation center untouched
}

// ------------------------------------------------------------------- scene ---

TEST(Scene, SampleTextureBilinear) {
  render::Framebuffer tex(2, 2);
  tex.at(0, 0) = 0.0f;
  tex.at(1, 0) = 1.0f;
  tex.at(0, 1) = 2.0f;
  tex.at(1, 1) = 3.0f;
  // Texel centers at (0.5,0.5) etc.
  EXPECT_FLOAT_EQ(render::sample_texture(tex, 0.5, 0.5), 0.0f);
  EXPECT_FLOAT_EQ(render::sample_texture(tex, 1.5, 1.5), 3.0f);
  EXPECT_FLOAT_EQ(render::sample_texture(tex, 1.0, 0.5), 0.5f);
  EXPECT_FLOAT_EQ(render::sample_texture(tex, 1.0, 1.0), 1.5f);
  // Border clamp.
  EXPECT_FLOAT_EQ(render::sample_texture(tex, -5.0, 0.5), 0.0f);
  EXPECT_FLOAT_EQ(render::sample_texture(tex, 10.0, 10.0), 3.0f);
}

TEST(Scene, FullWindowReproducesTexture) {
  render::Framebuffer tex(32, 32);
  for (int y = 0; y < 32; ++y)
    for (int x = 0; x < 32; ++x)
      tex.at(x, y) = static_cast<float>((x + y) % 2 == 0 ? 1 : -1);
  render::SceneView view;
  view.texture_world = {0, 0, 1, 1};
  view.window = {0, 0, 1, 1};
  view.out_width = 32;
  view.out_height = 32;
  const auto img = render::render_scene(tex, view);
  // 1:1 mapping: bright checkerboard cells stay bright.
  EXPECT_GT(img.at(0, 0).r, 128);
  EXPECT_LT(img.at(1, 0).r, 128);
}

TEST(Scene, ZoomWindowMagnifies) {
  // A texture with a single bright quadrant: zooming into that quadrant
  // fills the whole output with bright pixels.
  render::Framebuffer tex(64, 64);
  for (int y = 0; y < 32; ++y)
    for (int x = 0; x < 32; ++x) tex.at(x, y) = 1.0f;  // top-left = world NW
  render::SceneView view;
  view.texture_world = {0, 0, 1, 1};
  view.window = {0.05, 0.55, 0.45, 0.95};  // world NW quadrant interior
  view.out_width = 64;
  view.out_height = 64;
  view.tone.auto_gain = false;
  view.tone.gain = 0.5;
  const auto img = render::render_scene(tex, view);
  int bright = 0;
  for (int y = 0; y < 64; ++y)
    for (int x = 0; x < 64; ++x)
      if (img.at(x, y).r > 200) ++bright;
  EXPECT_EQ(bright, 64 * 64);
}

TEST(Scene, RejectsDegenerateView) {
  render::Framebuffer tex(8, 8);
  render::SceneView view;
  view.out_width = 0;
  EXPECT_THROW((void)render::render_scene(tex, view), util::Error);
}

}  // namespace
