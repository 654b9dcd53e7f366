// Edge cases and failure injection: extreme sizes, corrupt inputs, unusual
// configurations — everything a downstream user will eventually feed the
// library by accident.
#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <fstream>
#include <limits>

#include "core/dnc_synthesizer.hpp"
#include "core/filters.hpp"
#include "core/serial_synthesizer.hpp"
#include "field/analytic.hpp"
#include "io/ppm.hpp"
#include "render/rasterizer.hpp"
#include "render/scene.hpp"
#include "sim/dataset.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace {

using namespace dcsn;
using field::Rect;
using field::Vec2;

// ------------------------------------------------------------ tiny sizes ---

TEST(EdgeCases, OnePixelFramebuffer) {
  render::Framebuffer fb(1, 1);
  fb.at(0, 0) = 2.0f;
  EXPECT_EQ(fb.min_max(), std::make_pair(2.0f, 2.0f));
  EXPECT_NO_THROW(core::normalize_contrast(fb));
  EXPECT_NO_THROW((void)core::box_blur(fb, 3));
  const auto img = render::texture_to_image(fb);
  EXPECT_EQ(img.width(), 1);
}

TEST(EdgeCases, TinyTextureSynthesis) {
  core::SynthesisConfig config;
  config.texture_width = 4;
  config.texture_height = 4;
  config.spot_count = 10;
  config.spot_radius_px = 2.0;
  const auto f = field::analytic::uniform({1, 0}, Rect{0, 0, 1, 1});
  core::SerialSynthesizer synth(config);
  util::Rng rng(1);
  const auto spots = core::make_random_spots(f->domain(), 10, rng);
  EXPECT_NO_THROW(synth.synthesize(*f, spots));
}

TEST(EdgeCases, MinimalDncConfiguration) {
  core::SynthesisConfig config;
  config.texture_width = 8;
  config.texture_height = 8;
  const auto f = field::analytic::uniform({1, 0}, Rect{0, 0, 1, 1});
  core::DncConfig dnc;
  dnc.processors = 1;
  dnc.pipes = 1;
  dnc.chunk_spots = 1;
  core::DncSynthesizer engine(config, dnc);
  util::Rng rng(2);
  const auto spots = core::make_random_spots(f->domain(), 3, rng);
  const auto stats = engine.synthesize(*f, spots);
  EXPECT_EQ(stats.spots, 3);
}

TEST(EdgeCases, MorePipesThanSpots) {
  core::SynthesisConfig config;
  config.texture_width = 32;
  config.texture_height = 32;
  const auto f = field::analytic::uniform({1, 0}, Rect{0, 0, 1, 1});
  core::DncConfig dnc;
  dnc.processors = 4;
  dnc.pipes = 4;
  core::DncSynthesizer engine(config, dnc);
  util::Rng rng(3);
  const auto spots = core::make_random_spots(f->domain(), 2, rng);  // < pipes
  const auto stats = engine.synthesize(*f, spots);
  EXPECT_EQ(stats.spots, 2);
  EXPECT_GT(render::texture_stddev(engine.texture()), 0.0);
}

TEST(EdgeCases, HugeChunkSize) {
  core::SynthesisConfig config;
  config.texture_width = 32;
  config.texture_height = 32;
  const auto f = field::analytic::uniform({1, 0}, Rect{0, 0, 1, 1});
  core::DncConfig dnc;
  dnc.processors = 2;
  dnc.pipes = 1;
  dnc.chunk_spots = 1 << 20;  // one chunk swallows everything
  core::DncSynthesizer engine(config, dnc);
  util::Rng rng(4);
  const auto spots = core::make_random_spots(f->domain(), 100, rng);
  EXPECT_EQ(engine.synthesize(*f, spots).spots, 100);
}

// ------------------------------------------------------ config validation ---

TEST(ConfigValidation, ZeroSpotsSynthesizeCleanly) {
  // An empty spot set is a valid frame (e.g. all particles advected out of
  // the domain): both engines must return a black texture, not crash.
  core::SynthesisConfig config;
  config.texture_width = 16;
  config.texture_height = 16;
  const auto f = field::analytic::uniform({1, 0}, Rect{0, 0, 1, 1});
  const std::vector<core::SpotInstance> none;

  core::SerialSynthesizer serial(config);
  const auto serial_stats = serial.synthesize(*f, none);
  EXPECT_EQ(serial_stats.spots, 0);
  EXPECT_EQ(serial.texture().min_max(), std::make_pair(0.0f, 0.0f));

  core::DncConfig dnc;
  dnc.processors = 2;
  dnc.pipes = 2;
  core::DncSynthesizer engine(config, dnc);
  const auto dnc_stats = engine.synthesize(*f, none);
  EXPECT_EQ(dnc_stats.spots, 0);
  EXPECT_EQ(engine.texture().min_max(), std::make_pair(0.0f, 0.0f));
}

TEST(ConfigValidation, ZeroSizeTextureRejected) {
  for (const auto& [w, h] : {std::pair{0, 16}, {16, 0}, {0, 0}, {-4, 16}}) {
    core::SynthesisConfig config;
    config.texture_width = w;
    config.texture_height = h;
    EXPECT_THROW(core::SerialSynthesizer{config}, util::Error) << w << "x" << h;
    EXPECT_THROW((core::DncSynthesizer{config, core::DncConfig{}}), util::Error)
        << w << "x" << h;
  }
}

TEST(ConfigValidation, DegenerateSpotRadiusRejected) {
  const auto f = field::analytic::uniform({1, 0}, Rect{0, 0, 1, 1});
  util::Rng rng(5);
  const auto spots = core::make_random_spots(f->domain(), 4, rng);
  for (const double radius : {0.0, -1.0}) {
    core::SynthesisConfig config;
    config.texture_width = 16;
    config.texture_height = 16;
    config.spot_radius_px = radius;
    // The radius feeds spot-shape generation, so construction succeeds and
    // the first synthesize() throws — from the calling thread, both engines.
    core::SerialSynthesizer serial(config);
    EXPECT_THROW(serial.synthesize(*f, spots), util::Error) << radius;
    core::DncSynthesizer engine(config, core::DncConfig{});
    EXPECT_THROW(engine.synthesize(*f, spots), util::Error) << radius;
  }
}

TEST(ConfigValidation, DegenerateBentMeshRejected) {
  const auto f = field::analytic::uniform({1, 0}, Rect{0, 0, 1, 1});
  util::Rng rng(6);
  const auto spots = core::make_random_spots(f->domain(), 4, rng);
  core::SynthesisConfig config;
  config.texture_width = 16;
  config.texture_height = 16;
  config.kind = core::SpotKind::kBent;
  config.bent.mesh_cols = 1;  // a mesh needs >= 2x2 vertices
  core::SerialSynthesizer serial(config);
  EXPECT_THROW(serial.synthesize(*f, spots), util::Error);
}

// -------------------------------------------------------- hostile geometry ---

TEST(EdgeCases, SpotsFarOutsideTexture) {
  // Spots positioned outside the field domain map outside the texture and
  // must clip away cleanly.
  core::SynthesisConfig config;
  config.texture_width = 64;
  config.texture_height = 64;
  const auto f = field::analytic::uniform({1, 0}, Rect{0, 0, 1, 1});
  core::SerialSynthesizer synth(config);
  const std::vector<core::SpotInstance> spots = {
      {{-50.0, -50.0}, 1.0}, {{50.0, 50.0}, 1.0}, {{0.5, 0.5}, 1.0}};
  const auto stats = synth.synthesize(*f, spots);
  EXPECT_EQ(stats.spots, 3);
  for (int y = 0; y < 64; ++y)
    for (int x = 0; x < 64; ++x) ASSERT_TRUE(std::isfinite(synth.texture().at(x, y)));
}

TEST(EdgeCases, RasterizerSurvivesInfiniteCoordinates) {
  render::Framebuffer fb(16, 16);
  const render::SpotProfile profile(render::SpotShape::kDisc, 8);
  render::RasterStats stats;
  const float inf = std::numeric_limits<float>::infinity();
  const render::MeshVertex a{inf, 1, 0.5f, 0.5f}, b{5, 1, 0.5f, 0.5f},
      c{3, 6, 0.5f, 0.5f};
  EXPECT_NO_THROW(render::rasterize_triangle({fb.pixels(), 0, 0}, a, b, c, 1.0f,
                                             profile, stats));
  EXPECT_EQ(stats.fragments, 0);
}

TEST(EdgeCases, RasterizerHugeOffscreenTriangle) {
  // A triangle whose bbox is enormous but which misses the target entirely.
  render::Framebuffer fb(16, 16);
  const render::SpotProfile profile(render::SpotShape::kDisc, 8);
  render::RasterStats stats;
  const render::MeshVertex a{1e7f, 1e7f, 0, 0}, b{2e7f, 1e7f, 1, 0},
      c{1e7f, 2e7f, 0, 1};
  render::rasterize_triangle({fb.pixels(), 0, 0}, a, b, c, 1.0f, profile, stats);
  EXPECT_EQ(stats.fragments, 0);
}

TEST(EdgeCases, ZeroIntensitySpotLeavesNoTrace) {
  core::SynthesisConfig config;
  config.texture_width = 32;
  config.texture_height = 32;
  const auto f = field::analytic::uniform({1, 0}, Rect{0, 0, 1, 1});
  core::SerialSynthesizer synth(config);
  const std::vector<core::SpotInstance> spots = {{{0.5, 0.5}, 0.0}};
  synth.synthesize(*f, spots);
  const auto [lo, hi] = synth.texture().min_max();
  EXPECT_EQ(lo, 0.0f);
  EXPECT_EQ(hi, 0.0f);
}

// --------------------------------------------------------- corrupt inputs ---

class CorruptFileTest : public ::testing::Test {
 protected:
  std::string path_ = testing::TempDir() + "/dcsn_corrupt_test.bin";
  void TearDown() override { std::filesystem::remove(path_); }
};

TEST_F(CorruptFileTest, TruncatedDatasetFailsCleanly) {
  // Write a valid dataset, then truncate mid-frame.
  field::RectilinearGrid grid({0.0, 1.0, 2.0}, {0.0, 1.0});
  {
    sim::DatasetWriter writer(path_, grid);
    field::RectilinearVectorField f(grid);
    writer.append(f, 0.0);
    writer.append(f, 1.0);
  }
  const auto full_size = std::filesystem::file_size(path_);
  std::filesystem::resize_file(path_, full_size - 8);
  sim::DatasetReader reader(path_);
  EXPECT_EQ(reader.frame_count(), 2);
  EXPECT_NO_THROW((void)reader.load(0));
  EXPECT_THROW((void)reader.load(1), util::Error);
}

TEST_F(CorruptFileTest, GarbageDatasetRejected) {
  {
    std::ofstream out(path_, std::ios::binary);
    out << "this is not a dataset at all, not even close";
  }
  EXPECT_THROW(sim::DatasetReader reader(path_), util::Error);
}

TEST_F(CorruptFileTest, TruncatedPpmRejected) {
  {
    std::ofstream out(path_, std::ios::binary);
    out << "P6\n100 100\n255\n";  // header promises 30000 bytes, delivers 0
  }
  EXPECT_THROW((void)io::read_ppm(path_), util::Error);
}

TEST_F(CorruptFileTest, WrongPpmMagicRejected) {
  {
    std::ofstream out(path_, std::ios::binary);
    out << "P5\n2 2\n255\n....";
  }
  EXPECT_THROW((void)io::read_ppm(path_), util::Error);
}

// ------------------------------------------------------------ weird fields ---

TEST(EdgeCases, ZeroFieldEverywhere) {
  // A zero field: ellipse spots degrade to points, bent spots to points,
  // nothing crashes, texture still forms.
  core::SynthesisConfig config;
  config.texture_width = 64;
  config.texture_height = 64;
  config.spot_count = 100;
  config.kind = core::SpotKind::kBent;
  const auto f = field::analytic::uniform({0, 0}, Rect{0, 0, 1, 1});
  core::SerialSynthesizer synth(config);
  util::Rng rng(5);
  const auto spots = core::make_random_spots(f->domain(), 100, rng);
  const auto stats = synth.synthesize(*f, spots);
  EXPECT_EQ(stats.spots, 100);
  EXPECT_GT(render::texture_stddev(synth.texture()), 0.0);
}

TEST(EdgeCases, ExtremeVelocityMagnitudes) {
  // 1e12-magnitude field: geometry stays finite because the tracer is
  // arc-length based and the ellipse normalizes by max magnitude.
  core::SynthesisConfig config;
  config.texture_width = 64;
  config.texture_height = 64;
  config.kind = core::SpotKind::kEllipse;
  const auto f = field::analytic::uniform({1e12, 3e11}, Rect{0, 0, 1, 1});
  core::SerialSynthesizer synth(config);
  const std::vector<core::SpotInstance> spots = {{{0.5, 0.5}, 1.0}};
  synth.synthesize(*f, spots);
  for (int y = 0; y < 64; ++y)
    for (int x = 0; x < 64; ++x) ASSERT_TRUE(std::isfinite(synth.texture().at(x, y)));
}

TEST(EdgeCases, NonSquareDomainAndTexture) {
  // Anisotropic world-to-pixel scales: a 4:1 domain on a 1:2 texture.
  core::SynthesisConfig config;
  config.texture_width = 64;
  config.texture_height = 128;
  config.spot_count = 200;
  const auto f = field::analytic::rigid_vortex({2.0, 0.5}, 1.0, Rect{0, 0, 4, 1});
  core::SerialSynthesizer synth(config);
  util::Rng rng(6);
  const auto spots = core::make_random_spots(f->domain(), 200, rng);
  EXPECT_NO_THROW(synth.synthesize(*f, spots));
  EXPECT_GT(render::texture_stddev(synth.texture()), 0.0);
}

// ---------------------------------------------------------- scene extremes ---

TEST(EdgeCases, SceneWindowOutsideTexture) {
  render::Framebuffer tex(16, 16);
  tex.clear(1.0f);
  render::SceneView view;
  view.texture_world = {0, 0, 1, 1};
  view.window = {5, 5, 6, 6};  // entirely outside: clamps to border texels
  view.out_width = 8;
  view.out_height = 8;
  view.tone.auto_gain = false;
  const auto img = render::render_scene(tex, view);
  EXPECT_EQ(img.width(), 8);  // defined output, no crash
}

TEST(EdgeCases, ExtremeZoomIn) {
  render::Framebuffer tex(64, 64);
  tex.at(32, 32) = 1.0f;
  render::SceneView view;
  view.texture_world = {0, 0, 1, 1};
  const double eps = 1e-6;
  view.window = {0.5 - eps, 0.5 - eps, 0.5 + eps, 0.5 + eps};
  view.out_width = 16;
  view.out_height = 16;
  EXPECT_NO_THROW((void)render::render_scene(tex, view));
}

// ------------------------------------------------------------ filter edges ---

TEST(EdgeCases, BlurRadiusLargerThanTexture) {
  render::Framebuffer fb(8, 8);
  fb.at(4, 4) = 1.0f;
  const auto blurred = core::box_blur(fb, 20);  // window wider than the image
  for (int y = 0; y < 8; ++y)
    for (int x = 0; x < 8; ++x) ASSERT_TRUE(std::isfinite(blurred.at(x, y)));
  // Energy is spread but conserved approximately (border clamp re-weights).
  EXPECT_GT(blurred.mean(), 0.0);
}

TEST(EdgeCases, HighPassOfFlatIsZero) {
  render::Framebuffer fb(16, 16);
  fb.clear(5.0f);
  const auto hp = core::high_pass(fb, 3);
  const auto [lo, hi] = hp.min_max();
  EXPECT_NEAR(lo, 0.0f, 1e-5f);
  EXPECT_NEAR(hi, 0.0f, 1e-5f);
}

}  // namespace
