// Parameterized property suites: invariants that must hold across whole
// families of configurations, swept with TEST_P / INSTANTIATE_TEST_SUITE_P.
#include <gtest/gtest.h>

#include <cmath>
#include <numbers>
#include <tuple>

#include "core/dnc_synthesizer.hpp"
#include "core/filters.hpp"
#include "core/serial_synthesizer.hpp"
#include "field/analytic.hpp"
#include "particles/particle_system.hpp"
#include "particles/seeding.hpp"
#include "particles/tracer.hpp"
#include "render/image.hpp"
#include "render/rasterizer.hpp"
#include "util/rng.hpp"

namespace {

using namespace dcsn;
using field::Rect;
using field::Vec2;

// =====================================================================
// Property: for every execution strategy (processors x pipes x tiled),
// the divide-and-conquer engine reproduces the serial baseline texture.
// This is the correctness core of the paper: partitioning spots and
// blending partial textures must not change the image.
// =====================================================================

struct EngineParam {
  int processors;
  int pipes;
  bool tiled;
  core::SpotKind kind;
};

class EngineEquivalence : public ::testing::TestWithParam<EngineParam> {};

TEST_P(EngineEquivalence, MatchesSerialTexture) {
  const EngineParam param = GetParam();
  core::SynthesisConfig config;
  config.texture_width = 96;
  config.texture_height = 96;
  config.spot_count = 250;
  config.spot_radius_px = 5.0;
  config.kind = param.kind;
  config.bent.mesh_cols = 6;
  config.bent.mesh_rows = 3;
  config.bent.length_px = 20.0;

  const Rect domain{0, 0, 2, 2};
  const auto f = field::analytic::taylor_green(1.0, domain);
  util::Rng rng(config.seed);
  const auto spots = core::make_random_spots(domain, config.spot_count, rng);

  core::SerialSynthesizer serial(config);
  serial.synthesize(*f, spots);

  core::DncConfig dnc;
  dnc.processors = param.processors;
  dnc.pipes = param.pipes;
  dnc.tiled = param.tiled;
  core::DncSynthesizer engine(config, dnc);
  engine.synthesize(*f, spots);

  const double sigma = render::texture_stddev(serial.texture());
  double worst = 0.0;
  for (int y = 0; y < 96; ++y)
    for (int x = 0; x < 96; ++x)
      worst = std::max(worst, std::abs(double(serial.texture().at(x, y)) -
                                       engine.texture().at(x, y)));
  EXPECT_LT(worst, 1e-4 * sigma + 1e-6);
}

INSTANTIATE_TEST_SUITE_P(
    Configurations, EngineEquivalence,
    ::testing::Values(
        EngineParam{1, 1, false, core::SpotKind::kPoint},
        EngineParam{1, 1, false, core::SpotKind::kEllipse},
        EngineParam{1, 1, false, core::SpotKind::kBent},
        EngineParam{3, 1, false, core::SpotKind::kEllipse},
        EngineParam{4, 2, false, core::SpotKind::kEllipse},
        EngineParam{4, 2, false, core::SpotKind::kBent},
        EngineParam{8, 4, false, core::SpotKind::kEllipse},
        EngineParam{2, 2, true, core::SpotKind::kPoint},
        EngineParam{4, 2, true, core::SpotKind::kEllipse},
        EngineParam{4, 4, true, core::SpotKind::kBent},
        EngineParam{6, 3, true, core::SpotKind::kEllipse}),
    [](const auto& param_info) {
      const EngineParam& p = param_info.param;
      std::string name = "p" + std::to_string(p.processors) + "g" +
                         std::to_string(p.pipes) + (p.tiled ? "tiled" : "gather");
      switch (p.kind) {
        case core::SpotKind::kPoint: name += "Point"; break;
        case core::SpotKind::kEllipse: name += "Ellipse"; break;
        case core::SpotKind::kBent: name += "Bent"; break;
      }
      return name;
    });

// =====================================================================
// Property: the spot-noise texture is statistically well-behaved for any
// spot shape and profile — near-zero mean (intensities are zero-mean) and
// non-degenerate variance.
// =====================================================================

struct TextureParam {
  core::SpotKind kind;
  render::SpotShape profile;
};

class TextureStatistics : public ::testing::TestWithParam<TextureParam> {};

TEST_P(TextureStatistics, ZeroMeanNonDegenerate) {
  const TextureParam param = GetParam();
  core::SynthesisConfig config;
  config.texture_width = 128;
  config.texture_height = 128;
  config.spot_count = 3000;
  config.spot_radius_px = 6.0;
  config.kind = param.kind;
  config.profile_shape = param.profile;
  config.bent.mesh_cols = 8;
  config.bent.mesh_rows = 3;
  config.bent.length_px = 24.0;
  config.intensity_scale = core::SerialSynthesizer::natural_intensity(config);

  const Rect domain{0, 0, 2, 2};
  const auto f = field::analytic::rigid_vortex({1, 1}, 1.0, domain);
  util::Rng rng(7);
  const auto spots = core::make_random_spots(domain, config.spot_count, rng);
  core::SerialSynthesizer synth(config);
  synth.synthesize(*f, spots);

  const double sigma = render::texture_stddev(synth.texture());
  EXPECT_GT(sigma, 0.01);
  EXPECT_LT(std::abs(synth.texture().mean()), 0.5 * sigma);
}

INSTANTIATE_TEST_SUITE_P(
    ShapesAndProfiles, TextureStatistics,
    ::testing::Values(TextureParam{core::SpotKind::kPoint, render::SpotShape::kDisc},
                      TextureParam{core::SpotKind::kPoint, render::SpotShape::kGaussian},
                      TextureParam{core::SpotKind::kEllipse, render::SpotShape::kCosine},
                      TextureParam{core::SpotKind::kEllipse, render::SpotShape::kRing},
                      TextureParam{core::SpotKind::kBent, render::SpotShape::kCosine},
                      TextureParam{core::SpotKind::kBent, render::SpotShape::kGaussian}),
    [](const auto& param_info) {
      std::string name;
      switch (param_info.param.kind) {
        case core::SpotKind::kPoint: name = "Point"; break;
        case core::SpotKind::kEllipse: name = "Ellipse"; break;
        case core::SpotKind::kBent: name = "Bent"; break;
      }
      switch (param_info.param.profile) {
        case render::SpotShape::kDisc: name += "Disc"; break;
        case render::SpotShape::kGaussian: name += "Gaussian"; break;
        case render::SpotShape::kCosine: name += "Cosine"; break;
        case render::SpotShape::kRing: name += "Ring"; break;
      }
      return name;
    });

// =====================================================================
// Property: rasterizing a mesh grid covers each pixel exactly once no
// matter how the grid is tessellated. Swept over mesh dimensions.
// =====================================================================

class MeshCoverage
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(MeshCoverage, EveryCoveredPixelBlendedOnce) {
  const auto [cols, rows] = GetParam();
  render::Framebuffer fb(64, 64);
  const render::SpotProfile profile(render::SpotShape::kDisc, 64);
  render::CommandBuffer buf;
  auto v = buf.add_mesh(1.0f, cols, rows);
  // A rectangle split into (cols-1)x(rows-1) quads with constant UV: any
  // double-blended seam pixel would carry 2x the value.
  for (int j = 0; j < rows; ++j)
    for (int i = 0; i < cols; ++i)
      v[static_cast<std::size_t>(j * cols + i)] = {
          4.0f + 48.0f * static_cast<float>(i) / (cols - 1),
          4.0f + 48.0f * static_cast<float>(j) / (rows - 1), 0.5f, 0.5f};
  render::RasterStats stats;
  render::rasterize_buffer({fb.pixels(), 0, 0}, buf, profile, stats);
  const float expected = fb.at(20, 20);
  ASSERT_NE(expected, 0.0f);
  std::int64_t covered = 0;
  for (int y = 0; y < 64; ++y)
    for (int x = 0; x < 64; ++x) {
      const float p = fb.at(x, y);
      ASSERT_TRUE(p == 0.0f || std::abs(p - expected) < 1e-6f)
          << "seam double-blend at (" << x << "," << y << "): " << p;
      if (p != 0.0f) ++covered;
    }
  // The rectangle [4,52)^2 covers exactly 48x48 pixel centers.
  EXPECT_EQ(covered, 48 * 48);
  EXPECT_EQ(stats.quads, (cols - 1) * (rows - 1));
}

INSTANTIATE_TEST_SUITE_P(MeshDimensions, MeshCoverage,
                         ::testing::Combine(::testing::Values(2, 3, 5, 16, 32),
                                            ::testing::Values(2, 3, 9, 17)));

// =====================================================================
// Property: integrator order — on a vortex, RK4 error shrinks ~16x when
// the step halves, RK2 ~4x, Euler ~2x. Swept over integrators.
// =====================================================================

class IntegratorOrder
    : public ::testing::TestWithParam<std::tuple<particles::Integrator, double>> {};

TEST_P(IntegratorOrder, ConvergesAtExpectedRate) {
  const auto [method, min_ratio] = GetParam();
  const Rect domain{-2, -2, 2, 2};
  const auto f = field::analytic::rigid_vortex({0, 0}, 1.0, domain);
  auto drift = [&](int steps) {
    const double dt = std::numbers::pi / steps;  // half revolution
    Vec2 p{1.0, 0.0};
    for (int k = 0; k < steps; ++k) p = particles::step(*f, p, dt, method);
    return std::abs(p.length() - 1.0) + 1e-16;
  };
  const double coarse = drift(64);
  const double fine = drift(128);
  EXPECT_GT(coarse / fine, min_ratio)
      << "coarse " << coarse << " fine " << fine;
}

INSTANTIATE_TEST_SUITE_P(
    Methods, IntegratorOrder,
    ::testing::Values(std::make_tuple(particles::Integrator::kEuler, 1.7),
                      std::make_tuple(particles::Integrator::kRk2, 3.3),
                      std::make_tuple(particles::Integrator::kRk4, 10.0)),
    [](const auto& param_info) {
      switch (std::get<0>(param_info.param)) {
        case particles::Integrator::kEuler: return "Euler";
        case particles::Integrator::kRk2: return "Rk2";
        case particles::Integrator::kRk4: return "Rk4";
      }
      return "unknown";
    });

// =====================================================================
// Property: streamline points are spaced exactly step_length apart (to
// integrator accuracy) in every field — arc-length parameterization.
// =====================================================================

class TracerSpacing : public ::testing::TestWithParam<int> {};

TEST_P(TracerSpacing, StepsAreArcLengthUniform) {
  const int field_id = GetParam();
  const Rect domain{-2, -2, 2, 2};
  std::unique_ptr<field::VectorField> f;
  switch (field_id) {
    case 0: f = field::analytic::uniform({1.3, -0.4}, domain); break;
    case 1: f = field::analytic::rigid_vortex({0, 0}, 2.0, domain); break;
    case 2: f = field::analytic::shear(1.0, domain); break;
    default: f = field::analytic::taylor_green(1.0, domain); break;
  }
  particles::TracerConfig config;
  config.step_length = 0.05;
  const particles::StreamlineTracer tracer(config);
  const auto line = tracer.trace(*f, {0.6, 0.3}, 20, 20);
  for (std::size_t k = 1; k < line.size(); ++k) {
    const double spacing = (line.points[k] - line.points[k - 1]).length();
    EXPECT_NEAR(spacing, 0.05, 0.005) << "segment " << k;
  }
}

INSTANTIATE_TEST_SUITE_P(Fields, TracerSpacing, ::testing::Range(0, 4));

// =====================================================================
// Property: the particle population stays inside the domain and keeps
// zero-mean intensity under long advection, for several fields and
// lifetimes.
// =====================================================================

class PopulationInvariants
    : public ::testing::TestWithParam<std::tuple<int, double>> {};

TEST_P(PopulationInvariants, DomainAndIntensityPreserved) {
  const auto [field_id, lifetime] = GetParam();
  const Rect domain{0, 0, 2, 2};
  std::unique_ptr<field::VectorField> f;
  switch (field_id) {
    case 0: f = field::analytic::uniform({1.0, 0.3}, domain); break;
    case 1: f = field::analytic::rigid_vortex({1, 1}, 3.0, domain); break;
    default: f = field::analytic::saddle({1, 1}, 1.0, domain); break;
  }
  particles::ParticleSystemConfig config;
  config.count = 1000;
  config.mean_lifetime = lifetime;
  particles::ParticleSystem system(config, domain, util::Rng(21));
  for (int step = 0; step < 50; ++step) system.advance(*f, 0.05);

  double intensity_sum = 0.0;
  for (const auto& p : system.particles()) {
    ASSERT_TRUE(domain.contains(p.position));
    ASSERT_GE(p.age, 0.0);
    ASSERT_LT(p.age, p.lifetime);
    ASSERT_GE(p.lifetime, 0.5 * lifetime * 0.999);
    ASSERT_LE(p.lifetime, 1.5 * lifetime * 1.001);
    intensity_sum += p.intensity;
  }
  EXPECT_LT(std::abs(intensity_sum) / 1000.0, 0.1);
}

INSTANTIATE_TEST_SUITE_P(FieldsAndLifetimes, PopulationInvariants,
                         ::testing::Combine(::testing::Range(0, 3),
                                            ::testing::Values(0.5, 2.0, 8.0)));

// =====================================================================
// Property: high-pass is idempotent-ish in spectrum terms — applying it
// twice changes little compared to applying it once (the low band is
// already gone). Swept over radii.
// =====================================================================

class HighPassProperty : public ::testing::TestWithParam<int> {};

TEST_P(HighPassProperty, SecondApplicationIsNearNoOp) {
  const int radius = GetParam();
  render::Framebuffer fb(96, 96);
  util::Rng rng(31);
  for (int y = 0; y < 96; ++y)
    for (int x = 0; x < 96; ++x)
      fb.at(x, y) = static_cast<float>(rng.intensity() +
                                       0.5 * std::sin(x * 0.05) * std::sin(y * 0.04));
  const auto once = core::high_pass(fb, radius);
  const auto twice = core::high_pass(once, radius);
  const double delta_once = render::texture_stddev(fb) > 0
                                ? std::abs(render::texture_stddev(once) -
                                           render::texture_stddev(fb))
                                : 0.0;
  const double delta_twice = std::abs(render::texture_stddev(twice) -
                                      render::texture_stddev(once));
  EXPECT_LT(delta_twice, 0.5 * delta_once + 1e-3);
}

INSTANTIATE_TEST_SUITE_P(Radii, HighPassProperty, ::testing::Values(2, 4, 8, 16));

// =====================================================================
// Property: tile grids cover the texture exactly once for every texture
// size / tile count combination (including awkward remainders).
// =====================================================================

class TileGridProperty
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(TileGridProperty, ExactDisjointCover) {
  const auto [w, h, count] = GetParam();
  const auto tiles = core::make_tile_grid(w, h, count);
  ASSERT_EQ(std::ssize(tiles), count);
  std::vector<std::uint8_t> cover(static_cast<std::size_t>(w) * h, 0);
  for (const auto& t : tiles) {
    ASSERT_GE(t.x0, 0);
    ASSERT_GE(t.y0, 0);
    ASSERT_LE(t.x0 + t.width, w);
    ASSERT_LE(t.y0 + t.height, h);
    for (int y = t.y0; y < t.y0 + t.height; ++y)
      for (int x = t.x0; x < t.x0 + t.width; ++x)
        ++cover[static_cast<std::size_t>(y) * w + x];
  }
  for (const auto c : cover) ASSERT_EQ(c, 1);
}

INSTANTIATE_TEST_SUITE_P(SizesAndCounts, TileGridProperty,
                         ::testing::Combine(::testing::Values(64, 97, 512),
                                            ::testing::Values(64, 101),
                                            ::testing::Values(1, 2, 3, 5, 8)));

// =====================================================================
// Property: RNG uniformity across seeds — chi-squared over 16 bins stays
// within generous bounds for every seed tested.
// =====================================================================

class RngUniformity : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RngUniformity, ChiSquaredWithinBounds) {
  util::Rng rng(GetParam());
  constexpr int kBins = 16;
  constexpr int kDraws = 32000;
  std::array<int, kBins> histogram{};
  for (int k = 0; k < kDraws; ++k) {
    const auto bin = static_cast<std::size_t>(rng.uniform() * kBins);
    ++histogram[std::min<std::size_t>(bin, kBins - 1)];
  }
  const double expected = static_cast<double>(kDraws) / kBins;
  double chi2 = 0.0;
  for (const int h : histogram) {
    const double d = h - expected;
    chi2 += d * d / expected;
  }
  // 15 degrees of freedom: p=0.001 critical value ~ 37.7.
  EXPECT_LT(chi2, 37.7);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RngUniformity,
                         ::testing::Values(1u, 42u, 1234567u, 0xdeadbeefu,
                                           0xffffffffffffffffu));

// =====================================================================
// Property: seeding strategies produce points inside the domain with
// near-uniform quadrant balance, for each strategy and domain shape.
// =====================================================================

class SeedingProperty
    : public ::testing::TestWithParam<std::tuple<int, Rect>> {};

TEST_P(SeedingProperty, InDomainAndBalanced) {
  const auto [strategy, domain] = GetParam();
  util::Rng rng(5);
  std::vector<Vec2> pts;
  switch (strategy) {
    case 0: pts = particles::seed_uniform(domain, 2000, rng); break;
    case 1: pts = particles::seed_jittered_grid(domain, 2000, rng); break;
    default: pts = particles::seed_halton(domain, 2000); break;
  }
  ASSERT_EQ(pts.size(), 2000u);
  int quadrant = 0;
  const Vec2 c = domain.center();
  for (const Vec2& p : pts) {
    ASSERT_TRUE(domain.contains(p));
    if (p.x < c.x && p.y < c.y) ++quadrant;
  }
  EXPECT_NEAR(quadrant, 500, 120);
}

INSTANTIATE_TEST_SUITE_P(
    StrategiesAndDomains, SeedingProperty,
    ::testing::Combine(::testing::Range(0, 3),
                       ::testing::Values(Rect{0, 0, 1, 1}, Rect{-3, 2, 9, 4},
                                         Rect{0, 0, 1060, 1100})));

}  // namespace
