// Independent statistical oracle: Campbell's theorem for spot noise.
//
// The golden hashes and the determinism suite prove that output is
// *unchanged*; they were produced by this same code. This suite checks that
// it is *right*, against values that share no code with the renderer.
//
// Spot noise is the sum f(x) = Σ a_i h(x − x_i) (paper §2). With N spots at
// independent uniform positions over a texture of A pixels, each spot adds
// one i.i.d. term a_i h(x − x_i) to a pixel, so every pixel whose whole
// neighbourhood of one spot extent lies inside the texture has, exactly for
// fixed N,
//
//   E[f]   = N E[a] ∫h / A
//   Var[f] = N (E[a²] ∫h² / A − (E[a] ∫h / A)²)
//
// ∫h and ∫h² come from the profile shape's closed form (the raised cosine
// of render::SpotProfile) by radial quadrature, never from a rasterized
// spot. The texture is rendered by the full engine (tiled, four pipes), so
// a blend that is not a sum, a lost or doubled fragment, a seam between
// tiles or a mis-scaled profile all move these moments.
//
// Tolerances, each derived rather than tuned (the seeds are fixed, so the
// outcome is deterministic; the bounds say how far an honest renderer may
// sit from the prediction):
//
//   * Statistics. Moments are spatial averages over the P interior pixels.
//     Pixels closer than a spot footprint are correlated, so the averages
//     behave like n_eff = P / A_eff independent samples, A_eff = (∫h)²/∫h²
//     being the footprint's effective area. For the sample mean,
//     SE = σ sqrt(A_eff / P). For the sample variance of shot noise,
//     (SE/σ²)² = (2 ∫ρ² + κ A/N) / P, with ρ the normalized autocorrelation
//     of h (∫ρ² ≤ ∫ρ = A_eff, since 0 ≤ ρ ≤ 1) and κ = E[a⁴]/E[a²]² from the
//     fourth cumulant. Each check allows four standard errors.
//   * Profile-table discretization. SpotProfile stores texel x at the shape's
//     value at u = (x + 0.5)/res but samples u at texel u·(res − 1), which
//     stretches the closed form by res/(res − 1) about the spot centre; ∫h
//     and ∫h² both scale by that stretch squared (3.2% at res 64), and the
//     prediction includes it. What is left — the bilinear interpolation of
//     the table and the midpoint rule behind its normalization — is
//     O(1/res²), 2.4e-4 at res 64; each moment allows 0.5% for it.
//   * The 2^-17 contribution lattice adds quantization noise of order
//     (2^-17)²/12 per fragment, far below every bound here.
//
// ctest label: stats.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <numbers>
#include <vector>

#include "core/dnc_synthesizer.hpp"
#include "core/spot_geometry.hpp"
#include "core/spot_source.hpp"
#include "field/analytic.hpp"
#include "util/rng.hpp"

namespace {

using namespace dcsn;

constexpr int kTexture = 1024;
constexpr double kRadius = 3.0;      // spot radius in pixels
constexpr std::int64_t kSpots = 160000;
constexpr int kResolution = 64;      // profile table side
constexpr double kSigmas = 4.0;      // standard errors allowed per check
constexpr double kTableSlack = 0.005;  // residual discretization, relative

// render::SpotShape::kCosine in closed form: r is the distance from the spot
// centre in units of the radius.
double cosine_shape(double r) {
  return r >= 1.0 ? 0.0 : 0.5 * (1.0 + std::cos(std::numbers::pi * r));
}

// ∫₀¹ g(r) r dr by composite Simpson.
template <class G>
double radial_moment(G&& g) {
  constexpr int kIntervals = 4096;
  const double step = 1.0 / kIntervals;
  double sum = 0.0;
  for (int i = 0; i <= kIntervals; ++i) {
    const double r = i * step;
    const double weight = (i == 0 || i == kIntervals) ? 1.0 : (i % 2 == 1 ? 4.0 : 2.0);
    sum += weight * g(r) * r;
  }
  return sum * step / 3.0;
}

// ∫h and ∫h² of one spot in pixel units. SpotProfile scales the shape so
// its mean over the unit UV square is 0.25; the square spans 2R pixels.
struct ProfileIntegrals {
  double h = 0.0;
  double h2 = 0.0;
};

ProfileIntegrals cosine_integrals() {
  const double m1 = radial_moment(cosine_shape);
  const double m2 =
      radial_moment([](double r) { return cosine_shape(r) * cosine_shape(r); });
  const double mean_over_square = std::numbers::pi / 2.0 * m1;
  const double scale = 0.25 / mean_over_square;
  const double stretch = static_cast<double>(kResolution) / (kResolution - 1);
  const double area = stretch * stretch;
  const double two_pi_r2 = 2.0 * std::numbers::pi * kRadius * kRadius;
  return {area * scale * two_pi_r2 * m1, area * scale * scale * two_pi_r2 * m2};
}

struct Moments {
  double mean = 0.0;
  double variance = 0.0;
  std::int64_t pixels = 0;
};

// Renders N point spots with the given intensities through the tiled engine
// and measures the interior pixels.
Moments render_moments(std::vector<core::SpotInstance> spots) {
  const field::Rect domain{0.0, 0.0, 1.0, 1.0};
  const auto f = field::analytic::uniform({1.0, 0.0}, domain);
  core::SynthesisConfig sc;
  sc.texture_width = kTexture;
  sc.texture_height = kTexture;
  sc.spot_count = static_cast<std::int64_t>(spots.size());
  sc.spot_radius_px = kRadius;
  sc.kind = core::SpotKind::kPoint;
  sc.profile_shape = render::SpotShape::kCosine;
  sc.profile_resolution = kResolution;
  core::DncConfig dnc;
  dnc.processors = 4;
  dnc.pipes = 4;
  dnc.tiled = true;
  core::DncSynthesizer engine(sc, dnc);
  engine.synthesize(*f, spots);

  // Interior: pixel centres at least one spot extent from every border.
  const double extent = core::SpotGeometryGenerator(sc, *f).max_extent_px();
  const auto first = static_cast<int>(std::ceil(extent - 0.5));
  const int last = kTexture - first;  // exclusive
  const render::Framebuffer& tex = engine.texture();
  Moments m;
  double sum = 0.0;
  for (int y = first; y < last; ++y) {
    for (int x = first; x < last; ++x) sum += tex.at(x, y);
  }
  m.pixels = static_cast<std::int64_t>(last - first) * (last - first);
  m.mean = sum / static_cast<double>(m.pixels);
  double sq = 0.0;
  for (int y = first; y < last; ++y) {
    for (int x = first; x < last; ++x) {
      const double d = tex.at(x, y) - m.mean;
      sq += d * d;
    }
  }
  m.variance = sq / static_cast<double>(m.pixels);
  return m;
}

std::vector<core::SpotInstance> random_spots(std::uint64_t seed) {
  util::Rng rng(seed);
  return core::make_random_spots({0.0, 0.0, 1.0, 1.0}, kSpots, rng);
}

constexpr double kArea = static_cast<double>(kTexture) * kTexture;

TEST(CampbellTheorem, ZeroMeanIntensitiesMatchMeanAndVariance) {
  // make_random_spots draws a uniform on [-1, 1]: E[a] = 0, E[a²] = 1/3,
  // E[a⁴] = 1/5, so κ = 9/5. With E[a] = 0 the fixed-N variance is
  // N E[a²] ∫h² / A with no correction term.
  const ProfileIntegrals in = cosine_integrals();
  const Moments m = render_moments(random_spots(20261017));
  const double n = static_cast<double>(kSpots);
  const double variance = n * (1.0 / 3.0) * in.h2 / kArea;
  const double a_eff = in.h * in.h / in.h2;
  const double p = static_cast<double>(m.pixels);

  const double mean_tol = kSigmas * std::sqrt(variance * a_eff / p);
  EXPECT_NEAR(m.mean, 0.0, mean_tol);

  const double var_se = std::sqrt((2.0 * a_eff + 9.0 / 5.0 * kArea / n) / p);
  const double var_tol = (kSigmas * var_se + kTableSlack) * variance;
  EXPECT_NEAR(m.variance, variance, var_tol)
      << "predicted σ² " << variance << ", A_eff " << a_eff << " px, P " << p;
}

TEST(CampbellTheorem, UnitIntensitiesMatchMeanAndVariance) {
  // Every a_i = 1: E[a] = E[a²] = E[a⁴] = 1, so κ = 1.
  const ProfileIntegrals in = cosine_integrals();
  auto spots = random_spots(20261018);
  for (auto& s : spots) s.intensity = 1.0;
  const Moments m = render_moments(std::move(spots));
  const double n = static_cast<double>(kSpots);
  const double mean = n * in.h / kArea;
  const double variance = n * (in.h2 / kArea - (in.h / kArea) * (in.h / kArea));
  const double a_eff = in.h * in.h / in.h2;
  const double p = static_cast<double>(m.pixels);

  const double mean_tol =
      kSigmas * std::sqrt(variance * a_eff / p) + kTableSlack * mean;
  EXPECT_NEAR(m.mean, mean, mean_tol) << "predicted mean " << mean;

  const double var_se = std::sqrt((2.0 * a_eff + kArea / n) / p);
  const double var_tol = (kSigmas * var_se + kTableSlack) * variance;
  EXPECT_NEAR(m.variance, variance, var_tol)
      << "predicted σ² " << variance << ", A_eff " << a_eff << " px, P " << p;
}

}  // namespace
