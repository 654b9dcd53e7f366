// Unit tests for particle advection, streamline tracing, the particle
// system life cycle, and seeding strategies.
#include <gtest/gtest.h>

#include <cmath>
#include <numbers>

#include "field/analytic.hpp"
#include "particles/integrators.hpp"
#include "particles/particle_system.hpp"
#include "particles/seeding.hpp"
#include "particles/tracer.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace {

using namespace dcsn;
using field::Rect;
using field::Vec2;

// ------------------------------------------------------------ integrators ---

TEST(Integrators, EulerStepMatchesDefinition) {
  const auto f = field::analytic::uniform({2.0, 1.0}, Rect{0, 0, 10, 10});
  const Vec2 p = particles::euler_step(*f, {1.0, 1.0}, 0.5);
  EXPECT_NEAR(p.x, 2.0, 1e-12);
  EXPECT_NEAR(p.y, 1.5, 1e-12);
}

TEST(Integrators, AllMethodsExactForUniformFlow) {
  const auto f = field::analytic::uniform({1.0, -2.0}, Rect{-10, -10, 10, 10});
  const Vec2 start{0.0, 0.0};
  for (const auto method : {particles::Integrator::kEuler, particles::Integrator::kRk2,
                            particles::Integrator::kRk4}) {
    const Vec2 p = particles::step(*f, start, 0.25, method);
    EXPECT_NEAR(p.x, 0.25, 1e-12);
    EXPECT_NEAR(p.y, -0.5, 1e-12);
  }
}

// On a rigid vortex the exact trajectory is a circle; integrator order shows
// in how well the radius is conserved over a full revolution.
double radius_drift(particles::Integrator method, int steps) {
  const Rect domain{-2, -2, 2, 2};
  const auto f = field::analytic::rigid_vortex({0, 0}, 1.0, domain);
  const double dt = 2.0 * std::numbers::pi / steps;
  Vec2 p{1.0, 0.0};
  for (int k = 0; k < steps; ++k) p = particles::step(*f, p, dt, method);
  return std::abs(p.length() - 1.0);
}

TEST(Integrators, OrderOnCircularOrbit) {
  const double euler = radius_drift(particles::Integrator::kEuler, 200);
  const double rk2 = radius_drift(particles::Integrator::kRk2, 200);
  const double rk4 = radius_drift(particles::Integrator::kRk4, 200);
  EXPECT_LT(rk2, euler / 10.0);
  EXPECT_LT(rk4, rk2 / 10.0);
  EXPECT_LT(rk4, 1e-6);
}

TEST(Integrators, Rk4ConvergenceRate) {
  // Halving the step size should cut the error by about 2^4.
  const double coarse = radius_drift(particles::Integrator::kRk4, 100);
  const double fine = radius_drift(particles::Integrator::kRk4, 200);
  EXPECT_LT(fine, coarse / 8.0);  // allow slack below the ideal 16x
}

// ----------------------------------------------------------------- tracer ---

TEST(Tracer, UniformFlowGivesEvenlySpacedStraightLine) {
  const auto f = field::analytic::uniform({3.0, 0.0}, Rect{0, 0, 100, 10});
  particles::TracerConfig config;
  config.step_length = 1.0;
  const particles::StreamlineTracer tracer(config);
  const auto line = tracer.trace(*f, {50.0, 5.0}, 5, 5);
  ASSERT_EQ(line.size(), 11u);
  EXPECT_EQ(line.seed_index, 5u);
  for (std::size_t k = 0; k < line.size(); ++k) {
    EXPECT_NEAR(line.points[k].x, 45.0 + static_cast<double>(k), 1e-9);
    EXPECT_NEAR(line.points[k].y, 5.0, 1e-12);
    EXPECT_NEAR(line.tangents[k].x, 1.0, 1e-12);  // unit flow direction
  }
}

TEST(Tracer, ArcLengthIndependentOfSpeed) {
  // Same geometry at 100x the speed: spatial streamline must not change.
  const Rect domain{0, 0, 100, 10};
  const auto slow = field::analytic::uniform({0.03, 0.0}, domain);
  const auto fast = field::analytic::uniform({3.0, 0.0}, domain);
  particles::TracerConfig config;
  config.step_length = 0.5;
  const particles::StreamlineTracer tracer(config);
  const auto a = tracer.trace(*slow, {50.0, 5.0}, 8, 0);
  const auto b = tracer.trace(*fast, {50.0, 5.0}, 8, 0);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t k = 0; k < a.size(); ++k) {
    EXPECT_NEAR(a.points[k].x, b.points[k].x, 1e-9);
  }
}

TEST(Tracer, FollowsCircularStreamline) {
  const auto f = field::analytic::rigid_vortex({0, 0}, 1.0, Rect{-2, -2, 2, 2});
  particles::TracerConfig config;
  config.step_length = 0.01;
  const particles::StreamlineTracer tracer(config);
  const auto line = tracer.trace(*f, {1.0, 0.0}, 300, 0);
  // Every point stays on the unit circle.
  for (const Vec2& p : line.points) EXPECT_NEAR(p.length(), 1.0, 1e-6);
  // 300 steps of 0.01 should cover an arc of about 3 radians.
  const double angle = std::atan2(line.points.back().y, line.points.back().x);
  EXPECT_NEAR(angle, 3.0, 0.01);
}

TEST(Tracer, StopsAtDomainBoundary) {
  const auto f = field::analytic::uniform({1.0, 0.0}, Rect{0, 0, 10, 10});
  particles::TracerConfig config;
  config.step_length = 1.0;
  const particles::StreamlineTracer tracer(config);
  const auto line = tracer.trace(*f, {8.5, 5.0}, 10, 0);
  // Can take at most 1 step (to 9.5) before the next leaves the domain.
  EXPECT_LE(line.size(), 3u);
  for (const Vec2& p : line.points) EXPECT_LE(p.x, 10.0);
}

TEST(Tracer, StopsAtStagnationPoint) {
  const auto f = field::analytic::saddle({5.0, 5.0}, 1.0, Rect{0, 0, 10, 10});
  particles::TracerConfig config;
  config.step_length = 0.5;
  const particles::StreamlineTracer tracer(config);
  // Seed exactly on the critical point: no motion possible.
  const auto line = tracer.trace(*f, {5.0, 5.0}, 10, 10);
  EXPECT_EQ(line.size(), 1u);
  EXPECT_EQ(line.seed_index, 0u);
}

TEST(Tracer, BackwardPointsPrecedeSeed) {
  const auto f = field::analytic::uniform({1.0, 0.0}, Rect{0, 0, 100, 10});
  particles::TracerConfig config;
  config.step_length = 1.0;
  const particles::StreamlineTracer tracer(config);
  const auto line = tracer.trace(*f, {50.0, 5.0}, 2, 3);
  ASSERT_EQ(line.size(), 6u);
  EXPECT_EQ(line.seed_index, 3u);
  // Points must be ordered upstream -> downstream.
  for (std::size_t k = 1; k < line.size(); ++k)
    EXPECT_GT(line.points[k].x, line.points[k - 1].x);
}

// --------------------------------------------------------- ParticleSystem ---

particles::ParticleSystemConfig small_config() {
  particles::ParticleSystemConfig config;
  config.count = 500;
  config.mean_lifetime = 2.0;
  return config;
}

TEST(ParticleSystem, PopulatesDomainUniformly) {
  const Rect domain{0, 0, 4, 2};
  particles::ParticleSystem system(small_config(), domain, util::Rng(1));
  double mean_x = 0.0, mean_y = 0.0;
  for (const auto& p : system.particles()) {
    EXPECT_TRUE(domain.contains(p.position));
    mean_x += p.position.x;
    mean_y += p.position.y;
  }
  const auto n = static_cast<double>(system.particles().size());
  EXPECT_NEAR(mean_x / n, 2.0, 0.15);
  EXPECT_NEAR(mean_y / n, 1.0, 0.1);
}

TEST(ParticleSystem, AdvectsWithTheFlow) {
  const Rect domain{0, 0, 100, 100};
  const auto f = field::analytic::uniform({1.0, 2.0}, domain);
  particles::ParticleSystemConfig config = small_config();
  config.mean_lifetime = 1e9;  // effectively immortal for this test
  particles::ParticleSystem system(config, domain, util::Rng(2));
  const auto before = std::vector<particles::Particle>(
      system.particles().begin(), system.particles().end());
  system.advance(*f, 0.25);
  auto after = system.particles();
  int moved_correctly = 0;
  for (std::size_t k = 0; k < after.size(); ++k) {
    if (!domain.contains(before[k].position + Vec2{0.25, 0.5})) continue;
    if (std::abs(after[k].position.x - before[k].position.x - 0.25) < 1e-9 &&
        std::abs(after[k].position.y - before[k].position.y - 0.5) < 1e-9)
      ++moved_correctly;
  }
  EXPECT_GT(moved_correctly, 450);
}

TEST(ParticleSystem, RespawnsDeadParticles) {
  const Rect domain{0, 0, 10, 10};
  const auto f = field::analytic::uniform({0.0, 0.0}, domain);
  particles::ParticleSystemConfig config = small_config();
  config.mean_lifetime = 1.0;
  particles::ParticleSystem system(config, domain, util::Rng(3));
  // After advancing well past the max lifetime every particle has respawned
  // at least once, so all ages must be below the elapsed time.
  for (int step = 0; step < 40; ++step) system.advance(*f, 0.1);
  for (const auto& p : system.particles()) {
    EXPECT_LT(p.age, p.lifetime);
    EXPECT_TRUE(domain.contains(p.position));
  }
}

TEST(ParticleSystem, RespawnsEscapedParticles) {
  const Rect domain{0, 0, 1, 1};
  const auto f = field::analytic::uniform({50.0, 0.0}, domain);  // blows out fast
  particles::ParticleSystem system(small_config(), domain, util::Rng(4));
  system.advance(*f, 0.1);  // everything leaves, everything respawns
  for (const auto& p : system.particles()) {
    EXPECT_TRUE(domain.contains(p.position));
    EXPECT_EQ(p.age, 0.0);  // respawn resets the age after the advection step
  }
}

TEST(ParticleSystem, FadeWeightEnvelope) {
  particles::Particle p;
  p.lifetime = 1.0;
  const double fade = 0.25;
  p.age = 0.0;
  EXPECT_NEAR(particles::ParticleSystem::fade_weight(p, fade), 0.0, 1e-12);
  p.age = 0.125;  // halfway through fade-in: sin^2(pi/4) = 1/2
  EXPECT_NEAR(particles::ParticleSystem::fade_weight(p, fade), 0.5, 1e-12);
  p.age = 0.5;
  EXPECT_NEAR(particles::ParticleSystem::fade_weight(p, fade), 1.0, 1e-12);
  p.age = 1.0;
  EXPECT_NEAR(particles::ParticleSystem::fade_weight(p, fade), 0.0, 1e-12);
}

TEST(ParticleSystem, FadeWeightZeroFractionIsConstant) {
  particles::Particle p;
  p.lifetime = 2.0;
  p.age = 0.0;
  EXPECT_DOUBLE_EQ(particles::ParticleSystem::fade_weight(p, 0.0), 1.0);
  p.age = 1.999;
  EXPECT_DOUBLE_EQ(particles::ParticleSystem::fade_weight(p, 0.0), 1.0);
}

TEST(ParticleSystem, DeterministicAcrossThreadCounts) {
  // advance() uses per-particle hash streams, so neither the participant
  // count nor which pool thread claims which range may change the result.
  // Two runs of the same scenario see different claim orders on the
  // runtime's pool; the pinned hash in test_parallel covers the bits.
  const Rect domain{0, 0, 10, 10};
  const auto f = field::analytic::rigid_vortex({5, 5}, 1.0, domain);
  particles::ParticleSystemConfig config = small_config();
  config.mean_lifetime = 0.5;  // force many respawns
  particles::ParticleSystem a(config, domain, util::Rng(7));
  particles::ParticleSystem b(config, domain, util::Rng(7));
  for (int step = 0; step < 20; ++step) {
    a.advance(*f, 0.1);
    b.advance(*f, 0.1);
  }
  auto pa = a.particles();
  auto pb = b.particles();
  ASSERT_EQ(pa.size(), pb.size());
  for (std::size_t k = 0; k < pa.size(); ++k) {
    EXPECT_EQ(pa[k].position.x, pb[k].position.x);
    EXPECT_EQ(pa[k].intensity, pb[k].intensity);
    EXPECT_EQ(pa[k].age, pb[k].age);
  }
}

TEST(ParticleSystem, RejectsBadConfig) {
  particles::ParticleSystemConfig config;
  config.count = 0;
  EXPECT_THROW(particles::ParticleSystem(config, Rect{0, 0, 1, 1}, util::Rng(1)),
               util::Error);
  config.count = 10;
  config.fade_fraction = 0.6;
  EXPECT_THROW(particles::ParticleSystem(config, Rect{0, 0, 1, 1}, util::Rng(1)),
               util::Error);
}

// ---------------------------------------------------------------- seeding ---

TEST(Seeding, UniformCoversDomain) {
  util::Rng rng(11);
  const Rect domain{1, 2, 3, 4};
  const auto pts = particles::seed_uniform(domain, 1000, rng);
  ASSERT_EQ(pts.size(), 1000u);
  for (const Vec2& p : pts) EXPECT_TRUE(domain.contains(p));
}

TEST(Seeding, JitteredGridExactCountAndCoverage) {
  util::Rng rng(12);
  const Rect domain{0, 0, 2, 1};
  const auto pts = particles::seed_jittered_grid(domain, 777, rng);
  ASSERT_EQ(pts.size(), 777u);
  for (const Vec2& p : pts) EXPECT_TRUE(domain.contains(p));
  // Stratification: split the domain in 4 quadrants, each should hold ~1/4.
  int q = 0;
  for (const Vec2& p : pts)
    if (p.x < 1.0 && p.y < 0.5) ++q;
  EXPECT_NEAR(q, 777 / 4, 40);
}

TEST(Seeding, HaltonIsDeterministicAndLowDiscrepancy) {
  const Rect domain{0, 0, 1, 1};
  const auto a = particles::seed_halton(domain, 100);
  const auto b = particles::seed_halton(domain, 100);
  ASSERT_EQ(a.size(), 100u);
  for (std::size_t k = 0; k < a.size(); ++k) EXPECT_EQ(a[k], b[k]);
  // The offset continues the sequence.
  const auto c = particles::seed_halton(domain, 50, 50);
  for (std::size_t k = 0; k < c.size(); ++k) EXPECT_EQ(c[k], a[k + 50]);
}

TEST(Seeding, ZeroCountIsEmpty) {
  util::Rng rng(13);
  EXPECT_TRUE(particles::seed_uniform(Rect{0, 0, 1, 1}, 0, rng).empty());
  EXPECT_TRUE(particles::seed_jittered_grid(Rect{0, 0, 1, 1}, 0, rng).empty());
  EXPECT_TRUE(particles::seed_halton(Rect{0, 0, 1, 1}, 0).empty());
}

}  // namespace
