// The particle population behind an animated spot-noise texture.
//
// Each spot is tied to a particle (paper §2): a new animation frame advects
// every particle a small distance. Particles carry the spot's random
// intensity and a life cycle — spots fade in, live, fade out and respawn at
// a fresh random position, which avoids the frozen-pattern artifacts of
// immortal particles and is the "spot life cycle" parameter adjusted in
// figure 2.
#pragma once

#include <span>
#include <vector>

#include "field/vector_field.hpp"
#include "particles/integrators.hpp"
#include "util/rng.hpp"

namespace dcsn::particles {

struct Particle {
  field::Vec2 position;
  double intensity = 0.0;  ///< zero-mean random spot weight a_i
  double age = 0.0;        ///< seconds since (re)birth
  double lifetime = 1.0;   ///< seconds until respawn
};

struct ParticleSystemConfig {
  std::int64_t count = 1000;
  double mean_lifetime = 2.0;      ///< seconds; individual lifetimes jitter ±50%
  double fade_fraction = 0.25;     ///< head/tail fraction of life spent fading
  Integrator method = Integrator::kRk2;
  bool respawn_out_of_domain = true;
};

class ParticleSystem {
 public:
  /// Populates `count` particles uniformly over `domain`, ages randomized so
  /// the population's births are spread out (no synchronized global blink).
  ParticleSystem(ParticleSystemConfig config, field::Rect domain, util::Rng rng);

  /// Advects every particle by `dt` through `f`, ages it, and respawns those
  /// that died or left the domain. Runs on the process-global runtime's
  /// pool (core::parallel_for); respawn draws come from per-particle hash
  /// streams so results are independent of the thread count.
  ///
  /// Temporal-coherence guarantee: a particle whose local velocity is zero
  /// keeps its position bit for bit (the integrators add an exact 0.0), and
  /// one inside the plateau of its life cycle keeps fade_weight() == 1.0
  /// exactly — so spots in stagnant flow are frame-to-frame identical and
  /// core::FrameDelta classifies them as unchanged.
  void advance(const field::VectorField& f, double dt);

  /// Particles respawned (death or domain exit) by the last advance() —
  /// the population churn that forces tile re-renders on the incremental
  /// path; the temporal benches report it alongside reuse rates.
  [[nodiscard]] std::int64_t last_respawn_count() const { return last_respawns_; }

  /// Life-cycle envelope in [0,1]: smooth fade-in / fade-out ramps.
  [[nodiscard]] static double fade_weight(const Particle& p, double fade_fraction);

  [[nodiscard]] double fade_weight(const Particle& p) const {
    return fade_weight(p, config_.fade_fraction);
  }

  [[nodiscard]] std::span<const Particle> particles() const { return particles_; }
  [[nodiscard]] std::span<Particle> particles() { return particles_; }
  [[nodiscard]] const ParticleSystemConfig& config() const { return config_; }
  [[nodiscard]] field::Rect domain() const { return domain_; }
  [[nodiscard]] std::int64_t generation() const { return generation_; }

 private:
  void respawn(Particle& p, util::Rng& rng) const;

  ParticleSystemConfig config_;
  field::Rect domain_;
  std::vector<Particle> particles_;
  std::uint64_t stream_seed_;  ///< base seed for per-particle respawn streams
  std::int64_t generation_ = 0;
  std::int64_t last_respawns_ = 0;
};

}  // namespace dcsn::particles
