// Streamline tracing: the geometric substrate of bent spots.
//
// A bent spot (de Leeuw & van Wijk '95) is a textured mesh swept along a
// streamline through the spot's position, so the spot follows the flow even
// where curvature is high. The tracer integrates with fixed *spatial* step
// length (unit-speed field) so a spot's extent is controlled in texture
// space, independent of local velocity magnitude.
#pragma once

#include <vector>

#include "field/vector_field.hpp"
#include "particles/integrators.hpp"

namespace dcsn::particles {

struct TracerConfig {
  double step_length = 1.0;           ///< arc length per step, world units
  Integrator method = Integrator::kRk4;
  double stagnation_speed = 1e-9;     ///< stop when |v| falls below this
  bool clamp_to_domain = true;        ///< stop when leaving the field domain
};

/// A traced streamline: points[k] is the position after k steps from the
/// seed; tangents[k] the unit flow direction there. `seed_index` locates the
/// seed inside `points` when tracing both directions.
struct Streamline {
  std::vector<field::Vec2> points;
  std::vector<field::Vec2> tangents;
  std::size_t seed_index = 0;

  [[nodiscard]] std::size_t size() const { return points.size(); }
};

class StreamlineTracer {
 public:
  explicit StreamlineTracer(TracerConfig config = {}) : config_(config) {}

  /// Traces `steps_forward` steps downstream and `steps_backward` upstream
  /// of `seed`; the seed itself is always included. Stops early at domain
  /// boundaries or stagnation points, so the result may be shorter than
  /// requested (never empty).
  [[nodiscard]] Streamline trace(const field::VectorField& f, field::Vec2 seed,
                                 int steps_forward, int steps_backward) const;

  /// The one march loop behind trace(), for callers that record the points
  /// their own way (the bent-spot generator keeps every n-th point in a
  /// fixed array, allocation-free). Traces like trace() — up to
  /// `steps_forward` steps downstream and `steps_backward` upstream of
  /// `seed`, each direction stopping early at a stagnation point, on leaving
  /// the domain, or on a step that makes no progress — and calls
  /// `record(k, point, tangent)` for the seed (k = 0), each downstream step
  /// (k = 1, 2, ...) and each upstream step (k = -1, -2, ...), with the unit
  /// flow-direction tangent at the point. Steps of one direction arrive in
  /// order; the two directions interleave.
  ///
  /// Cost notes. Each step samples the field four times, not six: the slope
  /// at the current point is the stagnation check, the integrator's k1 and
  /// the previous step's recorded tangent all at once. And the two
  /// directions advance in lockstep, sample by sample: each RK step is a
  /// chain of four dependent field samples, so a lone march waits on its
  /// own latency, while two independent chains overlap in the CPU. Every
  /// lane runs the same expressions a lone march would — the points are
  /// bit-identical either way.
  template <class Record>
  void march(const field::VectorField& f, field::Vec2 seed, int steps_forward,
             int steps_backward, Record&& record) const {
    const field::Rect domain = f.domain();
    // The seed's tangent: the flow direction, or +x where the flow stagnates.
    const field::Vec2 seed_velocity = f.sample(seed);
    const double seed_speed = seed_velocity.length();
    record(0, seed,
           seed_speed >= config_.stagnation_speed ? seed_velocity / seed_speed
                                                  : field::Vec2{1.0, 0.0});
    Lane down{{f, +1.0, config_.stagnation_speed}, seed, {}, 0, steps_forward};
    Lane up{{f, -1.0, config_.stagnation_speed}, seed, {}, 0, steps_backward};
    down.slope = down.unit.scale(seed_velocity);
    up.slope = up.unit.scale(seed_velocity);
    // Moves `lane` to `next` and records it, unless the march stops there.
    const auto advance = [&](Lane& lane, field::Vec2 next) {
      if (config_.clamp_to_domain && !domain.contains(next)) return false;
      if ((next - lane.p).length_sq() == 0.0) return false;  // no progress
      lane.p = next;
      lane.slope = lane.unit.sample(next);
      ++lane.k;
      // The flow direction, not the march direction.
      const double direction = lane.unit.direction;
      record(lane.k * static_cast<int>(direction), next, lane.slope * direction);
      return lane.open();
    };
    const double h = config_.step_length;
    bool down_open = down.open();
    bool up_open = up.open();
    while (down_open && up_open) {
      const LanePair next = step_from(UnitSpeedPair{down.unit, up.unit},
                                      LanePair{down.p, up.p},
                                      LanePair{down.slope, up.slope}, h, config_.method);
      down_open = advance(down, next.a);
      up_open = advance(up, next.b);
    }
    while (down_open) {
      down_open =
          advance(down, step_from(down.unit, down.p, down.slope, h, config_.method));
    }
    while (up_open) {
      up_open = advance(up, step_from(up.unit, up.p, up.slope, h, config_.method));
    }
  }

  [[nodiscard]] const TracerConfig& config() const { return config_; }

 private:
  // Unit-speed view of the field in the march direction: integrating it
  // advances by arc length, not time, giving streamline points evenly
  // spaced along the curve.
  struct UnitSpeed {
    const field::VectorField& base;
    double direction;
    double stagnation;

    [[nodiscard]] field::Vec2 scale(field::Vec2 v) const {
      const double len = v.length();
      if (len < stagnation) return {};
      return v * (direction / len);
    }
    [[nodiscard]] field::Vec2 sample(field::Vec2 p) const {
      return scale(base.sample(p));
    }
  };

  // One direction's march state: position, the unit slope there, steps
  // taken of those requested.
  struct Lane {
    UnitSpeed unit;
    field::Vec2 p;
    field::Vec2 slope;
    int k;
    int steps;

    [[nodiscard]] bool open() const { return k < steps && slope.length_sq() != 0.0; }
  };

  // Two lanes as one value, so the integrator steps both directions with its
  // own expressions, lane by lane (see march).
  struct LanePair {
    field::Vec2 a, b;

    LanePair operator+(LanePair o) const { return {a + o.a, b + o.b}; }
    LanePair operator*(double s) const { return {a * s, b * s}; }
  };
  struct UnitSpeedPair {
    const UnitSpeed& a;
    const UnitSpeed& b;

    [[nodiscard]] LanePair sample(LanePair p) const {
      return {a.sample(p.a), b.sample(p.b)};
    }
  };

  TracerConfig config_;
};

}  // namespace dcsn::particles
