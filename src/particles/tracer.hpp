// Streamline tracing: the geometric substrate of bent spots.
//
// A bent spot (de Leeuw & van Wijk '95) is a textured mesh swept along a
// streamline through the spot's position, so the spot follows the flow even
// where curvature is high. The tracer integrates with fixed *spatial* step
// length (unit-speed field) so a spot's extent is controlled in texture
// space, independent of local velocity magnitude.
//
// Lane groups. march() traces up to four seeds at once, each upstream and
// downstream, as one group of eight lanes: one RK step advances eight
// independent chains, and each of its field samples is one
// VectorField::sample_lanes() call for the whole group. The lane arithmetic
// has a scalar and an AVX2 instantiation (util/lanes.hpp), chosen by
// util::simd::active_tier(); a single seed — trace(), or a one-spot group —
// runs the same march one lane wide. A lane that leaves the domain,
// stagnates, makes no progress or runs out of steps is masked out while the
// others go on. Every lane evaluates the scalar expressions in the same
// order, so each traced point is bit-identical whatever the group and tier.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <span>
#include <vector>

#include "field/vector_field.hpp"
#include "particles/integrators.hpp"
#include "util/lanes.hpp"
#include "util/simd_dispatch.hpp"

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
  /// Seeds one lane group traces together.
  static constexpr int kGroupSeeds = 4;

  explicit StreamlineTracer(TracerConfig config = {}) : config_(config) {}

  /// Traces `steps_forward` steps downstream and `steps_backward` upstream
  /// of `seed`; the seed itself is always included. Stops early at domain
  /// boundaries or stagnation points, so the result may be shorter than
  /// requested (never empty).
  [[nodiscard]] Streamline trace(const field::VectorField& f, field::Vec2 seed,
                                 int steps_forward, int steps_backward) const;

  /// The one march loop behind trace(), for callers that record the points
  /// their own way (the bent-spot generator keeps every n-th point in fixed
  /// arrays, allocation-free). Traces every seed like trace() — up to
  /// `steps_forward` steps downstream and `steps_backward` upstream, each
  /// direction stopping early at a stagnation point, on leaving the domain,
  /// or on a step that makes no progress — in lane groups of kGroupSeeds.
  /// Calls `record(i, k, point, tangent)` for seed i's seed point (k = 0)
  /// and for each downstream (k = stride, 2*stride, ...) and upstream
  /// (k = -stride, ...) step that is a multiple of `stride`, with the unit
  /// flow-direction tangent at the point. Steps of one lane arrive in
  /// order; lanes interleave.
  ///
  /// Cost notes. Each step samples the field four times, not six: the slope
  /// at the current point is the stagnation check, the integrator's k1 and
  /// the previous step's recorded tangent all at once. Each RK step is a
  /// chain of four dependent field samples, so a lone march waits on its
  /// own latency, while the group's eight independent chains overlap.
  template <class Record>
  void march(const field::VectorField& f, std::span<const field::Vec2> seeds,
             int steps_forward, int steps_backward, int stride, Record&& record) const {
#if defined(__x86_64__)
    const bool avx2 = util::simd::active_tier() == util::simd::Tier::kAvx2;
#endif
    for (std::size_t first = 0; first < seeds.size(); first += kGroupSeeds) {
      const auto count =
          static_cast<int>(std::min<std::size_t>(kGroupSeeds, seeds.size() - first));
      const auto shifted = [&](int i, int k, field::Vec2 point, field::Vec2 tangent) {
        record(static_cast<int>(first) + i, k, point, tangent);
      };
      const Steps steps{steps_forward, steps_backward, stride};
      if (count == 1) {
        march_lanes<util::lanes::Scalar<1>>(f, seeds.data() + first, 1, steps, shifted);
        continue;
      }
#if defined(__x86_64__)
      if (avx2) {
        march_avx2(f, seeds.data() + first, count, steps, shifted);
        continue;
      }
#endif
      march_lanes<util::lanes::Scalar<kGroupSeeds>>(f, seeds.data() + first, count, steps,
                                                    shifted);
    }
  }

  [[nodiscard]] const TracerConfig& config() const { return config_; }

 private:
  struct Steps {
    int forward;
    int backward;
    int stride;
  };

  // Positions or slopes of one group: lanes [0, W) march seeds 0..W-1
  // downstream, lanes [W, 2W) the same seeds upstream. Plain SoA doubles, so
  // the whole group is one sample_lanes() batch; the operators step_from()
  // needs work W lanes at a time in the lane type L.
  template <class L>
  struct LaneGroup {
    static constexpr int kWidth = L::kWidth;
    static constexpr int kLanes = 2 * kWidth;

    double x[kLanes];
    double y[kLanes];

    friend LaneGroup operator+(const LaneGroup& a, const LaneGroup& b) {
      LaneGroup r;
      for (int h = 0; h < kLanes; h += kWidth) {
        (L::load(a.x + h) + L::load(b.x + h)).store(r.x + h);
        (L::load(a.y + h) + L::load(b.y + h)).store(r.y + h);
      }
      return r;
    }
    friend LaneGroup operator*(const LaneGroup& a, double s) {
      const L k(s);
      LaneGroup r;
      for (int h = 0; h < kLanes; h += kWidth) {
        (L::load(a.x + h) * k).store(r.x + h);
        (L::load(a.y + h) * k).store(r.y + h);
      }
      return r;
    }
    /// a in the lanes set in `lanes`, else b.
    static LaneGroup select(std::uint32_t lanes, const LaneGroup& a, const LaneGroup& b) {
      LaneGroup r;
      for (int h = 0; h < kLanes; h += kWidth) {
        const auto m = L::Mask::from_bits(lanes >> h);
        util::lanes::select(m, L::load(a.x + h), L::load(b.x + h)).store(r.x + h);
        util::lanes::select(m, L::load(a.y + h), L::load(b.y + h)).store(r.y + h);
      }
      return r;
    }
    /// Lanes whose vector is not the zero vector (x*x + y*y != 0).
    [[nodiscard]] std::uint32_t nonzero() const {
      std::uint32_t bits = 0;
      for (int h = 0; h < kLanes; h += kWidth) {
        const L lx = L::load(x + h);
        const L ly = L::load(y + h);
        bits |= (lx * lx + ly * ly != L(0.0)).bits() << h;
      }
      return bits;
    }
    /// Lanes that moved from `prev`: (p - prev).length_sq() != 0.
    [[nodiscard]] std::uint32_t moved_from(const LaneGroup& prev) const {
      std::uint32_t bits = 0;
      for (int h = 0; h < kLanes; h += kWidth) {
        const L dx = L::load(x + h) - L::load(prev.x + h);
        const L dy = L::load(y + h) - L::load(prev.y + h);
        bits |= (dx * dx + dy * dy != L(0.0)).bits() << h;
      }
      return bits;
    }
    /// Lanes inside `r` (field::Rect::contains).
    [[nodiscard]] std::uint32_t inside(const field::Rect& r) const {
      std::uint32_t bits = 0;
      for (int h = 0; h < kLanes; h += kWidth) {
        const L lx = L::load(x + h);
        const L ly = L::load(y + h);
        const auto in =
            (lx >= L(r.x0)) & (lx <= L(r.x1)) & (ly >= L(r.y0)) & (ly <= L(r.y1));
        bits |= in.bits() << h;
      }
      return bits;
    }
  };

  // Unit-speed view of the field in each lane's march direction:
  // integrating it advances by arc length, not time, giving streamline
  // points evenly spaced along the curve. Samples only the lanes in
  // `active`, which the march updates as lanes stop.
  template <class L>
  struct UnitSpeedLanes {
    using Group = LaneGroup<L>;

    const field::VectorField& base;
    double stagnation;
    const std::uint32_t& active;

    // v * (direction / |v|), or the zero vector below the stagnation speed.
    [[nodiscard]] Group scale(const Group& v) const {
      Group r;
      for (int h = 0; h < Group::kLanes; h += Group::kWidth) {
        const L vx = L::load(v.x + h);
        const L vy = L::load(v.y + h);
        const L len = util::lanes::sqrt(vx * vx + vy * vy);
        const L s = L(h == 0 ? 1.0 : -1.0) / len;
        const auto still = len < L(stagnation);
        util::lanes::select(still, L(0.0), vx * s).store(r.x + h);
        util::lanes::select(still, L(0.0), vy * s).store(r.y + h);
      }
      return r;
    }
    [[nodiscard]] Group sample(const Group& p) const {
      Group v{};
      base.sample_lanes(p.x, p.y, v.x, v.y, Group::kLanes, active);
      return scale(v);
    }
  };

#if defined(__x86_64__)
  template <class Record>
  DCSN_LANES_AVX2_ENTRY void march_avx2(const field::VectorField& f,
                                        const field::Vec2* seeds, int count, Steps steps,
                                        const Record& record) const {
    march_lanes<util::lanes::Avx2x4>(f, seeds, count, steps, record);
  }
#endif

  // One group of `count` seeds (1 <= count <= L::kWidth); see march().
  template <class L, class Record>
  void march_lanes(const field::VectorField& f, const field::Vec2* seeds, int count,
                   Steps steps, const Record& record) const {
    using Group = LaneGroup<L>;
    constexpr int W = Group::kWidth;
    const std::uint32_t down = (1u << count) - 1u;
    const std::uint32_t up = down << W;
    // Lanes of absent seeds stay at the origin and are never sampled.
    Group p{};
    for (int i = 0; i < count; ++i) {
      p.x[i] = p.x[W + i] = seeds[i].x;
      p.y[i] = p.y[W + i] = seeds[i].y;
    }
    // The seed's velocity, sampled once per seed (its downstream lane), and
    // its tangent: the flow direction, or +x where the flow stagnates.
    Group velocity{};
    f.sample_lanes(p.x, p.y, velocity.x, velocity.y, Group::kLanes, down);
    for (int i = 0; i < count; ++i) {
      velocity.x[W + i] = velocity.x[i];
      velocity.y[W + i] = velocity.y[i];
      const field::Vec2 v{velocity.x[i], velocity.y[i]};
      const double speed = v.length();
      record(i, 0, seeds[i],
             speed >= config_.stagnation_speed ? v / speed : field::Vec2{1.0, 0.0});
    }
    std::uint32_t active = 0;
    const UnitSpeedLanes<L> unit{f, config_.stagnation_speed, active};
    Group slope = unit.scale(velocity);
    // Lanes still marching after k steps: steps left, and not stagnant.
    const auto open = [&](int k, std::uint32_t lanes) {
      return lanes & ((k < steps.forward ? down : 0u) | (k < steps.backward ? up : 0u)) &
             slope.nonzero();
    };
    active = open(0, down | up);
    const field::Rect domain = f.domain();
    const double h = config_.step_length;
    for (int k = 1; active != 0; ++k) {
      const Group next = step_from(unit, p, slope, h, config_.method);
      // Each lane moves to `next` unless the march stops there.
      std::uint32_t moved = active & next.moved_from(p);
      if (config_.clamp_to_domain) moved &= next.inside(domain);
      p = Group::select(moved, next, p);
      active = moved;
      slope = Group::select(moved, unit.sample(p), slope);
      if (k % steps.stride == 0) {
        for (std::uint32_t m = moved; m != 0; m &= m - 1) {
          const int lane = std::countr_zero(m);
          // The flow direction, not the march direction.
          const double direction = lane < W ? 1.0 : -1.0;
          record(lane % W, lane < W ? k : -k, field::Vec2{p.x[lane], p.y[lane]},
                 field::Vec2{slope.x[lane] * direction, slope.y[lane] * direction});
        }
      }
      active = open(k, moved);
    }
  }

  TracerConfig config_;
};

}  // namespace dcsn::particles
