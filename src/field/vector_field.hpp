// The vector-field abstraction every consumer (advection, spot warping,
// streamline tracing) programs against.
//
// Step 1 of the spot-noise pipeline "read a data set of a vector field" may
// run 5-15 times per second; per frame the field is treated as steady, so
// the interface is a steady sample(). Unsteady phenomena are handled by the
// application replacing/overwriting grid data between frames, exactly as the
// paper's steering and browsing applications do.
//
// Lane batches. genP's bent-spot march traces four spots at once, in both
// directions, and asks for eight velocities per integration stage through
// sample_lanes(): one virtual call per batch, not one per sample. The
// default loops over sample(). The analytic fields whose velocity needs only
// + - * / and sqrt (uniform, shear, rigid vortex, Rankine, saddle,
// separation; field/analytic.cpp) override it with the same expression on
// four-lane registers of the active SIMD tier, bit-identical to sample().
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>

#include "field/vec2.hpp"

namespace dcsn::field {

class VectorField {
 public:
  virtual ~VectorField() = default;

  /// Velocity at world position `p`. Positions outside the domain must
  /// return a finite value (implementations clamp to the border).
  [[nodiscard]] virtual Vec2 sample(Vec2 p) const = 0;

  /// sample() over `n` lanes of SoA positions: for every lane i whose bit is
  /// set in `active`, (u[i], v[i]) becomes sample({x[i], y[i]}), bit for
  /// bit. Lanes whose bit is clear are don't-cares: an override may compute
  /// them (all four arrays hold n entries), the default skips them. The
  /// default calls sample() once per active lane, in lane order.
  virtual void sample_lanes(const double* x, const double* y, double* u, double* v,
                            [[maybe_unused]] std::size_t n,
                            std::uint32_t active) const {
    for (std::uint32_t m = active; m != 0; m &= m - 1) {
      const auto i = static_cast<std::size_t>(std::countr_zero(m));
      const Vec2 s = sample({x[i], y[i]});
      u[i] = s.x;
      v[i] = s.y;
    }
  }

  /// World-space extent of valid data.
  [[nodiscard]] virtual Rect domain() const = 0;

  /// Largest velocity magnitude over the domain (approximate is fine); used
  /// to scale spot deformation and pick advection time steps.
  [[nodiscard]] virtual double max_magnitude() const = 0;
};

}  // namespace dcsn::field
