// Numerical integrators for particle advection (pipeline step 2).
//
// The paper advects every spot's particle a small distance per frame. Euler
// is the 1991 original's choice; RK4 is what the bent-spot streamlines need
// near high-curvature regions. All steppers take velocity from the field at
// intermediate positions, so they work with any VectorField.
#pragma once

#include "field/vector_field.hpp"

namespace dcsn::particles {

enum class Integrator { kEuler, kRk2, kRk4 };

/// One step of `method` from `p` whose first slope k1 = f.sample(p) the
/// caller already holds — a streamline tracer samples p anyway for its
/// stagnation check and tangent, so handing k1 in saves a field sample per
/// step. `Field` is anything with a `V sample(V) const`, and `V` anything
/// with `V + V` and `V * double` (a field::Vec2, or several stepped in
/// lockstep).
template <class Field, class V>
[[nodiscard]] inline V step_from(const Field& f, V p, V k1, double dt,
                                 Integrator method) {
  switch (method) {
    case Integrator::kEuler:
      return p + k1 * dt;
    case Integrator::kRk2: {  // midpoint rule (second order)
      const V k2 = f.sample(p + k1 * (dt * 0.5));
      return p + k2 * dt;
    }
    case Integrator::kRk4: {  // classic fourth-order Runge–Kutta
      const V k2 = f.sample(p + k1 * (dt * 0.5));
      const V k3 = f.sample(p + k2 * (dt * 0.5));
      const V k4 = f.sample(p + k3 * dt);
      return p + (k1 + (k2 + k3) * 2.0 + k4) * (dt / 6.0);
    }
  }
  return p;  // unreachable
}

[[nodiscard]] inline field::Vec2 step(const field::VectorField& f, field::Vec2 p,
                                      double dt, Integrator method) {
  return step_from(f, p, f.sample(p), dt, method);
}

[[nodiscard]] inline field::Vec2 euler_step(const field::VectorField& f,
                                            field::Vec2 p, double dt) {
  return step(f, p, dt, Integrator::kEuler);
}

[[nodiscard]] inline field::Vec2 rk2_step(const field::VectorField& f,
                                          field::Vec2 p, double dt) {
  return step(f, p, dt, Integrator::kRk2);
}

[[nodiscard]] inline field::Vec2 rk4_step(const field::VectorField& f,
                                          field::Vec2 p, double dt) {
  return step(f, p, dt, Integrator::kRk4);
}

}  // namespace dcsn::particles
