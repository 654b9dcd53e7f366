// Analytic vector fields: ground truth for tests and the figure scenarios.
//
// Each factory returns a concrete field class (field/analytic.cpp). The ones
// whose velocity needs only + - * / and sqrt — uniform, shear, rigid vortex,
// Rankine, saddle, separation — write it once as a template over the lane
// type, so sample() and the four-lane sample_lanes() of every SIMD tier run
// the same expression. Double gyre and Taylor-Green call sin/cos, which have
// no bit-identical vector form, and keep the default sample_lanes() loop.
//
// The separation-topology field substitutes for the paper's 3D block
// skin-friction data in figure 2 (see DESIGN.md §2): the figure's point is
// that advected spot positions reveal a separation line, which only needs a
// 2D field with the same critical-point topology.
#pragma once

#include <functional>
#include <memory>

#include "field/vector_field.hpp"

namespace dcsn::field {

/// Wraps any callable Vec2(Vec2) as a VectorField: the test and bench way to
/// build an ad-hoc field. It keeps the default sample_lanes() loop, one
/// std::function call per lane; the built-in fields below are concrete
/// classes instead.
class CallableField final : public VectorField {
 public:
  using Fn = std::function<Vec2(Vec2)>;

  CallableField(Fn fn, Rect domain, double max_mag)
      : fn_(std::move(fn)), domain_(domain), max_mag_(max_mag) {}

  [[nodiscard]] Vec2 sample(Vec2 p) const override { return fn_(p); }
  [[nodiscard]] Rect domain() const override { return domain_; }
  [[nodiscard]] double max_magnitude() const override { return max_mag_; }

 private:
  Fn fn_;
  Rect domain_;
  double max_mag_;
};

namespace analytic {

/// Uniform flow with the given velocity.
[[nodiscard]] std::unique_ptr<VectorField> uniform(Vec2 velocity, Rect domain);

/// Horizontal shear: u = rate * (y - y_center), v = 0.
[[nodiscard]] std::unique_ptr<VectorField> shear(double rate, Rect domain);

/// Solid-body rotation of angular velocity `omega` about `center`.
[[nodiscard]] std::unique_ptr<VectorField> rigid_vortex(Vec2 center, double omega,
                                                        Rect domain);

/// Rankine vortex: solid-body core of radius `core_radius`, 1/r decay
/// outside. The standard well-behaved vortex for visualization tests.
[[nodiscard]] std::unique_ptr<VectorField> rankine_vortex(Vec2 center, double strength,
                                                          double core_radius, Rect domain);

/// Saddle centered at `center`: u = k(x-cx), v = -k(y-cy).
[[nodiscard]] std::unique_ptr<VectorField> saddle(Vec2 center, double k, Rect domain);

/// Separation-topology field for the figure-2 scenario: free-stream flow in
/// +x that decelerates and splits along the vertical line x = sep_x, with an
/// attachment saddle on it. Particles advected through this field pile up
/// along the separation line, the effect figure 2 demonstrates.
[[nodiscard]] std::unique_ptr<VectorField> separation(double sep_x, double strength,
                                                      Rect domain);

/// Unsteady double gyre evaluated at fixed time t — the classic test case
/// for advection code. Domain [0,2]x[0,1].
[[nodiscard]] std::unique_ptr<VectorField> double_gyre(double amplitude, double eps,
                                                       double omega, double t);

/// Taylor–Green vortex array on [0,pi]^2 scaled to `domain`: an analytic
/// solenoidal field with known curl, used to validate field_ops.
[[nodiscard]] std::unique_ptr<VectorField> taylor_green(double amplitude, Rect domain);

}  // namespace analytic
}  // namespace dcsn::field
