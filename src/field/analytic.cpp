#include "field/analytic.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>

#include "util/lanes.hpp"
#include "util/simd_dispatch.hpp"

namespace dcsn::field::analytic {

namespace {
constexpr double kPi = std::numbers::pi;

namespace lanes = util::lanes;

// Runs `field.eval` over lanes [0, n): L-wide blocks, then plain doubles
// for the tail (a one-spot march asks for two lanes).
template <class L, class Field>
void eval_lanes(const Field& field, const double* x, const double* y, double* u,
                double* v, std::size_t n) {
  std::size_t i = 0;
  for (; i + L::kWidth <= n; i += L::kWidth) {
    L lu;
    L lv;
    field.eval(L::load(x + i), L::load(y + i), lu, lv);
    lu.store(u + i);
    lv.store(v + i);
  }
  for (; i < n; ++i) field.eval(x[i], y[i], u[i], v[i]);
}

#if defined(__x86_64__)
template <class Field>
DCSN_LANES_AVX2_ENTRY void eval_lanes_avx2(const Field& field, const double* x,
                                           const double* y, double* u, double* v,
                                           std::size_t n) {
  eval_lanes<lanes::Avx2x4>(field, x, y, u, v, n);
}
#endif

// A field whose velocity is one expression, `Derived::eval(x, y, u, v)`,
// written as a template over the lane type (double or a util::lanes type).
// sample() runs it on doubles; sample_lanes() runs it four lanes at a time
// on the active SIMD tier, computing every lane of the batch.
template <class Derived>
class LaneField : public VectorField {
 public:
  LaneField(Rect domain, double max_mag) : domain_(domain), max_mag_(max_mag) {}

  [[nodiscard]] Vec2 sample(Vec2 p) const final {
    Vec2 out;
    self().eval(p.x, p.y, out.x, out.y);
    return out;
  }
  void sample_lanes(const double* x, const double* y, double* u, double* v,
                    std::size_t n, std::uint32_t /*active*/) const final {
#if defined(__x86_64__)
    if (util::simd::active_tier() == util::simd::Tier::kAvx2) {
      eval_lanes_avx2(self(), x, y, u, v, n);
      return;
    }
#endif
    eval_lanes<lanes::Scalar<4>>(self(), x, y, u, v, n);
  }
  [[nodiscard]] Rect domain() const final { return domain_; }
  [[nodiscard]] double max_magnitude() const final { return max_mag_; }

 private:
  [[nodiscard]] const Derived& self() const { return static_cast<const Derived&>(*this); }

  Rect domain_;
  double max_mag_;
};

class Uniform final : public LaneField<Uniform> {
 public:
  Uniform(Vec2 velocity, Rect domain)
      : LaneField(domain, velocity.length()), velocity_(velocity) {}

  template <class L>
  void eval(const L& /*x*/, const L& /*y*/, L& u, L& v) const {
    u = L(velocity_.x);
    v = L(velocity_.y);
  }

 private:
  Vec2 velocity_;
};

// Horizontal shear: u = rate * (y - yc), v = 0.
class Shear final : public LaneField<Shear> {
 public:
  Shear(double rate, Rect domain)
      : LaneField(domain, std::abs(rate) * domain.height() * 0.5),
        rate_(rate),
        yc_(domain.center().y) {}

  template <class L>
  void eval(const L& /*x*/, const L& y, L& u, L& v) const {
    u = L(rate_) * (y - L(yc_));
    v = L(0.0);
  }

 private:
  double rate_;
  double yc_;
};

class RigidVortex final : public LaneField<RigidVortex> {
 public:
  RigidVortex(Vec2 center, double omega, Rect domain, double max_mag)
      : LaneField(domain, max_mag), center_(center), omega_(omega) {}

  template <class L>
  void eval(const L& x, const L& y, L& u, L& v) const {
    const L rx = x - L(center_.x);
    const L ry = y - L(center_.y);
    u = L(-omega_) * ry;
    v = L(omega_) * rx;
  }

 private:
  Vec2 center_;
  double omega_;
};

// Solid-body core of radius R, 1/r decay outside. Both branches and the
// r < 1e-12 guard are per-lane selects: a lane computes every candidate and
// keeps the one the scalar branch would take (the others may be inf/NaN).
class Rankine final : public LaneField<Rankine> {
 public:
  Rankine(Vec2 center, double strength, double core_radius, Rect domain)
      : LaneField(domain, std::abs(strength) / (2.0 * kPi * core_radius)),
        center_(center),
        core_radius_(core_radius),
        core_sq_(core_radius * core_radius),
        coef_(strength / (2.0 * kPi)) {}

  template <class L>
  void eval(const L& x, const L& y, L& u, L& v) const {
    const L rx = x - L(center_.x);
    const L ry = y - L(center_.y);
    const L dist = lanes::sqrt(rx * rx + ry * ry);
    // Tangential speed: (Gamma/2pi) * r/R^2 inside the core, (Gamma/2pi)/r outside.
    const L tangential = lanes::select(dist <= L(core_radius_),
                                       L(coef_) * dist / L(core_sq_), L(coef_) / dist);
    const auto at_center = dist < L(1e-12);
    u = lanes::select(at_center, L(0.0), -ry / dist * tangential);
    v = lanes::select(at_center, L(0.0), rx / dist * tangential);
  }

 private:
  Vec2 center_;
  double core_radius_;
  double core_sq_;
  double coef_;
};

// u = k(x-cx), v = -k(y-cy).
class Saddle final : public LaneField<Saddle> {
 public:
  Saddle(Vec2 center, double k, Rect domain)
      : LaneField(domain, std::abs(k) * std::max(domain.width(), domain.height())),
        center_(center),
        k_(k) {}

  template <class L>
  void eval(const L& x, const L& y, L& u, L& v) const {
    const L rx = x - L(center_.x);
    const L ry = y - L(center_.y);
    u = L(k_) * rx;
    v = L(-k_) * ry;
  }

 private:
  Vec2 center_;
  double k_;
};

class Separation final : public LaneField<Separation> {
 public:
  Separation(double sep_x, double strength, Rect domain, double max_mag)
      : LaneField(domain, max_mag),
        sep_x_(sep_x),
        yc_(domain.center().y),
        strength_(strength) {}

  template <class L>
  void eval(const L& x, const L& y, L& u, L& v) const {
    u = L(-strength_) * (x - L(sep_x_));
    v = L(strength_) * (y - L(yc_));
  }

 private:
  double sep_x_;
  double yc_;
  double strength_;
};

class DoubleGyre final : public VectorField {
 public:
  DoubleGyre(double amplitude, double a, double b)
      : amplitude_(amplitude), a_(a), b_(b) {}

  [[nodiscard]] Vec2 sample(Vec2 p) const override {
    const double fx = a_ * p.x * p.x + b_ * p.x;
    const double dfx = 2.0 * a_ * p.x + b_;
    return Vec2{-kPi * amplitude_ * std::sin(kPi * fx) * std::cos(kPi * p.y),
                kPi * amplitude_ * std::cos(kPi * fx) * std::sin(kPi * p.y) * dfx};
  }
  [[nodiscard]] Rect domain() const override { return {0.0, 0.0, 2.0, 1.0}; }
  [[nodiscard]] double max_magnitude() const override { return kPi * amplitude_ * 2.0; }

 private:
  double amplitude_;
  double a_;
  double b_;
};

class TaylorGreen final : public VectorField {
 public:
  TaylorGreen(double amplitude, Rect domain)
      : amplitude_(amplitude),
        sx_(kPi / domain.width()),
        sy_(kPi / domain.height()),
        domain_(domain) {}

  [[nodiscard]] Vec2 sample(Vec2 p) const override {
    const double u = (p.x - domain_.x0) * sx_;
    const double v = (p.y - domain_.y0) * sy_;
    return Vec2{amplitude_ * std::sin(u) * std::cos(v),
                -amplitude_ * std::cos(u) * std::sin(v)};
  }
  [[nodiscard]] Rect domain() const override { return domain_; }
  [[nodiscard]] double max_magnitude() const override { return amplitude_; }

 private:
  double amplitude_;
  double sx_;
  double sy_;
  Rect domain_;
};

}  // namespace

std::unique_ptr<VectorField> uniform(Vec2 velocity, Rect domain) {
  return std::make_unique<Uniform>(velocity, domain);
}

std::unique_ptr<VectorField> shear(double rate, Rect domain) {
  return std::make_unique<Shear>(rate, domain);
}

std::unique_ptr<VectorField> rigid_vortex(Vec2 center, double omega, Rect domain) {
  // Velocity grows linearly with radius; the domain corner bounds it.
  const double rmax = std::max((domain.max() - center).length(),
                               (domain.min() - center).length());
  return std::make_unique<RigidVortex>(center, omega, domain, std::abs(omega) * rmax);
}

std::unique_ptr<VectorField> rankine_vortex(Vec2 center, double strength,
                                            double core_radius, Rect domain) {
  return std::make_unique<Rankine>(center, strength, core_radius, domain);
}

std::unique_ptr<VectorField> saddle(Vec2 center, double k, Rect domain) {
  return std::make_unique<Saddle>(center, k, domain);
}

std::unique_ptr<VectorField> separation(double sep_x, double strength, Rect domain) {
  // u decays linearly toward the separation line and reverses beyond it;
  // v diverges away from the attachment point on the line. The result is a
  // saddle on (sep_x, yc) with the separation line x = sep_x as the stable
  // manifold — matching the topology of flow attaching to a blunt face.
  const double xspan = std::max(sep_x - domain.x0, domain.x1 - sep_x);
  const double max_mag = strength * std::hypot(xspan, domain.height() * 0.5);
  return std::make_unique<Separation>(sep_x, strength, domain, max_mag);
}

std::unique_ptr<VectorField> double_gyre(double amplitude, double eps, double omega,
                                         double t) {
  const double a = eps * std::sin(omega * t);
  const double b = 1.0 - 2.0 * eps * std::sin(omega * t);
  return std::make_unique<DoubleGyre>(amplitude, a, b);
}

std::unique_ptr<VectorField> taylor_green(double amplitude, Rect domain) {
  return std::make_unique<TaylorGreen>(amplitude, domain);
}

}  // namespace dcsn::field::analytic
