#include "sim/dns_solver.hpp"

#include <algorithm>
#include <cmath>

#include "core/runtime.hpp"
#include "particles/integrators.hpp"
#include "util/error.hpp"

namespace dcsn::sim {

DnsSolver::DnsSolver(DnsParams params)
    : params_(params),
      velocity_(field::RegularGrid(params.nx, params.ny, params.domain)),
      scratch_(velocity_.grid()),
      pressure_(velocity_.grid()),
      divergence_(velocity_.grid()),
      solid_(velocity_.grid().sample_count(), 0) {
  DCSN_CHECK(params_.inflow_speed > 0.0, "inflow speed must be positive");
  DCSN_CHECK(params_.viscosity > 0.0, "viscosity must be positive");
  DCSN_CHECK(params_.pressure_iterations >= 1, "need at least one SOR sweep");
  DCSN_CHECK(params_.sor_omega > 0.0 && params_.sor_omega < 2.0,
             "SOR relaxation must lie in (0,2)");
  DCSN_CHECK(params_.domain.contains(params_.block.min()) &&
                 params_.domain.contains(params_.block.max()),
             "block must lie inside the domain");

  const field::RegularGrid& g = grid();
  for (int j = 0; j < g.ny(); ++j)
    for (int i = 0; i < g.nx(); ++i)
      if (params_.block.contains(g.position(i, j)))
        solid_[g.linear_index(i, j)] = 1;

  // Impulsive start: uniform inflow with a slight tilt that breaks the
  // wake's top/bottom symmetry so vortex shedding develops quickly.
  velocity_.fill([this](field::Vec2) {
    return field::Vec2{params_.inflow_speed,
                       params_.perturbation * params_.inflow_speed};
  });
  apply_boundaries(velocity_);
}

void DnsSolver::apply_boundaries(field::GridVectorField& v) const {
  const field::RegularGrid& g = grid();
  const int nx = g.nx();
  const int ny = g.ny();
  // Inflow: prescribed velocity. Outflow: zero-gradient. Top/bottom:
  // free-slip (zero normal velocity, zero shear).
  for (int j = 0; j < ny; ++j) {
    v.at(0, j) = {params_.inflow_speed, params_.perturbation * params_.inflow_speed};
    v.at(nx - 1, j) = v.at(nx - 2, j);
  }
  for (int i = 0; i < nx; ++i) {
    v.at(i, 0) = {v.at(i, 1).x, 0.0};
    v.at(i, ny - 1) = {v.at(i, ny - 2).x, 0.0};
  }
  // No-slip block.
  for (int j = 0; j < ny; ++j)
    for (int i = 0; i < nx; ++i)
      if (solid_[g.linear_index(i, j)]) v.at(i, j) = {};
  v.invalidate_max();
}

void DnsSolver::step() {
  const field::RegularGrid& g = grid();
  const double h = std::min(g.dx(), g.dy());
  const double vmax = std::max(velocity_.max_magnitude(), params_.inflow_speed);
  dt_ = 0.35 * h / vmax;

  advect();
  diffuse();
  project();
  apply_boundaries(velocity_);

  time_ += dt_;
  ++steps_;
}

void DnsSolver::advect() {
  // Semi-Lagrangian: trace each sample backwards through the flow and pick
  // up the velocity found there (unconditionally stable).
  const field::RegularGrid& g = grid();
  core::parallel_for(g.ny(), [&](std::int64_t j0, std::int64_t j1) {
    for (int j = static_cast<int>(j0); j < j1; ++j) {
      for (int i = 0; i < g.nx(); ++i) {
        if (solid_[g.linear_index(i, j)]) {
          scratch_.at(i, j) = {};
          continue;
        }
        const field::Vec2 p = g.position(i, j);
        const field::Vec2 back = particles::rk2_step(velocity_, p, -dt_);
        scratch_.at(i, j) = velocity_.sample(params_.domain.clamp(back));
      }
    }
  });
  std::swap(velocity_, scratch_);
  apply_boundaries(velocity_);
}

void DnsSolver::diffuse() {
  // Explicit diffusion; the advective dt is far below the diffusive limit
  // at the default parameters (checked here for safety).
  const field::RegularGrid& g = grid();
  const double h = std::min(g.dx(), g.dy());
  DCSN_CHECK(params_.viscosity * dt_ / (h * h) < 0.25,
             "explicit diffusion unstable: lower viscosity or resolution");
  const double kx = params_.viscosity * dt_ / (g.dx() * g.dx());
  const double ky = params_.viscosity * dt_ / (g.dy() * g.dy());
  const int nx = g.nx();
  const int ny = g.ny();
  core::parallel_for(ny, [&](std::int64_t j0, std::int64_t j1) {
    for (int j = static_cast<int>(j0); j < j1; ++j) {
      for (int i = 0; i < nx; ++i) {
        if (solid_[g.linear_index(i, j)]) {
          scratch_.at(i, j) = {};
          continue;
        }
        const field::Vec2 c = velocity_.at(i, j);
        const field::Vec2 l = velocity_.at(std::max(i - 1, 0), j);
        const field::Vec2 r = velocity_.at(std::min(i + 1, nx - 1), j);
        const field::Vec2 d = velocity_.at(i, std::max(j - 1, 0));
        const field::Vec2 u = velocity_.at(i, std::min(j + 1, ny - 1));
        scratch_.at(i, j) = c + (l + r - c * 2.0) * kx + (d + u - c * 2.0) * ky;
      }
    }
  });
  std::swap(velocity_, scratch_);
  apply_boundaries(velocity_);
}

void DnsSolver::project() {
  const field::RegularGrid& g = grid();
  const int nx = g.nx();
  const int ny = g.ny();
  const double dx = g.dx();
  const double dy = g.dy();

  // Velocity divergence (central differences).
  core::parallel_for(ny, [&](std::int64_t j0, std::int64_t j1) {
    for (int j = static_cast<int>(j0); j < j1; ++j) {
      for (int i = 0; i < nx; ++i) {
        if (solid_[g.linear_index(i, j)] || i == 0 || i == nx - 1 || j == 0 ||
            j == ny - 1) {
          divergence_.at(i, j) = 0.0;
          continue;
        }
        divergence_.at(i, j) =
            (velocity_.at(i + 1, j).x - velocity_.at(i - 1, j).x) / (2.0 * dx) +
            (velocity_.at(i, j + 1).y - velocity_.at(i, j - 1).y) / (2.0 * dy);
      }
    }
  });

  // Pressure Poisson: nabla^2 p = div / dt, Neumann at walls and the block,
  // red-black SOR so sweeps parallelize.
  const double ax = 1.0 / (dx * dx);
  const double ay = 1.0 / (dy * dy);
  const double inv_diag = 1.0 / (2.0 * ax + 2.0 * ay);
  const double omega = params_.sor_omega;

  auto neighbor = [&](int i, int j, int ci, int cj) -> double {
    // Neumann boundary: mirror the center value outside the fluid.
    if (i < 0 || i >= nx || j < 0 || j >= ny || solid_[g.linear_index(i, j)])
      return pressure_.at(ci, cj);
    return pressure_.at(i, j);
  };

  for (int sweep = 0; sweep < params_.pressure_iterations; ++sweep) {
    for (int color = 0; color < 2; ++color) {
      core::parallel_for(ny, [&](std::int64_t j0, std::int64_t j1) {
        for (int j = static_cast<int>(j0); j < j1; ++j) {
          for (int i = (j + color) % 2; i < nx; i += 2) {
            if (solid_[g.linear_index(i, j)]) continue;
            const double rhs = divergence_.at(i, j) / dt_;
            const double sum = ax * (neighbor(i - 1, j, i, j) + neighbor(i + 1, j, i, j)) +
                               ay * (neighbor(i, j - 1, i, j) + neighbor(i, j + 1, i, j));
            const double gs = (sum - rhs) * inv_diag;
            pressure_.at(i, j) += omega * (gs - pressure_.at(i, j));
          }
        }
      });
    }
  }

  // Subtract the pressure gradient to make the field divergence-free.
  core::parallel_for(ny - 2, [&](std::int64_t j0, std::int64_t j1) {
    for (int j = 1 + static_cast<int>(j0); j < 1 + j1; ++j) {
      for (int i = 1; i < nx - 1; ++i) {
        if (solid_[g.linear_index(i, j)]) continue;
        const double px =
            (neighbor(i + 1, j, i, j) - neighbor(i - 1, j, i, j)) / (2.0 * dx);
        const double py =
            (neighbor(i, j + 1, i, j) - neighbor(i, j - 1, i, j)) / (2.0 * dy);
        velocity_.at(i, j) -= field::Vec2{px, py} * dt_;
      }
    }
  });
  velocity_.invalidate_max();
}

field::RectilinearVectorField DnsSolver::snapshot(double stretch) const {
  DCSN_CHECK(stretch >= 1.0, "stretch factor must be >= 1");
  const field::Rect& d = params_.domain;
  const field::Vec2 focus = params_.block.center();
  // Inverse ratio: spacing *shrinks* toward the block by `stretch`.
  auto xs = field::RectilinearGrid::stretched_axis(
      params_.nx, d.x0, d.x1, (focus.x - d.x0) / d.width(), stretch);
  auto ys = field::RectilinearGrid::stretched_axis(
      params_.ny, d.y0, d.y1, (focus.y - d.y0) / d.height(), stretch);
  field::RectilinearGrid g(std::move(xs), std::move(ys));
  field::RectilinearVectorField out(g);
  out.fill([this](field::Vec2 p) { return velocity_.sample(p); });
  return out;
}

double DnsSolver::kinetic_energy() const {
  const field::RegularGrid& g = grid();
  double sum = 0.0;
  for (const field::Vec2& v : velocity_.samples()) sum += v.length_sq();
  return 0.5 * sum * g.dx() * g.dy();
}

}  // namespace dcsn::sim
