#include "core/spot_geometry.hpp"

#include <algorithm>
#include <array>
#include <cmath>

#include "util/error.hpp"

namespace dcsn::core {

namespace {
constexpr double kMinDirection = 1e-12;
}

SpotGeometryGenerator::SpotGeometryGenerator(const SynthesisConfig& config,
                                             const field::VectorField& f)
    : config_(config),
      field_(&f),
      mapping_(config.window.value_or(f.domain()), config.texture_width,
               config.texture_height),
      tracer_(particles::TracerConfig{}) {
  DCSN_CHECK(config.texture_width > 0 && config.texture_height > 0,
             "texture dimensions must be positive");
  DCSN_CHECK(config.spot_radius_px > 0.0, "spot radius must be positive");
  DCSN_CHECK(config.bent.mesh_cols >= 2 && config.bent.mesh_rows >= 2,
             "bent spot mesh needs at least 2x2 vertices");
  DCSN_CHECK(config.bent.mesh_cols <= BentSpotParams::kMaxMeshCols &&
                 config.bent.mesh_rows <= BentSpotParams::kMaxMeshRows,
             "bent spot mesh exceeds the supported maximum of 256x64 vertices");
  DCSN_CHECK(config.bent.trace_substeps >= 1 &&
                 config.bent.trace_substeps <= BentSpotParams::kMaxTraceSubsteps,
             "trace substeps must be within [1, 1024]");

  const field::Rect view = config.window.value_or(f.domain());
  world_per_px_ = 0.5 * (view.width() / config.texture_width +
                         view.height() / config.texture_height);
  const double max_mag = f.max_magnitude();
  inv_max_mag_ = max_mag > 0.0 ? 1.0 / max_mag : 0.0;

  // Fixed arc length per integration substep so the traced spine spans
  // length_px regardless of local velocity magnitude.
  const double length_world = config.bent.length_px * world_per_px_;
  const int segments = (config.bent.mesh_cols - 1) * config.bent.trace_substeps;
  particles::TracerConfig tc;
  tc.step_length = length_world / segments;
  tc.method = particles::Integrator::kRk4;
  tracer_ = particles::StreamlineTracer(tc);
}

void SpotGeometryGenerator::generate(const SpotInstance& spot,
                                     render::CommandBuffer& out) const {
  const SpotInstance* const group[] = {&spot};
  generate_group(group, out);
}

void SpotGeometryGenerator::generate_group(std::span<const SpotInstance* const> group,
                                           render::CommandBuffer& out) const {
  DCSN_CHECK(group.size() <= static_cast<std::size_t>(kGroupSpots),
             "a spot group holds at most four spots");
  switch (config_.kind) {
    case SpotKind::kPoint:
      for (const SpotInstance* spot : group) generate_point(*spot, out);
      return;
    case SpotKind::kEllipse:
      for (const SpotInstance* spot : group) generate_ellipse(*spot, out);
      return;
    case SpotKind::kBent:
      generate_bent(group, out);
      return;
  }
}

void SpotGeometryGenerator::generate_all(std::span<const SpotInstance> spots,
                                         render::CommandBuffer& out) const {
  std::array<const SpotInstance*, kGroupSpots> group;
  for (std::size_t first = 0; first < spots.size(); first += group.size()) {
    const std::size_t count = std::min(group.size(), spots.size() - first);
    for (std::size_t i = 0; i < count; ++i) group[i] = &spots[first + i];
    generate_group(std::span(group.data(), count), out);
  }
}

double SpotGeometryGenerator::max_extent_px() const {
  switch (config_.kind) {
    case SpotKind::kPoint:
      return config_.spot_radius_px + 1.0;
    case SpotKind::kEllipse:
      return config_.spot_radius_px * config_.ellipse.max_stretch + 1.0;
    case SpotKind::kBent:
      return 0.5 * config_.bent.length_px + config_.spot_radius_px + 1.0;
  }
  return config_.spot_radius_px + 1.0;
}

field::Vec2 SpotGeometryGenerator::map_direction(field::Vec2 d) const {
  // Linear part of the world->pixel map; y flips because image rows grow
  // downward while world y grows upward.
  const field::Rect& world = mapping_.world();
  return {d.x * (config_.texture_width / world.width()),
          -d.y * (config_.texture_height / world.height())};
}

void SpotGeometryGenerator::generate_point(const SpotInstance& spot,
                                           render::CommandBuffer& out) const {
  const auto [px, py] = mapping_.map(spot.position);
  const auto h = static_cast<float>(config_.spot_radius_px);
  const auto intensity =
      static_cast<float>(spot.intensity * config_.intensity_scale);
  auto verts = out.add_mesh(intensity, 2, 2);
  const auto cx = static_cast<float>(px);
  const auto cy = static_cast<float>(py);
  verts[0] = {cx - h, cy - h, 0.0f, 0.0f};
  verts[1] = {cx + h, cy - h, 1.0f, 0.0f};
  verts[2] = {cx - h, cy + h, 0.0f, 1.0f};
  verts[3] = {cx + h, cy + h, 1.0f, 1.0f};
}

void SpotGeometryGenerator::generate_ellipse(const SpotInstance& spot,
                                             render::CommandBuffer& out) const {
  const field::Vec2 velocity = field_->sample(spot.position);
  const field::Vec2 dir_px = map_direction(velocity);
  const double dir_len = dir_px.length();
  if (dir_len < kMinDirection) {
    generate_point(spot, out);
    return;
  }

  // Stretch grows with relative speed; area preserved (a*b = radius^2) so
  // every spot deposits the same energy (van Wijk '91 spot transformation).
  const double rel = std::min(velocity.length() * inv_max_mag_, 1.0);
  const double stretch = 1.0 + (config_.ellipse.max_stretch - 1.0) * rel;
  const double a = config_.spot_radius_px * stretch;
  const double b = config_.spot_radius_px / stretch;

  const field::Vec2 along = dir_px / dir_len;
  const field::Vec2 across = along.perp();
  const auto [px, py] = mapping_.map(spot.position);
  const field::Vec2 center{px, py};

  const field::Vec2 ea = along * a;
  const field::Vec2 eb = across * b;
  const auto intensity =
      static_cast<float>(spot.intensity * config_.intensity_scale);
  auto verts = out.add_mesh(intensity, 2, 2);
  auto put = [](render::MeshVertex& v, field::Vec2 p, float u, float w) {
    v = {static_cast<float>(p.x), static_cast<float>(p.y), u, w};
  };
  put(verts[0], center - ea - eb, 0.0f, 0.0f);
  put(verts[1], center + ea - eb, 1.0f, 0.0f);
  put(verts[2], center - ea + eb, 0.0f, 1.0f);
  put(verts[3], center + ea + eb, 1.0f, 1.0f);
}

void SpotGeometryGenerator::generate_bent(std::span<const SpotInstance* const> group,
                                          render::CommandBuffer& out) const {
  const int cols = config_.bent.mesh_cols;
  const int rows = config_.bent.mesh_rows;
  const int substeps = config_.bent.trace_substeps;

  // Plain doubles, no member initializers: the 256-entry arrays are written
  // before they are read, and zero-filling 8 KiB per spot would cost more
  // than tracing a short spine.
  struct SpinePoint {
    double x, y;    ///< position, texture pixels
    double nx, ny;  ///< unit normal, texture pixels
  };
  struct Spine {
    std::array<SpinePoint, BentSpotParams::kMaxMeshCols> points;
    int first, last;  ///< the slots the march reached
  };
  std::array<Spine, kGroupSpots> spines;
  std::array<field::Vec2, kGroupSpots> seeds;
  // Trace half the spine upstream, half downstream, at substep resolution,
  // straight into the spine arrays. Every substeps-th point (counted from
  // the seed) becomes a spine vertex — the rest only improved accuracy —
  // at slot bwd_segments + k / substeps, so a spine runs upstream -> seed
  // -> downstream over the slots [first, last] its march reached.
  const int fwd_segments = (cols - 1) / 2;
  const int bwd_segments = (cols - 1) - fwd_segments;
  for (std::size_t i = 0; i < group.size(); ++i) {
    seeds[i] = group[i]->position;
    spines[i].first = spines[i].last = bwd_segments;
  }
  tracer_.march(*field_, std::span(seeds.data(), group.size()), fwd_segments * substeps,
                bwd_segments * substeps, substeps,
                [&](int i, int k, field::Vec2 p, field::Vec2 t) {
                  Spine& spine = spines[static_cast<std::size_t>(i)];
                  const int slot = bwd_segments + k / substeps;
                  const auto [px, py] = mapping_.map(p);
                  const field::Vec2 tangent_px = map_direction(t);
                  const double len = tangent_px.length();
                  const field::Vec2 normal = len > kMinDirection
                                                 ? tangent_px.perp() / len
                                                 : field::Vec2{0.0, 1.0};
                  spine.points[static_cast<std::size_t>(slot)] = {px, py, normal.x,
                                                                  normal.y};
                  spine.first = std::min(spine.first, slot);
                  spine.last = std::max(spine.last, slot);
                });

  const double width_px = 2.0 * config_.spot_radius_px;
  for (std::size_t s = 0; s < group.size(); ++s) {
    const SpotInstance& spot = *group[s];
    const Spine& spine = spines[s];
    const int spine_count = spine.last - spine.first + 1;
    if (spine_count < 2) {
      // Stagnation or immediate domain exit: degrade to an untransformed spot.
      generate_point(spot, out);
      continue;
    }
    const auto intensity =
        static_cast<float>(spot.intensity * config_.intensity_scale);
    auto verts = out.add_mesh(intensity, spine_count, rows);
    for (int j = 0; j < rows; ++j) {
      const double across = (static_cast<double>(j) / (rows - 1) - 0.5) * width_px;
      const auto v_coord = static_cast<float>(j) / static_cast<float>(rows - 1);
      for (int i = 0; i < spine_count; ++i) {
        const SpinePoint& sp = spine.points[static_cast<std::size_t>(spine.first + i)];
        const auto u_coord = static_cast<float>(i) / static_cast<float>(spine_count - 1);
        verts[static_cast<std::size_t>(j) * static_cast<std::size_t>(spine_count) +
              static_cast<std::size_t>(i)] = {static_cast<float>(sp.x + sp.nx * across),
                                              static_cast<float>(sp.y + sp.ny * across),
                                              u_coord, v_coord};
      }
    }
  }
}

}  // namespace dcsn::core
