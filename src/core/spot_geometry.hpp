// Spot transformation: from a spot instance to transformed mesh geometry.
//
// This is the genP work of the paper's eq. 2.1 — performed in software on
// the processors (paper §4: doing it on the pipe would cost a state-machine
// sync per spot). For each spot the generator samples the field, derives the
// spot's shape, and appends a ready-to-rasterize mesh in texture-pixel
// coordinates to a CommandBuffer:
//
//   * kPoint   — axis-aligned square (1 quad) around the position;
//   * kEllipse — square stretched along the local velocity, area-preserving;
//   * kBent    — ribbon mesh swept along a streamline traced through the
//                position, mesh_cols vertices long, mesh_rows wide.
#pragma once

#include <span>

#include "core/spot_params.hpp"
#include "core/spot_source.hpp"
#include "field/vector_field.hpp"
#include "particles/tracer.hpp"
#include "render/command_buffer.hpp"
#include "render/overlay.hpp"

namespace dcsn::core {

class SpotGeometryGenerator {
 public:
  /// `field` and the returned generator must outlive generate() calls.
  SpotGeometryGenerator(const SynthesisConfig& config, const field::VectorField& f);

  /// Spots one generate_group() call traces as one lane group.
  static constexpr int kGroupSpots = particles::StreamlineTracer::kGroupSeeds;

  /// Appends one spot's mesh to `out`: generate_group() of that one spot.
  void generate(const SpotInstance& spot, render::CommandBuffer& out) const;

  /// Appends one mesh per spot of `group` (at most kGroupSpots), in order,
  /// each the bytes generate() appends for that spot. Thread-safe: const and
  /// allocation-free apart from growing `out` (so none at all into a
  /// CommandBuffer reserved for the spots). Bent spots trace their spines
  /// together with one tracer().march() into fixed arrays — the same points
  /// trace() would return, on every SIMD tier.
  void generate_group(std::span<const SpotInstance* const> group,
                      render::CommandBuffer& out) const;

  /// generate() for every spot of `spots`, in order, kGroupSpots at a time.
  void generate_all(std::span<const SpotInstance> spots, render::CommandBuffer& out) const;

  /// The bent-spot spine tracer: RK4 at a fixed arc length per substep.
  [[nodiscard]] const particles::StreamlineTracer& tracer() const { return tracer_; }

  /// Conservative half-extent (in pixels) of any spot this generator emits;
  /// the tiling preprocessor uses it to find every tile a spot may touch.
  [[nodiscard]] double max_extent_px() const;

  [[nodiscard]] const render::WorldToImage& mapping() const { return mapping_; }
  [[nodiscard]] const SynthesisConfig& config() const { return config_; }

 private:
  void generate_point(const SpotInstance& spot, render::CommandBuffer& out) const;
  void generate_ellipse(const SpotInstance& spot, render::CommandBuffer& out) const;
  void generate_bent(std::span<const SpotInstance* const> group,
                     render::CommandBuffer& out) const;

  /// Maps a world direction through the linear part of the world->pixel map.
  [[nodiscard]] field::Vec2 map_direction(field::Vec2 d) const;

  SynthesisConfig config_;
  const field::VectorField* field_;
  render::WorldToImage mapping_;
  particles::StreamlineTracer tracer_;
  double world_per_px_;   ///< average world units per texture pixel
  double inv_max_mag_;    ///< 1 / field max magnitude (0 for a zero field)
};

}  // namespace dcsn::core
