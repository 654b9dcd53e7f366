// Synthesis parameters: everything that defines what one spot-noise texture
// looks like, independent of *how* (serial or divide-and-conquer) it is
// generated.
#pragma once

#include <cstdint>
#include <optional>

#include "field/vec2.hpp"
#include "render/spot_profile.hpp"

namespace dcsn::core {

/// How a spot's geometry responds to the vector field.
enum class SpotKind {
  kPoint,    ///< untransformed circular spot — plain noise (fig. 1)
  kEllipse,  ///< stretched along the local velocity (van Wijk '91)
  kBent,     ///< streamline-swept mesh (de Leeuw & van Wijk '95), used by
             ///< both applications in the paper
};

/// Ellipse spots: scale along the flow grows with relative velocity up to
/// `max_stretch`; area is preserved so texture energy stays even.
struct EllipseSpotParams {
  double max_stretch = 3.0;
};

/// Bent spots: a mesh_cols x mesh_rows vertex mesh tiling the surface swept
/// by a streamline through the spot position (paper §2). The atmospheric
/// application used 32x17 meshes, the DNS application 16x3.
struct BentSpotParams {
  /// Upper bounds, checked by SpotGeometryGenerator and by the wire decoder
  /// (net::OpenSessionMsg). mesh_cols is the generator's fixed spine array;
  /// mesh_rows bounds the vertices a spot may cost; trace_substeps keeps
  /// (mesh_cols - 1) * trace_substeps, the steps of one spine, inside int.
  static constexpr int kMaxMeshCols = 256;
  static constexpr int kMaxMeshRows = 64;
  static constexpr int kMaxTraceSubsteps = 1024;

  int mesh_cols = 16;        ///< vertices along the streamline
  int mesh_rows = 3;         ///< vertices across the ribbon
  double length_px = 48.0;   ///< total arc length in texture pixels
  /// Integration substeps per mesh segment. Higher values integrate the
  /// streamline more accurately through strongly curved flow, at
  /// proportionally more CPU cost per spot; this is the genP side of the
  /// CPU/pipe balance (see DESIGN.md calibration notes).
  int trace_substeps = 4;
};

struct SynthesisConfig {
  int texture_width = 512;   ///< "final texture size is usually 512x512"
  int texture_height = 512;
  std::int64_t spot_count = 2000;
  double spot_radius_px = 8.0;
  SpotKind kind = SpotKind::kEllipse;
  EllipseSpotParams ellipse;
  BentSpotParams bent;
  render::SpotShape profile_shape = render::SpotShape::kCosine;
  int profile_resolution = 64;
  /// Scales every spot intensity; the natural value keeps texture contrast
  /// independent of spot count (see SerialSynthesizer::natural_intensity).
  double intensity_scale = 1.0;
  /// World rectangle the texture covers. Unset = the field's full domain.
  /// Setting a smaller window re-synthesizes that region at full texture
  /// resolution — true magnification for the data browser, as opposed to
  /// render::render_scene which only resamples an existing texture.
  std::optional<field::Rect> window;
  std::uint64_t seed = 42;

  [[nodiscard]] int vertices_per_spot() const {
    return kind == SpotKind::kBent ? bent.mesh_cols * bent.mesh_rows : 4;
  }
};

}  // namespace dcsn::core
