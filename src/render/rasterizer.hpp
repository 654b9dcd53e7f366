// Software scan conversion of textured spot meshes.
//
// This is the graphics pipe's core: each spot mesh arrives as transformed
// vertices (texture-pixel coordinates + profile UVs) and is scan-converted
// quad by quad, each quad split into two triangles rasterized with the
// top-left fill rule so adjacent quads of a bent-spot ribbon never double-
// blend a pixel along their shared edge. Fragments sample the spot profile
// bilinearly and blend into the float target — the software equivalent of
// texture-mapped polygon rendering with additive blending on the
// InfiniteReality.
//
// Two interchangeable triangle fill algorithms (RasterAlgorithm):
//
//   * kSpan (default) — a span-based scanline kernel. Per row the three
//     canonical edge functions are solved for the exact covered interval
//     [x_start, x_end) — on a triangle at most 8 columns wide by testing
//     all its columns at once in 8 float lanes, on a wider one by a seeded
//     walk to each boundary; inside it u, v and the bilinear fetch are stepped
//     with per-triangle constants (SpotProfile::RowSampler) and blended
//     through the util::simd kernels — a straight-line add/fetch/blend with
//     no per-fragment branches, and no iterations spent on rejected pixels.
//     Spans of a few fragments blend inline with the same scalar
//     expression every kernel tier reproduces, so the cut-over never
//     shows in a pixel.
//   * kReference — the original bounding-box walk testing all three edge
//     functions per pixel. Kept selectable for equivalence testing and for
//     the bench_raster_kernel ablation.
//
// Both algorithms construct edges from the same canonical endpoint ordering
// and evaluate every edge value with the same expression (direct multiply
// from the canonical row origin), so their pixel coverage is bit-identical
// — the fuzz suite in tests/test_rasterizer.cpp asserts exactly that — and
// shared-edge watertightness (no seam gap, no double blend) is preserved.
//
// Rasterization is *target-independent*: vertices stay in full-texture
// ("global") pixel coordinates, the canonical anchor for edge and UV
// evaluation is derived from the triangle's own bounding box (never from
// the target rect), and the target origin is used purely for addressing.
// A fragment's coverage decision and blended value are therefore pure
// functions of the triangle and the global pixel — identical bits whether
// the pixel is rendered by a full-texture pipe or by any tile that contains
// it. Combined with the contribution lattice (util/simd.hpp), which makes
// additive blending exactly associative, the whole engine produces
// bit-identical textures across pipe counts, contiguous vs tiled mode,
// tile layouts, and work-steal schedules — the determinism suite asserts
// this, and core::SynthesisCache's temporal tile reuse depends on it.
#pragma once

#include <cstdint>

#include "render/command_buffer.hpp"
#include "render/spot_profile.hpp"
#include "util/span2d.hpp"

namespace dcsn::render {

enum class BlendMode {
  kAdditive,  ///< dst += w * tex — the spot-noise sum
  kMaximum,   ///< dst = max(dst, w * tex) — used by some filtered variants
};

/// Triangle fill strategy. kSpan is the production hot path; kReference is
/// the bbox-walk oracle it is measured and tested against.
enum class RasterAlgorithm {
  kSpan,       ///< scanline span solve + incremental row kernel
  kReference,  ///< per-pixel bounding-box walk
};

/// Where fragments land. `origin_x/y` is the global pixel coordinate of
/// pixels(0, 0), letting a tile rasterize geometry that is expressed in
/// full-texture coordinates (texture decomposition, paper §3). Integral on
/// purpose: tiles sit on pixel boundaries, and an integer origin keeps
/// addressing exact so tiled output matches the full-texture pipes bit for
/// bit.
struct RasterTarget {
  util::Span2D<float> pixels;
  int origin_x = 0;
  int origin_y = 0;
  RasterAlgorithm algorithm = RasterAlgorithm::kSpan;
};

struct RasterStats {
  std::int64_t triangles = 0;
  std::int64_t quads = 0;
  std::int64_t fragments = 0;  ///< pixels actually covered and blended
  /// Inner-loop iterations: bbox area for kReference, span length for kSpan.
  /// fragments / pixels_visited is the fill efficiency the span kernel buys;
  /// bench_raster_kernel reports it as the visited ratio.
  std::int64_t pixels_visited = 0;
  /// kSpan triangles whose solve window was at most 8 columns wide, so every
  /// row was solved in one pass of 8 lanes instead of by the seeded walk.
  std::int64_t narrow_triangles = 0;

  RasterStats& operator+=(const RasterStats& o) {
    triangles += o.triangles;
    quads += o.quads;
    fragments += o.fragments;
    pixels_visited += o.pixels_visited;
    narrow_triangles += o.narrow_triangles;
    return *this;
  }
};

/// Rasterizes one triangle. Vertices carry positions in texture pixels and
/// profile UVs; `weight` scales every fragment (the spot's a_i).
void rasterize_triangle(const RasterTarget& target, const MeshVertex& a,
                        const MeshVertex& b, const MeshVertex& c, float weight,
                        const SpotProfile& profile, BlendMode mode,
                        RasterStats& stats);

/// Rasterizes a cols-x-rows mesh (row-major vertices) as its component
/// quads. Blend mode and algorithm are dispatched once per mesh, not per
/// triangle.
void rasterize_mesh(const RasterTarget& target, std::span<const MeshVertex> vertices,
                    int cols, int rows, float weight, const SpotProfile& profile,
                    BlendMode mode, RasterStats& stats);

/// Rasterizes every mesh in a command buffer. The profile/blend/algorithm
/// dispatch is hoisted out of the mesh loop: the triangle kernel is selected
/// once and passed down (all meshes of a buffer share pipe state), and so is
/// the per-call raster state (kernel table, span batch).
void rasterize_buffer(const RasterTarget& target, const CommandBuffer& buffer,
                      const SpotProfile& profile, BlendMode mode, RasterStats& stats);

}  // namespace dcsn::render
