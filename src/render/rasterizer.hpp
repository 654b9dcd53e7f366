// Software scan conversion of textured spot meshes.
//
// This is the graphics pipe's core: each spot mesh arrives as transformed
// vertices (texture-pixel coordinates + profile UVs) and is scan-converted
// quad by quad, each quad split into two triangles rasterized with the
// top-left fill rule so adjacent quads of a bent-spot ribbon never double-
// blend a pixel along their shared edge. Fragments sample the spot profile
// bilinearly and add into the float target — spot noise is the sum
// f(x) = Σ a_i h(x - x_i), so addition is the only blend — the software
// equivalent of texture-mapped polygon rendering with additive blending on
// the InfiniteReality.
//
// Two interchangeable triangle fill algorithms (RasterAlgorithm):
//
//   * kSpan (default) — batched setup plus a span-based scanline kernel.
//     Triangles queue in emission order (quad by quad, across mesh
//     boundaries) and are set up eight at a time, one per SIMD lane
//     (util/lanes.hpp; AVX2 or portable lanes by the active SIMD tier),
//     each lane performing the scalar setup's IEEE operations in the same
//     order. Then each live triangle, in order, solves its rows for the
//     exact covered intervals [x_start, x_end) — on a triangle at most 8
//     columns wide by one lane pass that yields every bbox row's coverage
//     mask at once, so rows with no covered pixel centre cost nothing; on a
//     wider one by a seeded walk to each boundary; inside each interval u,
//     v and the bilinear fetch are stepped with per-triangle constants
//     (SpotProfile::RowSampler) and blended through the util::simd kernels
//     — a straight-line add/fetch/blend with no per-fragment branches.
//     Spans of a few fragments blend inline with the same scalar
//     expression every kernel tier reproduces, so the cut-over never
//     shows in a pixel. A single triangle is a batch with one live lane:
//     there is one kSpan path.
//   * kReference — the original bounding-box walk testing all three edge
//     functions per pixel, with the scalar per-triangle setup. The oracle
//     of the equivalence tests, the reference golden scenes and the
//     bench_raster_kernel ablation; only RasterTarget::algorithm selects
//     it — every pipe rasterizes with kSpan.
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

/// Rasterizes one triangle, adding weight * profile(uv) into every covered
/// pixel. Vertices carry positions in texture pixels and profile UVs;
/// `weight` scales every fragment (the spot's a_i).
void rasterize_triangle(const RasterTarget& target, const MeshVertex& a,
                        const MeshVertex& b, const MeshVertex& c, float weight,
                        const SpotProfile& profile, RasterStats& stats);

/// Rasterizes a cols-x-rows mesh (row-major vertices) as its component
/// quads. Throws util::Error when cols and rows are both at least 2 and
/// `vertices` holds fewer than cols * rows vertices.
void rasterize_mesh(const RasterTarget& target, std::span<const MeshVertex> vertices,
                    int cols, int rows, float weight, const SpotProfile& profile,
                    RasterStats& stats);

/// Rasterizes every mesh in a command buffer. The per-call raster state
/// (kernel table, triangle and span batches) is built once, and kSpan
/// batches fill across mesh boundaries.
void rasterize_buffer(const RasterTarget& target, const CommandBuffer& buffer,
                      const SpotProfile& profile, RasterStats& stats);

}  // namespace dcsn::render
