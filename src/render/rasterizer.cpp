#include "render/rasterizer.hpp"

#include <algorithm>
#include <bit>
#include <cmath>

#include "util/simd.hpp"
#include "util/simd_dispatch.hpp"

namespace dcsn::render {

namespace {

// Top-left rule for y-down pixel coordinates with positive-area winding:
// top edges run in +x, left edges run in -y. Fragments exactly on a
// top-left edge are inside; on any other edge they belong to the neighbor.
inline bool is_top_left(float dx, float dy) {
  return (dy == 0.0f && dx > 0.0f) || dy < 0.0f;
}

// Edge function in winding order; it vanishes on the edge and is positive
// inside. `origin` is the value at the bbox origin pixel center
// (x_min + 0.5, y_min + 0.5); the value anywhere in the bbox is
//
//   value(kx, ky) = (origin + ky * dx) - kx * dy
//
// with kx = x - x_min, ky = y - y_min, every operation a single float
// multiply/add — *not* an accumulation. Direct evaluation makes the value
// at any pixel a pure function of (kx, ky), which is what lets the span
// algorithm solve a row for its covered interval and still classify every
// pixel bit-identically to the reference walk evaluating the same formula.
struct Edge {
  float dx = 0.0f, dy = 0.0f, origin = 0.0f;
  bool top_left = false;
};

inline float edge_row_value(const Edge& e, int ky) {
  return e.origin + static_cast<float>(ky) * e.dx;
}
inline float edge_value(const Edge& e, float row_value, int kx) {
  return row_value - static_cast<float>(kx) * e.dy;
}
inline bool edge_admits(const Edge& e, float value) {
  return value > 0.0f || (value == 0.0f && e.top_left);
}

// Everything the two fill algorithms share: canonical-winding vertices in
// global pixel coordinates, the target-clamped iteration bbox, the
// triangle-anchored canonical edges, 1/area.
//
// The canonical anchor (ax, ay) is the pixel at the triangle's own bbox
// corner, clamped only against a fixed frame-independent limit — never
// against the target rect. Every edge value and UV is evaluated relative to
// that anchor, so a fragment's coverage and value are pure functions of the
// triangle and the global pixel: any target containing the pixel (the full
// texture, or any tile of any decomposition) computes identical bits.
struct TriSetup {
  MeshVertex a, b, c;
  int x_min = 0, x_max = 0, y_min = 0, y_max = 0;  ///< global, inside target
  int ax = 0, ay = 0;                              ///< canonical anchor pixel
  int gx_end = 0;  ///< bbox's exclusive right end in anchor units
  Edge ab, bc, ca;
  float inv_area = 0.0f;
};

// The anchor clamp: 2^22. Keeps float(anchor) + 0.5 exact and every
// in-target (kx, ky) offset below 2^24, where int -> float is exact. Only
// insane off-screen geometry ever hits the clamp, and the clamp itself is
// target-independent.
constexpr float kAnchorLimit = 4194304.0f;

// How far beyond the target rect the span solver resolves a row's
// *geometric* boundaries. The UV sampler is rebased at the geometric
// in-range span start, which must not depend on where the target happens
// to clip the row — otherwise a tile would sample fragments a last-bit
// differently from the full texture. A triangle whose span overhangs the
// target by more than this (possible only for meshes wider than 4096 px —
// far beyond any real spot) falls back to a clamped, still-deterministic
// solve; the walk stays bounded either way.
constexpr int kGeomSlack = 4096;

// What every triangle of one rasterize_* call shares, set up once per call
// rather than once per triangle: the target rect in float, the dispatched
// kernel table, and the span kernel's SoA batch (see raster_tri_span).
struct Raster {
  Raster(const RasterTarget& t, const SpotProfile& p)
      : target(t),
        profile(p),
        tx0(static_cast<float>(t.origin_x)),
        ty0(static_cast<float>(t.origin_y)),
        tx1(static_cast<float>(t.origin_x + t.pixels.width())),
        ty1(static_cast<float>(t.origin_y + t.pixels.height())),
        kernels(util::simd::kernels()) {}

  const RasterTarget& target;
  const SpotProfile& profile;
  /// The target's global pixel rect [tx0, tx1) x [ty0, ty1).
  float tx0, ty0, tx1, ty1;
  /// The runtime-dispatched kernel tier (scalar / SSE2 / AVX2). Every
  /// tier is bit-identical to the scalar expressions
  /// (util/simd_dispatch.hpp), so the choice never shows in the pixels —
  /// only in the frame time.
  const util::simd::KernelTable& kernels;

  /// SoA span batch: a triangle's rows queue here as (dst, span, length)
  /// triples and flush through the batched kernel, so the tier pays its
  /// per-call setup once per flush, not once per row. Its ~4.3 KiB live here,
  /// once per call — SampleSpan's member initializers would zero-fill them
  /// for every triangle if they sat on raster_tri_span's stack.
  static constexpr int kSpanBatch = 64;
  float* batch_dst[kSpanBatch] = {};
  util::simd::SampleSpan batch_span[kSpanBatch];
  std::uint32_t batch_len[kSpanBatch] = {};
  int batched = 0;
};

// Rejects degenerate / non-finite / off-target triangles; fills `s` else.
// Forced inline: with both kernels calling it GCC keeps it out of line,
// and the call plus the TriSetup round trip through memory cost ~15% of a
// tiny triangle's raster time.
[[gnu::always_inline]] inline bool setup_triangle(const Raster& ctx, MeshVertex a,
                                                  MeshVertex b, MeshVertex c,
                                                  TriSetup& s) {
  // Reject off-target (or NaN-extent) boxes first — the cheapest test, and
  // the one every triangle of a neighbouring tile fails — while still in
  // float space; the negated comparisons make any NaN land in the reject
  // branch. The bbox does not depend on the winding fixed below.
  const float min_x = std::min({a.x, b.x, c.x});
  const float max_x = std::max({a.x, b.x, c.x});
  const float min_y = std::min({a.y, b.y, c.y});
  const float max_y = std::max({a.y, b.y, c.y});
  if (!(min_x < ctx.tx1) || !(min_y < ctx.ty1) || !(max_x >= ctx.tx0) ||
      !(max_y >= ctx.ty0)) {
    return false;
  }

  // Signed doubled area; positive means screen-clockwise (our canonical
  // winding). Flip b/c to normalize — bent-spot ribbons can fold over.
  float area2 = (b.x - a.x) * (c.y - a.y) - (b.y - a.y) * (c.x - a.x);
  if (area2 == 0.0f || !std::isfinite(area2)) return false;
  if (area2 < 0.0f) {
    std::swap(b, c);
    area2 = -area2;
  }

  // Clamp to the target rect *before* the int cast: a far-off-screen vertex
  // (|coordinate| beyond ~2^31) would make the unclamped cast undefined.
  s.x_min = static_cast<int>(std::floor(std::clamp(min_x, ctx.tx0, ctx.tx1 - 1.0f)));
  s.x_max = static_cast<int>(std::ceil(std::clamp(max_x, ctx.tx0, ctx.tx1 - 1.0f)));
  s.y_min = static_cast<int>(std::floor(std::clamp(min_y, ctx.ty0, ctx.ty1 - 1.0f)));
  s.y_max = static_cast<int>(std::ceil(std::clamp(max_y, ctx.ty0, ctx.ty1 - 1.0f)));
  if (s.x_min > s.x_max || s.y_min > s.y_max) return false;

  // Target-independent canonical anchor, and the bbox's own right end in
  // anchor units (the span solver's geometric walk limit).
  s.ax = static_cast<int>(std::floor(std::clamp(min_x, -kAnchorLimit, kAnchorLimit)));
  s.ay = static_cast<int>(std::floor(std::clamp(min_y, -kAnchorLimit, kAnchorLimit)));
  s.gx_end =
      static_cast<int>(std::ceil(std::clamp(max_x, -kAnchorLimit, kAnchorLimit))) -
      s.ax + 1;

  // Watertightness: adjacent triangles traverse a shared edge in opposite
  // directions. Evaluating both against the *same* canonical endpoint
  // ordering makes their edge values exact negations of each other (every
  // operation in edge construction and evaluation is negation-symmetric in
  // IEEE arithmetic), so a pixel on the seam is inside exactly one triangle
  // (top-left rule breaks the e == 0 tie) and never falls through a
  // rounding gap. (Adjacent triangles share the bbox corner along the seam
  // in the mesh's row/column direction only; the anchor can differ — but
  // the negation symmetry holds per-pixel through the shared kx/ky offsets
  // of whichever triangle is evaluated, and the seam tests pin the
  // behaviour.)
  auto make_edge = [&](const MeshVertex& from, const MeshVertex& to) {
    const bool swapped = (to.x < from.x) || (to.x == from.x && to.y < from.y);
    const MeshVertex& lo = swapped ? to : from;
    const MeshVertex& hi = swapped ? from : to;
    const float cdx = hi.x - lo.x;
    const float cdy = hi.y - lo.y;
    const float px = static_cast<float>(s.ax) + 0.5f;
    const float py = static_cast<float>(s.ay) + 0.5f;
    const float canonical = cdx * (py - lo.y) - cdy * (px - lo.x);
    const float sign = swapped ? -1.0f : 1.0f;
    Edge edge;
    edge.dx = sign * cdx;
    edge.dy = sign * cdy;
    edge.origin = sign * canonical;
    edge.top_left = is_top_left(edge.dx, edge.dy);
    return edge;
  };
  s.ab = make_edge(a, b);  // weight for c
  s.bc = make_edge(b, c);  // weight for a
  s.ca = make_edge(c, a);  // weight for b
  s.a = a;
  s.b = b;
  s.c = c;
  s.inv_area = 1.0f / area2;
  return true;
}

// ---------------------------------------------------------------------------
// kReference: the bounding-box walk. Every bbox pixel evaluates all three
// edge functions; covered fragments take the branchy bounds-checked
// SpotProfile::sample. This is the algorithm the span kernel is proven
// against, selectable through RasterTarget::algorithm for equivalence tests,
// the reference golden scenes and ablation benches.
// ---------------------------------------------------------------------------

void raster_tri_reference(Raster& ctx, const MeshVertex& va, const MeshVertex& vb,
                          const MeshVertex& vc, float weight, RasterStats& stats) {
  TriSetup s;
  if (!setup_triangle(ctx, va, vb, vc, s)) return;

  const RasterTarget& target = ctx.target;
  const SpotProfile& profile = ctx.profile;
  const auto pixels = target.pixels;
  std::int64_t fragments = 0;
  for (int y = s.y_min; y <= s.y_max; ++y) {
    const int ky = y - s.ay;
    const float r_ab = edge_row_value(s.ab, ky);
    const float r_bc = edge_row_value(s.bc, ky);
    const float r_ca = edge_row_value(s.ca, ky);
    float* row = &pixels(0, y - target.origin_y);
    for (int x = s.x_min; x <= s.x_max; ++x) {
      const int kx = x - s.ax;
      const int lx = x - target.origin_x;
      const float v_ab = edge_value(s.ab, r_ab, kx);
      const float v_bc = edge_value(s.bc, r_bc, kx);
      const float v_ca = edge_value(s.ca, r_ca, kx);
      if (edge_admits(s.ab, v_ab) && edge_admits(s.bc, v_bc) &&
          edge_admits(s.ca, v_ca)) {
        const float wa = v_bc * s.inv_area;
        const float wb = v_ca * s.inv_area;
        const float wc = v_ab * s.inv_area;
        const float u = wa * s.a.u + wb * s.b.u + wc * s.c.u;
        const float v = wa * s.a.v + wb * s.b.v + wc * s.c.v;
        const float texel = profile.sample(u, v);
        row[lx] += util::simd::quantize_contribution(weight * texel);
        ++fragments;
      }
    }
  }
  ++stats.triangles;
  stats.fragments += fragments;
  stats.pixels_visited += static_cast<std::int64_t>(s.x_max - s.x_min + 1) *
                          static_cast<std::int64_t>(s.y_max - s.y_min + 1);
}

// ---------------------------------------------------------------------------
// kSpan: scanline span solve + incremental row kernel.
// ---------------------------------------------------------------------------

// A row's geometric covered interval [g_lo, g_hi) inside the solve window
// [gfloor, gceil), in anchor-relative kx units. Two interchangeable solvers
// find it; both decide every column with the exact admission comparison
// below, so they return the same interval bit for bit.
//
// Admission must be bit-identical to edge_admits(e, edge_value(e, r, kx)):
// edge_value = fl(r - m) with m = fl(kx * dy); fl(r - m) > 0 iff r > m and
// fl(r - m) == 0 iff r == m (IEEE subtraction preserves sign and is zero
// only for equal operands), so admission reduces to the exact comparison
// m < r, or m <= r on a top-left edge. m is monotone in kx (rounding is
// monotone), so each edge admits a prefix of the window (dy > 0: a right
// bound), a suffix (dy < 0: a left bound), or all or none of it (dy == 0,
// either sign of zero: m is a zero and the test is r's sign) — and the
// columns all three admit form one interval.

// Windows at most this wide take the lane solve: two 4-float vectors, the
// width of SSE2, the x86-64 baseline. Wider generic vectors get split
// element by element on a baseline x86-64 build.
constexpr int kLanes = 8;
using Lane4f = float __attribute__((vector_size(16)));
using Lane4i = std::int32_t __attribute__((vector_size(16)));

// The lane solve, for narrow windows (nearly every triangle of a served
// spot ribbon): every window column is tested against all three edges at
// once in kLanes float lanes, and the interval runs from the first admitted
// lane to the last. No seed, no data-dependent loop exit. The products
// m = fl(kx * dy) do not depend on the row, so they are set up once per
// triangle; a row costs three row values and a dozen 4-lane compares.
struct LaneSolve {
  struct LaneEdge {
    Lane4f m_lo, m_hi;  ///< fl(kx * dy) for window columns 0-3 and 4-7
    Lane4i top_left;    ///< all-ones on a top-left edge (admits m == r)
    float origin, dx;
  };
  LaneEdge edges[3];
  int window;  ///< one bit per column inside [gfloor, gceil)
  int gfloor;

  LaneSolve(const TriSetup& s, int gfloor_, int width) : gfloor(gfloor_) {
    Lane4f kx_lo, kx_hi;
    for (int j = 0; j < 4; ++j) {
      kx_lo[j] = static_cast<float>(gfloor + j);
      kx_hi[j] = static_cast<float>(gfloor + 4 + j);
    }
    const Edge* src[3] = {&s.ab, &s.bc, &s.ca};
    for (int i = 0; i < 3; ++i) {
      edges[i].m_lo = kx_lo * src[i]->dy;
      edges[i].m_hi = kx_hi * src[i]->dy;
      edges[i].top_left = Lane4i{} - (src[i]->top_left ? 1 : 0);
      edges[i].origin = src[i]->origin;
      edges[i].dx = src[i]->dx;
    }
    window = (1 << std::clamp(width, 0, kLanes)) - 1;
  }

  bool row(int ky, int& g_lo, int& g_hi) const {
    const float kyf = static_cast<float>(ky);
    Lane4i in_lo = Lane4i{} - 1;
    Lane4i in_hi = in_lo;
    for (const LaneEdge& e : edges) {
      const float r = e.origin + kyf * e.dx;
      in_lo &= (e.m_lo < r) | ((e.m_lo == r) & e.top_left);
      in_hi &= (e.m_hi < r) | ((e.m_hi == r) & e.top_left);
    }
    const Lane4i bits = (in_lo & Lane4i{1, 2, 4, 8}) | (in_hi & Lane4i{16, 32, 64, 128});
    const auto mask =
        static_cast<unsigned>((bits[0] | bits[1] | bits[2] | bits[3]) & window);
    if (mask == 0) return false;
    g_lo = gfloor + std::countr_zero(mask);
    g_hi = gfloor + static_cast<int>(std::bit_width(mask));
    return true;
  }
};

// The walk, for wider windows. Each edge is classified once per triangle by
// the sign of dy (fixed across the raster) into a flat, left or right
// bound, and each sloped bound settles its boundary column by probing from
// a seed.
//
// `base + ky * slope` is one past the x-intercept of the edge's zero line in
// row ky — the column where the boundary usually sits, so each fixup loop
// below settles it with one exact probe. One reciprocal of dy per sloped
// edge per triangle buys division-free seeding in every row. The seed's
// rounding never matters: the fixup loops decide with the exact comparison
// and only walk farther when the seed is off, which the ~1e-4-pixel seed
// error rarely causes.
struct WalkSolve {
  // No member initializers: a triangle writes only the entries it
  // classifies and reads only those, and zero-filling all nine per triangle
  // measured ~10% of a tiny triangle's raster time.
  struct RowBound {
    float dy, dx, origin;
    bool top_left;
    double base, slope;

    [[nodiscard]] bool admits(int kx, float r) const {
      const float m = static_cast<float>(kx) * dy;
      return top_left ? (m <= r) : (m < r);
    }
  };
  RowBound flat[3], left[3], right[3];
  int n_flat = 0, n_left = 0, n_right = 0;
  int gfloor, gceil;

  WalkSolve(const TriSetup& s, int gfloor_, int gceil_, bool classify)
      : gfloor(gfloor_), gceil(gceil_) {
    if (!classify) return;
    const Edge* edges[3] = {&s.ab, &s.bc, &s.ca};
    for (const Edge* e : edges) {
      RowBound b{e->dy, e->dx, e->origin, e->top_left, 0.0, 0.0};
      if (e->dy == 0.0f) {
        flat[n_flat++] = b;
        continue;
      }
      const double inv_dy = 1.0 / static_cast<double>(e->dy);
      b.base = static_cast<double>(e->origin) * inv_dy + 1.0;
      b.slope = static_cast<double>(e->dx) * inv_dy;
      if (e->dy > 0.0f) {
        right[n_right++] = b;
      } else {
        left[n_left++] = b;
      }
    }
  }

  // Seed clamped to [gfloor, gceil]; NaN (overflowed intercepts) seeds gfloor.
  [[nodiscard]] int seed(const RowBound& b, int ky) const {
    const double est = b.base + ky * b.slope;
    if (est >= static_cast<double>(gceil)) return gceil;
    if (est > static_cast<double>(gfloor)) return static_cast<int>(est);
    return gfloor;
  }

  bool row(int ky, int& g_lo, int& g_hi) const {
    const float kyf = static_cast<float>(ky);
    g_lo = gfloor;
    g_hi = gceil;
    for (int i = 0; i < n_flat; ++i) {
      const float r = flat[i].origin + kyf * flat[i].dx;
      if (!(r > 0.0f || (r == 0.0f && flat[i].top_left))) g_hi = gfloor;
    }
    for (int i = 0; i < n_right; ++i) {
      const RowBound& b = right[i];
      const float r = b.origin + kyf * b.dx;
      int k = seed(b, ky);
      while (k < gceil && b.admits(k, r)) ++k;
      while (k > gfloor && !b.admits(k - 1, r)) --k;
      g_hi = std::min(g_hi, k);
    }
    for (int i = 0; i < n_left; ++i) {
      const RowBound& b = left[i];
      const float r = b.origin + kyf * b.dx;
      int k = seed(b, ky);
      while (k < gceil && !b.admits(k, r)) ++k;
      while (k > gfloor && b.admits(k - 1, r)) --k;
      g_lo = std::max(g_lo, k);
    }
    return g_lo < g_hi;
  }
};

// Spans up to this many fragments blend inline through
// RowSampler::sample_at instead of queueing for the batched kernel: below
// it, filling a batch slot and the kernel's per-span entry cost more than
// the fragments themselves. Bit-identical either way — every kernel tier
// reproduces quantize_contribution(weight * sample_at(k)) exactly (the
// contract tests/test_simd.cpp pins), so the cut-over never shows in a
// pixel.
constexpr int kInlineSpan = 4;

void blend_inline(float* dst, const SpotProfile::RowSampler& sampler, int base, int n,
                  float weight) {
  for (int k = 0; k < n; ++k) {
    dst[k] += util::simd::quantize_contribution(weight * sampler.sample_at(base + k));
  }
}

void flush_batch(Raster& ctx) {
  if (ctx.batched == 0) return;
  ctx.kernels.sample_rows_add(ctx.batch_dst, ctx.batch_span, ctx.batch_len,
                              static_cast<std::size_t>(ctx.batched));
  ctx.batched = 0;
}

void raster_tri_span(Raster& ctx, const MeshVertex& va, const MeshVertex& vb,
                     const MeshVertex& vc, float weight, RasterStats& stats) {
  TriSetup s;
  if (!setup_triangle(ctx, va, vb, vc, s)) return;

  const RasterTarget& target = ctx.target;
  const auto pixels = target.pixels;
  // The rendered kx window relative to the canonical anchor: [klo, kend).
  const int klo = s.x_min - s.ax;
  const int kend = s.x_max - s.ax + 1;
  // The *geometric* solve window: boundaries are resolved past the target
  // rect (bounded by the bbox and the slack) so the solved span — and the
  // UV rebase anchored at its in-range start — is a pure function of the
  // triangle and the row, identical for every target that clips it.
  const int gfloor = std::max(0, klo - kGeomSlack);
  const int gceil = std::min(s.gx_end, kend + kGeomSlack);

  // Barycentric weights are affine across the raster, so UV is evaluated as
  // U00 + ky*du_dy + kx*du_dx with per-triangle double constants: within
  // ~1 ulp of the exact affine function anywhere in the bbox, no error
  // accumulation along the row. (On needle triangles this is *more*
  // accurate than the reference's cancellation-noisy float barycentric —
  // the equivalence tolerance there absorbs the reference's own noise.)
  // d(v_bc)/dkx = -bc.dy weights a, d(v_bc)/dky = +bc.dx, and cyclically.
  const double inv_area = static_cast<double>(s.inv_area);
  const double U00 = (static_cast<double>(s.bc.origin) * s.a.u +
                      static_cast<double>(s.ca.origin) * s.b.u +
                      static_cast<double>(s.ab.origin) * s.c.u) *
                     inv_area;
  const double V00 = (static_cast<double>(s.bc.origin) * s.a.v +
                      static_cast<double>(s.ca.origin) * s.b.v +
                      static_cast<double>(s.ab.origin) * s.c.v) *
                     inv_area;
  const double du_dx = -(static_cast<double>(s.bc.dy) * s.a.u +
                         static_cast<double>(s.ca.dy) * s.b.u +
                         static_cast<double>(s.ab.dy) * s.c.u) *
                       inv_area;
  const double dv_dx = -(static_cast<double>(s.bc.dy) * s.a.v +
                         static_cast<double>(s.ca.dy) * s.b.v +
                         static_cast<double>(s.ab.dy) * s.c.v) *
                       inv_area;
  const double du_dy = (static_cast<double>(s.bc.dx) * s.a.u +
                        static_cast<double>(s.ca.dx) * s.b.u +
                        static_cast<double>(s.ab.dx) * s.c.u) *
                       inv_area;
  const double dv_dy = (static_cast<double>(s.bc.dx) * s.a.v +
                        static_cast<double>(s.ca.dx) * s.b.v +
                        static_cast<double>(s.ab.dx) * s.c.v) *
                       inv_area;

  SpotProfile::RowSampler sampler(ctx.profile, du_dx, dv_dx);

  // Narrow windows (nearly every triangle of a served spot ribbon) take the
  // lane solve; only wider ones pay for the walk's edge classification and
  // seed reciprocals.
  const bool narrow = gceil - gfloor <= kLanes;
  const LaneSolve lanes(s, gfloor, gceil - gfloor);
  const WalkSolve walk(s, gfloor, gceil, /*classify=*/!narrow);
  stats.narrow_triangles += narrow ? 1 : 0;

  std::int64_t fragments = 0;
  std::int64_t visited = 0;
  for (int y = s.y_min; y <= s.y_max; ++y) {
    const int ky = y - s.ay;

    // Solve the canonical edge functions for the *geometric* covered
    // interval [g_lo, g_hi) in anchor-relative kx units. Each bound's row
    // value r is the same float expression the reference walk evaluates
    // (edge_row_value), and each boundary is settled by the exact
    // admission comparison — coverage inside the target is bit-identical
    // to the reference by construction, and the boundaries themselves do
    // not depend on where the target clips the row.
    int g_lo = 0;
    int g_hi = 0;
    if (!(narrow ? lanes.row(ky, g_lo, g_hi) : walk.row(ky, g_lo, g_hi))) continue;

    // The rendered interval is the geometric span clipped to the target.
    const int lo = std::max(g_lo, klo);
    const int hi = std::min(g_hi, kend);
    if (lo >= hi) continue;
    const int n = hi - lo;
    fragments += n;
    visited += n;

    // Bounds handling, hoisted: fragments whose UV leaves [0,1)^2 (float
    // rounding at mesh seams, or genuinely off-profile geometry) sample
    // zero. u and v are affine in k, so the in-range set is a sub-interval
    // [s0, s1) of the geometric span; scanning inward from its ends with
    // the exact per-k predicate costs one check per *out-of-range*
    // fragment — almost always zero. Everything is evaluated at absolute
    // anchor-relative k (`u_row + k*du_dx`), never rebased on a clipped
    // span start, so the sampler state below is target-independent too.
    const double u_row = U00 + ky * du_dy;
    const double v_row = V00 + ky * dv_dy;
    const auto uv_in = [&](int k) {
      const double u = u_row + k * du_dx;
      const double v = v_row + k * dv_dx;
      return u >= 0.0 && u < 1.0 && v >= 0.0 && v < 1.0;
    };
    int s0 = g_lo;
    while (s0 < g_hi && !uv_in(s0)) ++s0;
    int s1 = g_hi;
    while (s1 > s0 && !uv_in(s1 - 1)) --s1;
    // Rendered portion of the in-range sub-span.
    const int r0 = std::clamp(s0, lo, hi);
    const int r1 = std::clamp(s1, r0, hi);

    float* dst = &pixels(0, y - target.origin_y) + (s.ax + lo - target.origin_x);
    if (r0 < r1) {
      // Rebase the sampler at the geometric in-range start s0 — in [0,1)^2
      // so the fixed-point position fits. Rendered fragments sample at
      // offsets r0-s0 .. r1-1-s0. A short span blends right here; a longer
      // one queues as one SoA unit: the span() call hoists the per-fragment
      // UV stepping state (fixed-point position, step, weight) out of this
      // loop, and at flush the batched kernel blends straight-line over the
      // contiguous destination floats (staging texels in a stack buffer on
      // tiers without gathers, walking fragments eight-at-a-time on AVX2).
      // Either way every fragment gets the scalar quantize(weight * sample)
      // bits exactly. The batch holds one triangle's rows — distinct
      // framebuffer rows, never aliasing — so batched order is the per-row
      // order bit for bit.
      sampler.start_row(u_row + s0 * du_dx, v_row + s0 * dv_dx);
      if (r1 - r0 <= kInlineSpan) {
        blend_inline(dst + (r0 - lo), sampler, r0 - s0, r1 - r0, weight);
      } else {
        ctx.batch_dst[ctx.batched] = dst + (r0 - lo);
        ctx.batch_span[ctx.batched] = sampler.span(r0 - s0, weight);
        ctx.batch_len[ctx.batched] = static_cast<std::uint32_t>(r1 - r0);
        if (++ctx.batched == Raster::kSpanBatch) flush_batch(ctx);
      }
    }
  }
  flush_batch(ctx);
  ++stats.triangles;
  stats.fragments += fragments;
  stats.pixels_visited += visited;
}

// ---------------------------------------------------------------------------
// Dispatch: the algorithm resolves to one triangle kernel, selected once
// per mesh / per command buffer instead of per triangle.
// ---------------------------------------------------------------------------

using TriKernel = void (*)(Raster&, const MeshVertex&, const MeshVertex&,
                           const MeshVertex&, float, RasterStats&);

TriKernel select_kernel(RasterAlgorithm algorithm) {
  return algorithm == RasterAlgorithm::kSpan ? &raster_tri_span : &raster_tri_reference;
}

void mesh_with_kernel(TriKernel kernel, Raster& ctx, std::span<const MeshVertex> vertices,
                      int cols, int rows, float weight, RasterStats& stats) {
  auto vertex = [&](int i, int j) -> const MeshVertex& {
    return vertices[static_cast<std::size_t>(j) * static_cast<std::size_t>(cols) +
                    static_cast<std::size_t>(i)];
  };
  for (int j = 0; j + 1 < rows; ++j) {
    for (int i = 0; i + 1 < cols; ++i) {
      const MeshVertex& v00 = vertex(i, j);
      const MeshVertex& v10 = vertex(i + 1, j);
      const MeshVertex& v11 = vertex(i + 1, j + 1);
      const MeshVertex& v01 = vertex(i, j + 1);
      kernel(ctx, v00, v10, v11, weight, stats);
      kernel(ctx, v00, v11, v01, weight, stats);
      ++stats.quads;
    }
  }
}

}  // namespace

void rasterize_triangle(const RasterTarget& target, const MeshVertex& a,
                        const MeshVertex& b, const MeshVertex& c, float weight,
                        const SpotProfile& profile, RasterStats& stats) {
  Raster ctx(target, profile);
  select_kernel(target.algorithm)(ctx, a, b, c, weight, stats);
}

void rasterize_mesh(const RasterTarget& target, std::span<const MeshVertex> vertices,
                    int cols, int rows, float weight, const SpotProfile& profile,
                    RasterStats& stats) {
  Raster ctx(target, profile);
  mesh_with_kernel(select_kernel(target.algorithm), ctx, vertices, cols, rows, weight,
                   stats);
}

void rasterize_buffer(const RasterTarget& target, const CommandBuffer& buffer,
                      const SpotProfile& profile, RasterStats& stats) {
  const TriKernel kernel = select_kernel(target.algorithm);
  Raster ctx(target, profile);
  for (const MeshHeader& h : buffer.meshes()) {
    mesh_with_kernel(kernel, ctx, buffer.vertices_of(h), h.cols, h.rows, h.intensity,
                     stats);
  }
}

}  // namespace dcsn::render
