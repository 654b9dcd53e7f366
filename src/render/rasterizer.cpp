#include "render/rasterizer.hpp"

#include <algorithm>
#include <bit>
#include <cmath>

#include "util/error.hpp"
#include "util/lanes.hpp"
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

// Triangles per lane batch: the span path sets up this many at once, one per
// float lane (eight, the width of an AVX2 register).
constexpr int kBatch = 8;

// Up to kBatch triangles in emission order, SoA: vertex slot 0/1/2 is the
// triangle's a/b/c, lane k its k-th triangle, `weight` the owning mesh's
// intensity (a batch fills across mesh boundaries).
struct TriangleBatch {
  float x[3][kBatch], y[3][kBatch], u[3][kBatch], v[3][kBatch];
  float weight[kBatch];
  int count;
};

// What every triangle of one rasterize_* call shares, set up once per call
// rather than once per triangle: the target rect in float, the dispatched
// kernel table and lane tier, the queue of triangles awaiting batched setup,
// and the span kernel's SoA batch (see raster_lane).
struct Raster {
  Raster(const RasterTarget& t, const SpotProfile& p)
      : target(t),
        profile(p),
        tx0(static_cast<float>(t.origin_x)),
        ty0(static_cast<float>(t.origin_y)),
        tx1(static_cast<float>(t.origin_x + t.pixels.width())),
        ty1(static_cast<float>(t.origin_y + t.pixels.height())),
        kernels(util::simd::kernels()),
        avx2(util::simd::active_tier() == util::simd::Tier::kAvx2) {}

  const RasterTarget& target;
  const SpotProfile& profile;
  /// The target's global pixel rect [tx0, tx1) x [ty0, ty1).
  float tx0, ty0, tx1, ty1;
  /// The runtime-dispatched kernel tier (scalar / SSE2 / AVX2). Every
  /// tier is bit-identical to the scalar expressions
  /// (util/simd_dispatch.hpp), so the choice never shows in the pixels —
  /// only in the frame time.
  const util::simd::KernelTable& kernels;
  /// Whether triangle batches set up in AVX2 lanes (util/lanes.hpp), from
  /// the same tier.
  bool avx2;

  /// Triangles queued for the next batched setup. Value-initialized so the
  /// lanes past `count` of a first, partial batch hold zeros, not
  /// indeterminate floats.
  TriangleBatch tris{};

  /// SoA span batch: a triangle's rows queue here as (dst, span, length)
  /// triples and flush through the batched kernel, so the tier pays its
  /// per-call setup once per flush, not once per row. Its ~4.3 KiB live here,
  /// once per call — SampleSpan's member initializers would zero-fill them
  /// for every triangle if they sat on raster_lane's stack.
  static constexpr int kSpanBatch = 64;
  float* batch_dst[kSpanBatch] = {};
  util::simd::SampleSpan batch_span[kSpanBatch];
  std::uint32_t batch_len[kSpanBatch] = {};
  int batched = 0;
};

// Rejects degenerate / non-finite / off-target triangles; fills `s` else.
// The scalar expression of every setup step; the span path's batched
// setup (setup_batch) performs the same operations in lanes, and the
// equivalence fuzz holds the two to identical coverage.
inline bool setup_triangle(const Raster& ctx, MeshVertex a, MeshVertex b, MeshVertex c,
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
// kSpan: batched triangle setup, all-rows lane solve, incremental row kernel.
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

// Windows at most this wide take the lane solve (row_pass); wider ones walk.
constexpr int kLanes = 8;

// Everything the span path needs of the triangles of one batch, set up in
// lanes by setup_batch: lane k is the batch's k-th triangle. Edge index 0/1/2
// is the edge ab/bc/ca. No member initializers: every lane is written
// before it is read, and only live lanes are read.
struct BatchSetup {
  std::int32_t x_min[kBatch], x_max[kBatch], y_min[kBatch], y_max[kBatch];
  std::int32_t ax[kBatch], ay[kBatch];  ///< canonical anchor pixel
  std::int32_t gx_ceil[kBatch];         ///< ceil of the anchor-clamped max x
  float dx[3][kBatch], dy[3][kBatch], origin[3][kBatch];
  std::uint32_t top_left[3];  ///< bit k set: edge is top-left in lane k
  /// The lane solve's products fl(kx * dy) for window column j,
  /// kx = gfloor + j: [edge][j][lane].
  float m[3][kLanes][kBatch];
  /// UV at the anchor and its per-pixel steps, as doubles:
  /// U00, V00, du_dx, dv_dx, du_dy, dv_dy.
  double uv[6][kBatch];
};

// setup_triangle for a whole batch: every lane performs the scalar
// expression's IEEE operations in the same order (util/lanes.hpp), so each
// live lane holds exactly the scalar setup's values. Returns the live lanes:
// bit k set when triangle k passed every reject. F is the float lane type,
// D the four-lane double type of the UV constants.
template <class F, class D>
std::uint32_t setup_batch(const Raster& ctx, const TriangleBatch& in, BatchSetup& out) {
  using M = typename F::Mask;
  const F zero(0.0f);
  const F ax = F::load(in.x[0]);
  const F ay = F::load(in.y[0]);
  F bx = F::load(in.x[1]);
  F by = F::load(in.y[1]);
  F cx = F::load(in.x[2]);
  F cy = F::load(in.y[2]);

  // The bbox with std::min/std::max({a, b, c})'s comparisons, in their
  // order, so a NaN coordinate lands where it lands in the scalar setup; the
  // negated-compare reject below then drops it the same way. This is also
  // the batch's early out: when no lane overlaps the target, nothing else is
  // set up.
  const auto lane_min = [](const F& a, const F& b, const F& c) {
    const F r = select(b < a, b, a);
    return select(c < r, c, r);
  };
  const auto lane_max = [](const F& a, const F& b, const F& c) {
    const F r = select(a < b, b, a);
    return select(r < c, c, r);
  };
  F min_x = lane_min(ax, bx, cx);
  F max_x = lane_max(ax, bx, cx);
  F min_y = lane_min(ay, by, cy);
  F max_y = lane_max(ay, by, cy);
  M live = M::from_bits((1u << in.count) - 1u) & (min_x < F(ctx.tx1)) &
           (min_y < F(ctx.ty1)) & (max_x >= F(ctx.tx0)) & (max_y >= F(ctx.ty0));
  if (live.bits() == 0) return 0;

  // Nonzero and finite (x - x is zero exactly for finite x); the winding
  // swap is a per-lane select of b and c.
  F area2 = (bx - ax) * (cy - ay) - (by - ay) * (cx - ax);
  live = live & (area2 != zero) & (area2 - area2 == zero);
  const M flip = area2 < zero;
  area2 = select(flip, -area2, area2);
  const auto swap = [&flip](F& b, F& c) {
    const F nb = select(flip, c, b);
    c = select(flip, b, c);
    b = nb;
  };
  swap(bx, cx);
  swap(by, cy);
  F bu = F::load(in.u[1]);
  F cu = F::load(in.u[2]);
  F bv = F::load(in.v[1]);
  F cv = F::load(in.v[2]);
  swap(bu, cu);
  swap(bv, cv);

  // Dead lanes' bboxes go to zero, so every conversion below is of a finite,
  // in-range value; live lanes' bboxes are finite already (they passed the
  // ordered compares).
  min_x = select(live, min_x, zero);
  max_x = select(live, max_x, zero);
  min_y = select(live, min_y, zero);
  max_y = select(live, max_y, zero);
  // std::clamp(v, lo, hi) is std::min(std::max(v, lo), hi).
  const auto clamp = [](const F& v, const F& lo, const F& hi) {
    const F r = select(v < lo, lo, v);
    return select(hi < r, hi, r);
  };
  const F tx0(ctx.tx0);
  const F ty0(ctx.ty0);
  const F tx_last(ctx.tx1 - 1.0f);
  const F ty_last(ctx.ty1 - 1.0f);
  const F x_lo = floor(clamp(min_x, tx0, tx_last));
  const F x_hi = ceil(clamp(max_x, tx0, tx_last));
  const F y_lo = floor(clamp(min_y, ty0, ty_last));
  const F y_hi = ceil(clamp(max_y, ty0, ty_last));
  live = live & (x_lo <= x_hi) & (y_lo <= y_hi);
  const std::uint32_t live_bits = live.bits();
  if (live_bits == 0) return 0;
  x_lo.store_int(out.x_min);
  x_hi.store_int(out.x_max);
  y_lo.store_int(out.y_min);
  y_hi.store_int(out.y_max);

  const F limit(kAnchorLimit);
  const F neg_limit(-kAnchorLimit);
  const F anchor_x = floor(clamp(min_x, neg_limit, limit));
  const F anchor_y = floor(clamp(min_y, neg_limit, limit));
  anchor_x.store_int(out.ax);
  anchor_y.store_int(out.ay);
  ceil(clamp(max_x, neg_limit, limit)).store_int(out.gx_ceil);

  // Canonical edges, as make_edge in setup_triangle. The anchor is integral
  // and inside the int range, so anchor + 0.5 equals float(int anchor) + 0.5.
  const F px = anchor_x + F(0.5f);
  const F py = anchor_y + F(0.5f);
  F edge_dy[3];
  const auto make_edge = [&](int e, const F& fx, const F& fy, const F& tx, const F& ty) {
    const M swapped = (tx < fx) | ((tx == fx) & (ty < fy));
    const F lo_x = select(swapped, tx, fx);
    const F lo_y = select(swapped, ty, fy);
    const F cdx = select(swapped, fx, tx) - lo_x;
    const F cdy = select(swapped, fy, ty) - lo_y;
    const F canonical = cdx * (py - lo_y) - cdy * (px - lo_x);
    const F sign = select(swapped, F(-1.0f), F(1.0f));
    const F dx = sign * cdx;
    const F dy = sign * cdy;
    dx.store(out.dx[e]);
    dy.store(out.dy[e]);
    (sign * canonical).store(out.origin[e]);
    out.top_left[e] = (((dy == zero) & (dx > zero)) | (dy < zero)).bits();
    edge_dy[e] = dy;
  };
  make_edge(0, ax, ay, bx, by);  // weight for c
  make_edge(1, bx, by, cx, cy);  // weight for a
  make_edge(2, cx, cy, ax, ay);  // weight for b

  // The lane solve's products. For every window column a narrow triangle
  // uses, gfloor + j < gceil <= 2^23 + 1, so float(gfloor) + float(j) is
  // float(gfloor + j) exactly.
  alignas(32) float gfloor[kBatch];
  for (int k = 0; k < kBatch; ++k) {
    gfloor[k] = static_cast<float>(std::max(0, out.x_min[k] - out.ax[k] - kGeomSlack));
  }
  const F kx0 = F::load(gfloor);
  for (int j = 0; j < kLanes; ++j) {
    const F kx = kx0 + F(static_cast<float>(j));
    for (int e = 0; e < 3; ++e) (kx * edge_dy[e]).store(out.m[e][j]);
  }

  // The UV constants of raster_lane, in two four-lane double halves.
  alignas(32) float inv_area[kBatch];
  alignas(32) float b_u[kBatch], b_v[kBatch], c_u[kBatch], c_v[kBatch];
  (F(1.0f) / area2).store(inv_area);
  bu.store(b_u);
  bv.store(b_v);
  cu.store(c_u);
  cv.store(c_v);
  for (int h = 0; h < kBatch; h += 4) {
    const D inv = D::load(inv_area + h);
    const D au = D::load(in.u[0] + h);
    const D av = D::load(in.v[0] + h);
    const D bu_d = D::load(b_u + h);
    const D bv_d = D::load(b_v + h);
    const D cu_d = D::load(c_u + h);
    const D cv_d = D::load(c_v + h);
    const D o_ab = D::load(out.origin[0] + h);
    const D o_bc = D::load(out.origin[1] + h);
    const D o_ca = D::load(out.origin[2] + h);
    const D dx_ab = D::load(out.dx[0] + h);
    const D dx_bc = D::load(out.dx[1] + h);
    const D dx_ca = D::load(out.dx[2] + h);
    const D dy_ab = D::load(out.dy[0] + h);
    const D dy_bc = D::load(out.dy[1] + h);
    const D dy_ca = D::load(out.dy[2] + h);
    ((o_bc * au + o_ca * bu_d + o_ab * cu_d) * inv).store(out.uv[0] + h);
    ((o_bc * av + o_ca * bv_d + o_ab * cv_d) * inv).store(out.uv[1] + h);
    (-(dy_bc * au + dy_ca * bu_d + dy_ab * cu_d) * inv).store(out.uv[2] + h);
    (-(dy_bc * av + dy_ca * bv_d + dy_ab * cv_d) * inv).store(out.uv[3] + h);
    ((dx_bc * au + dx_ca * bu_d + dx_ab * cu_d) * inv).store(out.uv[4] + h);
    ((dx_bc * av + dx_ca * bv_d + dx_ab * cv_d) * inv).store(out.uv[5] + h);
  }
  return live_bits;
}

// The lane solve, for narrow windows (nearly every triangle of a served
// spot ribbon): one pass over the window's columns decides eight rows at
// once, row k of the block in float lane k, and leaves every row's coverage
// mask — bit j for window column j — so only rows with a covered pixel
// centre reach `row(y, g_lo, g_hi)`, in ascending y. A row's interval runs
// from its first admitted column to its last. No seed and no probing: the
// loops run over the window's columns and the covered rows. Bboxes taller
// than eight rows take one pass per eight rows.
template <class F, class Row>
void row_pass(const BatchSetup& s, int lane, int y_min, int y_max, int ay, int gfloor,
              int width, Row&& row) {
  using M = typename F::Mask;
  F origin[3], dx[3];
  M top_left[3] = {M::raw(0), M::raw(0), M::raw(0)};
  for (int e = 0; e < 3; ++e) {
    origin[e] = F(s.origin[e][lane]);
    dx[e] = F(s.dx[e][lane]);
    top_left[e] = M::raw(((s.top_left[e] >> lane) & 1u) != 0 ? ~0u : 0u);
  }
  for (int y0 = y_min; y0 <= y_max; y0 += kLanes) {
    // The scalar row value e.origin + float(ky) * e.dx, one row per lane.
    const F ky = F::ramp(y0 - ay);
    F r[3];
    for (int e = 0; e < 3; ++e) r[e] = origin[e] + ky * dx[e];
    M any = M::raw(0);
    M bits = M::raw(0);
    for (int j = 0; j < width; ++j) {
      M col = M::raw(~0u);
      for (int e = 0; e < 3; ++e) {
        const F m(s.m[e][j][lane]);
        col = col & ((m < r[e]) | ((m == r[e]) & top_left[e]));
      }
      any = any | col;
      bits = bits | (col & M::raw(1u << j));
    }
    std::uint32_t rows = any.bits();
    if (y_max - y0 < kLanes - 1) rows &= (1u << (y_max - y0 + 1)) - 1u;
    if (rows == 0) continue;
    std::uint32_t mask[kLanes];
    bits.store_raw(mask);
    for (; rows != 0; rows &= rows - 1) {
      const int k = std::countr_zero(rows);
      row(y0 + k, gfloor + std::countr_zero(mask[k]),
          gfloor + static_cast<int>(std::bit_width(mask[k])));
    }
  }
}

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
  // classifies and reads only those.
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

  WalkSolve(const BatchSetup& s, int lane, int gfloor_, int gceil_)
      : gfloor(gfloor_), gceil(gceil_) {
    for (int e = 0; e < 3; ++e) {
      const float dy = s.dy[e][lane];
      const float dx = s.dx[e][lane];
      const float origin = s.origin[e][lane];
      RowBound b{dy, dx, origin, ((s.top_left[e] >> lane) & 1u) != 0, 0.0, 0.0};
      if (dy == 0.0f) {
        flat[n_flat++] = b;
        continue;
      }
      const double inv_dy = 1.0 / static_cast<double>(dy);
      b.base = static_cast<double>(origin) * inv_dy + 1.0;
      b.slope = static_cast<double>(dx) * inv_dy;
      if (dy > 0.0f) {
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

// One live lane of a set-up batch: solve its rows, blend its spans.
template <class F>
void raster_lane(Raster& ctx, const BatchSetup& s, int lane, float weight,
                 RasterStats& stats) {
  const RasterTarget& target = ctx.target;
  const auto pixels = target.pixels;
  const int ax = s.ax[lane];
  const int ay = s.ay[lane];
  // The rendered kx window relative to the canonical anchor: [klo, kend).
  const int klo = s.x_min[lane] - ax;
  const int kend = s.x_max[lane] - ax + 1;
  // The *geometric* solve window: boundaries are resolved past the target
  // rect (bounded by the bbox and the slack) so the solved span — and the
  // UV rebase anchored at its in-range start — is a pure function of the
  // triangle and the row, identical for every target that clips it.
  const int gfloor = std::max(0, klo - kGeomSlack);
  const int gceil = std::min(s.gx_ceil[lane] - ax + 1, kend + kGeomSlack);

  // Barycentric weights are affine across the raster, so UV is evaluated as
  // U00 + ky*du_dy + kx*du_dx with per-triangle double constants
  // (setup_batch): within ~1 ulp of the exact affine function anywhere in
  // the bbox, no error accumulation along the row. (On needle triangles this
  // is *more* accurate than the reference's cancellation-noisy float
  // barycentric — the equivalence tolerance there absorbs the reference's
  // own noise.)
  const double U00 = s.uv[0][lane];
  const double V00 = s.uv[1][lane];
  const double du_dx = s.uv[2][lane];
  const double dv_dx = s.uv[3][lane];
  const double du_dy = s.uv[4][lane];
  const double dv_dy = s.uv[5][lane];
  SpotProfile::RowSampler sampler(ctx.profile, du_dx, dv_dx);

  std::int64_t fragments = 0;
  // One covered row: the geometric interval [g_lo, g_hi), decided by the
  // exact admission comparison, so coverage inside the target is
  // bit-identical to the reference by construction, and the boundaries do
  // not depend on where the target clips the row. Forced inline into both
  // solvers: called out of line, as GCC leaves it in the portable
  // instantiation, it cost the scalar tier ~20% of the 125-fragment ribbon
  // workload's fragment rate.
  const auto span_row = [&](int y, int g_lo, int g_hi) __attribute__((always_inline)) {
    const int ky = y - ay;
    // The rendered interval is the geometric span clipped to the target.
    const int lo = std::max(g_lo, klo);
    const int hi = std::min(g_hi, kend);
    if (lo >= hi) return;
    fragments += hi - lo;

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
    if (r0 >= r1) return;

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
    float* dst = &pixels(0, y - target.origin_y) + (ax + r0 - target.origin_x);
    sampler.start_row(u_row + s0 * du_dx, v_row + s0 * dv_dx);
    if (r1 - r0 <= kInlineSpan) {
      blend_inline(dst, sampler, r0 - s0, r1 - r0, weight);
    } else {
      ctx.batch_dst[ctx.batched] = dst;
      ctx.batch_span[ctx.batched] = sampler.span(r0 - s0, weight);
      ctx.batch_len[ctx.batched] = static_cast<std::uint32_t>(r1 - r0);
      if (++ctx.batched == Raster::kSpanBatch) flush_batch(ctx);
    }
  };

  // Narrow windows (nearly every triangle of a served spot ribbon) take the
  // lane solve; only wider ones pay for the walk's edge classification and
  // seed reciprocals.
  const int y_min = s.y_min[lane];
  const int y_max = s.y_max[lane];
  if (gceil - gfloor <= kLanes) {
    ++stats.narrow_triangles;
    row_pass<F>(s, lane, y_min, y_max, ay, gfloor, gceil - gfloor, span_row);
  } else {
    const WalkSolve walk(s, lane, gfloor, gceil);
    for (int y = y_min; y <= y_max; ++y) {
      int g_lo = 0;
      int g_hi = 0;
      if (walk.row(y - ay, g_lo, g_hi)) span_row(y, g_lo, g_hi);
    }
  }
  flush_batch(ctx);
  ++stats.triangles;
  stats.fragments += fragments;
  stats.pixels_visited += fragments;
}

// Sets up the queued batch in lanes, then rasterizes its live triangles in
// emission order.
template <class F, class D>
void raster_batch(Raster& ctx, RasterStats& stats) {
  BatchSetup s;
  for (std::uint32_t live = setup_batch<F, D>(ctx, ctx.tris, s); live != 0;
       live &= live - 1) {
    const int lane = std::countr_zero(live);
    raster_lane<F>(ctx, s, lane, ctx.tris.weight[lane], stats);
  }
}

#if defined(__x86_64__)
// The AVX2 instantiation: flatten inlines the whole batch — setup, row
// passes, walks, span rows — into AVX2 code.
DCSN_LANES_AVX2_ENTRY void raster_batch_avx2(Raster& ctx, RasterStats& stats) {
  raster_batch<util::lanes::Avx2x8f, util::lanes::Avx2x4>(ctx, stats);
}
#endif

void flush_triangles(Raster& ctx, RasterStats& stats) {
  if (ctx.tris.count == 0) return;
#if defined(__x86_64__)
  if (ctx.avx2) {
    raster_batch_avx2(ctx, stats);
  } else {
    raster_batch<util::lanes::Vec8f, util::lanes::Scalar<4>>(ctx, stats);
  }
#else
  raster_batch<util::lanes::Vec8f, util::lanes::Scalar<4>>(ctx, stats);
#endif
  ctx.tris.count = 0;
}

void queue_triangle(Raster& ctx, const MeshVertex& a, const MeshVertex& b,
                    const MeshVertex& c, float weight, RasterStats& stats) {
  TriangleBatch& t = ctx.tris;
  const int k = t.count;
  const MeshVertex* v[3] = {&a, &b, &c};
  for (int i = 0; i < 3; ++i) {
    t.x[i][k] = v[i]->x;
    t.y[i][k] = v[i]->y;
    t.u[i][k] = v[i]->u;
    t.v[i][k] = v[i]->v;
  }
  t.weight[k] = weight;
  if (++t.count == kBatch) flush_triangles(ctx, stats);
}

// A cols-x-rows mesh as its quads' triangles in emission order: for quad
// (i, j), v00-v10-v11 then v00-v11-v01. The span path queues them for
// batched setup; the reference path walks each at once.
void raster_mesh(Raster& ctx, std::span<const MeshVertex> vertices, int cols, int rows,
                 float weight, RasterStats& stats) {
  if (cols < 2 || rows < 2) return;
  stats.quads += static_cast<std::int64_t>(cols - 1) * static_cast<std::int64_t>(rows - 1);
  const bool reference = ctx.target.algorithm == RasterAlgorithm::kReference;
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
      if (reference) {
        raster_tri_reference(ctx, v00, v10, v11, weight, stats);
        raster_tri_reference(ctx, v00, v11, v01, weight, stats);
      } else {
        queue_triangle(ctx, v00, v10, v11, weight, stats);
        queue_triangle(ctx, v00, v11, v01, weight, stats);
      }
    }
  }
}

}  // namespace

void rasterize_triangle(const RasterTarget& target, const MeshVertex& a,
                        const MeshVertex& b, const MeshVertex& c, float weight,
                        const SpotProfile& profile, RasterStats& stats) {
  Raster ctx(target, profile);
  if (target.algorithm == RasterAlgorithm::kReference) {
    raster_tri_reference(ctx, a, b, c, weight, stats);
    return;
  }
  queue_triangle(ctx, a, b, c, weight, stats);
  flush_triangles(ctx, stats);
}

void rasterize_mesh(const RasterTarget& target, std::span<const MeshVertex> vertices,
                    int cols, int rows, float weight, const SpotProfile& profile,
                    RasterStats& stats) {
  DCSN_CHECK(cols < 2 || rows < 2 ||
                 vertices.size() >=
                     static_cast<std::size_t>(cols) * static_cast<std::size_t>(rows),
             "rasterize_mesh: fewer vertices than cols * rows");
  Raster ctx(target, profile);
  raster_mesh(ctx, vertices, cols, rows, weight, stats);
  flush_triangles(ctx, stats);
}

void rasterize_buffer(const RasterTarget& target, const CommandBuffer& buffer,
                      const SpotProfile& profile, RasterStats& stats) {
  Raster ctx(target, profile);
  for (const MeshHeader& h : buffer.meshes()) {
    raster_mesh(ctx, buffer.vertices_of(h), h.cols, h.rows, h.intensity, stats);
  }
  flush_triangles(ctx, stats);
}

}  // namespace dcsn::render
