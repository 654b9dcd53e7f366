// Equivalence fuzzing for the span-based scanline rasterizer.
//
// The contract under test (see render/rasterizer.hpp): RasterAlgorithm::kSpan
// and kReference construct edges from the same canonical endpoint ordering
// and evaluate every edge value with the same expression, so their pixel
// *coverage* is bit-identical for any input — needles, zero-area slivers,
// off-screen and ±1e12 geometry included — while fragment *values* (which
// kSpan computes with the incremental RowSampler) agree to ≤ 1e-5. The
// coverage checks use a constant-texel profile, so every covered pixel
// blends an exact float quantum and framebuffers can be compared bit-exactly.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

#include "core/dnc_synthesizer.hpp"
#include "core/spot_source.hpp"
#include "field/analytic.hpp"
#include "render/framebuffer.hpp"
#include "render/rasterizer.hpp"
#include "render/spot_profile.hpp"
#include "util/rng.hpp"

namespace {

using dcsn::render::BlendMode;
using dcsn::render::Framebuffer;
using dcsn::render::MeshVertex;
using dcsn::render::RasterAlgorithm;
using dcsn::render::RasterStats;
using dcsn::render::RasterTarget;
using dcsn::render::SpotProfile;
using dcsn::render::SpotShape;

constexpr float kNaN = std::numeric_limits<float>::quiet_NaN();
constexpr float kInf = std::numeric_limits<float>::infinity();

MeshVertex vtx(float x, float y, float u = 0.5f, float v = 0.5f) {
  return MeshVertex{x, y, u, v};
}

// A 2x2 disc profile: all four texels sit inside the inscribed circle, so
// after normalization the table is the constant 0.25 and any in-range UV
// samples exactly that — the "coverage quantum" for exact mask comparison.
const SpotProfile& coverage_profile() {
  static const SpotProfile profile(SpotShape::kDisc, 2);
  return profile;
}

float coverage_quantum() { return coverage_profile().sample(0.5f, 0.5f); }

struct TriRun {
  Framebuffer fb;
  RasterStats stats;
};

TriRun run_triangle(RasterAlgorithm algo, const MeshVertex& a, const MeshVertex& b,
                    const MeshVertex& c, const SpotProfile& profile,
                    BlendMode mode = BlendMode::kAdditive, float weight = 1.0f,
                    int w = 64, int h = 48, float clear = 0.0f) {
  TriRun run{Framebuffer(w, h), {}};
  run.fb.clear(clear);
  const RasterTarget target{run.fb.pixels(), 0, 0, algo};
  dcsn::render::rasterize_triangle(target, a, b, c, weight, profile, mode, run.stats);
  return run;
}

// Max |difference| over all pixels; framebuffers must be same-sized.
float max_abs_diff(const Framebuffer& lhs, const Framebuffer& rhs) {
  return lhs.max_abs_diff(rhs);
}

// Runs one triangle through both algorithms and asserts the equivalence
// contract: identical coverage (exact framebuffer match with constant UVs),
// identical fragment/triangle counts, span never visits more than reference.
// `value_tolerance` covers the fragment-value comparison: the span kernel
// evaluates UV with a per-triangle affine double form while the reference
// recomputes float barycentrics per pixel, so on degenerate (needle)
// geometry the difference is dominated by the *reference's* float
// cancellation noise — a few 1e-5 — not by span-kernel error.
void expect_equivalent(const MeshVertex& a, const MeshVertex& b, const MeshVertex& c,
                       const char* label, float value_tolerance = 2e-5f) {
  // Coverage: constant UV so every fragment blends the exact quantum.
  MeshVertex ca = a, cb = b, cc = c;
  ca.u = cb.u = cc.u = 0.5f;
  ca.v = cb.v = cc.v = 0.5f;
  const TriRun ref = run_triangle(RasterAlgorithm::kReference, ca, cb, cc,
                                  coverage_profile());
  const TriRun span = run_triangle(RasterAlgorithm::kSpan, ca, cb, cc,
                                   coverage_profile());
  EXPECT_EQ(ref.stats.fragments, span.stats.fragments) << label;
  EXPECT_EQ(ref.stats.triangles, span.stats.triangles) << label;
  EXPECT_LE(span.stats.pixels_visited, ref.stats.pixels_visited) << label;
  EXPECT_TRUE(ref.fb == span.fb) << label << ": coverage masks differ";

  // Values: the original (possibly interpolating) UVs under both blends.
  static const SpotProfile smooth(SpotShape::kCosine, 64);
  for (const BlendMode mode : {BlendMode::kAdditive, BlendMode::kMaximum}) {
    const TriRun vref = run_triangle(RasterAlgorithm::kReference, a, b, c, smooth,
                                     mode, 0.8f, 64, 48, -0.01f);
    const TriRun vspan = run_triangle(RasterAlgorithm::kSpan, a, b, c, smooth, mode,
                                      0.8f, 64, 48, -0.01f);
    EXPECT_EQ(vref.stats.fragments, vspan.stats.fragments) << label;
    EXPECT_LE(max_abs_diff(vref.fb, vspan.fb), value_tolerance) << label;
  }
}

// A served animation frame's spot mesh: a 16x3 ribbon of 3 px half-width
// and 22 px length swept along an arc, u along the spine and v across it —
// ~2 fragments per triangle. An arc radius below the half-width folds the
// inner row through the arc centre, so some quads flip winding and overlap
// their neighbours. The centre lands anywhere in [x0, x1) x [y0, y1).
constexpr int kTinyCols = 16;
constexpr int kTinyRows = 3;

std::vector<MeshVertex> tiny_ribbon(dcsn::util::Rng& rng, double x0, double x1,
                                    double y0, double y1) {
  const bool folded = rng.uniform(0.0, 1.0) < 0.3;
  const double radius = folded ? rng.uniform(0.8, 2.9) : rng.uniform(4.0, 60.0);
  const double cx = rng.uniform(x0, x1);
  const double cy = rng.uniform(y0, y1);
  const double start = rng.uniform(0.0, 6.3);
  const double sweep = (rng.uniform(0.0, 1.0) < 0.5 ? -22.0 : 22.0) / radius;
  std::vector<MeshVertex> vertices;
  vertices.reserve(kTinyCols * kTinyRows);
  for (int j = 0; j < kTinyRows; ++j) {
    const double r = radius + 3.0 * (2.0 * j / (kTinyRows - 1) - 1.0);
    for (int i = 0; i < kTinyCols; ++i) {
      const double t = static_cast<double>(i) / (kTinyCols - 1);
      const double angle = start + sweep * t;
      vertices.push_back(vtx(static_cast<float>(cx + r * std::cos(angle)),
                             static_cast<float>(cy + r * std::sin(angle)),
                             static_cast<float>(t),
                             static_cast<float>(j) / (kTinyRows - 1)));
    }
  }
  return vertices;
}

// Calls f(a, b, c) for each triangle of a row-major mesh in the mesh
// rasterizer's own quad -> two-triangles order.
template <class F>
void for_each_triangle(const std::vector<MeshVertex>& v, int cols, int rows, F&& f) {
  const auto at = [&](int i, int j) -> const MeshVertex& {
    return v[static_cast<std::size_t>(j * cols + i)];
  };
  for (int j = 0; j + 1 < rows; ++j) {
    for (int i = 0; i + 1 < cols; ++i) {
      f(at(i, j), at(i + 1, j), at(i + 1, j + 1));
      f(at(i, j), at(i + 1, j + 1), at(i, j + 1));
    }
  }
}

TEST(SpanEquivalenceFuzz, RandomTriangles) {
  dcsn::util::Rng rng(2024);
  for (int iter = 0; iter < 300; ++iter) {
    const auto coord = [&](float lo, float hi) {
      return static_cast<float>(rng.uniform(lo, hi));
    };
    const MeshVertex a = vtx(coord(-20, 84), coord(-20, 68),
                             rng.uniform_f(), rng.uniform_f());
    const MeshVertex b = vtx(coord(-20, 84), coord(-20, 68),
                             rng.uniform_f(), rng.uniform_f());
    const MeshVertex c = vtx(coord(-20, 84), coord(-20, 68),
                             rng.uniform_f(), rng.uniform_f());
    expect_equivalent(a, b, c, "random triangle");
  }
  // Tiny-triangle family: every triangle of small, partly folded ribbons,
  // some hanging off the target's edges — where the span kernel blends
  // most spans inline rather than through the batched kernel.
  for (int iter = 0; iter < 12; ++iter) {
    const auto ribbon = tiny_ribbon(rng, -4.0, 68.0, -4.0, 52.0);
    for_each_triangle(ribbon, kTinyCols, kTinyRows,
                      [](const MeshVertex& a, const MeshVertex& b, const MeshVertex& c) {
                        expect_equivalent(a, b, c, "tiny ribbon triangle");
                      });
  }

  const auto coord = [&](float lo, float hi) {
    return static_cast<float>(rng.uniform(lo, hi));
  };

  // The lane-solve cut-over: triangles whose solve window (the bbox columns
  // floor(min x) .. ceil(max x)) is exactly 7, 8 or 9 wide. 7 and 8 take the
  // 8-lane row solve, 9 the seeded walk; RasterStats says which ran.
  for (const int width : {7, 8, 9}) {
    for (int iter = 0; iter < 60; ++iter) {
      const float x0 = std::floor(coord(-3, 54));
      const float left = x0 + coord(0.05f, 0.95f);
      const float right = x0 + static_cast<float>(width - 2) + coord(0.05f, 0.95f);
      const float y0 = coord(-3, 40);
      const MeshVertex a = vtx(left, y0 + coord(0, 10), rng.uniform_f(), rng.uniform_f());
      const MeshVertex b = vtx(right, y0 + coord(0, 10), rng.uniform_f(), rng.uniform_f());
      const MeshVertex c =
          vtx(coord(left, right), y0 + coord(0, 10), rng.uniform_f(), rng.uniform_f());
      expect_equivalent(a, b, c, "cut-over window");
      const TriRun run = run_triangle(RasterAlgorithm::kSpan, a, b, c, coverage_profile());
      EXPECT_EQ(run.stats.narrow_triangles, width <= 8 ? run.stats.triangles : 0)
          << "window " << width;
    }
  }

  // Vertices on pixel centres: edge values hit exactly zero on the pixels
  // the edges pass through, so the top-left rule decides them. Each quad is
  // split along its diagonal into the two triangles the mesh rasterizer
  // draws — the shared diagonal is top-left for exactly one of them — and
  // sizes span both solvers.
  const auto centre = [&](int lo, int hi) {
    return static_cast<float>(static_cast<int>(rng.uniform(lo, hi))) + 0.5f;
  };
  for (int iter = 0; iter < 150; ++iter) {
    const float x = centre(-2, 50);
    const float y = centre(-2, 36);
    const MeshVertex v00 = vtx(x, y);
    const MeshVertex v10 = vtx(x + centre(1, 12), y + centre(-3, 3));
    const MeshVertex v11 = vtx(x + centre(1, 12), y + centre(1, 10));
    const MeshVertex v01 = vtx(x + centre(-3, 3), y + centre(1, 10));
    expect_equivalent(v00, v10, v11, "pixel-centre quad, first half");
    expect_equivalent(v00, v11, v01, "pixel-centre quad, second half");
  }

  // Flat edges, on and off pixel-centre rows. A flat top edge runs in +x
  // (top-left: its zero row is drawn); a flat bottom edge runs in -x, so
  // its canonical ordering flips it and its dy is -0.0f (not top-left: its
  // zero row belongs to the neighbour below).
  for (int iter = 0; iter < 80; ++iter) {
    const float yc = iter % 2 == 0 ? centre(2, 40) : coord(2, 40);
    const float x0 = coord(-3, 50);
    const float x1 = x0 + coord(1, 14);
    const float apex_x = coord(x0 - 3, x1 + 3);
    const float h = coord(0.5f, 9);
    expect_equivalent(vtx(x0, yc), vtx(x1, yc), vtx(apex_x, yc + h), "flat top edge");
    expect_equivalent(vtx(x0, yc), vtx(x1, yc), vtx(apex_x, yc - h), "flat bottom edge");
  }
}

TEST(SpanEquivalenceFuzz, NeedleTriangles) {
  dcsn::util::Rng rng(77);
  for (int iter = 0; iter < 200; ++iter) {
    // One long axis, sub-pixel thickness: the worst case for bbox walks and
    // for span boundary rounding.
    const float x0 = static_cast<float>(rng.uniform(-10, 74));
    const float y0 = static_cast<float>(rng.uniform(-10, 58));
    const float dx = static_cast<float>(rng.uniform(-60, 60));
    const float dy = static_cast<float>(rng.uniform(-60, 60));
    const float thick = static_cast<float>(rng.uniform(1e-4, 0.3));
    const MeshVertex a = vtx(x0, y0, 0.0f, 0.0f);
    const MeshVertex b = vtx(x0 + dx, y0 + dy, 1.0f, 0.0f);
    const MeshVertex c = vtx(x0 - dy * thick, y0 + dx * thick, 0.5f, 1.0f);
    expect_equivalent(a, b, c, "needle", 2e-4f);
  }
}

TEST(SpanEquivalenceFuzz, DegenerateAndHostileGeometry) {
  // Zero-area: collinear and repeated vertices — both algorithms must draw
  // nothing (and not crash).
  expect_equivalent(vtx(3, 3), vtx(3, 3), vtx(9, 7), "repeated vertex");
  expect_equivalent(vtx(1, 1), vtx(5, 5), vtx(9, 9), "collinear");

  // Fully and partially off-screen.
  expect_equivalent(vtx(-30, -30), vtx(-10, -30), vtx(-20, -5), "fully off");
  expect_equivalent(vtx(-15, 10), vtx(30, -12), vtx(20, 40), "partially off");

  // Far-off-screen vertices: the bbox clamp must keep the int casts defined
  // and both algorithms agreeing.
  expect_equivalent(vtx(-1e12f, -1e12f), vtx(1e12f, 0), vtx(10, 1e12f), "1e12");
  expect_equivalent(vtx(32, -1e12f), vtx(1e12f, 24), vtx(-1e12f, 24), "1e12 mixed");

  // Non-finite coordinates: rejected identically (nothing drawn).
  const TriRun nan_ref = run_triangle(RasterAlgorithm::kReference, vtx(kNaN, 5),
                                      vtx(30, 5), vtx(15, 30), coverage_profile());
  const TriRun nan_span = run_triangle(RasterAlgorithm::kSpan, vtx(kNaN, 5),
                                       vtx(30, 5), vtx(15, 30), coverage_profile());
  EXPECT_EQ(nan_ref.stats.fragments, 0);
  EXPECT_EQ(nan_span.stats.fragments, 0);
  EXPECT_TRUE(nan_ref.fb == nan_span.fb);
  const TriRun inf_span = run_triangle(RasterAlgorithm::kSpan, vtx(kInf, 5),
                                       vtx(30, 5), vtx(15, 30), coverage_profile());
  EXPECT_EQ(inf_span.stats.fragments, 0);
}

TEST(SpanEquivalenceFuzz, OutOfRangeUVFuzz) {
  // UVs pushed beyond [0,1]: the span kernel's hoisted in-range sub-span
  // must agree with the reference's per-fragment bounds check to 1e-5.
  dcsn::util::Rng rng(4242);
  const SpotProfile profile(SpotShape::kGaussian, 64);
  for (int iter = 0; iter < 150; ++iter) {
    const auto coord = [&](float lo, float hi) {
      return static_cast<float>(rng.uniform(lo, hi));
    };
    const auto uv = [&] { return static_cast<float>(rng.uniform(-0.6, 1.6)); };
    const MeshVertex a = vtx(coord(0, 64), coord(0, 48), uv(), uv());
    const MeshVertex b = vtx(coord(0, 64), coord(0, 48), uv(), uv());
    const MeshVertex c = vtx(coord(0, 64), coord(0, 48), uv(), uv());
    const TriRun ref =
        run_triangle(RasterAlgorithm::kReference, a, b, c, profile);
    const TriRun span = run_triangle(RasterAlgorithm::kSpan, a, b, c, profile);
    EXPECT_EQ(ref.stats.fragments, span.stats.fragments);
    EXPECT_LE(max_abs_diff(ref.fb, span.fb), 1e-5f);
  }
}

// Rasterizes a quad split into the two triangles the mesh rasterizer uses,
// with the constant-texel profile: watertightness means every pixel of the
// result carries exactly 0 or 1 quantum (no seam double-blend), and every
// pixel safely interior to the quad carries exactly 1 (no seam gap).
void expect_watertight_rect(RasterAlgorithm algo, float x0, float y0, float x1,
                            float y1, Framebuffer* out = nullptr) {
  Framebuffer fb(64, 48);
  RasterStats stats;
  const RasterTarget target{fb.pixels(), 0, 0, algo};
  const MeshVertex v00 = vtx(x0, y0);
  const MeshVertex v10 = vtx(x1, y0);
  const MeshVertex v11 = vtx(x1, y1);
  const MeshVertex v01 = vtx(x0, y1);
  dcsn::render::rasterize_triangle(target, v00, v10, v11, 1.0f, coverage_profile(),
                                   BlendMode::kAdditive, stats);
  dcsn::render::rasterize_triangle(target, v00, v11, v01, 1.0f, coverage_profile(),
                                   BlendMode::kAdditive, stats);
  const float q = coverage_quantum();
  for (int y = 0; y < fb.height(); ++y) {
    for (int x = 0; x < fb.width(); ++x) {
      const float value = fb.at(x, y);
      ASSERT_TRUE(value == 0.0f || value == q)
          << "seam double-blend or partial at (" << x << "," << y << "): " << value;
      const float cx = static_cast<float>(x) + 0.5f;
      const float cy = static_cast<float>(y) + 0.5f;
      const bool interior = cx > x0 + 0.01f && cx < x1 - 0.01f &&
                            cy > y0 + 0.01f && cy < y1 - 0.01f;
      if (interior) {
        ASSERT_EQ(value, q) << "seam gap at (" << x << "," << y << ")";
      }
    }
  }
  if (out) *out = fb;
}

TEST(SpanWatertight, DiagonalSeamsOnRandomRects) {
  dcsn::util::Rng rng(909);
  for (int iter = 0; iter < 200; ++iter) {
    const float x0 = static_cast<float>(rng.uniform(-4.0, 40.0));
    const float y0 = static_cast<float>(rng.uniform(-4.0, 30.0));
    const float x1 = x0 + static_cast<float>(rng.uniform(0.3, 25.0));
    const float y1 = y0 + static_cast<float>(rng.uniform(0.3, 20.0));
    Framebuffer ref_fb, span_fb;
    expect_watertight_rect(RasterAlgorithm::kReference, x0, y0, x1, y1, &ref_fb);
    expect_watertight_rect(RasterAlgorithm::kSpan, x0, y0, x1, y1, &span_fb);
    ASSERT_TRUE(ref_fb == span_fb);
  }
}

TEST(SpanWatertight, SharedEdgeTrianglePairsNeverDoubleBlend) {
  // Two triangles traversing a random shared edge in opposite directions:
  // no pixel may receive two quanta, under either algorithm.
  dcsn::util::Rng rng(1337);
  const float q = coverage_quantum();
  for (int iter = 0; iter < 200; ++iter) {
    const auto coord = [&](float lo, float hi) {
      return static_cast<float>(rng.uniform(lo, hi));
    };
    const MeshVertex p = vtx(coord(0, 64), coord(0, 48));
    const MeshVertex r = vtx(coord(0, 64), coord(0, 48));
    const MeshVertex s = vtx(coord(0, 64), coord(0, 48));
    const MeshVertex t = vtx(coord(0, 64), coord(0, 48));
    // Keep only pairs where s and t lie on opposite sides of edge p-r, so
    // the triangles only meet along the seam.
    const auto side = [&](const MeshVertex& v) {
      return (r.x - p.x) * (v.y - p.y) - (r.y - p.y) * (v.x - p.x);
    };
    if (side(s) * side(t) >= 0.0f) continue;
    for (const RasterAlgorithm algo :
         {RasterAlgorithm::kReference, RasterAlgorithm::kSpan}) {
      Framebuffer fb(64, 48);
      RasterStats stats;
      const RasterTarget target{fb.pixels(), 0, 0, algo};
      dcsn::render::rasterize_triangle(target, p, r, s, 1.0f, coverage_profile(),
                                       BlendMode::kAdditive, stats);
      dcsn::render::rasterize_triangle(target, r, p, t, 1.0f, coverage_profile(),
                                       BlendMode::kAdditive, stats);
      for (int y = 0; y < fb.height(); ++y) {
        for (int x = 0; x < fb.width(); ++x) {
          const float value = fb.at(x, y);
          ASSERT_TRUE(value == 0.0f || value == q)
              << "double blend at (" << x << "," << y << "): " << value;
        }
      }
    }
  }
}

TEST(SpanVisitedAccounting, SpanSkipsRejectedPixels) {
  // A half-screen diagonal: the bbox walk visits the whole box, the span
  // kernel only the covered interval of each row.
  const MeshVertex a = vtx(1, 1, 0, 0);
  const MeshVertex b = vtx(60, 2, 1, 0);
  const MeshVertex c = vtx(2, 44, 0, 1);
  const TriRun ref = run_triangle(RasterAlgorithm::kReference, a, b, c,
                                  coverage_profile());
  const TriRun span = run_triangle(RasterAlgorithm::kSpan, a, b, c,
                                   coverage_profile());
  EXPECT_EQ(ref.stats.fragments, span.stats.fragments);
  EXPECT_GT(ref.stats.fragments, 0);
  // Reference visits the full bbox; span visits exactly its fragments.
  EXPECT_GT(ref.stats.pixels_visited, ref.stats.fragments);
  EXPECT_EQ(span.stats.pixels_visited, span.stats.fragments);
}

TEST(SpanEquivalence, BentRibbonMesh) {
  // A curved ribbon like the bent-spot generator emits: cols x rows vertices
  // swept along an arc, u along the spine, v across it.
  constexpr int cols = 24;
  constexpr int rows = 5;
  std::vector<MeshVertex> vertices;
  vertices.reserve(cols * rows);
  for (int j = 0; j < rows; ++j) {
    for (int i = 0; i < cols; ++i) {
      const float t = static_cast<float>(i) / (cols - 1);
      const float angle = 0.4f + 2.2f * t;
      const float radius = 18.0f + 2.5f * (static_cast<float>(j) / (rows - 1) - 0.5f) * 2.0f;
      vertices.push_back(vtx(32.0f + radius * std::cos(angle),
                             26.0f + radius * std::sin(angle), t,
                             static_cast<float>(j) / (rows - 1)));
    }
  }
  const SpotProfile profile(SpotShape::kCosine, 64);
  Framebuffer ref_fb(64, 48), span_fb(64, 48);
  RasterStats ref_stats, span_stats;
  dcsn::render::rasterize_mesh({ref_fb.pixels(), 0, 0, RasterAlgorithm::kReference},
                               vertices, cols, rows, 0.7f, profile,
                               BlendMode::kAdditive, ref_stats);
  dcsn::render::rasterize_mesh({span_fb.pixels(), 0, 0, RasterAlgorithm::kSpan},
                               vertices, cols, rows, 0.7f, profile,
                               BlendMode::kAdditive, span_stats);
  EXPECT_EQ(ref_stats.fragments, span_stats.fragments);
  EXPECT_EQ(ref_stats.quads, (cols - 1) * (rows - 1));
  EXPECT_GT(span_stats.fragments, 0);
  EXPECT_LT(span_stats.pixels_visited, ref_stats.pixels_visited);
  EXPECT_LE(max_abs_diff(ref_fb, span_fb), 1e-5f);
}

TEST(SpotProfileBounds, OutOfRangeUVSamplesZero) {
  // Regression for the span setup clamp: UVs at and slightly beyond 0/1 —
  // the float-rounding overshoot that occurs at triangle seams.
  const SpotProfile profile(SpotShape::kGaussian, 64);
  EXPECT_EQ(profile.sample(1.0f, 0.5f), 0.0f);
  EXPECT_EQ(profile.sample(0.5f, 1.0f), 0.0f);
  EXPECT_EQ(profile.sample(1.0f + 1e-6f, 0.5f), 0.0f);
  EXPECT_EQ(profile.sample(-1e-7f, 0.5f), 0.0f);
  EXPECT_EQ(profile.sample(0.5f, -1e-7f), 0.0f);
  EXPECT_EQ(profile.sample(kNaN, 0.5f), 0.0f);
  EXPECT_EQ(profile.sample(0.5f, kNaN), 0.0f);
  EXPECT_EQ(profile.sample(kInf, 0.5f), 0.0f);
  EXPECT_EQ(profile.sample(-kInf, 0.5f), 0.0f);
  // At and just inside the valid boundary: finite, no fault.
  EXPECT_GE(profile.sample(0.0f, 0.0f), 0.0f);
  const float just_inside = std::nextafter(1.0f, 0.0f);
  EXPECT_TRUE(std::isfinite(profile.sample(just_inside, just_inside)));
  EXPECT_GT(profile.sample(0.5f, 0.5f), 0.0f);
}

TEST(SpanEquivalence, HighResolutionProfileSteepGradient) {
  // Regression: the RowSampler's gradient cap must scale with the profile
  // resolution. With a 256-texel profile a legitimate UV gradient of
  // ~0.26/pixel exceeds 64 texels/step; a fixed cap silently zeroed the
  // step and every fragment after the first re-sampled the span start.
  const SpotProfile profile(SpotShape::kCosine, 256);
  const MeshVertex a = vtx(4, 4, 0.02f, 0.1f);
  const MeshVertex b = vtx(7.5f, 5, 0.95f, 0.2f);  // ~0.26 du/dx
  const MeshVertex c = vtx(5, 40, 0.1f, 0.9f);
  const TriRun ref = run_triangle(RasterAlgorithm::kReference, a, b, c, profile);
  const TriRun span = run_triangle(RasterAlgorithm::kSpan, a, b, c, profile);
  EXPECT_EQ(ref.stats.fragments, span.stats.fragments);
  EXPECT_GT(span.stats.fragments, 0);
  EXPECT_LE(max_abs_diff(ref.fb, span.fb), 2e-5f);
}

TEST(SpotProfileBounds, RowSamplerMatchesPointSampler) {
  const SpotProfile profile(SpotShape::kCosine, 64);
  const double u0 = 0.037, v0 = 0.91, du = 0.0123, dv = -0.0117;
  SpotProfile::RowSampler sampler(profile, du, dv);
  sampler.start_row(u0, v0);
  for (int k = 0; k < 70; ++k) {
    const double u = u0 + k * du;
    const double v = v0 + k * dv;
    if (!(u >= 0.0 && u < 1.0 && v >= 0.0 && v < 1.0)) continue;
    EXPECT_NEAR(sampler.sample_at(k),
                profile.sample(static_cast<float>(u), static_cast<float>(v)), 2e-6f)
        << "k=" << k;
  }
}

TEST(SpanEquivalence, TileClippedSpansMatchFullTargetBitwise) {
  // Target independence at the fragment-value level: a triangle straddling
  // a tile's left edge renders the tile's pixels with EXACTLY the bits the
  // full-texture target produces there. This pins the geometric span solve
  // + absolute-k UV rebase — a sampler rebased on the *clipped* span start
  // would differ in the last bits and occasionally flip a contribution
  // across a lattice tie.
  const SpotProfile profile(SpotShape::kCosine, 64);
  dcsn::util::Rng rng(2468);
  for (const auto algo : {RasterAlgorithm::kSpan, RasterAlgorithm::kReference}) {
    for (int i = 0; i < 300; ++i) {
      // Random triangles biased to straddle the x = 32 boundary.
      auto coord = [&](double lo, double hi) {
        return static_cast<float>(rng.uniform(lo, hi));
      };
      const MeshVertex a{coord(8, 40), coord(0, 64), coord(0, 1), coord(0, 1)};
      const MeshVertex b{coord(24, 56), coord(0, 64), coord(0, 1), coord(0, 1)};
      const MeshVertex c{coord(8, 56), coord(0, 64), coord(0, 1), coord(0, 1)};
      const auto weight = static_cast<float>(rng.uniform(-1.0, 1.0));

      Framebuffer full(64, 64);
      RasterStats full_stats;
      dcsn::render::rasterize_triangle({full.pixels(), 0, 0, algo}, a, b, c,
                                       weight, profile, BlendMode::kAdditive,
                                       full_stats);
      Framebuffer tile(32, 64);
      RasterStats tile_stats;
      dcsn::render::rasterize_triangle({tile.pixels(), 32, 0, algo}, a, b, c,
                                       weight, profile, BlendMode::kAdditive,
                                       tile_stats);
      for (int y = 0; y < 64; ++y) {
        for (int x = 0; x < 32; ++x) {
          ASSERT_EQ(full.at(x + 32, y), tile.at(x, y))
              << "algo " << static_cast<int>(algo) << " triangle " << i
              << " pixel (" << x << ", " << y << ")";
        }
      }
    }

    // Narrow triangles straddling the tile edge, on and off pixel centres:
    // the solve window (at most ~10 columns, so most take the lane solve)
    // extends past whichever tile clips the triangle, and both tiles match
    // the full target bit for bit.
    for (int i = 0; i < 300; ++i) {
      const auto coord = [&](double lo, double hi) {
        const auto v = static_cast<float>(rng.uniform(lo, hi));
        return i % 3 == 0 ? std::floor(v) + 0.5f : v;
      };
      const float x0 = static_cast<float>(rng.uniform(24.0, 33.0));
      const float y0 = static_cast<float>(rng.uniform(0.0, 56.0));
      const MeshVertex a{coord(x0, x0 + 8), coord(y0, y0 + 8), coord(0, 1), coord(0, 1)};
      const MeshVertex b{coord(x0, x0 + 8), coord(y0, y0 + 8), coord(0, 1), coord(0, 1)};
      const MeshVertex c{coord(x0, x0 + 8), coord(y0, y0 + 8), coord(0, 1), coord(0, 1)};
      const auto weight = static_cast<float>(rng.uniform(-1.0, 1.0));
      Framebuffer full(64, 64);
      Framebuffer left(32, 64);
      Framebuffer right(32, 64);
      RasterStats stats;
      dcsn::render::rasterize_triangle({full.pixels(), 0, 0, algo}, a, b, c, weight,
                                       profile, BlendMode::kAdditive, stats);
      dcsn::render::rasterize_triangle({left.pixels(), 0, 0, algo}, a, b, c, weight,
                                       profile, BlendMode::kAdditive, stats);
      dcsn::render::rasterize_triangle({right.pixels(), 32, 0, algo}, a, b, c, weight,
                                       profile, BlendMode::kAdditive, stats);
      for (int y = 0; y < 64; ++y) {
        for (int x = 0; x < 32; ++x) {
          ASSERT_EQ(full.at(x, y), left.at(x, y))
              << "algo " << static_cast<int>(algo) << " narrow triangle " << i
              << " pixel (" << x << ", " << y << ")";
          ASSERT_EQ(full.at(x + 32, y), right.at(x, y))
              << "algo " << static_cast<int>(algo) << " narrow triangle " << i
              << " pixel (" << x + 32 << ", " << y << ")";
        }
      }
    }

    // Tiny ribbons (partly folded) straddling the tile edge, drawn as whole
    // meshes: the tile matches the full target bit for bit, and
    // rasterize_mesh matches rasterize_triangle over the same triangles in
    // the same order — the mesh-level state the span kernel keeps between
    // triangles never shows in a pixel.
    for (int i = 0; i < 60; ++i) {
      const auto ribbon = tiny_ribbon(rng, 22.0, 42.0, 4.0, 60.0);
      const auto weight = static_cast<float>(rng.uniform(-1.0, 1.0));
      for (const BlendMode mode : {BlendMode::kAdditive, BlendMode::kMaximum}) {
        Framebuffer full(64, 64);
        Framebuffer tile(32, 64);
        Framebuffer by_triangle(64, 64);
        RasterStats stats;
        dcsn::render::rasterize_mesh({full.pixels(), 0, 0, algo}, ribbon, kTinyCols,
                                     kTinyRows, weight, profile, mode, stats);
        dcsn::render::rasterize_mesh({tile.pixels(), 32, 0, algo}, ribbon, kTinyCols,
                                     kTinyRows, weight, profile, mode, stats);
        for_each_triangle(ribbon, kTinyCols, kTinyRows,
                          [&](const MeshVertex& a, const MeshVertex& b,
                              const MeshVertex& c) {
                            dcsn::render::rasterize_triangle(
                                {by_triangle.pixels(), 0, 0, algo}, a, b, c, weight,
                                profile, mode, stats);
                          });
        ASSERT_TRUE(full == by_triangle)
            << "algo " << static_cast<int>(algo) << " ribbon " << i;
        for (int y = 0; y < 64; ++y) {
          for (int x = 0; x < 32; ++x) {
            ASSERT_EQ(full.at(x + 32, y), tile.at(x, y))
                << "algo " << static_cast<int>(algo) << " ribbon " << i
                << " pixel (" << x << ", " << y << ")";
          }
        }
      }
    }
  }
}

TEST(SpanIntegration, SynthesizerAlgorithmEquivalence) {
  // Whole-engine check: the DnC synthesizer produces the same texture (to
  // row-sampler tolerance) whichever algorithm the pipes rasterize with.
  const auto field = dcsn::field::analytic::rankine_vortex(
      {0.5, 0.5}, 1.0, 0.3, dcsn::field::Rect{0.0, 0.0, 1.0, 1.0});
  dcsn::core::SynthesisConfig synthesis;
  synthesis.texture_width = 96;
  synthesis.texture_height = 96;
  synthesis.spot_count = 150;
  synthesis.kind = dcsn::core::SpotKind::kBent;
  synthesis.bent.mesh_cols = 12;
  synthesis.bent.mesh_rows = 4;
  synthesis.bent.length_px = 20.0;
  synthesis.spot_radius_px = 4.0;
  dcsn::util::Rng rng(7);
  const auto spots =
      dcsn::core::make_random_spots(field->domain(), synthesis.spot_count, rng);

  Framebuffer textures[2];
  const RasterAlgorithm algos[2] = {RasterAlgorithm::kReference,
                                    RasterAlgorithm::kSpan};
  for (int k = 0; k < 2; ++k) {
    dcsn::core::DncConfig dnc;
    dnc.processors = 2;
    dnc.pipes = 1;
    dnc.raster_algorithm = algos[k];
    dcsn::core::DncSynthesizer engine(synthesis, dnc);
    (void)engine.synthesize(*field, spots);
    textures[k] = engine.texture();
  }
  EXPECT_LE(max_abs_diff(textures[0], textures[1]), 1e-4f);
}

}  // namespace
