// Tests for spot transformation: point, ellipse and bent spot geometry.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <new>
#include <vector>

#include "core/spot_geometry.hpp"
#include "field/analytic.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

// A counting replacement for the global allocation functions, confined to
// this test binary: the allocation test below measures the heap traffic of
// SpotGeometryGenerator::generate. Array and nothrow forms route through
// these by default.
namespace {
std::atomic<std::int64_t> g_allocations{0};
}  // namespace

// GCC cannot tell a replacement operator delete from a mismatched free().
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif
void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

namespace {

using namespace dcsn;
using field::Rect;
using field::Vec2;

core::SynthesisConfig base_config() {
  core::SynthesisConfig config;
  config.texture_width = 256;
  config.texture_height = 256;
  config.spot_radius_px = 8.0;
  return config;
}

// ------------------------------------------------------------- point spots ---

TEST(SpotGeometry, PointSpotIsAxisAlignedSquare) {
  auto config = base_config();
  config.kind = core::SpotKind::kPoint;
  const Rect domain{0, 0, 256, 256};  // 1 world unit = 1 pixel
  const auto f = field::analytic::uniform({1.0, 0.0}, domain);
  const core::SpotGeometryGenerator gen(config, *f);

  render::CommandBuffer buf;
  gen.generate({{128.0, 128.0}, 0.5}, buf);
  ASSERT_EQ(buf.mesh_count(), 1u);
  const auto& h = buf.meshes()[0];
  EXPECT_EQ(h.cols, 2);
  EXPECT_EQ(h.rows, 2);
  EXPECT_FLOAT_EQ(h.intensity, 0.5f);
  const auto v = buf.vertices_of(h);
  // World (128,128) maps to pixel (128, 128) with y flip: (1-0.5)*256 = 128.
  EXPECT_FLOAT_EQ(v[0].x, 120.0f);
  EXPECT_FLOAT_EQ(v[0].y, 120.0f);
  EXPECT_FLOAT_EQ(v[3].x, 136.0f);
  EXPECT_FLOAT_EQ(v[3].y, 136.0f);
}

TEST(SpotGeometry, IntensityScaleApplied) {
  auto config = base_config();
  config.kind = core::SpotKind::kPoint;
  config.intensity_scale = 0.25;
  const auto f = field::analytic::uniform({1.0, 0.0}, Rect{0, 0, 1, 1});
  const core::SpotGeometryGenerator gen(config, *f);
  render::CommandBuffer buf;
  gen.generate({{0.5, 0.5}, 1.0}, buf);
  EXPECT_FLOAT_EQ(buf.meshes()[0].intensity, 0.25f);
}

// ----------------------------------------------------------- ellipse spots ---

TEST(SpotGeometry, EllipseStretchesAlongFlow) {
  auto config = base_config();
  config.kind = core::SpotKind::kEllipse;
  config.ellipse.max_stretch = 3.0;
  const Rect domain{0, 0, 256, 256};
  const auto f = field::analytic::uniform({5.0, 0.0}, domain);  // max speed field
  const core::SpotGeometryGenerator gen(config, *f);

  render::CommandBuffer buf;
  gen.generate({{128.0, 128.0}, 1.0}, buf);
  const auto v = buf.vertices_of(buf.meshes()[0]);
  // Flow along +x at max relative speed: stretch = 3, so the spot spans
  // 2*8*3 = 48 px along x and 2*8/3 px across.
  const float width = std::abs(v[1].x - v[0].x);
  const float height = std::abs(v[2].y - v[0].y);
  EXPECT_NEAR(width, 48.0f, 1e-3f);
  EXPECT_NEAR(height, 16.0f / 3.0f, 1e-3f);
}

TEST(SpotGeometry, EllipseAreaIsPreserved) {
  auto config = base_config();
  config.kind = core::SpotKind::kEllipse;
  const Rect domain{0, 0, 256, 256};
  // A shear field gives different speeds at different positions.
  const auto f = field::analytic::shear(0.1, domain);
  const core::SpotGeometryGenerator gen(config, *f);

  for (const double y : {40.0, 128.0, 200.0}) {
    render::CommandBuffer buf;
    gen.generate({{128.0, y}, 1.0}, buf);
    const auto v = buf.vertices_of(buf.meshes()[0]);
    const Vec2 e1{v[1].x - v[0].x, v[1].y - v[0].y};
    const Vec2 e2{v[2].x - v[0].x, v[2].y - v[0].y};
    const double area = std::abs(e1.cross(e2));
    EXPECT_NEAR(area, 4.0 * 8.0 * 8.0, 1e-2) << "at y = " << y;  // float vertices
  }
}

TEST(SpotGeometry, EllipseFallsBackToPointAtStagnation) {
  auto config = base_config();
  config.kind = core::SpotKind::kEllipse;
  const Rect domain{-1, -1, 1, 1};
  const auto f = field::analytic::saddle({0, 0}, 1.0, domain);
  const core::SpotGeometryGenerator gen(config, *f);
  render::CommandBuffer buf;
  gen.generate({{0.0, 0.0}, 1.0}, buf);  // exactly on the critical point
  const auto v = buf.vertices_of(buf.meshes()[0]);
  // Untransformed square of half-width radius.
  EXPECT_NEAR(std::abs(v[1].x - v[0].x), 16.0f, 1e-4f);
  EXPECT_NEAR(std::abs(v[2].y - v[0].y), 16.0f, 1e-4f);
}

TEST(SpotGeometry, EllipseRotatesWithFlowDirection) {
  auto config = base_config();
  config.kind = core::SpotKind::kEllipse;
  const Rect domain{0, 0, 256, 256};
  const auto f = field::analytic::uniform({0.0, 4.0}, domain);  // straight up
  const core::SpotGeometryGenerator gen(config, *f);
  render::CommandBuffer buf;
  gen.generate({{128.0, 128.0}, 1.0}, buf);
  const auto v = buf.vertices_of(buf.meshes()[0]);
  // The long axis must now be vertical in pixel space.
  const float dx = std::abs(v[1].x - v[0].x);
  const float dy = std::abs(v[1].y - v[0].y);
  EXPECT_GT(dy, dx);
}

// -------------------------------------------------------------- bent spots ---

TEST(SpotGeometry, BentSpotFollowsStraightFlow) {
  auto config = base_config();
  config.kind = core::SpotKind::kBent;
  config.bent.mesh_cols = 9;
  config.bent.mesh_rows = 3;
  config.bent.length_px = 64.0;
  const Rect domain{0, 0, 256, 256};
  const auto f = field::analytic::uniform({1.0, 0.0}, domain);
  const core::SpotGeometryGenerator gen(config, *f);

  render::CommandBuffer buf;
  gen.generate({{128.0, 128.0}, 1.0}, buf);
  ASSERT_EQ(buf.mesh_count(), 1u);
  const auto& h = buf.meshes()[0];
  EXPECT_EQ(h.cols, 9);
  EXPECT_EQ(h.rows, 3);
  const auto v = buf.vertices_of(h);
  // The center spine row (j = 1) runs along y = 128 spanning ~64 px.
  const std::size_t row = 9;
  EXPECT_NEAR(v[row].y, 128.0f, 1e-3f);
  EXPECT_NEAR(v[row + 8].y, 128.0f, 1e-3f);
  EXPECT_NEAR(v[row + 8].x - v[row].x, 64.0f, 1.0f);
  // Cross rows sit one radius above/below the spine.
  EXPECT_NEAR(v[0].y, 120.0f, 1e-3f);
  EXPECT_NEAR(v[18].y, 136.0f, 1e-3f);
}

TEST(SpotGeometry, BentSpotBendsAroundVortex) {
  auto config = base_config();
  config.kind = core::SpotKind::kBent;
  config.bent.mesh_cols = 17;
  config.bent.mesh_rows = 3;
  config.bent.length_px = 96.0;
  const Rect domain{-128, -128, 128, 128};
  const auto f = field::analytic::rigid_vortex({0, 0}, 1.0, domain);
  const core::SpotGeometryGenerator gen(config, *f);

  render::CommandBuffer buf;
  gen.generate({{64.0, 0.0}, 1.0}, buf);
  const auto& h = buf.meshes()[0];
  const auto v = buf.vertices_of(h);
  // Spine points must stay near the streamline circle of radius 64 world
  // units (= 64 px here), i.e. distance from texture center (128,128).
  const std::size_t spine_row = static_cast<std::size_t>(h.cols);  // j = 1
  for (int i = 0; i < h.cols; ++i) {
    const float dx = v[spine_row + static_cast<std::size_t>(i)].x - 128.0f;
    const float dy = v[spine_row + static_cast<std::size_t>(i)].y - 128.0f;
    EXPECT_NEAR(std::hypot(dx, dy), 64.0f, 0.5f);
  }
  // And it must actually bend: the spine deviates from the chord between
  // its endpoints (a straight ribbon would not).
  const auto& first = v[spine_row];
  const auto& last = v[spine_row + static_cast<std::size_t>(h.cols) - 1];
  const double chord_len = std::hypot(last.x - first.x, last.y - first.y);
  double max_deviation = 0.0;
  for (int i = 1; i + 1 < h.cols; ++i) {
    const auto& p = v[spine_row + static_cast<std::size_t>(i)];
    const double cross = (last.x - first.x) * (p.y - first.y) -
                         (last.y - first.y) * (p.x - first.x);
    max_deviation = std::max(max_deviation, std::abs(cross) / chord_len);
  }
  EXPECT_GT(max_deviation, 2.0);  // pixels of sagitta over a 96 px arc
}

TEST(SpotGeometry, BentSpotTruncatesAtBoundary) {
  auto config = base_config();
  config.kind = core::SpotKind::kBent;
  config.bent.mesh_cols = 17;
  config.bent.length_px = 64.0;
  const Rect domain{0, 0, 256, 256};
  const auto f = field::analytic::uniform({1.0, 0.0}, domain);
  const core::SpotGeometryGenerator gen(config, *f);
  render::CommandBuffer buf;
  gen.generate({{250.0, 128.0}, 1.0}, buf);  // 6 px from the outflow edge
  const auto& h = buf.meshes()[0];
  EXPECT_LT(h.cols, 17);  // downstream half truncated
  EXPECT_GE(h.cols, 2);
}

TEST(SpotGeometry, BentSpotAtStagnationDegradesToPoint) {
  auto config = base_config();
  config.kind = core::SpotKind::kBent;
  const Rect domain{-1, -1, 1, 1};
  const auto f = field::analytic::saddle({0, 0}, 1.0, domain);
  const core::SpotGeometryGenerator gen(config, *f);
  render::CommandBuffer buf;
  gen.generate({{0.0, 0.0}, 1.0}, buf);
  ASSERT_EQ(buf.mesh_count(), 1u);
  EXPECT_EQ(buf.meshes()[0].cols, 2);  // point-spot fallback
  EXPECT_EQ(buf.meshes()[0].rows, 2);
}

TEST(SpotGeometry, SubstepsDoNotChangeVertexCount) {
  for (const int substeps : {1, 2, 8}) {
    auto config = base_config();
    config.kind = core::SpotKind::kBent;
    config.bent.mesh_cols = 9;
    config.bent.trace_substeps = substeps;
    const Rect domain{0, 0, 256, 256};
    const auto f = field::analytic::uniform({1.0, 0.0}, domain);
    const core::SpotGeometryGenerator gen(config, *f);
    render::CommandBuffer buf;
    gen.generate({{128.0, 128.0}, 1.0}, buf);
    EXPECT_EQ(buf.meshes()[0].cols, 9) << "substeps = " << substeps;
  }
}

TEST(SpotGeometry, SubstepsImproveSpineAccuracy) {
  // On a vortex, higher substep counts keep the decimated spine closer to
  // the true circular streamline.
  auto config = base_config();
  config.kind = core::SpotKind::kBent;
  config.bent.mesh_cols = 9;
  config.bent.length_px = 120.0;
  const Rect domain{-128, -128, 128, 128};
  const auto f = field::analytic::rankine_vortex({0, 0}, 800.0, 30.0, domain);

  auto spine_error = [&](int substeps) {
    auto c = config;
    c.bent.trace_substeps = substeps;
    const core::SpotGeometryGenerator gen(c, *f);
    render::CommandBuffer buf;
    gen.generate({{40.0, 0.0}, 1.0}, buf);
    const auto& h = buf.meshes()[0];
    const auto v = buf.vertices_of(h);
    double worst = 0.0;
    const auto spine = static_cast<std::size_t>(h.cols);
    for (int i = 0; i < h.cols; ++i) {
      const double dx = v[spine + static_cast<std::size_t>(i)].x - 128.0;
      const double dy = v[spine + static_cast<std::size_t>(i)].y - 128.0;
      worst = std::max(worst, std::abs(std::hypot(dx, dy) - 40.0));
    }
    return worst;
  };
  EXPECT_LT(spine_error(8), spine_error(1));
}

// --------------------------------------------- bent spots vs whole traces ---

// The bent mesh built the long way round: StreamlineTracer::trace's whole
// polyline, every substeps-th point from the seed mapped to pixels and swept
// across — or, with fewer than two spine points, the point-spot fallback.
render::CommandBuffer bent_from_trace(const core::SpotGeometryGenerator& gen,
                                      const field::VectorField& f,
                                      const core::SpotInstance& spot) {
  const core::SynthesisConfig& c = gen.config();
  const int cols = c.bent.mesh_cols;
  const int rows = c.bent.mesh_rows;
  const int substeps = c.bent.trace_substeps;
  const int fwd = (cols - 1) / 2;
  const int bwd = (cols - 1) - fwd;
  const particles::Streamline line =
      gen.tracer().trace(f, spot.position, fwd * substeps, bwd * substeps);
  const Rect& world = gen.mapping().world();
  std::vector<Vec2> pos;
  std::vector<Vec2> normal;
  for (std::size_t k = line.seed_index % static_cast<std::size_t>(substeps);
       k < line.size(); k += static_cast<std::size_t>(substeps)) {
    const auto [px, py] = gen.mapping().map(line.points[k]);
    const Vec2 t{line.tangents[k].x * (c.texture_width / world.width()),
                 -line.tangents[k].y * (c.texture_height / world.height())};
    const double len = t.length();
    pos.push_back({px, py});
    normal.push_back(len > 1e-12 ? t.perp() / len : Vec2{0.0, 1.0});
  }

  render::CommandBuffer out;
  const auto intensity = static_cast<float>(spot.intensity * c.intensity_scale);
  if (pos.size() < 2) {
    const auto [px, py] = gen.mapping().map(spot.position);
    const auto h = static_cast<float>(c.spot_radius_px);
    const auto cx = static_cast<float>(px);
    const auto cy = static_cast<float>(py);
    auto v = out.add_mesh(intensity, 2, 2);
    v[0] = {cx - h, cy - h, 0.0f, 0.0f};
    v[1] = {cx + h, cy - h, 1.0f, 0.0f};
    v[2] = {cx - h, cy + h, 0.0f, 1.0f};
    v[3] = {cx + h, cy + h, 1.0f, 1.0f};
    return out;
  }
  const int n = static_cast<int>(pos.size());
  auto v = out.add_mesh(intensity, n, rows);
  const double width_px = 2.0 * c.spot_radius_px;
  for (int j = 0; j < rows; ++j) {
    const double across = (static_cast<double>(j) / (rows - 1) - 0.5) * width_px;
    for (int i = 0; i < n; ++i) {
      const Vec2 p = pos[static_cast<std::size_t>(i)] +
                     normal[static_cast<std::size_t>(i)] * across;
      v[static_cast<std::size_t>(j * n + i)] = {
          static_cast<float>(p.x), static_cast<float>(p.y),
          static_cast<float>(i) / static_cast<float>(n - 1),
          static_cast<float>(j) / static_cast<float>(rows - 1)};
    }
  }
  return out;
}

bool same_bytes(const render::CommandBuffer& a, const render::CommandBuffer& b) {
  if (a.mesh_count() != 1 || b.mesh_count() != 1) return false;
  const auto& ha = a.meshes()[0];
  const auto& hb = b.meshes()[0];
  if (ha.cols != hb.cols || ha.rows != hb.rows || ha.intensity != hb.intensity) {
    return false;
  }
  const auto va = a.vertices_of(ha);
  const auto vb = b.vertices_of(hb);
  return std::memcmp(va.data(), vb.data(), va.size_bytes()) == 0;
}

TEST(SpotGeometry, BentMeshEqualsMeshFromWholeTrace) {
  // generate() and StreamlineTracer::trace record the same march two ways
  // (a fixed spine array vs whole vectors); the meshes must agree byte for
  // byte, including where a trace stops early.
  struct Case {
    const char* name;
    std::unique_ptr<field::VectorField> field;
  };
  const Rect square{0, 0, 256, 256};
  std::vector<Case> cases;
  cases.push_back({"vortex", field::analytic::rankine_vortex({128, 128}, 800.0, 30.0,
                                                             square)});
  cases.push_back({"uniform", field::analytic::uniform({1.0, 0.3}, square)});
  // Seeds near the left/right edges: upstream or downstream leaves the
  // domain within a few steps.
  cases.push_back(
      {"domain exit", field::analytic::uniform({1.0, 0.0}, Rect{0, 0, 24, 256})});
  // Flow that stops dead at x = 128: downstream marches stagnate there, and
  // seeds beyond it fall back to point spots.
  cases.push_back({"stagnation", std::make_unique<field::CallableField>(
                                     [](Vec2 p) {
                                       return p.x < 128.0 ? Vec2{1.0, 0.2} : Vec2{};
                                     },
                                     square, 1.02)});
  for (const Case& c : cases) {
    for (const int substeps : {1, 4, 14}) {
      auto config = base_config();
      config.kind = core::SpotKind::kBent;
      config.spot_radius_px = 3.0;
      config.bent.mesh_cols = 16;
      config.bent.mesh_rows = 3;
      config.bent.length_px = 40.0;
      config.bent.trace_substeps = substeps;
      const core::SpotGeometryGenerator gen(config, *c.field);
      util::Rng rng(31);
      const Rect d = c.field->domain();
      for (int k = 0; k < 60; ++k) {
        const core::SpotInstance spot{{rng.uniform(d.x0, d.x1), rng.uniform(d.y0, d.y1)},
                                      rng.uniform(-1.0, 1.0)};
        render::CommandBuffer generated;
        gen.generate(spot, generated);
        EXPECT_TRUE(same_bytes(generated, bent_from_trace(gen, *c.field, spot)))
            << c.name << ", substeps " << substeps << ", spot " << k;
      }
    }
  }
}

TEST(SpotGeometry, BentGenerateAllocatesNothing) {
  auto config = base_config();
  config.kind = core::SpotKind::kBent;
  config.spot_radius_px = 3.0;
  config.bent.mesh_cols = 16;
  config.bent.mesh_rows = 3;
  config.bent.length_px = 22.0;
  config.bent.trace_substeps = 4;
  const Rect domain{0, 0, 4, 4};
  const auto f = field::analytic::rankine_vortex({2, 2}, 1.2, 0.8, domain);
  const core::SpotGeometryGenerator gen(config, *f);
  util::Rng rng(5);
  const auto spots = core::make_random_spots(domain, 200, rng);

  render::CommandBuffer buf;
  buf.reserve(spots.size(), static_cast<std::size_t>(config.vertices_per_spot()));
  // The counter sees this binary's allocations (else the test proves
  // nothing). Called through a volatile pointer so the pair cannot be elided.
  void* (*volatile allocate)(std::size_t) = &::operator new;
  const std::int64_t probe = g_allocations.load();
  ::operator delete(allocate(16));
  ASSERT_GT(g_allocations.load(), probe);

  const std::int64_t before = g_allocations.load();
  for (const core::SpotInstance& spot : spots) gen.generate(spot, buf);
  EXPECT_EQ(g_allocations.load() - before, 0);
  EXPECT_EQ(buf.mesh_count(), spots.size());
  // Ribbons, not point-spot fallbacks.
  EXPECT_GT(buf.quad_count(), static_cast<std::int64_t>(spots.size()));
}

// ------------------------------------------------------------- max extent ---

TEST(SpotGeometry, MaxExtentBoundsGeneratedGeometry) {
  // Property: every vertex of any generated spot lies within max_extent_px
  // of the spot's mapped position. The tiling preprocessor relies on this.
  for (const auto kind :
       {core::SpotKind::kPoint, core::SpotKind::kEllipse, core::SpotKind::kBent}) {
    auto config = base_config();
    config.kind = kind;
    const Rect domain{-128, -128, 128, 128};
    const auto f = field::analytic::rigid_vortex({0, 0}, 1.0, domain);
    const core::SpotGeometryGenerator gen(config, *f);
    const double extent = gen.max_extent_px();
    util::Rng rng(99);
    for (int k = 0; k < 100; ++k) {
      const core::SpotInstance spot{
          {rng.uniform(-128, 128), rng.uniform(-128, 128)}, 1.0};
      render::CommandBuffer buf;
      gen.generate(spot, buf);
      const auto [px, py] = gen.mapping().map(spot.position);
      for (const auto& h : buf.meshes()) {
        for (const auto& v : buf.vertices_of(h)) {
          EXPECT_LE(std::abs(v.x - px), extent + 1e-3);
          EXPECT_LE(std::abs(v.y - py), extent + 1e-3);
        }
      }
    }
  }
}

TEST(SpotGeometry, RejectsInvalidConfig) {
  const auto f = field::analytic::uniform({1, 0}, Rect{0, 0, 1, 1});
  auto bad = base_config();
  bad.spot_radius_px = 0.0;
  EXPECT_THROW(core::SpotGeometryGenerator(bad, *f), util::Error);
  bad = base_config();
  bad.bent.mesh_cols = 1;
  EXPECT_THROW(core::SpotGeometryGenerator(bad, *f), util::Error);
  bad = base_config();
  bad.bent.trace_substeps = 0;
  EXPECT_THROW(core::SpotGeometryGenerator(bad, *f), util::Error);
}

}  // namespace
