// Tests for spot transformation: point, ellipse and bent spot geometry.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <memory>
#include <new>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/spot_geometry.hpp"
#include "field/analytic.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "util/simd_dispatch.hpp"

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

// The bent mesh built the long way round from a whole polyline through the
// spot: every substeps-th point from the seed mapped to pixels and swept
// across — or, with fewer than two spine points, the point-spot fallback.
render::CommandBuffer bent_from_line(const core::SpotGeometryGenerator& gen,
                                     const particles::Streamline& line,
                                     const core::SpotInstance& spot) {
  const core::SynthesisConfig& c = gen.config();
  const int rows = c.bent.mesh_rows;
  const int substeps = c.bent.trace_substeps;
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

// The polyline from StreamlineTracer::trace.
render::CommandBuffer bent_from_trace(const core::SpotGeometryGenerator& gen,
                                      const field::VectorField& f,
                                      const core::SpotInstance& spot) {
  const int cols = gen.config().bent.mesh_cols;
  const int substeps = gen.config().bent.trace_substeps;
  const int fwd = (cols - 1) / 2;
  const int bwd = (cols - 1) - fwd;
  return bent_from_line(
      gen, gen.tracer().trace(f, spot.position, fwd * substeps, bwd * substeps), spot);
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

// ----------------------------------------- lane groups vs a scalar oracle ---

// An independent one-lane tracer: particles::step_from on field::Vec2 with
// the unit-speed rule written out — none of StreamlineTracer's lane code.
// Returns the polyline trace() would (upstream -> seed -> downstream).
particles::Streamline oracle_trace(const field::VectorField& f,
                                   const particles::TracerConfig& tc, Vec2 seed,
                                   int steps_forward, int steps_backward) {
  struct UnitSpeed {
    const field::VectorField& f;
    double direction;
    double stagnation;
    [[nodiscard]] Vec2 sample(Vec2 p) const {
      const Vec2 v = f.sample(p);
      const double len = std::sqrt(v.x * v.x + v.y * v.y);
      if (len < stagnation) return {};
      return v * (direction / len);
    }
  };
  const auto march = [&](double direction, int steps) {
    const UnitSpeed unit{f, direction, tc.stagnation_speed};
    std::vector<std::pair<Vec2, Vec2>> out;
    Vec2 p = seed;
    Vec2 slope = unit.sample(seed);
    for (int k = 0; k < steps && slope.length_sq() != 0.0; ++k) {
      const Vec2 next = particles::step_from(unit, p, slope, tc.step_length, tc.method);
      if (!f.domain().contains(next) || (next - p).length_sq() == 0.0) break;
      p = next;
      slope = unit.sample(p);
      out.push_back({p, slope * direction});
    }
    return out;
  };
  const auto down = march(1.0, steps_forward);
  const auto up = march(-1.0, steps_backward);
  const Vec2 v = f.sample(seed);
  const double speed = v.length();
  particles::Streamline line;
  for (auto it = up.rbegin(); it != up.rend(); ++it) {
    line.points.push_back(it->first);
    line.tangents.push_back(it->second);
  }
  line.seed_index = line.points.size();
  line.points.push_back(seed);
  line.tangents.push_back(speed >= tc.stagnation_speed ? v / speed : Vec2{1.0, 0.0});
  for (const auto& [point, tangent] : down) {
    line.points.push_back(point);
    line.tangents.push_back(tangent);
  }
  return line;
}

bool same_meshes(const render::CommandBuffer& a, std::size_t a_first,
                 const render::CommandBuffer& b) {
  if (a.mesh_count() - a_first != b.mesh_count()) return false;
  for (std::size_t m = 0; m < b.mesh_count(); ++m) {
    const auto& ha = a.meshes()[a_first + m];
    const auto& hb = b.meshes()[m];
    if (ha.cols != hb.cols || ha.rows != hb.rows || ha.intensity != hb.intensity) {
      return false;
    }
    const auto va = a.vertices_of(ha);
    const auto vb = b.vertices_of(hb);
    if (std::memcmp(va.data(), vb.data(), va.size_bytes()) != 0) return false;
  }
  return true;
}

struct LaneCase {
  std::string name;
  std::unique_ptr<field::VectorField> field;
  std::vector<Vec2> seeds;  ///< hand-placed seeds; random ones are added
  std::optional<Rect> window;
};

std::vector<LaneCase> lane_cases() {
  const Rect square{0, 0, 256, 256};
  std::vector<LaneCase> cases;
  // The vortex center takes Rankine's dist < 1e-12 branch; a seed 1e-13 off
  // center too. Just off center the unit-speed rule's stagnation cutoff
  // (|v| < 1e-9) stops the march; seeds in the core and outside it bend.
  cases.push_back({"rankine",
                   field::analytic::rankine_vortex({128, 128}, 800.0, 30.0, square),
                   {{128, 128}, {128 + 1e-13, 128}, {128, 128 + 2e-10}, {140, 128},
                    {128, 100}, {200, 60}},
                   std::nullopt});
  cases.push_back(
      {"uniform", field::analytic::uniform({1.0, 0.3}, square), {}, std::nullopt});
  // A 16-unit strip under ~21-unit spines: seeds near x = 0 leave
  // upstream, near x = 16 downstream, mid-strip both ways.
  cases.push_back({"domain exit",
                   field::analytic::uniform({1.0, 0.0}, Rect{0, 0, 16, 256}),
                   {{0.5, 40}, {15.5, 80}, {8, 120}, {0, 10}, {16, 20}},
                   std::nullopt});
  cases.push_back(
      {"shear", field::analytic::shear(0.02, square), {{17, 128}}, std::nullopt});
  cases.push_back({"rigid vortex", field::analytic::rigid_vortex({128, 128}, 0.3, square),
                   {{128, 128}, {128, 160}}, std::nullopt});
  cases.push_back({"saddle", field::analytic::saddle({128, 128}, 0.01, square),
                   {{128, 128}, {128, 140}, {140, 128}}, std::nullopt});
  cases.push_back({"separation", field::analytic::separation(128, 0.01, square),
                   {{128, 128}, {128, 30}}, std::nullopt});
  cases.push_back({"double gyre", field::analytic::double_gyre(0.1, 0.25, 6.28, 0.3),
                   {{1.0, 0.5}}, std::nullopt});
  cases.push_back({"taylor-green", field::analytic::taylor_green(1.0, square),
                   {{128, 128}}, std::nullopt});
  // CallableField keeps the default sample_lanes loop. The flow stops dead
  // on 128 <= x <= 1e17 (stagnation); around (1e18, 1e18) a step is
  // smaller than half an ulp of either coordinate, so the first step makes
  // no progress. The window keeps the mapping and the step length sane.
  cases.push_back({"callable",
                   std::make_unique<field::CallableField>(
                       [](Vec2 p) {
                         return p.x < 128.0 || p.x > 1e17 ? Vec2{1.0, 0.2} : Vec2{};
                       },
                       Rect{0, 0, 2e18, 2e18}, 1.02),
                   {{1e18, 1e18}, {1e18 + 256, 1e18 - 256}, {127.5, 128}, {200, 128}},
                   square});
  return cases;
}

TEST(SpotGeometryLanes, GroupsMatchScalarOracleOnEveryTier) {
  // Partial and full groups of every field type, on every SIMD tier,
  // against the oracle: every vertex byte of every mesh.
  const util::simd::Tier ambient = util::simd::active_tier();
  const std::vector<LaneCase> cases = lane_cases();
  for (const util::simd::Tier tier : util::simd::available_tiers()) {
    util::simd::set_active_tier(tier);
    for (const LaneCase& c : cases) {
      for (int substeps = 1; substeps <= 24; ++substeps) {
        // Two columns, odd, even and the 256-column maximum.
        const int cols =
            std::array{2, 9, 16, 256}[static_cast<std::size_t>(substeps % 4)];
        auto config = base_config();
        config.kind = core::SpotKind::kBent;
        config.spot_radius_px = 3.0;
        config.bent.mesh_cols = cols;
        config.bent.mesh_rows = 3;
        config.bent.length_px = 40.0;
        config.bent.trace_substeps = substeps;
        config.window = c.window;
        const core::SpotGeometryGenerator gen(config, *c.field);
        util::Rng rng(static_cast<std::uint64_t>(substeps));
        const Rect d = c.window.value_or(c.field->domain());
        std::vector<core::SpotInstance> spots;
        for (const Vec2& seed : c.seeds) spots.push_back({seed, rng.uniform(-1.0, 1.0)});
        while (spots.size() < 14) {
          spots.push_back({{rng.uniform(d.x0, d.x1), rng.uniform(d.y0, d.y1)},
                           rng.uniform(-1.0, 1.0)});
        }
        const int fwd = (cols - 1) / 2;
        const int bwd = (cols - 1) - fwd;
        // Groups of 1, 2, 3, 4, 1, 2, ... spots.
        std::size_t first = 0;
        for (std::size_t size = 1; first < spots.size(); size = size % 4 + 1) {
          const std::size_t count = std::min(size, spots.size() - first);
          std::vector<const core::SpotInstance*> group;
          for (std::size_t i = 0; i < count; ++i) group.push_back(&spots[first + i]);
          render::CommandBuffer generated;
          gen.generate_group(group, generated);
          render::CommandBuffer expected;
          for (const core::SpotInstance* spot : group) {
            const auto line = oracle_trace(*c.field, gen.tracer().config(),
                                           spot->position, fwd * substeps,
                                           bwd * substeps);
            const render::CommandBuffer one = bent_from_line(gen, line, *spot);
            const auto& h = one.meshes()[0];
            const auto v = one.vertices_of(h);
            auto out = expected.add_mesh(h.intensity, h.cols, h.rows);
            std::copy(v.begin(), v.end(), out.begin());
          }
          EXPECT_TRUE(same_meshes(generated, 0, expected))
              << util::simd::tier_name(tier) << ", " << c.name << ", cols " << cols
              << ", substeps " << substeps << ", group at spot " << first << " of "
              << count;
          first += count;
        }
      }
    }
  }
  util::simd::set_active_tier(ambient);
}

TEST(SpotGeometryLanes, SampleLanesMatchesSampleOnEveryTier) {
  // sample_lanes of every built-in field, over a full batch and over a
  // one-spot march's two lanes, equals sample() bit for bit.
  const util::simd::Tier ambient = util::simd::active_tier();
  const std::vector<LaneCase> cases = lane_cases();
  util::Rng rng(17);
  for (const util::simd::Tier tier : util::simd::available_tiers()) {
    util::simd::set_active_tier(tier);
    for (const LaneCase& c : cases) {
      const Rect d = c.field->domain();
      for (int round = 0; round < 50; ++round) {
        double x[8], y[8], u[8], v[8];
        for (int i = 0; i < 8; ++i) {
          const auto at = static_cast<std::size_t>(i);
          const bool seeded = at < c.seeds.size() && round == 0;
          x[i] = seeded ? c.seeds[at].x : rng.uniform(d.x0 - 1.0, d.x1 + 1.0);
          y[i] = seeded ? c.seeds[at].y : rng.uniform(d.y0 - 1.0, d.y1 + 1.0);
        }
        for (const std::size_t n : {std::size_t{8}, std::size_t{2}}) {
          const auto all = static_cast<std::uint32_t>((1u << n) - 1u);
          c.field->sample_lanes(x, y, u, v, n, all);
          for (std::size_t i = 0; i < n; ++i) {
            const Vec2 s = c.field->sample({x[i], y[i]});
            EXPECT_EQ(std::memcmp(&s.x, &u[i], sizeof(double)), 0)
                << util::simd::tier_name(tier) << ", " << c.name << ", lane " << i;
            EXPECT_EQ(std::memcmp(&s.y, &v[i], sizeof(double)), 0)
                << util::simd::tier_name(tier) << ", " << c.name << ", lane " << i;
          }
        }
      }
    }
  }
  util::simd::set_active_tier(ambient);
}

TEST(SpotGeometryLanes, DefaultSampleLanesSamplesOnlyActiveLanes) {
  // A field without an override sees one sample() per active lane, in lane
  // order — a lane the march has stopped costs nothing.
  std::vector<double> seen;
  const field::CallableField f(
      [&seen](Vec2 p) {
        seen.push_back(p.x);
        return Vec2{p.x, -p.x};
      },
      Rect{0, 0, 8, 8}, 1.0);
  const double x[8] = {0, 1, 2, 3, 4, 5, 6, 7};
  const double y[8] = {};
  double u[8] = {};
  double v[8] = {};
  f.sample_lanes(x, y, u, v, 8, 0b10100110u);
  EXPECT_EQ(seen, (std::vector<double>{1, 2, 5, 7}));
  EXPECT_EQ(u[5], 5.0);
  EXPECT_EQ(v[7], -7.0);
  EXPECT_EQ(u[0], 0.0);  // skipped lanes untouched
}

TEST(SpotGeometryLanes, GroupGenerateAllocatesNothing) {
  // The lane-group path, on every tier, like BentGenerateAllocatesNothing.
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
  const auto spots = core::make_random_spots(domain, 201, rng);
  const util::simd::Tier ambient = util::simd::active_tier();
  for (const util::simd::Tier tier : util::simd::available_tiers()) {
    util::simd::set_active_tier(tier);
    render::CommandBuffer buf;
    buf.reserve(spots.size(), static_cast<std::size_t>(config.vertices_per_spot()));
    const std::int64_t before = g_allocations.load();
    gen.generate_all(spots, buf);
    EXPECT_EQ(g_allocations.load() - before, 0) << util::simd::tier_name(tier);
    EXPECT_EQ(buf.mesh_count(), spots.size());
  }
  util::simd::set_active_tier(ambient);
}

TEST(SpotGeometryLanes, PoisonedFieldFailsMidGroup) {
  // A field that throws on the third sample of a group propagates out of
  // generate_group: the caller's frame fails.
  int calls = 0;
  const field::CallableField poisoned(
      [&calls](Vec2) {
        if (++calls == 3) throw std::runtime_error("poisoned sample");
        return Vec2{1.0, 0.0};
      },
      Rect{0, 0, 256, 256}, 1.0);
  auto config = base_config();
  config.kind = core::SpotKind::kBent;
  const core::SpotGeometryGenerator gen(config, poisoned);
  const std::vector<core::SpotInstance> spots(4, {{128.0, 128.0}, 1.0});
  render::CommandBuffer buf;
  EXPECT_THROW(gen.generate_all(spots, buf), std::runtime_error);
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

TEST(SpotGeometry, RejectsMeshBeyondCaps) {
  // The caps the wire decoder also enforces: each limit builds, limit + 1
  // throws at construction, never per spot.
  using Bent = core::BentSpotParams;
  const auto f = field::analytic::uniform({1, 0}, Rect{0, 0, 1, 1});
  auto config = base_config();
  config.kind = core::SpotKind::kBent;
  config.bent.mesh_cols = Bent::kMaxMeshCols;
  config.bent.mesh_rows = Bent::kMaxMeshRows;
  config.bent.trace_substeps = Bent::kMaxTraceSubsteps;
  EXPECT_NO_THROW(core::SpotGeometryGenerator(config, *f));
  auto bad = config;
  bad.bent.mesh_cols = Bent::kMaxMeshCols + 1;
  EXPECT_THROW(core::SpotGeometryGenerator(bad, *f), util::Error);
  bad = config;
  bad.bent.mesh_rows = Bent::kMaxMeshRows + 1;
  EXPECT_THROW(core::SpotGeometryGenerator(bad, *f), util::Error);
  bad = config;
  bad.bent.trace_substeps = Bent::kMaxTraceSubsteps + 1;
  EXPECT_THROW(core::SpotGeometryGenerator(bad, *f), util::Error);
  bad.bent.trace_substeps = std::numeric_limits<int>::max();
  EXPECT_THROW(core::SpotGeometryGenerator(bad, *f), util::Error);
}

}  // namespace
