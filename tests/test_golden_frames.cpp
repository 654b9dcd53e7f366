// Golden-frame regression: canonical scenes rendered through the full
// engine, fingerprinted with util::fnv1a over the width, the height and the
// raw float pixels (in that order), and compared against hashes checked in
// under tests/golden/. The fingerprint is computed here rather than through
// Framebuffer::content_hash, which uses the faster util::lane_hash: the
// checked-in files pin this FNV fingerprint, so a change to the wire hash
// never touches them.
//
// This only works because the engine is bit-deterministic for a fixed
// configuration (see test_determinism.cpp): reruns, thread interleavings
// and steal schedules cannot move a single bit. The hashes ARE
// toolchain-sensitive — a different libm or vectorization strategy may
// round differently — so goldens are regenerated, not hand-edited, when
// the build environment changes:
//
//   ./build/tests/test_golden_frames --update-goldens
//
// (documented in docs/TESTING.md). A missing golden file FAILS the test —
// never silently skips — so a fresh checkout cannot pass vacuously;
// scripts/verify.sh --golden additionally checks the files exist before
// running.
//
// The scene matrix deliberately crosses both raster algorithms and both
// tile strategies with the three field families (analytic, curvilinear,
// volume slice) and all three spot kinds.
//
// ctest label: golden.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "core/dnc_synthesizer.hpp"
#include "core/spot_source.hpp"
#include "field/analytic.hpp"
#include "field/curvilinear.hpp"
#include "field/volume.hpp"
#include "render/framebuffer.hpp"
#include "util/hash.hpp"
#include "util/rng.hpp"

#ifndef DCSN_GOLDEN_DIR
#error "build must define DCSN_GOLDEN_DIR (see tests/CMakeLists.txt)"
#endif

namespace {

using namespace dcsn;
using core::DncConfig;
using core::DncSynthesizer;
using core::SynthesisConfig;
using core::TileStrategy;
using render::RasterAlgorithm;

bool g_update_goldens = false;

std::string golden_path(const std::string& scene) {
  return std::string(DCSN_GOLDEN_DIR) + "/" + scene + ".golden";
}

std::string hex64(std::uint64_t h) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

std::uint64_t golden_fingerprint(const render::Framebuffer& fb) {
  const int width = fb.width();
  const int height = fb.height();
  std::uint64_t h = util::fnv1a(&width, sizeof width);
  h = util::fnv1a(&height, sizeof height, h);
  return util::fnv1a(fb.pixels().data(), fb.byte_size(), h);
}

// Renders a scene and checks (or rewrites) its golden hash.
void check_scene(const std::string& scene, const field::VectorField& f,
                 const SynthesisConfig& sc, const DncConfig& dnc) {
  util::Rng rng(20260730);
  auto spots = core::make_random_spots(f.domain(), sc.spot_count, rng);
  for (auto& s : spots) s.intensity *= 0.2;

  DncSynthesizer engine(sc, dnc);
  // Two frames: the second exercises warm pipe state and (for
  // kCostBalanced) the settled tile layout, which is what animation runs
  // actually hash like.
  engine.synthesize(f, spots);
  engine.synthesize(f, spots);
  const std::string actual = hex64(golden_fingerprint(engine.texture()));

  const std::string path = golden_path(scene);
  if (g_update_goldens) {
    std::ofstream out(path);
    ASSERT_TRUE(out.good()) << "cannot write " << path;
    out << actual << "\n";
    std::printf("updated %s = %s\n", scene.c_str(), actual.c_str());
    return;
  }

  std::ifstream in(path);
  ASSERT_TRUE(in.good())
      << "missing golden file " << path
      << " — run ./build/tests/test_golden_frames --update-goldens";
  std::string expected;
  in >> expected;
  EXPECT_EQ(expected, actual)
      << "frame hash changed for scene '" << scene
      << "'. If the rendering change is intentional (or the toolchain "
         "changed), regenerate with --update-goldens and review the diff.";
}

SynthesisConfig base_synthesis(core::SpotKind kind) {
  SynthesisConfig sc;
  sc.texture_width = 96;
  sc.texture_height = 96;
  sc.spot_count = 250;
  sc.spot_radius_px = 6.0;
  sc.kind = kind;
  sc.bent.mesh_cols = 8;
  sc.bent.mesh_rows = 3;
  sc.bent.length_px = 20.0;
  return sc;
}

DncConfig config(int pipes, bool tiled, TileStrategy strategy,
                 RasterAlgorithm algo) {
  DncConfig dnc;
  dnc.processors = 2 * pipes;
  dnc.pipes = pipes;
  dnc.chunk_spots = 16;
  dnc.tiled = tiled;
  dnc.tile_strategy = strategy;
  dnc.raster_algorithm = algo;
  return dnc;
}

// ----------------------------------------------------------- the scenes ---

TEST(GoldenFrames, VortexEllipseContiguousSpan) {
  const field::Rect domain{0.0, 0.0, 4.0, 4.0};
  const auto f = field::analytic::rankine_vortex({2.0, 2.0}, 1.5, 1.0, domain);
  check_scene("vortex_ellipse_contiguous_span", *f,
              base_synthesis(core::SpotKind::kEllipse),
              config(2, false, TileStrategy::kGrid, RasterAlgorithm::kSpan));
}

TEST(GoldenFrames, ShearPointTiledGridSpan) {
  const field::Rect domain{0.0, 0.0, 4.0, 4.0};
  const auto f = field::analytic::shear(0.8, domain);
  check_scene("shear_point_tiled_grid_span", *f,
              base_synthesis(core::SpotKind::kPoint),
              config(4, true, TileStrategy::kGrid, RasterAlgorithm::kSpan));
}

TEST(GoldenFrames, BentGridBentCostBalancedSpan) {
  // Curvilinear bent grid: a sheared mesh carrying diagonal flow, sampled
  // through the Newton cell inversion.
  auto grid = field::CurvilinearGrid::from_mapping(13, 11, [](int i, int j) {
    return field::Vec2{i + 0.4 * j, static_cast<double>(j)};
  });
  field::CurvilinearVectorField f(std::move(grid));
  f.fill([](field::Vec2 p) { return field::Vec2{0.5 + 0.1 * p.y, 0.3}; });
  check_scene("bentgrid_bent_costbalanced_span", f,
              base_synthesis(core::SpotKind::kBent),
              config(2, true, TileStrategy::kCostBalanced, RasterAlgorithm::kSpan));
}

TEST(GoldenFrames, VolumeSliceEllipseContiguousReference) {
  const auto volume = field::analytic3d::abc_flow(1.0, 0.7, 0.43, 12);
  const auto slice =
      field::extract_slice(volume, field::SliceAxis::kZ, 3.14159, 24, 24);
  check_scene("volume_slice_ellipse_contiguous_reference", slice,
              base_synthesis(core::SpotKind::kEllipse),
              config(2, false, TileStrategy::kGrid, RasterAlgorithm::kReference));
}

TEST(GoldenFrames, VortexBentContiguousSpan) {
  const field::Rect domain{0.0, 0.0, 4.0, 4.0};
  const auto f = field::analytic::rankine_vortex({2.0, 2.0}, 1.5, 1.0, domain);
  check_scene("vortex_bent_contiguous_span", *f,
              base_synthesis(core::SpotKind::kBent),
              config(2, false, TileStrategy::kGrid, RasterAlgorithm::kSpan));
}

TEST(GoldenFrames, ShearEllipseCostBalancedReference) {
  const field::Rect domain{0.0, 0.0, 4.0, 4.0};
  const auto f = field::analytic::shear(0.8, domain);
  check_scene("shear_ellipse_costbalanced_reference", *f,
              base_synthesis(core::SpotKind::kEllipse),
              config(4, true, TileStrategy::kCostBalanced,
                     RasterAlgorithm::kReference));
}

}  // namespace

// Custom main: strips --update-goldens before gtest parses the rest.
int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--update-goldens") {
      g_update_goldens = true;
      for (int j = i; j + 1 < argc; ++j) argv[j] = argv[j + 1];
      --argc;
      break;
    }
  }
  ::testing::InitGoogleTest(&argc, argv);
  return RUN_ALL_TESTS();
}
