// Cross-configuration determinism of the synthesis engine.
//
// The engine accumulates spot contributions in whatever order the scheduler
// produces: slave interleaving, work stealing, chunk arrival, pipe count and
// tile layout all vary the additions. Two mechanisms make the result exact
// anyway (see render/rasterizer.hpp and util/simd.hpp):
//
//   * rasterization is target-independent — a fragment's coverage and value
//     are pure functions of the triangle and the global pixel, identical
//     whether rendered by a full-texture pipe or any tile containing it;
//   * every contribution is snapped to the contribution lattice before
//     blending, so additive accumulation is exactly associative and
//     commutative — any order or grouping of the sums gives the same bits.
//
// These tests assert the consequence: the same SynthesisConfig seed and
// spot set produce BIT-IDENTICAL textures across worker counts, pipe
// counts, contiguous vs tiled mode, both tile strategies, and with work
// stealing forced on — and across repeated runs of the same configuration,
// which is what the golden-frame suite depends on. No tolerance anywhere:
// Framebuffer::operator== compares every float for equality.
//
// One deliberate exception: the two RasterAlgorithms produce bit-identical
// *coverage* but not bit-identical fragment values (the span kernel's
// affine UV evaluation rounds differently from the reference's barycentric
// floats — see test_rasterizer.cpp). Determinism therefore holds per
// algorithm. The engine always rasterizes with kSpan; the reference walk is
// checked at the rasterizer level, where RasterTarget::algorithm selects it.
#include <gtest/gtest.h>

#include <memory>
#include <thread>
#include <vector>

#include "core/dnc_synthesizer.hpp"
#include "core/runtime.hpp"
#include "core/serial_synthesizer.hpp"
#include "core/spot_geometry.hpp"
#include "core/spot_source.hpp"
#include "core/tile_store.hpp"
#include "field/analytic.hpp"
#include "render/rasterizer.hpp"
#include "util/rng.hpp"

namespace {

using namespace dcsn;
using core::DncConfig;
using core::DncSynthesizer;
using core::SynthesisConfig;
using core::TileStrategy;

struct Scene {
  std::unique_ptr<field::VectorField> field;
  std::vector<core::SpotInstance> spots;
  SynthesisConfig synthesis;
};

Scene make_scene(core::SpotKind kind, std::int64_t spots = 300) {
  Scene s;
  const field::Rect domain{0.0, 0.0, 4.0, 4.0};
  s.field = field::analytic::rankine_vortex({2.0, 2.0}, 1.5, 1.0, domain);
  s.synthesis.texture_width = 96;
  s.synthesis.texture_height = 96;
  s.synthesis.spot_count = spots;
  s.synthesis.spot_radius_px = 6.0;
  s.synthesis.kind = kind;
  s.synthesis.bent.mesh_cols = 8;
  s.synthesis.bent.mesh_rows = 3;
  s.synthesis.bent.length_px = 18.0;
  util::Rng rng(1234);
  s.spots = core::make_random_spots(domain, spots, rng);
  for (auto& spot : s.spots) spot.intensity *= 0.2;
  return s;
}

render::Framebuffer run(const Scene& scene, const DncConfig& dnc) {
  DncSynthesizer engine(scene.synthesis, dnc);
  engine.synthesize(*scene.field, scene.spots);
  return engine.texture();
}

DncConfig base_config() {
  DncConfig dnc;
  dnc.processors = 4;
  dnc.pipes = 2;
  dnc.chunk_spots = 16;  // small chunks: many scheduling decisions per frame
  dnc.steal = true;
  return dnc;
}

// --------------------------------------------------------------- reruns ---

TEST(Determinism, RepeatedRunsAreBitIdentical) {
  const Scene scene = make_scene(core::SpotKind::kEllipse);
  const DncConfig dnc = base_config();
  const render::Framebuffer first = run(scene, dnc);
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(first, run(scene, dnc)) << "rerun " << i;
  }
}

TEST(Determinism, RepeatedTiledRunsAreBitIdentical) {
  const Scene scene = make_scene(core::SpotKind::kEllipse);
  DncConfig dnc = base_config();
  dnc.tiled = true;
  dnc.pipes = 4;
  const render::Framebuffer first = run(scene, dnc);
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(first, run(scene, dnc)) << "rerun " << i;
  }
}

// ----------------------------------------------------------- pipe count ---

TEST(Determinism, PipeCountDoesNotChangeBits) {
  const Scene scene = make_scene(core::SpotKind::kEllipse);
  DncConfig dnc = base_config();
  dnc.pipes = 1;
  dnc.processors = 4;
  const render::Framebuffer one = run(scene, dnc);
  for (const int pipes : {2, 4}) {
    dnc.pipes = pipes;
    EXPECT_EQ(one, run(scene, dnc)) << pipes << " pipes";
  }
}

TEST(Determinism, WorkerCountDoesNotChangeBits) {
  const Scene scene = make_scene(core::SpotKind::kBent);
  DncConfig dnc = base_config();
  dnc.pipes = 1;
  dnc.processors = 1;
  const render::Framebuffer serial = run(scene, dnc);
  for (const int processors : {2, 4, 8}) {
    dnc.processors = processors;
    EXPECT_EQ(serial, run(scene, dnc)) << processors << " processors";
  }
}

// ------------------------------------------------------ mode / strategy ---

TEST(Determinism, ContiguousAndTiledModesMatchBitwise) {
  const Scene scene = make_scene(core::SpotKind::kEllipse);
  DncConfig dnc = base_config();
  dnc.pipes = 4;
  const render::Framebuffer contiguous = run(scene, dnc);
  dnc.tiled = true;
  dnc.tile_strategy = TileStrategy::kGrid;
  EXPECT_EQ(contiguous, run(scene, dnc)) << "tiled grid";
  dnc.tile_strategy = TileStrategy::kCostBalanced;
  EXPECT_EQ(contiguous, run(scene, dnc)) << "tiled cost-balanced";
}

TEST(Determinism, TileStrategyDoesNotChangeBits) {
  // Bent spots give the kd-cut non-uniform weights, so the two strategies
  // produce genuinely different tile rectangles — and identical textures.
  const Scene scene = make_scene(core::SpotKind::kBent);
  DncConfig dnc = base_config();
  dnc.tiled = true;
  dnc.pipes = 4;
  dnc.tile_strategy = TileStrategy::kGrid;
  const render::Framebuffer grid = run(scene, dnc);
  dnc.tile_strategy = TileStrategy::kCostBalanced;
  EXPECT_EQ(grid, run(scene, dnc));
}

// ---------------------------------------------------------------- steal ---

TEST(Determinism, WorkStealingDoesNotChangeBits) {
  // Clustered intensities skew the even split, so stealing really happens
  // (the scheduling suite asserts that); here we assert it cannot show up
  // in the pixels.
  const Scene scene = make_scene(core::SpotKind::kBent);
  DncConfig dnc = base_config();
  dnc.pipes = 2;
  dnc.processors = 6;
  dnc.steal = false;
  const render::Framebuffer unstolen = run(scene, dnc);
  dnc.steal = true;
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(unstolen, run(scene, dnc)) << "steal rerun " << i;
  }
  DncConfig tiled = dnc;
  tiled.tiled = true;
  EXPECT_EQ(unstolen, run(scene, tiled)) << "tiled + steal";
}

// --------------------------------------------- serial synthesizer oracle ---

TEST(Determinism, SerialSynthesizerMatchesEngineBitwise) {
  // The 1991 serial algorithm and the parallel engine now agree exactly,
  // not just within a summation-order tolerance: same geometry, same
  // target-independent rasterization, same lattice sums.
  const Scene scene = make_scene(core::SpotKind::kEllipse);
  core::SerialSynthesizer serial(scene.synthesis);
  serial.synthesize(*scene.field, scene.spots, 1);
  EXPECT_EQ(serial.texture(), run(scene, base_config()));
}

TEST(Determinism, SerialThreadCountDoesNotChangeBits) {
  const Scene scene = make_scene(core::SpotKind::kEllipse);
  core::SerialSynthesizer one(scene.synthesis);
  one.synthesize(*scene.field, scene.spots, 1);
  for (const int threads : {2, 4}) {
    core::SerialSynthesizer many(scene.synthesis);
    many.synthesize(*scene.field, scene.spots, threads);
    EXPECT_EQ(one.texture(), many.texture()) << threads << " threads";
  }
}

// ------------------------------------------------------ reference walk ---

TEST(Determinism, ReferenceAlgorithmIsDeterministicToo) {
  // The invariants are algorithm-independent; pin them for the bbox walk on
  // one scene's geometry: one full target, four tiles with integral origins
  // and the lattice sum of two half-buffer renders give the same bits.
  const Scene scene = make_scene(core::SpotKind::kEllipse);
  const core::SpotGeometryGenerator generator(scene.synthesis, *scene.field);
  const render::SpotProfile profile(scene.synthesis.profile_shape,
                                    scene.synthesis.profile_resolution);
  const auto render_ref = [&](render::Framebuffer& fb, int x0, int y0,
                              std::span<const core::SpotInstance> spots) {
    render::CommandBuffer buffer;
    generator.generate_all(spots, buffer);
    render::RasterStats stats;
    render::rasterize_buffer({fb.pixels(), x0, y0, render::RasterAlgorithm::kReference},
                             buffer, profile, stats);
  };
  const int width = scene.synthesis.texture_width;
  const int height = scene.synthesis.texture_height;
  render::Framebuffer full(width, height);
  render_ref(full, 0, 0, scene.spots);

  // Uneven cuts, so no tile edge sits on the texture's midlines.
  const int cut_x = 37;
  const int cut_y = 58;
  render::Framebuffer stitched(width, height);
  for (const int x0 : {0, cut_x}) {
    for (const int y0 : {0, cut_y}) {
      render::Framebuffer tile(x0 == 0 ? cut_x : width - cut_x,
                               y0 == 0 ? cut_y : height - cut_y);
      render_ref(tile, x0, y0, scene.spots);
      stitched.copy_rect_from(tile, x0, y0);
    }
  }
  EXPECT_EQ(full, stitched) << "four tiles";

  const std::span<const core::SpotInstance> spots(scene.spots);
  const std::size_t half = spots.size() / 2;
  render::Framebuffer sum(width, height);
  render::Framebuffer second(width, height);
  render_ref(sum, 0, 0, spots.first(half));
  render_ref(second, 0, 0, spots.subspan(half));
  sum.accumulate(second);
  EXPECT_EQ(full, sum) << "lattice sum of two half-buffer renders";
}

// ------------------------------------------------ content-addressed cache ---

TEST(Determinism, TileCacheOnOffDoesNotChangeBits) {
  // The content-addressed TileStore (DncConfig::tile_cache) must be
  // bit-invisible: cold frames (publishing), warm frames (every tile served
  // from the store) and uncached frames all produce the same texture —
  // across pipe counts and both tile strategies. Each configuration gets a
  // private Runtime so its store starts cold.
  const Scene scene = make_scene(core::SpotKind::kBent);
  DncConfig dnc = base_config();
  dnc.tiled = true;
  dnc.pipes = 4;
  const render::Framebuffer reference = run(scene, dnc);

  for (const int pipes : {2, 4}) {
    for (const TileStrategy strategy :
         {TileStrategy::kGrid, TileStrategy::kCostBalanced}) {
      core::Runtime runtime({.workers = 4});
      DncConfig cached = dnc;
      cached.pipes = pipes;
      cached.tile_strategy = strategy;
      cached.tile_cache = true;
      DncSynthesizer engine(scene.synthesis, cached, runtime);
      const core::FrameStats cold = engine.synthesize(*scene.field, scene.spots);
      EXPECT_EQ(reference, engine.texture())
          << pipes << " pipes, strategy " << static_cast<int>(strategy)
          << " (cold)";
      EXPECT_EQ(cold.cache_tiles_published, pipes);
      const core::FrameStats warm = engine.synthesize(*scene.field, scene.spots);
      EXPECT_EQ(reference, engine.texture())
          << pipes << " pipes, strategy " << static_cast<int>(strategy)
          << " (warm)";
      EXPECT_EQ(warm.cache_tile_hits, pipes);
    }
  }
}

TEST(Determinism, TileCacheThrashingDoesNotChangeBits) {
  // A store too small for even one frame's tiles: every publish evicts a
  // sibling mid-run and most probes miss. Constant eviction churn must be
  // just as bit-invisible as a perfectly warm cache.
  const Scene scene = make_scene(core::SpotKind::kEllipse);
  DncConfig dnc = base_config();
  dnc.tiled = true;
  dnc.pipes = 4;
  const render::Framebuffer reference = run(scene, dnc);

  // 96x96 over 4 grid tiles = 48x48 tiles of 9216 bytes; budget two tiles
  // across two shards so publishes constantly displace each other.
  core::Runtime runtime(
      {.workers = 4, .tile_cache_bytes = 2 * 48 * 48 * sizeof(float),
       .tile_cache_shards = 2});
  dnc.tile_cache = true;
  DncSynthesizer a(scene.synthesis, dnc, runtime);
  DncSynthesizer b(scene.synthesis, dnc, runtime);
  std::int64_t evictions = 0;
  for (int frame = 0; frame < 4; ++frame) {
    const core::FrameStats sa = a.synthesize(*scene.field, scene.spots);
    const core::FrameStats sb = b.synthesize(*scene.field, scene.spots);
    evictions += sa.cache_evictions + sb.cache_evictions;
    EXPECT_EQ(reference, a.texture()) << "engine a, frame " << frame;
    EXPECT_EQ(reference, b.texture()) << "engine b, frame " << frame;
  }
  EXPECT_GT(evictions, 0) << "budget did not actually thrash";
  EXPECT_LE(runtime.tile_store().stats().bytes,
            runtime.tile_store().stats().budget_bytes);
}

// ------------------------------------------------- cross-session sharing ---

TEST(Determinism, CrossSessionWorkSharingDoesNotChangeBits) {
  // The shared-runtime lattice property: two sessions synthesize
  // concurrently on one Runtime, so pool workers migrate between their
  // frames and a chunk of either scene may be generated by a worker that
  // just served the other session. The per-pixel sums must not care. Solo
  // references first, then three rounds of concurrent frames, every one
  // compared bit for bit.
  const Scene scene_a = make_scene(core::SpotKind::kEllipse, 400);
  const Scene scene_b = make_scene(core::SpotKind::kBent, 250);
  DncConfig dnc_a = base_config();  // contiguous, 2 pipes
  DncConfig dnc_b = base_config();
  dnc_b.tiled = true;  // mixed modes share the same worker pool
  dnc_b.pipes = 4;
  const render::Framebuffer ref_a = run(scene_a, dnc_a);
  const render::Framebuffer ref_b = run(scene_b, dnc_b);

  for (int round = 0; round < 3; ++round) {
    DncSynthesizer engine_a(scene_a.synthesis, dnc_a);
    DncSynthesizer engine_b(scene_b.synthesis, dnc_b);
    {
      std::jthread thread_b([&] {
        for (int frame = 0; frame < 2; ++frame) {
          engine_b.synthesize(*scene_b.field, scene_b.spots);
        }
      });
      for (int frame = 0; frame < 2; ++frame) {
        engine_a.synthesize(*scene_a.field, scene_a.spots);
      }
    }
    EXPECT_EQ(ref_a, engine_a.texture()) << "session A, round " << round;
    EXPECT_EQ(ref_b, engine_b.texture()) << "session B, round " << round;
  }
}

}  // namespace
