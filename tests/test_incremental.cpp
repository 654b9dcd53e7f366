// Temporal-coherence incremental resynthesis: the invariant under test is
// that an incrementally rendered frame is BIT-IDENTICAL to full
// resynthesis, for any sequence of spot births, deaths and moves, with
// cache invalidations forced mid-sequence. Framebuffer::operator== — no
// tolerance.
//
// ctest label: incremental (tests/CMakeLists.txt).
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <memory>
#include <vector>

#include "core/animator.hpp"
#include "core/dnc_synthesizer.hpp"
#include "core/frame_delta.hpp"
#include "core/perf_model.hpp"
#include "core/runtime.hpp"
#include "core/spot_geometry.hpp"
#include "core/spot_source.hpp"
#include "core/synthesis_cache.hpp"
#include "core/tile_store.hpp"
#include "core/tiling.hpp"
#include "field/analytic.hpp"
#include "field/fingerprint.hpp"
#include "particles/particle_system.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "util/simd.hpp"

namespace {

using namespace dcsn;
using core::DncConfig;
using core::DncSynthesizer;
using core::FrameDelta;
using core::SpotInstance;
using core::SynthesisCache;
using core::SynthesisConfig;
using core::Tile;

constexpr field::Rect kDomain{0.0, 0.0, 4.0, 4.0};

std::unique_ptr<field::VectorField> make_field() {
  // Capped swirl: solid rotation inside a compact core, exactly stagnant
  // outside — the slow-flow regime the incremental path targets.
  return std::make_unique<field::CallableField>(
      [](field::Vec2 p) -> field::Vec2 {
        const double dx = p.x - 1.0;
        const double dy = p.y - 1.0;
        if (dx * dx + dy * dy > 0.36) return {0.0, 0.0};
        return {-dy, dx};
      },
      kDomain, 0.6);
}

SynthesisConfig small_synthesis() {
  SynthesisConfig sc;
  sc.texture_width = 64;
  sc.texture_height = 64;
  sc.spot_count = 200;
  sc.spot_radius_px = 5.0;
  // Point spots: a 6px conservative extent, so a spot deep inside a 32px
  // tile really stays inside it. (An ellipse's extent is radius*max_stretch
  // — at this scale every spot would conservatively touch several tiles and
  // the reuse assertions below would be vacuous.)
  sc.kind = core::SpotKind::kPoint;
  return sc;
}

DncConfig tiled_config(int pipes = 4) {
  DncConfig dnc;
  dnc.processors = pipes;
  dnc.pipes = pipes;
  dnc.tiled = true;
  dnc.chunk_spots = 16;
  return dnc;
}

std::vector<SpotInstance> random_spots(util::Rng& rng, std::int64_t count) {
  auto spots = core::make_random_spots(kDomain, count, rng);
  for (auto& s : spots) s.intensity *= 0.2;
  return spots;
}

// --------------------------------------------------------- FrameDelta ---

TEST(FrameDelta, ClassifiesMovesBirthsAndDeaths) {
  util::Rng rng(7);
  std::vector<SpotInstance> prev = random_spots(rng, 10);
  std::vector<SpotInstance> cur = prev;
  cur[3].position.x += 0.25;       // moved
  cur[7].intensity = -cur[7].intensity;  // intensity change counts as moved
  cur.push_back({{1.0, 1.0}, 0.5});      // born
  const FrameDelta delta = core::diff_spots(prev, cur);
  EXPECT_EQ(delta.unchanged, 8);
  EXPECT_EQ(delta.moved, 2);
  EXPECT_EQ(delta.born, 1);
  EXPECT_EQ(delta.died, 0);
  ASSERT_EQ(delta.changed.size(), 2u);
  EXPECT_EQ(delta.changed[0], 3);
  EXPECT_EQ(delta.changed[1], 7);

  const FrameDelta shrunk = core::diff_spots(cur, prev);
  EXPECT_EQ(shrunk.died, 1);
  EXPECT_EQ(shrunk.born, 0);
}

TEST(FrameDelta, NaNPositionIsConservativelyMoved) {
  util::Rng rng(7);
  std::vector<SpotInstance> prev = random_spots(rng, 3);
  std::vector<SpotInstance> cur = prev;
  cur[1].position.x = std::nan("");
  EXPECT_EQ(core::diff_spots(cur, cur).moved, 1);  // NaN != NaN, both frames
  EXPECT_EQ(core::diff_spots(prev, cur).moved, 1);
}

TEST(FrameDelta, DirtyTilesCoverOldAndNewExtent) {
  // Two 32px tiles side by side; a spot moving from the left tile to the
  // right one must dirty both.
  const std::vector<Tile> tiles{{0, 0, 32, 32}, {32, 0, 32, 32}};
  const render::WorldToImage mapping({0.0, 0.0, 64.0, 64.0}, 64, 64);
  std::vector<SpotInstance> prev{{{8.0, 32.0}, 0.5}, {{48.0, 32.0}, 0.5}};
  std::vector<SpotInstance> cur = prev;
  cur[0].position.x = 40.0;  // left -> right
  const FrameDelta delta = core::diff_spots(prev, cur);
  const auto dirty = core::dirty_tiles(delta, prev, cur, mapping, 4.0, tiles);
  EXPECT_EQ(dirty, (std::vector<std::uint8_t>{1, 1}));

  // An unchanged population dirties nothing.
  const FrameDelta none = core::diff_spots(prev, prev);
  const auto clean = core::dirty_tiles(none, prev, prev, mapping, 4.0, tiles);
  EXPECT_EQ(clean, (std::vector<std::uint8_t>{0, 0}));

  // A spot near the boundary dirties both tiles (conservative extent),
  // exactly like assign_spots_to_tiles would assign it to both.
  std::vector<SpotInstance> near = prev;
  near[1].position.x = 30.0;  // extent [26, 34] straddles x = 32
  const FrameDelta moved = core::diff_spots(prev, near);
  const auto both = core::dirty_tiles(moved, prev, near, mapping, 4.0, tiles);
  EXPECT_EQ(both, (std::vector<std::uint8_t>{1, 1}));
}

// ------------------------------------------------- engine-level fuzzing ---

// Drives two identical tiled engines over the same mutating spot sequence:
// one re-renders every frame, the other goes through SynthesisCache. Every
// frame must match bitwise. Returns how many frames reused at least one
// tile and how many tiles rendered as a delta, so callers can assert the
// test exercised the incremental paths rather than degenerating to
// all-dirty full frames.
struct FuzzTotals {
  int reused_frames = 0;
  std::int64_t delta_tiles = 0;
};

FuzzTotals fuzz_sequence(DncConfig dnc, std::uint64_t seed, int frames,
                         double churn, bool force_invalidations) {
  const SynthesisConfig sc = small_synthesis();
  const auto field = make_field();
  DncSynthesizer full(sc, dnc);
  DncSynthesizer incremental(sc, dnc);
  SynthesisCache cache;

  util::Rng rng(seed);
  std::vector<SpotInstance> spots = random_spots(rng, sc.spot_count);
  FuzzTotals totals;
  for (int frame = 0; frame < frames; ++frame) {
    if (force_invalidations && frame % 17 == 11) cache.invalidate();

    const SynthesisCache::Decision d = cache.plan(incremental, *field, spots);
    const core::FrameStats stats =
        incremental.synthesize(*field, spots, d.incremental ? &d.plan : nullptr);
    cache.commit(incremental, *field, std::vector<SpotInstance>(spots));
    full.synthesize(*field, spots);

    EXPECT_EQ(full.texture(), incremental.texture())
        << "frame " << frame << " diverged (seed " << seed << ")";
    if (stats.tiles_reused > 0) ++totals.reused_frames;
    totals.delta_tiles += stats.delta_tiles;

    // Mutate for the next frame: moves, births, deaths.
    for (auto& s : spots) {
      if (rng.uniform() < churn) {
        if (rng.uniform() < 0.3) {
          // Respawn-style discontinuous jump anywhere in the domain.
          s.position = {rng.uniform(kDomain.x0, kDomain.x1),
                        rng.uniform(kDomain.y0, kDomain.y1)};
          s.intensity = 0.2 * rng.intensity();
        } else {
          // Advection-style small move.
          s.position.x += rng.uniform(-0.05, 0.05);
          s.position.y += rng.uniform(-0.05, 0.05);
        }
      }
    }
    if (rng.uniform() < 0.25 && spots.size() > 50) {
      spots.resize(spots.size() - 1 - static_cast<std::size_t>(rng.uniform() * 4));
    } else if (rng.uniform() < 0.25) {
      const auto born = static_cast<std::int64_t>(1 + rng.uniform() * 4);
      for (std::int64_t k = 0; k < born; ++k) {
        spots.push_back({{rng.uniform(kDomain.x0, kDomain.x1),
                          rng.uniform(kDomain.y0, kDomain.y1)},
                         0.2 * rng.intensity()});
      }
    }
  }
  return totals;
}

TEST(IncrementalFuzz, FiftyFramesLowChurnBitIdentical) {
  const FuzzTotals totals = fuzz_sequence(tiled_config(4), 42, 50, 0.05, true);
  // Low churn on a 2x2 grid must actually reuse tiles and render deltas,
  // or the test proves nothing about the retention and delta paths.
  EXPECT_GT(totals.reused_frames, 0);
  EXPECT_GT(totals.delta_tiles, 0);
}

TEST(IncrementalFuzz, HighChurnStaysExact) {
  fuzz_sequence(tiled_config(4), 1337, 30, 0.5, true);
}

TEST(IncrementalFuzz, ManyTilesWithStealing) {
  DncConfig dnc = tiled_config(8);
  dnc.processors = 8;
  const FuzzTotals totals = fuzz_sequence(dnc, 99, 30, 0.03, false);
  EXPECT_GT(totals.reused_frames, 0);
  EXPECT_GT(totals.delta_tiles, 0);
}

TEST(IncrementalFuzz, CostBalancedTilesFreezeDuringReuse) {
  DncConfig dnc = tiled_config(4);
  dnc.tile_strategy = core::TileStrategy::kCostBalanced;
  const FuzzTotals totals = fuzz_sequence(dnc, 7, 25, 0.05, true);
  EXPECT_GT(totals.delta_tiles, 0);
}

TEST(IncrementalFuzz, DeltaListEmptyExactlyWhenTileClean) {
  // The engine renders a dirty tile's share of the plan's delta, assigned
  // with assign_spots_to_tiles; dirty_tiles marks tiles with its own copy
  // of the overlap predicate. The two must agree tile for tile: a dirty
  // tile with no delta would skip a re-render, and a clean tile with one
  // would drop a change.
  SynthesisConfig sc = small_synthesis();
  sc.kind = core::SpotKind::kEllipse;  // wider extents: more seam spots
  const auto field = make_field();
  DncSynthesizer engine(sc, tiled_config(9));
  SynthesisCache cache;
  util::Rng rng(2718);
  std::vector<SpotInstance> spots = random_spots(rng, sc.spot_count);
  engine.synthesize(*field, spots);
  cache.commit(engine, *field, std::vector<SpotInstance>(spots));
  const core::SpotGeometryGenerator generator(sc, *field);

  std::int64_t clean = 0;
  std::int64_t dirty = 0;
  for (int frame = 0; frame < 20; ++frame) {
    for (auto& s : spots) {
      if (rng.uniform() < 0.02) {
        s.position.x += rng.uniform(-0.3, 0.3);
        s.position.y += rng.uniform(-0.3, 0.3);
      }
    }
    if (frame % 3 == 0) spots.pop_back();
    if (frame % 4 == 0) spots.push_back({{rng.uniform(0.0, 4.0), rng.uniform(0.0, 4.0)}, 0.1});
    const SynthesisCache::Decision d = cache.plan(engine, *field, spots);
    ASSERT_TRUE(d.incremental);

    std::vector<SpotInstance> delta = d.plan.removed;
    for (const std::int64_t k : d.plan.added) {
      delta.push_back(spots[static_cast<std::size_t>(k)]);
    }
    const core::TileAssignment assignment = core::assign_spots_to_tiles(
        delta, generator.mapping(), generator.max_extent_px(), engine.tiles());
    for (std::size_t t = 0; t < engine.tiles().size(); ++t) {
      EXPECT_EQ(assignment.per_tile[t].empty(), d.plan.tile_dirty[t] == 0)
          << "frame " << frame << " tile " << t;
      (d.plan.tile_dirty[t] != 0 ? dirty : clean) += 1;
    }
    engine.synthesize(*field, spots, &d.plan);
    cache.commit(engine, *field, std::vector<SpotInstance>(spots));
  }
  // Both sides of the equivalence were exercised.
  EXPECT_GT(clean, 0);
  EXPECT_GT(dirty, 0);
}

TEST(IncrementalFuzz, NonFiniteChangeRendersDirtyTilesFromScratch) {
  // An infinite intensity does not cancel (inf - inf is NaN), so a plan
  // whose change holds a non-finite spot carries no delta and its dirty
  // tiles render in full. Compared by content hash: NaN pixels never
  // compare equal.
  const SynthesisConfig sc = small_synthesis();
  const auto field = make_field();
  DncSynthesizer engine(sc, tiled_config(4));
  DncSynthesizer oracle(sc, tiled_config(4));
  SynthesisCache cache;
  util::Rng rng(404);
  std::vector<SpotInstance> spots = random_spots(rng, sc.spot_count);
  spots[0].position = {1.0, 3.0};
  for (const double intensity : {std::numeric_limits<double>::infinity(), 0.1}) {
    engine.synthesize(*field, spots);
    cache.commit(engine, *field, std::vector<SpotInstance>(spots));
    spots[0].intensity = intensity;
    spots[1].position.x += 0.01;
    const SynthesisCache::Decision d = cache.plan(engine, *field, spots);
    ASSERT_TRUE(d.incremental);
    EXPECT_TRUE(d.plan.removed.empty());
    EXPECT_TRUE(d.plan.added.empty());
    const core::FrameStats stats = engine.synthesize(*field, spots, &d.plan);
    EXPECT_EQ(stats.delta_tiles, 0);
    oracle.synthesize(*field, spots);
    EXPECT_EQ(engine.texture().content_hash(), oracle.texture().content_hash());
  }
}

TEST(IncrementalFuzz, SeamSpotsFanOutThroughDeltaTiles) {
  // A tiled frame traces each spot once, in its home tile, and copies the
  // mesh to the other active tiles that list it — here through a frame that
  // mixes delta tiles with a dirty tile rendering its full list. Bent spots
  // on a 2x2 grid over [0,2]^2 (seams at x = 1 and y = 1): the quadrant
  // x > 1, y > 1 holds only spot A, which straddles the y = 1 seam, so when
  // A moves that quadrant's tile renders its one-spot full list (its delta,
  // A's old and new instance, is longer) while the tile across the seam
  // renders a delta holding A's new instance too. Spot B straddles the
  // x = 1 seam of the two crowded tiles below, so its removed instance is
  // listed by both of their deltas. Every frame must equal a one-pipe
  // contiguous engine bit for bit.
  SynthesisConfig sc = small_synthesis();
  sc.texture_width = 128;
  sc.texture_height = 128;
  sc.kind = core::SpotKind::kBent;
  sc.bent.mesh_cols = 16;
  sc.bent.mesh_rows = 3;
  sc.bent.length_px = 22.0;
  sc.spot_radius_px = 3.0;
  const field::Rect domain{0.0, 0.0, 2.0, 2.0};
  const auto field = field::analytic::rankine_vortex({1.0, 1.0}, 1.0, 0.5, domain);
  util::Rng rng(31337);
  std::vector<SpotInstance> spots;
  while (spots.size() < 150) {
    // Far enough from the quiet quadrant that no extent reaches into it.
    const field::Vec2 p{rng.uniform(0.0, 2.0), rng.uniform(0.0, 2.0)};
    if (p.x > 0.6 && p.y > 0.6) continue;
    spots.push_back({p, 0.2 * rng.intensity()});
  }
  const std::size_t a = spots.size();
  spots.push_back({{1.5, 1.04}, 0.15});
  const std::size_t b = spots.size();
  spots.push_back({{1.04, 0.4}, -0.15});
  sc.spot_count = static_cast<std::int64_t>(spots.size());

  DncConfig single;
  single.processors = 2;
  single.pipes = 1;
  DncSynthesizer reference(sc, single);
  for (const bool steal : {true, false}) {
    DncConfig dnc = tiled_config(4);
    dnc.steal = steal;
    DncSynthesizer engine(sc, dnc);
    SynthesisCache cache;
    const core::SpotGeometryGenerator generator(sc, *field);
    std::vector<SpotInstance> frame_spots = spots;
    field::Vec2 last_b = spots[b].position;
    for (int frame = 0; frame < 6; ++frame) {
      const SynthesisCache::Decision d = cache.plan(engine, *field, frame_spots);
      ASSERT_EQ(d.incremental, frame > 0);
      const core::FrameStats stats =
          engine.synthesize(*field, frame_spots, d.incremental ? &d.plan : nullptr);
      cache.commit(engine, *field, std::vector<SpotInstance>(frame_spots));
      reference.synthesize(*field, frame_spots);
      EXPECT_TRUE(engine.texture() == reference.texture())
          << "steal " << steal << " frame " << frame;
      EXPECT_GT(stats.geometry_reused, 0) << "steal " << steal << " frame " << frame;
      if (d.incremental) {
        // The frame holds what the test is about. Only A and B move, so the
        // plan removes their old instances and re-adds them.
        ASSERT_EQ(d.plan.removed.size(), 2u);
        std::vector<SpotInstance> delta = d.plan.removed;
        for (const std::int64_t k : d.plan.added) {
          delta.push_back(frame_spots[static_cast<std::size_t>(k)]);
        }
        const auto full = core::assign_spots_to_tiles(
            frame_spots, generator.mapping(), generator.max_extent_px(), engine.tiles());
        const auto part = core::assign_spots_to_tiles(
            delta, generator.mapping(), generator.max_extent_px(), engine.tiles());
        int full_tiles_with_a = 0;
        int delta_tiles_with_new_a = 0;
        int delta_tiles_with_old_b = 0;
        for (std::size_t t = 0; t < engine.tiles().size(); ++t) {
          if (d.plan.tile_dirty[t] == 0) continue;
          if (part.per_tile[t].size() >= full.per_tile[t].size()) {
            full_tiles_with_a += static_cast<int>(
                std::ranges::count(full.per_tile[t], static_cast<std::int64_t>(a)));
            continue;
          }
          for (const std::int64_t i : part.per_tile[t]) {
            const SpotInstance& instance = delta[static_cast<std::size_t>(i)];
            const bool removed = i < 2;
            delta_tiles_with_new_a += !removed && instance.position == frame_spots[a].position;
            delta_tiles_with_old_b += removed && instance.position == last_b;
          }
        }
        EXPECT_EQ(full_tiles_with_a, 1) << "frame " << frame;
        EXPECT_EQ(delta_tiles_with_new_a, 1) << "frame " << frame;
        EXPECT_EQ(delta_tiles_with_old_b, 2) << "frame " << frame;
        EXPECT_EQ(stats.delta_tiles, 2) << "frame " << frame;
      }
      last_b = frame_spots[b].position;
      // A slides along the y = 1 seam; B swings across the x = 1 seam.
      frame_spots[a].position.x += 0.03;
      frame_spots[b].position.x = 2.0 - frame_spots[b].position.x;
    }
  }
}

TEST(IncrementalFuzz, DenseSubPixelMovesStayExactInsideLatticeBudget) {
  // A dense population of strong spots, a third of it nudged by sub-pixel
  // offsets every frame: each delta tile's readback partially cancels
  // (old and new instances nearly coincide), which is where an inexact
  // subtraction would show. Σ|old| + Σ|new| per pixel must stay inside the
  // lattice's exact range; the peak canary records that it does.
  SynthesisConfig sc = small_synthesis();
  sc.spot_count = 1500;
  const auto field = make_field();
  DncSynthesizer full(sc, tiled_config(4));
  DncSynthesizer incremental(sc, tiled_config(4));
  SynthesisCache cache;
  util::Rng rng(1618);
  auto spots = core::make_random_spots(kDomain, sc.spot_count, rng);
  std::int64_t delta_tiles = 0;
  for (int frame = 0; frame < 8; ++frame) {
    const SynthesisCache::Decision d = cache.plan(incremental, *field, spots);
    const core::FrameStats stats =
        incremental.synthesize(*field, spots, d.incremental ? &d.plan : nullptr);
    cache.commit(incremental, *field, std::vector<SpotInstance>(spots));
    const core::FrameStats oracle = full.synthesize(*field, spots);
    EXPECT_EQ(full.texture(), incremental.texture()) << "frame " << frame;
    EXPECT_LT(stats.peak_pixel_magnitude, util::simd::kContributionExactBound);
    EXPECT_GE(stats.peak_pixel_magnitude, oracle.peak_pixel_magnitude);
    delta_tiles += stats.delta_tiles;
    // 1/16 of a pixel is 0.004 domain units on this 64px, 4-unit texture.
    for (std::size_t k = 0; k < spots.size(); k += 3) {
      spots[k].position.x += rng.uniform(-0.004, 0.004);
      spots[k].position.y += rng.uniform(-0.004, 0.004);
    }
  }
  EXPECT_GT(delta_tiles, 0) << "no tile took the delta path";
}

// ------------------------------------- content-addressed cache + planning ---

// Same protocol as fuzz_sequence, but the incremental engine also runs the
// content-addressed TileStore (DncConfig::tile_cache) on a private Runtime
// with the given byte budget, stacking both reuse layers: planned-clean
// tiles are retained, dirty tiles are probed against the store before
// re-rendering. The oracle stays a plain uncached full re-render. Forced
// invalidations matter here: the all-dirty full frame that follows probes
// every tile. The population holds still on the frame before each
// invalidation, so those probes find the tiles the previous frame
// published — deterministic store hits rather than luck.
struct CachedFuzzTotals {
  std::int64_t hits = 0;
  std::int64_t evictions = 0;
};

CachedFuzzTotals cached_fuzz_sequence(DncConfig dnc, std::uint64_t seed,
                                      int frames, double churn,
                                      std::size_t cache_bytes) {
  const SynthesisConfig sc = small_synthesis();
  const auto field = make_field();
  core::Runtime runtime({.workers = 4,
                         .tile_cache_bytes = cache_bytes,
                         .tile_cache_shards = 2});
  DncConfig cached_cfg = dnc;
  cached_cfg.tile_cache = true;
  DncSynthesizer full(sc, dnc);
  DncSynthesizer incremental(sc, cached_cfg, runtime);
  SynthesisCache cache;

  CachedFuzzTotals totals;
  util::Rng rng(seed);
  std::vector<SpotInstance> spots = random_spots(rng, sc.spot_count);
  for (int frame = 0; frame < frames; ++frame) {
    if (frame % 17 == 11) cache.invalidate();

    const SynthesisCache::Decision d = cache.plan(incremental, *field, spots);
    const core::FrameStats stats =
        incremental.synthesize(*field, spots, d.incremental ? &d.plan : nullptr);
    cache.commit(incremental, *field, std::vector<SpotInstance>(spots));
    full.synthesize(*field, spots);

    EXPECT_EQ(full.texture(), incremental.texture())
        << "frame " << frame << " diverged (seed " << seed << ", budget "
        << cache_bytes << ")";
    totals.hits += stats.cache_tile_hits;
    totals.evictions += stats.cache_evictions;
    EXPECT_LE(runtime.tile_store().stats().bytes,
              runtime.tile_store().stats().budget_bytes);

    if (frame % 17 == 10) continue;  // freeze before the forced invalidation
    for (auto& s : spots) {
      if (rng.uniform() < churn) {
        s.position.x += rng.uniform(-0.05, 0.05);
        s.position.y += rng.uniform(-0.05, 0.05);
      }
    }
    if (rng.uniform() < 0.25 && spots.size() > 50) {
      spots.resize(spots.size() - 1 - static_cast<std::size_t>(rng.uniform() * 4));
    } else if (rng.uniform() < 0.25) {
      const auto born = static_cast<std::int64_t>(1 + rng.uniform() * 4);
      for (std::int64_t k = 0; k < born; ++k) {
        spots.push_back({{rng.uniform(kDomain.x0, kDomain.x1),
                          rng.uniform(kDomain.y0, kDomain.y1)},
                         0.2 * rng.intensity()});
      }
    }
  }
  return totals;
}

TEST(CachedIncrementalFuzz, StackedWithPlanningMatchesUncachedOracle) {
  // Roomy budget: nothing evicts, and invalidation-forced full frames must
  // actually come back from the store.
  const CachedFuzzTotals totals =
      cached_fuzz_sequence(tiled_config(4), 4242, 40, 0.04, 1u << 20);
  EXPECT_GT(totals.hits, 0) << "the store never served a tile";
  EXPECT_EQ(totals.evictions, 0);
}

TEST(CachedIncrementalFuzz, MidRunEvictionsStayBitInvisible) {
  // Two 32x32 tiles' worth of budget for a 4-tile frame: publishes evict
  // mid-sequence every frame, so probes race real churn. Still exact.
  const CachedFuzzTotals totals = cached_fuzz_sequence(
      tiled_config(4), 777, 30, 0.04, 2u * 32u * 32u * sizeof(float));
  EXPECT_GT(totals.evictions, 0) << "budget did not actually thrash";
}

TEST(CachedIncrementalFuzz, CostBalancedStrategyStaysExact) {
  DncConfig dnc = tiled_config(4);
  dnc.tile_strategy = core::TileStrategy::kCostBalanced;
  cached_fuzz_sequence(dnc, 31337, 25, 0.05, 1u << 20);
}

// --------------------------------------------------- cache invalidation ---

TEST(SynthesisCache, FullFrameOnFirstUseAndAfterInvalidate) {
  const SynthesisConfig sc = small_synthesis();
  const auto field = make_field();
  DncSynthesizer engine(sc, tiled_config(4));
  SynthesisCache cache;
  util::Rng rng(5);
  const auto spots = random_spots(rng, sc.spot_count);

  EXPECT_FALSE(cache.plan(engine, *field, spots).incremental);
  engine.synthesize(*field, spots);
  cache.commit(engine, *field, std::vector<SpotInstance>(spots));
  EXPECT_TRUE(cache.plan(engine, *field, spots).incremental);

  cache.invalidate();
  EXPECT_FALSE(cache.plan(engine, *field, spots).incremental);
}

TEST(SynthesisCache, UncommittedEngineFrameInvalidates) {
  const SynthesisConfig sc = small_synthesis();
  const auto field = make_field();
  DncSynthesizer engine(sc, tiled_config(4));
  SynthesisCache cache;
  util::Rng rng(5);
  const auto spots = random_spots(rng, sc.spot_count);

  engine.synthesize(*field, spots);
  cache.commit(engine, *field, std::vector<SpotInstance>(spots));
  // Someone else drives the engine: the retained final texture no longer
  // matches the cache's snapshot.
  engine.synthesize(*field, spots);
  EXPECT_FALSE(cache.plan(engine, *field, spots).incremental);
}

TEST(SynthesisCache, FieldChangeInvalidates) {
  const SynthesisConfig sc = small_synthesis();
  const auto field = make_field();
  DncSynthesizer engine(sc, tiled_config(4));
  SynthesisCache cache;
  util::Rng rng(5);
  const auto spots = random_spots(rng, sc.spot_count);

  engine.synthesize(*field, spots);
  cache.commit(engine, *field, std::vector<SpotInstance>(spots));
  const auto other = make_field();  // different object, same values
  EXPECT_FALSE(cache.plan(engine, *other, spots).incremental);
}

TEST(SynthesisCache, InPlaceFieldMutationInvalidates) {
  // Aliasing regression for the old 8-point probe: the field object is
  // mutated IN PLACE — same address, so the identity check passes — and the
  // change is confined to a 0.05-radius disc placed on a fingerprint grid
  // sample but away from every legacy probe coordinate (nearest was ~0.98
  // domain units). Only the full 16x16 content grid can catch it; under the
  // probe scheme this exact sequence served stale tiles.
  const SynthesisConfig sc = small_synthesis();
  double bump = 0.0;
  constexpr double kCenterX = 1.375;  // grid sample (5, 9) of the 16x16 grid
  constexpr double kCenterY = 2.375;
  field::CallableField field(
      [&bump](field::Vec2 p) -> field::Vec2 {
        const double dx = p.x - kCenterX;
        const double dy = p.y - kCenterY;
        if (dx * dx + dy * dy > 0.0025) return {0.0, 0.0};
        return {bump, 0.0};
      },
      kDomain, 0.6);

  DncSynthesizer engine(sc, tiled_config(4));
  SynthesisCache cache;
  util::Rng rng(5);
  const auto spots = random_spots(rng, sc.spot_count);
  engine.synthesize(field, spots);
  cache.commit(engine, field, std::vector<SpotInstance>(spots));
  ASSERT_TRUE(cache.plan(engine, field, spots).incremental);

  const field::FieldFingerprint before = field::fingerprint_field(field);
  bump = 0.5;  // in-place content change, address unchanged
  const field::FieldFingerprint after = field::fingerprint_field(field);
  EXPECT_NE(before.hash, after.hash);
  EXPECT_FALSE(cache.plan(engine, field, spots).incremental);
}

TEST(SynthesisCache, NonTiledEngineAlwaysFull) {
  const SynthesisConfig sc = small_synthesis();
  const auto field = make_field();
  DncConfig dnc = tiled_config(2);
  dnc.tiled = false;
  DncSynthesizer engine(sc, dnc);
  SynthesisCache cache;
  util::Rng rng(5);
  const auto spots = random_spots(rng, sc.spot_count);
  engine.synthesize(*field, spots);
  cache.commit(engine, *field, std::vector<SpotInstance>(spots));
  EXPECT_FALSE(cache.plan(engine, *field, spots).incremental);
  EXPECT_FALSE(cache.valid());
}

TEST(SynthesisCache, PlanOnNonTiledEngineRejectedByEngine) {
  const SynthesisConfig sc = small_synthesis();
  const auto field = make_field();
  DncConfig dnc = tiled_config(2);
  dnc.tiled = false;
  DncSynthesizer engine(sc, dnc);
  util::Rng rng(5);
  const auto spots = random_spots(rng, sc.spot_count);
  core::FramePlan plan;
  plan.tile_dirty = {1, 1};
  EXPECT_THROW((void)engine.synthesize(*field, spots, &plan), util::Error);
}

TEST(SynthesisCache, CostBalancedGridRebalancesPeriodically) {
  // Planned frames freeze a kCostBalanced grid; the rebalance budget must
  // force one full frame per interval so the kd-cut can follow the
  // population — and incremental planning must resume right after.
  const SynthesisConfig sc = small_synthesis();
  const auto field = make_field();
  DncConfig dnc = tiled_config(4);
  dnc.tile_strategy = core::TileStrategy::kCostBalanced;
  DncSynthesizer engine(sc, dnc);
  SynthesisCache cache;
  cache.rebalance_interval = 3;
  util::Rng rng(21);
  const auto spots = random_spots(rng, sc.spot_count);

  engine.synthesize(*field, spots);
  cache.commit(engine, *field, std::vector<SpotInstance>(spots));

  std::vector<bool> planned;
  for (int frame = 0; frame < 8; ++frame) {
    const SynthesisCache::Decision d = cache.plan(engine, *field, spots);
    planned.push_back(d.incremental);
    engine.synthesize(*field, spots, d.incremental ? &d.plan : nullptr);
    cache.commit(engine, *field, std::vector<SpotInstance>(spots));
  }
  // Streak of 3 planned frames, then one forced full, repeating.
  EXPECT_EQ(planned, (std::vector<bool>{true, true, true, false, true, true,
                                        true, false}));

  // A kGrid engine never pays the refresh: its layout is static.
  DncSynthesizer grid_engine(sc, tiled_config(4));
  SynthesisCache grid_cache;
  grid_cache.rebalance_interval = 2;
  grid_engine.synthesize(*field, spots);
  grid_cache.commit(grid_engine, *field, std::vector<SpotInstance>(spots));
  for (int frame = 0; frame < 6; ++frame) {
    const SynthesisCache::Decision d = grid_cache.plan(grid_engine, *field, spots);
    EXPECT_TRUE(d.incremental) << "frame " << frame;
    grid_engine.synthesize(*field, spots, &d.plan);
    grid_cache.commit(grid_engine, *field, std::vector<SpotInstance>(spots));
  }
}

TEST(IncrementalStats, PeakPixelMagnitudeStaysInsideLatticeBudget) {
  // The exactness guarantee needs per-pixel sums inside the lattice's
  // exact range; FrameStats::peak_pixel_magnitude is the canary. A
  // standard population must sit far below the bound.
  const SynthesisConfig sc = small_synthesis();
  const auto field = make_field();
  DncSynthesizer engine(sc, tiled_config(4));
  util::Rng rng(31);
  const auto spots = random_spots(rng, sc.spot_count);
  const core::FrameStats stats = engine.synthesize(*field, spots);
  EXPECT_GT(stats.peak_pixel_magnitude, 0.0);
  EXPECT_LT(stats.peak_pixel_magnitude,
            0.25 * util::simd::kContributionExactBound);
}

// --------------------------------------------------- reuse accounting ---

TEST(IncrementalStats, ReuseIsAccountedAndRetentionSkipsWork) {
  const SynthesisConfig sc = small_synthesis();
  const auto field = make_field();
  DncSynthesizer engine(sc, tiled_config(4));
  SynthesisCache cache;
  util::Rng rng(11);
  std::vector<SpotInstance> spots = random_spots(rng, sc.spot_count);
  // Pin spot 0 to the interior of the top-left 32x32 tile — pixel (16, 16),
  // far enough from every boundary that its conservative extent stays
  // inside one tile.
  spots[0].position = {1.0, 3.0};

  engine.synthesize(*field, spots);
  cache.commit(engine, *field, std::vector<SpotInstance>(spots));

  // Change only its intensity: exactly one dirty tile.
  spots[0].intensity = -spots[0].intensity;
  const SynthesisCache::Decision d = cache.plan(engine, *field, spots);
  ASSERT_TRUE(d.incremental);
  EXPECT_EQ(d.plan.dirty_count(), 1);
  const core::FrameStats stats =
      engine.synthesize(*field, spots, &d.plan);
  EXPECT_EQ(stats.tiles_reused, 3);
  EXPECT_GT(stats.spots_skipped, 0);
  // The dirty tile rendered a delta, not its whole list: the old instance
  // (negated) and the new one.
  EXPECT_EQ(stats.delta_tiles, 1);
  EXPECT_EQ(stats.delta_spots, 2);
  EXPECT_EQ(stats.spots_submitted, 2);
  // Only the dirty tile crossed the bus.
  EXPECT_EQ(stats.readback_bytes, 32u * 32u * sizeof(float));
  // And the result still matches a from-scratch engine exactly.
  DncSynthesizer oracle(sc, tiled_config(4));
  oracle.synthesize(*field, spots);
  EXPECT_EQ(oracle.texture(), engine.texture());
}

// ----------------------------------------------------- animator level ---

TEST(IncrementalAnimator, MatchesFullAnimatorBitwise) {
  const SynthesisConfig sc = small_synthesis();
  const auto field = make_field();

  auto run = [&](bool incremental) {
    DncSynthesizer engine(sc, tiled_config(4));
    particles::ParticleSystemConfig pc;
    pc.count = sc.spot_count;
    pc.mean_lifetime = 100.0;  // few respawns across the run
    pc.fade_fraction = 0.0;    // plateau everywhere: intensities bit-stable
    particles::ParticleSystem particles(pc, kDomain, util::Rng(2024));
    core::AnimatorConfig ac;
    ac.normalize = false;  // compare raw synthesis output
    ac.incremental = incremental;
    core::Animator animator(ac, engine, particles,
                            [&](std::int64_t) -> const field::VectorField& {
                              return *field;
                            });
    std::vector<std::uint64_t> hashes;
    std::int64_t reused = 0;
    for (int frame = 0; frame < 12; ++frame) {
      const core::AnimationFrame out = animator.step();
      hashes.push_back(out.texture->content_hash());
      reused += out.synthesis.tiles_reused;
    }
    return std::pair{hashes, reused};
  };

  const auto [full_hashes, full_reused] = run(false);
  const auto [incr_hashes, incr_reused] = run(true);
  EXPECT_EQ(full_hashes, incr_hashes);
  EXPECT_EQ(full_reused, 0);
  EXPECT_GT(incr_reused, 0) << "slow-flow animation never reused a tile";
}

TEST(IncrementalAnimator, RequiresTiledEngine) {
  const SynthesisConfig sc = small_synthesis();
  const auto field = make_field();
  DncConfig dnc = tiled_config(2);
  dnc.tiled = false;
  DncSynthesizer engine(sc, dnc);
  particles::ParticleSystemConfig pc;
  pc.count = 50;
  particles::ParticleSystem particles(pc, kDomain, util::Rng(1));
  core::AnimatorConfig ac;
  ac.incremental = true;
  EXPECT_THROW(core::Animator(ac, engine, particles,
                              [&](std::int64_t) -> const field::VectorField& {
                                return *field;
                              }),
               util::Error);
}

// ------------------------------------------------------- performance model ---

TEST(PerfModelIncremental, ReuseShrinksThePrediction) {
  core::PerfModelParams params;
  params.genP_per_spot = 4e-6;
  params.genT_per_spot = 1e-6;
  params.gather_per_pipe = 1e-4;
  params.fixed_overhead = 5e-5;
  const core::PerfModel model(params);
  const std::int64_t spots = 10000;
  const double full = model.predict(spots, 4, 4);
  // A quarter of the spots re-render, three of four tiles reused.
  const double incremental = model.predict_incremental(spots / 4, 4, 4, 3);
  EXPECT_LT(incremental, full);
  EXPECT_GT(full / incremental, 2.0);
  // No reuse degenerates to the full prediction.
  EXPECT_DOUBLE_EQ(model.predict_incremental(spots, 4, 4, 0),
                   model.predict(spots, 4, 4));
  // Everything reused: only fixed overhead remains.
  EXPECT_DOUBLE_EQ(model.predict_incremental(0, 4, 4, 4), params.fixed_overhead);
}

}  // namespace
