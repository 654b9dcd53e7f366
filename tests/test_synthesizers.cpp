// Tests for the serial baseline and the divide-and-conquer engine: texture
// statistics, equivalence between all execution strategies, tiling
// correctness, and the engine's bookkeeping.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <numeric>

#include "core/dnc_synthesizer.hpp"
#include "core/serial_synthesizer.hpp"
#include "core/spot_source.hpp"
#include "field/analytic.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace {

using namespace dcsn;
using field::Rect;

core::SynthesisConfig small_config() {
  core::SynthesisConfig config;
  config.texture_width = 128;
  config.texture_height = 128;
  config.spot_count = 400;
  config.spot_radius_px = 6.0;
  config.kind = core::SpotKind::kEllipse;
  return config;
}

std::vector<core::SpotInstance> test_spots(const core::SynthesisConfig& config,
                                           Rect domain) {
  util::Rng rng(config.seed);
  return core::make_random_spots(domain, config.spot_count, rng);
}

double max_abs_difference(const render::Framebuffer& a, const render::Framebuffer& b) {
  EXPECT_EQ(a.width(), b.width());
  EXPECT_EQ(a.height(), b.height());
  double worst = 0.0;
  for (int y = 0; y < a.height(); ++y)
    for (int x = 0; x < a.width(); ++x)
      worst = std::max(worst, std::abs(double(a.at(x, y)) - double(b.at(x, y))));
  return worst;
}

// ------------------------------------------------------ SerialSynthesizer ---

TEST(SerialSynthesizer, ProducesNonTrivialZeroMeanTexture) {
  const auto config = small_config();
  const Rect domain{0, 0, 2, 2};
  const auto f = field::analytic::rigid_vortex({1, 1}, 1.0, domain);
  core::SerialSynthesizer synth(config);
  const auto spots = test_spots(config, domain);
  const auto stats = synth.synthesize(*f, spots);

  EXPECT_EQ(stats.spots, config.spot_count);
  EXPECT_GT(stats.raster.fragments, 0);
  EXPECT_GT(render::texture_stddev(synth.texture()), 0.0);
  // Zero-mean intensities: the texture mean is near zero relative to its
  // spread.
  EXPECT_LT(std::abs(synth.texture().mean()),
            render::texture_stddev(synth.texture()));
}

TEST(SerialSynthesizer, DeterministicForFixedSeed) {
  const auto config = small_config();
  const Rect domain{0, 0, 2, 2};
  const auto f = field::analytic::taylor_green(1.0, domain);
  const auto spots = test_spots(config, domain);
  core::SerialSynthesizer a(config), b(config);
  a.synthesize(*f, spots);
  b.synthesize(*f, spots);
  EXPECT_TRUE(a.texture() == b.texture());  // bit-exact
}

TEST(SerialSynthesizer, MultithreadedMatchesSerial) {
  // The §4 "bypass the graphics subsystem" path: OpenMP over spots with
  // framebuffer reduction. Float summation order differs, so compare with a
  // tolerance proportional to the texture scale.
  const auto config = small_config();
  const Rect domain{0, 0, 2, 2};
  const auto f = field::analytic::taylor_green(1.0, domain);
  const auto spots = test_spots(config, domain);
  core::SerialSynthesizer serial(config), parallel(config);
  serial.synthesize(*f, spots, 1);
  parallel.synthesize(*f, spots, 4);
  const double sigma = render::texture_stddev(serial.texture());
  EXPECT_LT(max_abs_difference(serial.texture(), parallel.texture()), 1e-4 * sigma + 1e-6);
}

TEST(SerialSynthesizer, StatsSeparateGenPAndGenT) {
  const auto config = small_config();
  const Rect domain{0, 0, 2, 2};
  const auto f = field::analytic::taylor_green(1.0, domain);
  core::SerialSynthesizer synth(config);
  const auto stats = synth.synthesize(*f, test_spots(config, domain));
  EXPECT_GT(stats.genP_seconds, 0.0);
  EXPECT_GT(stats.genT_seconds, 0.0);
  EXPECT_GE(stats.total_seconds, stats.genP_seconds + stats.genT_seconds - 1e-6);
  EXPECT_GT(stats.vertices, 0);
}

TEST(SerialSynthesizer, NaturalIntensityScalesInversely) {
  auto sparse = small_config();
  sparse.spot_count = 100;
  auto dense = small_config();
  dense.spot_count = 10000;
  EXPECT_GT(core::SerialSynthesizer::natural_intensity(sparse),
            core::SerialSynthesizer::natural_intensity(dense));
}

TEST(SerialSynthesizer, NaturalIntensityStabilizesContrast) {
  // With intensity_scale = natural_intensity, texture sigma should be
  // roughly independent of spot count (amplitudes add in quadrature).
  const Rect domain{0, 0, 2, 2};
  const auto f = field::analytic::taylor_green(1.0, domain);
  auto sigma_for = [&](std::int64_t count) {
    auto config = small_config();
    config.spot_count = count;
    config.intensity_scale = core::SerialSynthesizer::natural_intensity(config);
    core::SerialSynthesizer synth(config);
    synth.synthesize(*f, test_spots(config, domain));
    return render::texture_stddev(synth.texture());
  };
  const double lo = sigma_for(500);
  const double hi = sigma_for(8000);
  EXPECT_LT(std::abs(hi - lo) / lo, 0.5);  // same order of magnitude
}

TEST(SerialSynthesizer, EmptySpotSetGivesBlankTexture) {
  const auto config = small_config();
  const Rect domain{0, 0, 2, 2};
  const auto f = field::analytic::taylor_green(1.0, domain);
  core::SerialSynthesizer synth(config);
  const auto stats = synth.synthesize(*f, {});
  EXPECT_EQ(stats.spots, 0);
  const auto [lo, hi] = synth.texture().min_max();
  EXPECT_EQ(lo, 0.0f);
  EXPECT_EQ(hi, 0.0f);
}

// --------------------------------------------------------- DncSynthesizer ---

TEST(DncSynthesizer, MatchesSerialBaseline) {
  // The headline correctness property: divide and conquer produces the same
  // texture as the 1991 serial algorithm, up to float summation order.
  const auto config = small_config();
  const Rect domain{0, 0, 2, 2};
  const auto f = field::analytic::rigid_vortex({1, 1}, 1.0, domain);
  const auto spots = test_spots(config, domain);

  core::SerialSynthesizer serial(config);
  serial.synthesize(*f, spots);

  for (const auto& [nP, nG] : std::vector<std::pair<int, int>>{
           {1, 1}, {2, 1}, {4, 2}, {6, 3}}) {
    core::DncConfig dnc;
    dnc.processors = nP;
    dnc.pipes = nG;
    core::DncSynthesizer engine(config, dnc);
    engine.synthesize(*f, spots);
    const double sigma = render::texture_stddev(serial.texture());
    EXPECT_LT(max_abs_difference(serial.texture(), engine.texture()),
              1e-4 * sigma + 1e-6)
        << "nP=" << nP << " nG=" << nG;
  }
}

TEST(DncSynthesizer, TiledMatchesSerialBaseline) {
  const auto config = small_config();
  const Rect domain{0, 0, 2, 2};
  const auto f = field::analytic::rigid_vortex({1, 1}, 1.0, domain);
  const auto spots = test_spots(config, domain);

  core::SerialSynthesizer serial(config);
  serial.synthesize(*f, spots);

  core::DncConfig dnc;
  dnc.processors = 4;
  dnc.pipes = 4;
  dnc.tiled = true;
  core::DncSynthesizer engine(config, dnc);
  const auto stats = engine.synthesize(*f, spots);
  const double sigma = render::texture_stddev(serial.texture());
  EXPECT_LT(max_abs_difference(serial.texture(), engine.texture()),
            1e-4 * sigma + 1e-6);
  // Tiling duplicates boundary spots.
  EXPECT_GT(stats.duplicated_spots, 0);
  EXPECT_EQ(stats.spots_submitted, stats.spots + stats.duplicated_spots);
}

TEST(DncSynthesizer, BentSpotsMatchSerial) {
  auto config = small_config();
  config.kind = core::SpotKind::kBent;
  config.bent.mesh_cols = 8;
  config.bent.mesh_rows = 3;
  config.bent.length_px = 32.0;
  config.spot_count = 200;
  const Rect domain{0, 0, 2, 2};
  const auto f = field::analytic::taylor_green(1.0, domain);
  const auto spots = test_spots(config, domain);

  core::SerialSynthesizer serial(config);
  serial.synthesize(*f, spots);
  core::DncConfig dnc;
  dnc.processors = 4;
  dnc.pipes = 2;
  core::DncSynthesizer engine(config, dnc);
  engine.synthesize(*f, spots);
  const double sigma = render::texture_stddev(serial.texture());
  EXPECT_LT(max_abs_difference(serial.texture(), engine.texture()),
            1e-4 * sigma + 1e-6);
}

// Counts sample() calls, so a test can see how many streamline traces the
// engine ran.
class CountingField final : public field::VectorField {
 public:
  explicit CountingField(const field::VectorField& inner) : inner_(inner) {}
  [[nodiscard]] field::Vec2 sample(field::Vec2 p) const override {
    calls_.fetch_add(1, std::memory_order_relaxed);
    return inner_.sample(p);
  }
  [[nodiscard]] Rect domain() const override { return inner_.domain(); }
  [[nodiscard]] double max_magnitude() const override { return inner_.max_magnitude(); }
  std::int64_t take() { return calls_.exchange(0); }

 private:
  const field::VectorField& inner_;
  mutable std::atomic<std::int64_t> calls_{0};
};

TEST(DncSynthesizer, SeamSpotsTracedOncePerFrame) {
  // Bent spots crowded onto the seams of a 2x2 tile grid: nearly every spot
  // is assigned to two or four tiles. The trace-once memo must render them
  // bit-identically to the one-pipe engine, with and without stealing, while
  // tracing each spot about once — the field sees no more than 1.05x the
  // one-pipe engine's samples.
  auto config = small_config();
  config.kind = core::SpotKind::kBent;
  config.bent.mesh_cols = 16;
  config.bent.mesh_rows = 3;
  config.bent.length_px = 22.0;
  config.spot_radius_px = 3.0;
  config.spot_count = 600;
  const Rect domain{0, 0, 2, 2};
  const auto vortex = field::analytic::rankine_vortex({1.0, 1.0}, 1.0, 0.5, domain);
  CountingField f(*vortex);
  // Within 0.1 world units (6.4 px) of the x = 1 or y = 1 seam; the spot
  // extent is 15 px, so every spot straddles a seam.
  util::Rng rng(20261017);
  std::vector<core::SpotInstance> spots(static_cast<std::size_t>(config.spot_count));
  for (std::size_t k = 0; k < spots.size(); ++k) {
    const double along = rng.uniform(0.05, 1.95);
    const double across = 1.0 + rng.uniform(-0.1, 0.1);
    spots[k].position = k % 2 == 0 ? field::Vec2{across, along} : field::Vec2{along, across};
    spots[k].intensity = rng.intensity();
  }

  core::DncConfig single;
  single.processors = 2;
  single.pipes = 1;
  core::DncSynthesizer reference(config, single);
  (void)f.take();
  (void)reference.synthesize(f, spots);
  const std::int64_t single_samples = f.take();
  ASSERT_GT(single_samples, 0);

  for (const bool steal : {true, false}) {
    core::DncConfig tiled;
    tiled.processors = 8;
    tiled.pipes = 4;
    tiled.tiled = true;
    tiled.steal = steal;
    tiled.chunk_spots = 16;
    core::DncSynthesizer engine(config, tiled);
    // Several frames: the memo's slots are reset and its blocks reused.
    for (int frame = 0; frame < 3; ++frame) {
      const core::FrameStats stats = engine.synthesize(f, spots);
      const std::int64_t samples = f.take();
      EXPECT_TRUE(engine.texture() == reference.texture())
          << "steal " << steal << " frame " << frame;
      EXPECT_GT(stats.duplicated_spots, config.spot_count / 2);
      EXPECT_GT(stats.geometry_reused, 0);
      EXPECT_LE(stats.geometry_reused, stats.duplicated_spots);
      EXPECT_LE(static_cast<double>(samples), 1.05 * static_cast<double>(single_samples))
          << "steal " << steal << " frame " << frame << ": " << samples << " vs "
          << single_samples << " samples, " << stats.geometry_reused << " of "
          << stats.duplicated_spots << " duplicates copied";
    }
  }
}

TEST(DncSynthesizer, RepeatedFramesAreStable) {
  // Process groups persist across frames; re-synthesizing the same input
  // must give the same texture (pipes cleared, queues drained).
  const auto config = small_config();
  const Rect domain{0, 0, 2, 2};
  const auto f = field::analytic::taylor_green(1.0, domain);
  const auto spots = test_spots(config, domain);
  core::DncConfig dnc;
  dnc.processors = 4;
  dnc.pipes = 2;
  core::DncSynthesizer engine(config, dnc);
  engine.synthesize(*f, spots);
  render::Framebuffer first = engine.texture();
  engine.synthesize(*f, spots);
  const double sigma = render::texture_stddev(first);
  EXPECT_LT(max_abs_difference(first, engine.texture()), 1e-4 * sigma + 1e-6);
}

TEST(DncSynthesizer, StatsAccounting) {
  const auto config = small_config();
  const Rect domain{0, 0, 2, 2};
  const auto f = field::analytic::taylor_green(1.0, domain);
  const auto spots = test_spots(config, domain);
  core::DncConfig dnc;
  dnc.processors = 2;
  dnc.pipes = 2;
  core::DncSynthesizer engine(config, dnc);
  const auto stats = engine.synthesize(*f, spots);

  EXPECT_EQ(stats.spots, config.spot_count);
  EXPECT_GT(stats.genP_seconds, 0.0);
  EXPECT_GT(stats.genT_seconds, 0.0);
  EXPECT_GT(stats.gather_seconds, 0.0);
  EXPECT_GT(stats.frame_seconds, 0.0);
  // Ellipse spots: 4 vertices each.
  EXPECT_EQ(stats.vertices, config.spot_count * 4);
  // Geometry traffic: vertices plus headers.
  EXPECT_EQ(stats.geometry_bytes,
            static_cast<std::uint64_t>(stats.vertices) * sizeof(render::MeshVertex) +
                static_cast<std::uint64_t>(config.spot_count) *
                    sizeof(render::MeshHeader));
  // Readback: both pipes return a full texture.
  EXPECT_EQ(stats.readback_bytes, 2u * 128u * 128u * sizeof(float));
  EXPECT_GT(stats.raster.fragments, 0);
  EXPECT_DOUBLE_EQ(stats.textures_per_second(), 1.0 / stats.frame_seconds);
}

TEST(DncSynthesizer, MorePipesSplitWorkEvenly) {
  const auto config = small_config();
  const Rect domain{0, 0, 2, 2};
  const auto f = field::analytic::taylor_green(1.0, domain);
  const auto spots = test_spots(config, domain);
  core::DncConfig dnc;
  dnc.processors = 4;
  dnc.pipes = 4;
  dnc.steal = false;  // the even split is a static-partition property
  core::DncSynthesizer engine(config, dnc);
  engine.synthesize(*f, spots);
  // Each pipe should have received about a quarter of the vertices.
  for (int g = 0; g < 4; ++g) {
    const auto ps = engine.pipe_stats(g);
    EXPECT_NEAR(static_cast<double>(ps.vertices),
                static_cast<double>(config.spot_count), 4.0)
        << "pipe " << g;  // 400 spots * 4 verts / 4 pipes = 400
  }
}

TEST(DncSynthesizer, BusModelAccountsTraffic) {
  const auto config = small_config();
  const Rect domain{0, 0, 2, 2};
  const auto f = field::analytic::taylor_green(1.0, domain);
  const auto spots = test_spots(config, domain);
  core::DncConfig dnc;
  dnc.processors = 2;
  dnc.pipes = 1;
  dnc.bus_bytes_per_second = 4.0e9;  // fast enough not to slow the test
  core::DncSynthesizer engine(config, dnc);
  const auto stats = engine.synthesize(*f, spots);
  EXPECT_GT(stats.geometry_bytes, 0u);
  EXPECT_GT(stats.readback_bytes, 0u);
}

TEST(DncSynthesizer, StateChangeCostIsCharged) {
  const auto config = small_config();
  const Rect domain{0, 0, 2, 2};
  const auto f = field::analytic::taylor_green(1.0, domain);
  const auto spots = test_spots(config, domain);
  core::DncConfig dnc;
  dnc.processors = 1;
  dnc.pipes = 1;
  dnc.state_change_seconds = 1e-3;
  core::DncSynthesizer engine(config, dnc);
  // Setup binds profile + blend mode; those fall before the first frame's
  // reset_stats, so issue a frame and check state time is counted per frame
  // only when state changes happen (none mid-frame by default).
  const auto stats = engine.synthesize(*f, spots);
  EXPECT_EQ(stats.pipe_state_seconds, 0.0);
}

TEST(DncSynthesizer, RejectsInvalidConfigs) {
  const auto config = small_config();
  core::DncConfig dnc;
  dnc.processors = 1;
  dnc.pipes = 2;  // a pipe without a master is not a process group
  EXPECT_THROW(core::DncSynthesizer(config, dnc), util::Error);
  dnc.pipes = 0;
  EXPECT_THROW(core::DncSynthesizer(config, dnc), util::Error);
  dnc.pipes = 1;
  dnc.processors = 1;
  dnc.chunk_spots = 0;
  EXPECT_THROW(core::DncSynthesizer(config, dnc), util::Error);
}

TEST(DncSynthesizer, EmptySpotSet) {
  const auto config = small_config();
  const Rect domain{0, 0, 2, 2};
  const auto f = field::analytic::taylor_green(1.0, domain);
  core::DncConfig dnc;
  dnc.processors = 2;
  dnc.pipes = 2;
  core::DncSynthesizer engine(config, dnc);
  const auto stats = engine.synthesize(*f, {});
  EXPECT_EQ(stats.spots, 0);
  const auto [lo, hi] = engine.texture().min_max();
  EXPECT_EQ(lo, 0.0f);
  EXPECT_EQ(hi, 0.0f);
}

TEST(DncSynthesizer, ManyFramesNoLeaksOrDeadlocks) {
  // Soak the frame loop: barriers, queues and fences must cycle cleanly.
  auto config = small_config();
  config.spot_count = 50;
  const Rect domain{0, 0, 2, 2};
  const auto f = field::analytic::taylor_green(1.0, domain);
  const auto spots = test_spots(config, domain);
  core::DncConfig dnc;
  dnc.processors = 3;
  dnc.pipes = 2;  // uneven groups: 2 workers + 1 worker
  core::DncSynthesizer engine(config, dnc);
  for (int frame = 0; frame < 50; ++frame) {
    const auto stats = engine.synthesize(*f, spots);
    ASSERT_EQ(stats.spots, 50);
  }
}

// ------------------------------------------------------------------ tiles ---

TEST(Tiling, GridCoversTextureExactly) {
  for (const int count : {1, 2, 3, 4, 5, 7, 8}) {
    const auto tiles = core::make_tile_grid(512, 512, count);
    ASSERT_EQ(std::ssize(tiles), count);
    std::int64_t area = 0;
    for (const auto& t : tiles) {
      EXPECT_GT(t.width, 0);
      EXPECT_GT(t.height, 0);
      area += static_cast<std::int64_t>(t.width) * t.height;
    }
    EXPECT_EQ(area, 512 * 512) << "count = " << count;
  }
}

TEST(Tiling, TilesDoNotOverlap) {
  const auto tiles = core::make_tile_grid(64, 64, 5);
  std::vector<int> cover(64 * 64, 0);
  for (const auto& t : tiles)
    for (int y = t.y0; y < t.y0 + t.height; ++y)
      for (int x = t.x0; x < t.x0 + t.width; ++x)
        ++cover[static_cast<std::size_t>(y * 64 + x)];
  for (const int c : cover) EXPECT_EQ(c, 1);
}

TEST(Tiling, AssignmentCoversEverySpot) {
  const render::WorldToImage mapping(Rect{0, 0, 1, 1}, 256, 256);
  util::Rng rng(5);
  const auto spots = core::make_random_spots(Rect{0, 0, 1, 1}, 500, rng);
  const auto tiles = core::make_tile_grid(256, 256, 4);
  const auto assignment = core::assign_spots_to_tiles(spots, mapping, 10.0, tiles);
  std::vector<int> seen(spots.size(), 0);
  for (const auto& list : assignment.per_tile)
    for (const auto idx : list) ++seen[static_cast<std::size_t>(idx)];
  for (const int s : seen) EXPECT_GE(s, 1);  // nobody dropped
  EXPECT_EQ(assignment.duplicates,
            static_cast<std::int64_t>(
                std::accumulate(seen.begin(), seen.end(), 0) - std::ssize(spots)));
}

TEST(Tiling, LargerExtentMeansMoreDuplicates) {
  const render::WorldToImage mapping(Rect{0, 0, 1, 1}, 256, 256);
  util::Rng rng(6);
  const auto spots = core::make_random_spots(Rect{0, 0, 1, 1}, 500, rng);
  const auto tiles = core::make_tile_grid(256, 256, 4);
  const auto small_extent = core::assign_spots_to_tiles(spots, mapping, 2.0, tiles);
  const auto large_extent = core::assign_spots_to_tiles(spots, mapping, 40.0, tiles);
  EXPECT_GT(large_extent.duplicates, small_extent.duplicates);
}

// ------------------------------------------------------------- spot source ---

TEST(SpotSource, RandomSpotsHaveZeroMeanIntensity) {
  util::Rng rng(9);
  const auto spots = core::make_random_spots(Rect{0, 0, 1, 1}, 20000, rng);
  double sum = 0.0;
  for (const auto& s : spots) {
    sum += s.intensity;
    EXPECT_TRUE((Rect{0, 0, 1, 1}).contains(s.position));
  }
  EXPECT_NEAR(sum / 20000.0, 0.0, 0.02);
}

}  // namespace
