// Ablation gate for temporal-coherence incremental resynthesis (ISSUE 4).
//
// Workload — "slow flow": the paper's steering scenario has updates arriving
// in a localized region 5-15 times a second while the rest of the texture is
// quasi-static. Here a mild everywhere-flowing shear gives every bent spot a
// full-cost ribbon (so the savings cannot hide in degenerate cheap spots),
// and per frame only the spots inside a compact probe disc move — under 10%
// of the population, confined to one tile of the 2x2 grid. The other three
// tiles' spot sets are bit-identical frame to frame, so the cache retains
// them.
//
// The bench runs the same frame sequence through two identical tiled
// engines, one full-resynthesis and one driven by core::SynthesisCache, and
//
//   1. asserts every frame is BIT-IDENTICAL between the two engines
//      (Framebuffer::operator==, no tolerance) — reuse must be invisible in
//      the pixels;
//   2. compares eq. 3.2 modeled frame seconds (FrameStats, thread-CPU
//      based — meaningful on a loaded 1-core CI host), charging the
//      cache's own planning time to the incremental side;
//   3. reports reuse accounting (tiles_reused, spots_skipped, and the
//      spots the incremental engine rendered: a dirty tile renders only
//      its delta — the moved spots' old instances negated plus their new
//      ones) and the PerfModel::predict_incremental estimate next to the
//      measurement;
//   4. gates: modeled speedup >= 2.0x (>= 1.4x with --smoke, whose small
//      frames leave the fixed per-frame costs unamortized), else exits
//      nonzero.
//
// usage: bench_incremental [--smoke] [--json <path>]
#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/perf_model.hpp"
#include "core/spot_source.hpp"
#include "core/synthesis_cache.hpp"
#include "field/analytic.hpp"
#include "util/rng.hpp"
#include "util/simd.hpp"
#include "util/stopwatch.hpp"

namespace {

using namespace dcsn;

struct TemporalWorkload {
  std::unique_ptr<field::VectorField> field;
  core::SynthesisConfig synthesis;
  core::DncConfig dnc;
  std::vector<core::SpotInstance> spots;
  std::vector<std::size_t> probe;  ///< indices that move each frame
  field::Vec2 probe_center;
};

TemporalWorkload make_workload(bool smoke) {
  TemporalWorkload w;
  const field::Rect domain{0.0, 0.0, 4.0, 4.0};
  // Mild shear, flowing everywhere: every ribbon traces its full length.
  w.field = std::make_unique<field::CallableField>(
      [](field::Vec2 p) -> field::Vec2 { return {0.55 + 0.05 * p.y, 0.22}; },
      domain, 0.97);

  w.synthesis.texture_width = smoke ? 128 : 256;
  w.synthesis.texture_height = w.synthesis.texture_width;
  w.synthesis.spot_count = smoke ? 1500 : 5000;
  w.synthesis.spot_radius_px = 3.0;
  w.synthesis.kind = core::SpotKind::kBent;
  w.synthesis.bent.mesh_cols = 16;
  w.synthesis.bent.mesh_rows = 3;
  w.synthesis.bent.length_px = smoke ? 14.0 : 22.0;
  // genP-heavy calibration (see bench_common.hpp): the incremental win on
  // the eq. 3.2 critical path comes from skipping spot-shape calculation,
  // which work stealing spreads over every processor; the dirty tile's
  // rasterization is irreducible, so the ratio must sit in the paper's
  // CPU-bound regime for the reuse to show.
  w.synthesis.bent.trace_substeps = 14;

  w.dnc.processors = 4;
  w.dnc.pipes = 4;
  w.dnc.tiled = true;
  w.dnc.tile_strategy = core::TileStrategy::kGrid;
  w.dnc.chunk_spots = 32;

  util::Rng rng(20260730);
  w.spots = core::make_random_spots(domain, w.synthesis.spot_count, rng);
  for (auto& s : w.spots) s.intensity *= 0.2;

  // The probe disc sits deep inside the bottom-left tile: world quadrant
  // [0,2)x[0,2), image-space bottom-left after the y flip. Radius 0.55 over
  // a 16-area domain holds ~6% of a uniform population; margin to the tile
  // boundary exceeds the bent spots' conservative extent so moving spots
  // never leak dirt into a second tile.
  w.probe_center = {1.0, 1.0};
  const double probe_radius = 0.55;
  for (std::size_t k = 0; k < w.spots.size(); ++k) {
    const double dx = w.spots[k].position.x - w.probe_center.x;
    const double dy = w.spots[k].position.y - w.probe_center.y;
    if (dx * dx + dy * dy <= probe_radius * probe_radius) w.probe.push_back(k);
  }
  return w;
}

// Rotates the probe spots one step around the probe center — a localized
// stir that keeps them inside the disc (and therefore inside one tile).
void stir_probe(TemporalWorkload& w) {
  constexpr double kStep = 0.12;  // radians per frame
  const double c = std::cos(kStep);
  const double s = std::sin(kStep);
  for (const std::size_t k : w.probe) {
    const double dx = w.spots[k].position.x - w.probe_center.x;
    const double dy = w.spots[k].position.y - w.probe_center.y;
    w.spots[k].position = {w.probe_center.x + c * dx - s * dy,
                           w.probe_center.y + s * dx + c * dy};
  }
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = bench::has_flag(argc, argv, "--smoke");
  const std::string json_path = bench::parse_json_path(argc, argv);
  const double gate = smoke ? 1.4 : 2.0;
  const int frames = smoke ? 6 : 10;

  std::printf("== incremental resynthesis ablation (%s workload) ==\n",
              smoke ? "smoke" : "full");
  TemporalWorkload w = make_workload(smoke);
  const double moving_share = static_cast<double>(w.probe.size()) /
                              static_cast<double>(w.spots.size());
  std::printf("  %lld bent spots on %dx%d, 2x2 tiles, %.1f%% moving per frame\n",
              static_cast<long long>(w.synthesis.spot_count),
              w.synthesis.texture_width, w.synthesis.texture_height,
              100.0 * moving_share);

  core::DncSynthesizer full(w.synthesis, w.dnc);
  core::DncSynthesizer incremental(w.synthesis, w.dnc);
  core::SynthesisCache cache;

  // Prologue frame on both engines (uncounted): the incremental side's
  // first frame is always full, and it seeds the cache.
  full.synthesize(*w.field, w.spots);
  incremental.synthesize(*w.field, w.spots);
  cache.commit(incremental, *w.field,
               std::vector<core::SpotInstance>(w.spots));

  double full_modeled = 0.0;
  double incr_modeled = 0.0;
  std::int64_t tiles_reused = 0;
  std::int64_t spots_skipped = 0;
  std::int64_t spots_rendered = 0;
  bool identical = true;
  core::FrameStats full_stats, incr_stats;
  for (int frame = 0; frame < frames; ++frame) {
    stir_probe(w);

    const util::Stopwatch plan_watch;
    const core::SynthesisCache::Decision d =
        cache.plan(incremental, *w.field, w.spots);
    const double plan_seconds = plan_watch.seconds();
    incr_stats = incremental.synthesize(*w.field, w.spots,
                                        d.incremental ? &d.plan : nullptr);
    cache.commit(incremental, *w.field,
                 std::vector<core::SpotInstance>(w.spots));
    full_stats = full.synthesize(*w.field, w.spots);

    identical = identical && full.texture() == incremental.texture();
    full_modeled += full_stats.modeled_frame_seconds;
    incr_modeled += incr_stats.modeled_frame_seconds + plan_seconds;
    tiles_reused += incr_stats.tiles_reused;
    spots_skipped += incr_stats.spots_skipped;
    spots_rendered += incr_stats.spots_submitted;
  }
  full_modeled /= frames;
  incr_modeled /= frames;
  const double speedup = incr_modeled > 0.0 ? full_modeled / incr_modeled : 0.0;

  // The model's view of the same frames, from constants calibrated on the
  // measured full frame.
  const core::PerfModel model =
      core::PerfModel::calibrate(full_stats, w.dnc.pipes);
  const double predicted_full =
      model.predict(full_stats.spots_submitted, w.dnc.processors, w.dnc.pipes);
  const double predicted_incr = model.predict_incremental(
      spots_rendered / frames, w.dnc.processors, w.dnc.pipes,
      static_cast<int>(tiles_reused / frames));

  std::printf("  modeled frame (eq. 3.2): full %.4fs, incremental %.4fs -> %.2fx"
              " (gate: >= %.1fx)\n",
              full_modeled, incr_modeled, speedup, gate);
  std::printf("  model prediction:        full %.4fs, incremental %.4fs\n",
              predicted_full, predicted_incr);
  std::printf("  reuse: %.1f tiles/frame, %.0f spots skipped/frame, %.0f rendered/frame,"
              " bitwise %s\n",
              static_cast<double>(tiles_reused) / frames,
              static_cast<double>(spots_skipped) / frames,
              static_cast<double>(spots_rendered) / frames,
              identical ? "identical" : "DIFFERS");

  if (!json_path.empty()) {
    bench::JsonReport report;
    report.set("bench", std::string("incremental"));
    report.set("mode", std::string(smoke ? "smoke" : "full"));
    report.set("spots", w.synthesis.spot_count);
    report.set("texture_width",
               static_cast<std::int64_t>(w.synthesis.texture_width));
    report.set("frames", static_cast<std::int64_t>(frames));
    report.set("moving_share", moving_share);
    report.set("full.modeled_frame_seconds", full_modeled);
    report.set("incremental.modeled_frame_seconds", incr_modeled);
    report.set("incremental.tiles_reused_per_frame",
               static_cast<double>(tiles_reused) / frames);
    report.set("incremental.spots_skipped_per_frame",
               static_cast<double>(spots_skipped) / frames);
    report.set("incremental.spots_rendered_per_frame",
               static_cast<double>(spots_rendered) / frames);
    report.set("model.predicted_full_seconds", predicted_full);
    report.set("model.predicted_incremental_seconds", predicted_incr);
    // Lattice-budget canary: exact summation needs per-pixel sums inside
    // +/-kContributionExactBound; record the workload's actual peak.
    report.set("lattice.peak_pixel_magnitude", full_stats.peak_pixel_magnitude);
    report.set("lattice.exact_bound",
               static_cast<double>(util::simd::kContributionExactBound));
    report.set("speedup", speedup);
    report.set("bitwise_identical", identical);
    report.set("gate.threshold", gate);
    report.set("gate.pass", identical && speedup >= gate);
    report.write(json_path);
  }

  if (!identical) {
    std::printf("FAIL: incremental output diverged from full resynthesis\n");
    return 1;
  }
  if (speedup < gate) {
    std::printf("FAIL: modeled speedup %.2fx below the %.1fx gate\n", speedup,
                gate);
    return 1;
  }
  std::printf("PASS\n");
  return 0;
}
