#include "core/synthesis_cache.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "core/spot_geometry.hpp"

namespace dcsn::core {

namespace {

bool finite_spot(const SpotInstance& s) {
  return std::isfinite(s.position.x) && std::isfinite(s.position.y) &&
         std::isfinite(s.intensity);
}

// The plan's delta: each moved or dying spot's old instance with its
// intensity negated, and the index of each moved or born spot. Left empty
// when a changed spot is not finite — a NaN or infinite contribution does
// not cancel — so the dirty tiles render from scratch.
void fill_delta(const FrameDelta& delta, std::span<const SpotInstance> prev,
                std::span<const SpotInstance> cur, FramePlan& plan) {
  const std::size_t shared = std::min(prev.size(), cur.size());
  for (const std::int64_t k : delta.changed) {
    plan.removed.push_back(prev[static_cast<std::size_t>(k)]);
    plan.added.push_back(k);
  }
  for (std::size_t k = shared; k < prev.size(); ++k) plan.removed.push_back(prev[k]);
  for (std::size_t k = shared; k < cur.size(); ++k) {
    plan.added.push_back(static_cast<std::int64_t>(k));
  }
  const bool finite =
      std::ranges::all_of(plan.removed, finite_spot) &&
      std::ranges::all_of(plan.added, [&](std::int64_t k) {
        return finite_spot(cur[static_cast<std::size_t>(k)]);
      });
  if (!finite) {
    plan.removed.clear();
    plan.added.clear();
    return;
  }
  for (SpotInstance& s : plan.removed) s.intensity = -s.intensity;
}

}  // namespace

SynthesisCache::Decision SynthesisCache::plan(const DncSynthesizer& engine,
                                              const field::VectorField& f,
                                              std::span<const SpotInstance> spots) {
  Decision d;
  if (!engine.dnc_config().tiled) return d;  // nothing to retain per tile
  if (!valid_) {
    planned_streak_ = 0;
    return d;
  }
  // Field guard: a swapped field object invalidates on identity, and a
  // field whose content fingerprint moved (domain, extremes or any grid
  // sample — raw bytes, exact) changes spot geometry everywhere. The
  // fingerprint is the same one TileStore keys tiles by, so the two caches
  // agree on what "same field" means. A non-finite fingerprint is rejected
  // outright: NaN content has stable hash bytes but no trustworthy
  // identity.
  const field::FieldFingerprint fp = field::fingerprint_field(f);
  if (&f != field_ || !fp.finite || fp != fingerprint_) {
    valid_ = false;
    planned_streak_ = 0;
    return d;
  }
  // Serial guard: the engine rendered a frame this cache did not commit
  // (another driver, or an abandoned frame) — the retained texture regions
  // are not last-committed-frame pixels any more.
  if (engine.frame_serial() != engine_serial_) {
    valid_ = false;
    planned_streak_ = 0;
    return d;
  }
  // Grid guard: reuse is expressed per tile of the snapshot's grid.
  if (!std::ranges::equal(engine.tiles(), tiles_)) {
    valid_ = false;
    planned_streak_ = 0;
    return d;
  }
  // Rebalance budget: planned frames freeze a kCostBalanced grid, so force
  // one full frame per interval to let the kd-cut follow the population.
  if (engine.dnc_config().tile_strategy == TileStrategy::kCostBalanced &&
      rebalance_interval > 0 && planned_streak_ >= rebalance_interval) {
    planned_streak_ = 0;
    return d;  // full frame; commit() re-snapshots the (possibly new) grid
  }

  // The same mapping + conservative extent the engine's preprocessing uses,
  // so "clean" below means "identical per-tile assignment list".
  const SpotGeometryGenerator generator(engine.config(), f);
  d.delta = diff_spots(spots_, spots);
  d.plan.tile_dirty = dirty_tiles(d.delta, spots_, spots, generator.mapping(),
                                  generator.max_extent_px(), tiles_);
  fill_delta(d.delta, spots_, spots, d.plan);
  d.incremental = true;
  ++planned_streak_;
  return d;
}

void SynthesisCache::commit(const DncSynthesizer& engine,
                            const field::VectorField& f,
                            std::vector<SpotInstance> spots) {
  spots_ = std::move(spots);
  tiles_.assign(engine.tiles().begin(), engine.tiles().end());
  field_ = &f;
  fingerprint_ = field::fingerprint_field(f);
  engine_serial_ = engine.frame_serial();
  valid_ = engine.dnc_config().tiled;
}

}  // namespace dcsn::core
