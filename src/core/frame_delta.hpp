// Frame-to-frame spot diffing and dirty-tile derivation (temporal
// coherence).
//
// An animated spot population barely changes between frames: particles in
// slow regions of the flow do not move (advection adds an exact zero), and
// a particle in the plateau of its life cycle keeps its intensity bit for
// bit. FrameDelta classifies each spot index against the previous frame —
// unchanged / moved / born / died — and dirty_tiles() projects the changed
// spots' conservative pixel extents onto a tile grid, using the same
// overlap predicate as assign_spots_to_tiles. A tile none of whose spots
// changed keeps an assignment list identical to last frame's, and because
// rasterization is target-independent and accumulation is lattice-exact
// (render/rasterizer.hpp), its cached pixels are *bit-identical* to what a
// full resynthesis would produce — that is the invariant the incremental
// fuzz suite asserts.
//
// Diffing is positional: spot k this frame is compared with spot k last
// frame, which matches how particles::ParticleSystem evolves (respawn
// happens in place, so indices are stable). A population whose count grew
// treats the tail as born; one that shrank treats the missing tail as died.
// Comparison is plain double equality, so a NaN position always classifies
// as moved — conservative, never unsound.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/spot_source.hpp"
#include "core/tiling.hpp"
#include "render/overlay.hpp"

namespace dcsn::core {

/// What the engine consumes for an incremental frame: one flag per tile,
/// nonzero = the tile's spot set changed and it must be re-rendered, plus
/// the change itself, so a dirty tile can be rendered as a delta.
///
/// The delta is exact: the last frame's texture plus (Σ added − Σ removed)
/// over a tile equals re-rendering the tile (see "Temporal coherence" in
/// docs/ARCHITECTURE.md). `removed` and `added` must therefore describe the
/// whole change against the frame the engine rendered last; SynthesisCache
/// builds them. A plan with both empty carries no delta: its dirty tiles
/// render from scratch.
struct FramePlan {
  std::vector<std::uint8_t> tile_dirty;
  /// The last frame's instances of the moved and dying spots, intensity
  /// negated: rendered, they subtract the old contributions. Owned, not a
  /// view of the cache's snapshot, which the next commit replaces.
  std::vector<SpotInstance> removed;
  /// Indices into this frame's spots of the moved and born spots.
  std::vector<std::int64_t> added;

  [[nodiscard]] std::int64_t dirty_count() const {
    std::int64_t n = 0;
    for (const std::uint8_t d : tile_dirty) n += d != 0;
    return n;
  }
};

struct FrameDelta {
  /// Indices in [0, min(prev, cur)) whose position or intensity changed.
  std::vector<std::int64_t> changed;
  std::int64_t unchanged = 0;
  std::int64_t moved = 0;  ///< changed in place (position and/or intensity)
  std::int64_t born = 0;   ///< tail indices that exist only in `cur`
  std::int64_t died = 0;   ///< tail indices that exist only in `prev`
};

/// Positional diff of two spot snapshots.
[[nodiscard]] FrameDelta diff_spots(std::span<const SpotInstance> prev,
                                    std::span<const SpotInstance> cur);

/// One flag per tile: set when any changed spot's extent (old or new
/// position, half-width `extent_px`) overlaps the tile, plus every tile a
/// born spot enters or a dying spot leaves. Uses the same half-open overlap
/// predicate as assign_spots_to_tiles, so "clean" provably means "identical
/// assignment list".
[[nodiscard]] std::vector<std::uint8_t> dirty_tiles(
    const FrameDelta& delta, std::span<const SpotInstance> prev,
    std::span<const SpotInstance> cur, const render::WorldToImage& mapping,
    double extent_px, std::span<const Tile> tiles);

}  // namespace dcsn::core
