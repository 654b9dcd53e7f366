// Temporal synthesis cache: decides, frame by frame, which tiles of a tiled
// DncSynthesizer must be re-rendered and which can be served from the
// previous frame's pixels.
//
// The cache snapshots the last committed frame — its spot population, the
// engine's tile grid, a fingerprint of the data field, and the engine's
// frame serial. plan() diffs the new population against the snapshot
// (core::FrameDelta) and derives the dirty-tile set; the engine then skips
// generation, rasterization and readback for clean tiles and retains their
// region of the final texture untouched. Because rasterization is
// target-independent and accumulation lattice-exact, the retained pixels
// are bit-identical to a full resynthesis (the incremental fuzz suite
// asserts exactly that).
//
// The plan also carries the change itself (FramePlan::removed, ::added):
// the moved and dying spots' old instances with their intensity negated,
// copied out of the snapshot, and the indices of the moved and born spots.
// The engine renders a dirty tile as that delta when it is shorter than the
// tile's full list and adds the result onto the retained pixels — exact for
// the same lattice reason. A changed spot that is not finite leaves the
// delta empty, and the dirty tiles render from scratch.
//
// Invalidation story — plan() falls back to a full frame whenever reuse
// could be unsound:
//   * explicit invalidate(): REQUIRED whenever field contents change in
//     place — steering updates, or a time-varying dataset reloaded into
//     the same object. The automatic fingerprint below samples a dense
//     fixed grid; it makes accidental aliasing very unlikely but still
//     cannot see every localized in-place write, so the contract puts
//     in-place mutation on the caller;
//   * field fingerprint: a different field object invalidates on identity,
//     and a field whose content fingerprint (field::fingerprint_field — a
//     full FNV-1a hash over the domain, the maximum magnitude and a
//     16x16 sample grid, the same fingerprint core::TileStore keys tiles
//     by) moved invalidates automatically. The fingerprint makes the check
//     contentful — a per-frame field allocation that recycles the previous
//     frame's address cannot slip through on its identity alone (the
//     aliasing regression in tests/test_incremental.cpp pins a localized
//     edit the old 8-point probes missed) — but it is still sampled, which
//     is why in-place steering mutation additionally requires the explicit
//     invalidate();
//   * engine serial mismatch: every synthesize() bumps a serial; if the
//     engine rendered any frame the cache did not commit (another caller,
//     or a failed frame), the final texture's retained regions can no
//     longer be trusted;
//   * tile-grid reshape: a tile layout differing from the snapshot (e.g.
//     TileStrategy::kCostBalanced re-cutting after an invalidation, or a
//     config change) invalidates. During a valid incremental run the
//     engine deliberately keeps the grid frozen — see
//     DncSynthesizer::synthesize — so kCostBalanced re-balances only on
//     full frames.
//   * non-tiled engines: contiguous mode has no per-tile buffers to
//     retain; plan() always answers "full".
//
// kCostBalanced engines additionally get a rebalance budget: because
// planned frames freeze the tile grid, a drifting population would leave
// the frame-1 kd-cut arbitrarily imbalanced forever. After
// `rebalance_interval` consecutive planned frames the cache answers "full"
// once, letting the engine re-cut (the following commit snapshots the new
// grid and incremental planning resumes). Grid-strategy engines skip this
// — their layout is static, so a forced full frame would buy nothing.
#pragma once

#include <span>
#include <vector>

#include "core/dnc_synthesizer.hpp"
#include "core/frame_delta.hpp"
#include "field/fingerprint.hpp"

namespace dcsn::core {

class SynthesisCache {
 public:
  struct Decision {
    /// False: render a full frame (pass no plan to the engine).
    bool incremental = false;
    FramePlan plan;    ///< valid when incremental; owns its delta
    FrameDelta delta;  ///< diff vs the committed snapshot (incremental only)
  };

  /// Classifies the coming frame. `spots` is the snapshot the caller will
  /// pass to synthesize(); the cache does not retain the span.
  [[nodiscard]] Decision plan(const DncSynthesizer& engine,
                              const field::VectorField& f,
                              std::span<const SpotInstance> spots);

  /// Records a successfully synthesized frame. Call only after
  /// synthesize() returned (an exception means the frame was abandoned and
  /// must not be committed — the serial guard would catch the mistake, but
  /// don't make it).
  void commit(const DncSynthesizer& engine, const field::VectorField& f,
              std::vector<SpotInstance> spots);

  /// Drops the snapshot; the next frame renders fully. For steering
  /// applications that mutate the field in place.
  void invalidate() { valid_ = false; }

  [[nodiscard]] bool valid() const { return valid_; }

  /// Consecutive planned frames a TileStrategy::kCostBalanced engine may
  /// run before one full frame is forced so the kd-cut can re-balance;
  /// <= 0 disables the refresh. Ignored for kGrid.
  int rebalance_interval = 64;

 private:
  bool valid_ = false;
  std::vector<SpotInstance> spots_;  ///< last committed population
  std::vector<Tile> tiles_;          ///< tile grid it was rendered with
  const field::VectorField* field_ = nullptr;
  /// Content fingerprint of the committed field (domain + extremes + grid
  /// samples; see field/fingerprint.hpp). plan() rejects non-finite
  /// fingerprints outright, so a NaN-poisoned field conservatively renders
  /// full frames — the same behavior the old NaN-never-equal probes had.
  field::FieldFingerprint fingerprint_{};
  std::int64_t engine_serial_ = -1;
  int planned_streak_ = 0;  ///< consecutive incremental plans since a full frame
};

}  // namespace dcsn::core
