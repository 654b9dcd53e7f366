// The divide-and-conquer spot noise engine — the paper's contribution.
//
// The spot collection is partitioned into disjoint sets, one per process
// group. A process group drives exactly one graphics pipe (paper §4):
//
//   * the pipe is the group's graphics context: render::GraphicsPipe runs
//     one server thread that drains one bounded command queue, so the
//     paper's master — the one process that feeds the context — is the
//     pipe's own queue;
//   * participants claim chunks of a group's spot set, transform them into
//     command buffers and submit each buffer to the destination pipe
//     themselves;
//   * each pipe renders its group's spots into a partial texture; after all
//     groups complete, partial textures are gathered across the bus and
//     blended sequentially — the overhead term c of eq. 3.2.
//
// With DncConfig::tiled set, groups work on disjoint texture regions
// instead (texture decomposition): spots are assigned to regions by
// location in a preprocessing step, spots near boundaries are duplicated
// into every region they may touch, and the final compose is a cheap copy.
// A duplicated spot is still traced once: by its home group, which copies
// the mesh into the buffers of the spot's other regions.
//
// Ownership (see core/runtime.hpp): a synthesizer owns no worker threads,
// pipes or readback buffers — it *borrows* them from a core::Runtime (the
// process-global one by default). Each synthesize() call registers a frame
// job with the runtime; the calling thread always participates, and runtime
// pool workers join up to the session's processor budget. Because pool
// workers are fungible across every registered job, an idle session's
// capacity flows to a loaded one — cross-session work stealing over the
// same util::StealableWorkCounter that balances groups within a frame. The
// contribution lattice (util::simd::quantize_contribution) guarantees this
// cannot show in the pixels: rasterization is target-independent and
// accumulation is lattice-exact, so the texture is bitwise identical no
// matter which worker (of which session) generated a chunk or in which
// order a pipe received it.
//
// Frame termination needs no hand-off protocol: a participant that claims
// a chunk generates and submits it before it looks for more work, and pipes
// never leave a frame, so once every counter is drained and the caller is
// the last participant, every chunk sits in a pipe queue. The caller then
// fences the pipes that render and gathers.
//
// Process groups persist across frames; synthesize() is called once per
// animation frame with that frame's field and spot set, which is what makes
// the algorithm usable for the paper's interactive steering, browsing and
// multi-session service applications.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <exception>
#include <limits>
#include <memory>
#include <span>
#include <vector>

#include "core/frame_delta.hpp"
#include "core/runtime.hpp"
#include "core/spot_geometry.hpp"
#include "core/spot_params.hpp"
#include "core/tiling.hpp"
#include "render/bus.hpp"
#include "render/pipe.hpp"
#include "util/error.hpp"
#include "util/stopwatch.hpp"
#include "util/thread_annotations.hpp"
#include "util/threading.hpp"

namespace dcsn::core {

/// Thrown out of synthesize() when the frame was abandoned because the
/// job's cancellation token fired (see bind_frame_control and
/// core::SynthesisService). The engine stays usable afterwards, exactly as
/// with any other frame failure.
class JobCanceled : public util::Error {
 public:
  JobCanceled() : util::Error("synthesis job canceled") {}
};

/// Thrown out of synthesize() when the frame exceeded its deadline budget:
/// either the accumulated injected-delay penalty crossed
/// FrameControl::deadline_penalty_ns (virtual time, deterministic) or an
/// external watchdog flagged FrameControl::timed_out (wall time). Checked at
/// the same chunk-granularity points as cancellation, so a timed-out frame
/// abandons within one chunk and the engine rearms for the next job.
/// Deliberately NOT a TransientError: retrying a frame that blew its
/// deadline wastes the next deadline too — the service degrades or fails it.
class JobTimedOut : public util::Error {
 public:
  JobTimedOut() : util::Error("synthesis job exceeded its deadline") {}
};

/// Thrown out of synthesize() when the frame was abandoned because the
/// scheduler asked it to yield its driver (FrameControl::yield): a
/// higher-urgency job's deadline is at risk and every driver is busy. Like
/// a cancel this rides the failure protocol — the engine rearms for the
/// next job — but the *service* treats it differently: the job goes back to
/// the front of its session queue with its attempt counter rolled back, so
/// the re-dispatch redraws the identical fault schedule and consumes no
/// retry budget. Client futures never observe this exception.
class JobYielded : public util::Error {
 public:
  JobYielded() : util::Error("synthesis job yielded to a more urgent job") {}
};

/// Per-job control block bound to the engine for the duration of one
/// synthesize() call (SynthesisService binds one per dispatch attempt).
/// The service and watchdog write the flags; the engine polls them at chunk
/// granularity and charges injected delays / chunk progress back.
struct FrameControl {
  /// Caller-requested cancel: the frame aborts with JobCanceled.
  std::atomic<bool> cancel{false};
  /// External deadline/watchdog verdict: the frame aborts with JobTimedOut.
  std::atomic<bool> timed_out{false};
  /// Scheduler preemption request: the frame aborts with JobYielded at the
  /// next chunk checkpoint, freeing its driver for a deadline-at-risk job.
  std::atomic<bool> yield{false};
  /// Virtual nanoseconds of injected delay charged to this frame by the
  /// FaultInjector. Pure function of (fault seed, fault_key, workload) over
  /// a completed attempt — the deterministic half of deadline enforcement.
  std::atomic<std::int64_t> delay_penalty_ns{0};
  /// Chunks generated or submitted so far: the heartbeat a no-progress
  /// watchdog compares between polls.
  std::atomic<std::int64_t> progress{0};
  /// Abort with JobTimedOut once delay_penalty_ns exceeds this budget.
  std::int64_t deadline_penalty_ns = std::numeric_limits<std::int64_t>::max();
  /// Stable per-attempt identity mixed into every outcome-site fault key,
  /// so a retry of the same job draws a fresh (but still deterministic)
  /// fault schedule.
  std::uint64_t fault_key = 0;
};

/// How tiled mode carves the texture into per-pipe regions.
enum class TileStrategy {
  kGrid,          ///< fixed near-square grid, independent of the spots
  kCostBalanced,  ///< per-frame kd-cut balancing per-region spot work
};

struct DncConfig {
  /// Worker budget for one frame: at most this many participants (the
  /// calling thread plus runtime pool workers) serve the frame — the nP of
  /// eq. 3.2. The session's runtime grows its shared pool to at least this
  /// size.
  int processors = 4;
  int pipes = 1;  ///< graphics pipes / process groups, the nG of eq. 3.2
  /// Spots per command buffer: the streaming granularity from processors to
  /// pipes. Small enough to overlap generation with rendering, large enough
  /// to amortize queue traffic.
  std::int64_t chunk_spots = 32;
  /// Shared host<->graphics bus bandwidth; 0 disables the bus model. The
  /// paper's Onyx2 bus moves 800 MB/s.
  double bus_bytes_per_second = 0.0;
  /// Pipe state-change sync latency (see render::PipeConfig).
  double state_change_seconds = 20e-6;
  std::size_t pipe_queue_capacity = 64;
  /// Texture decomposition instead of full-texture gather-blend.
  bool tiled = false;
  /// Region layout in tiled mode (ignored otherwise).
  TileStrategy tile_strategy = TileStrategy::kGrid;
  /// Cross-group work stealing: idle participants pull chunk ranges from
  /// the most loaded group once their own group's counter drains. Off
  /// reproduces the static partition (the bench_ablation_balance baseline):
  /// each participant serves only its affinity group, and the caller alone
  /// also serves groups whose affinity participants never joined the frame.
  bool steal = true;
  /// Tiled mode only: memoize rendered tiles in the runtime's process-wide
  /// core::TileStore, keyed by content (spot subset, field fingerprint,
  /// raster config, tile rect). A dirty tile probes the store before
  /// regenerating; freshly rendered and retained-clean tiles are published
  /// back. Because the store is shared across every session of the runtime,
  /// N sessions browsing the same dataset rasterize each tile once —
  /// bit-identically to the uncached path (the PR 4 lattice guarantees a
  /// tile's pixels are a pure function of the key).
  bool tile_cache = false;
};

/// Everything measured about one synthesized frame. The benches derive the
/// paper's numbers from these.
struct FrameStats {
  double frame_seconds = 0.0;    ///< wall clock for the whole frame
  double genP_seconds = 0.0;     ///< CPU spot-shape time, summed over workers
  double genT_seconds = 0.0;     ///< pipe busy time, summed over pipes
  double gather_seconds = 0.0;   ///< sequential readback + blend (term c)
  double assign_seconds = 0.0;   ///< tiling preprocessing (tiled mode only)
  std::int64_t spots = 0;            ///< input spot count
  std::int64_t spots_submitted = 0;  ///< includes tiling duplicates
  std::int64_t duplicated_spots = 0;  ///< assignments beyond one per spot
  /// Tiled frames: meshes copied from a spot's home group into the buffers
  /// of its other active tiles instead of traced again — one per duplicate
  /// assignment among the active tiles, none of which costs genP.
  std::int64_t geometry_reused = 0;
  std::int64_t vertices = 0;
  std::uint64_t geometry_bytes = 0;  ///< vertex traffic to the pipes
  std::uint64_t readback_bytes = 0;  ///< texture traffic back to the host
  double pipe_stall_seconds = 0.0;   ///< pipes waiting on the bus
  double pipe_state_seconds = 0.0;   ///< pipes executing state changes
  render::RasterStats raster;

  // Temporal-coherence accounting (incremental frames only; see
  // core::SynthesisCache). A reused tile skipped its clear, generation,
  // rasterization and readback entirely; its region of the final texture
  // retains the previous frame's bit-exact pixels.
  std::int64_t tiles_reused = 0;   ///< clean tiles served from retention
  std::int64_t spots_skipped = 0;  ///< assignments not generated/rendered
  /// Dirty tiles rendered as a delta (the moved spots' old instances
  /// negated plus their new ones) and added onto the retained pixels.
  std::int64_t delta_tiles = 0;
  std::int64_t delta_spots = 0;  ///< assignments those delta tiles rendered

  // Content-addressed tile cache accounting (DncConfig::tile_cache engines;
  // see core::TileStore). A cache hit skips clear, generation,
  // rasterization and readback like a retained tile, but the pixels come
  // from the shared store — possibly rendered by another session.
  std::int64_t cache_tile_hits = 0;    ///< dirty tiles served from the store
  std::int64_t cache_tile_misses = 0;  ///< probed tiles that had to render
  std::int64_t cache_tiles_published = 0;  ///< tiles this frame inserted
  std::int64_t cache_evictions = 0;  ///< entries this frame's publishes evicted
  std::int64_t cache_spots_skipped = 0;  ///< assignments served by hits
  std::uint64_t cache_hit_bytes = 0;  ///< pixel bytes composed from the store

  /// The frame was served degraded: the service answered with retained
  /// stale pixels instead of synthesizing, because the deadline could not
  /// be met (see SubmitOptions::DeadlinePolicy::kDegrade). The engine never
  /// sets this — a synthesized frame is never degraded; the texture is the
  /// previous completed frame's, bit-exact.
  bool degraded = false;

  /// Largest |pixel| of the frame — the canary for the contribution
  /// lattice's exact-summation budget (util::simd::kContributionExactBound,
  /// 128): bit-determinism and incremental retention rest on per-pixel
  /// partial sums staying inside that range, and this is the cheap
  /// necessary-condition monitor. Workloads that push it toward the bound
  /// (it sits around 1 for natural-intensity populations) are leaving the
  /// design envelope; the determinism suite and bench_incremental assert
  /// generous headroom. Delta tiles fold in the peak of their readback (the
  /// partial sum Σnew − Σold) as well.
  double peak_pixel_magnitude = 0.0;

  // Load-balance accounting.
  std::int64_t stolen_chunks = 0;  ///< chunk ranges taken across groups
  std::int64_t stolen_spots = 0;   ///< spots inside those ranges
  double steal_seconds = 0.0;      ///< CPU time generating stolen chunks (subset of genP)
  /// Static-partition imbalance: max over groups of assigned spots divided
  /// by the per-group mean (1.0 = perfectly even). Measured before stealing.
  double imbalance = 1.0;

  // Multi-session runtime accounting.
  /// Seconds the job waited in a SynthesisService queue before a driver
  /// picked it up (0 for frames synthesized directly). Not part of
  /// modeled_frame_seconds: queue wait is contention, not work.
  double queue_wait_seconds = 0.0;
  /// Chunks of this frame generated by runtime pool workers while at least
  /// one other session's frame was registered with the runtime — shared
  /// capacity applied under cross-session contention. Zero whenever a
  /// session runs alone.
  std::int64_t cross_session_chunks = 0;
  std::int64_t cross_session_spots = 0;  ///< spots inside those chunks

  // Eq. 3.2 critical path, from per-thread CPU clocks. genP/genT attribution
  // uses CPU time (ThreadCpuStopwatch), so these stay meaningful when the
  // host has fewer cores than workers + pipes — wall-clock frame_seconds on
  // such a host serializes everything and cannot show a balancing win.
  double genP_critical_seconds = 0.0;  ///< max over workers of generation CPU
  double genT_critical_seconds = 0.0;  ///< max over pipes of busy CPU
  /// assign + max(genP critical, genT critical) + gather: the frame time a
  /// host with one core per worker and pipe would see (generation overlaps
  /// rendering, pipes run concurrently, pre/post processing is sequential).
  double modeled_frame_seconds = 0.0;

  /// Textures per second as the paper's tables report it.
  [[nodiscard]] double textures_per_second() const {
    return frame_seconds > 0.0 ? 1.0 / frame_seconds : 0.0;
  }

  /// Textures per second on the modeled fully-parallel host.
  [[nodiscard]] double modeled_textures_per_second() const {
    return modeled_frame_seconds > 0.0 ? 1.0 / modeled_frame_seconds : 0.0;
  }
};

class DncSynthesizer {
 public:
  /// Borrows workers, pipes and buffers from the process-global Runtime.
  DncSynthesizer(SynthesisConfig synthesis, DncConfig dnc);
  /// Borrows from an explicit Runtime (which must outlive the synthesizer).
  DncSynthesizer(SynthesisConfig synthesis, DncConfig dnc, Runtime& runtime);
  ~DncSynthesizer();

  DncSynthesizer(const DncSynthesizer&) = delete;
  DncSynthesizer& operator=(const DncSynthesizer&) = delete;

  /// Synthesizes one texture. `f` and `spots` must stay valid for the call.
  /// If a participant throws (e.g. a DCSN_CHECK inside spot generation),
  /// the frame is abandoned and the first exception is rethrown here; the
  /// engine stays usable for subsequent frames. Not re-entrant: one frame
  /// per session at a time (SynthesisService serializes per session).
  ///
  /// `plan` (tiled mode only, normally produced by core::SynthesisCache)
  /// enables temporal reuse: tiles whose flag is clear are not cleared,
  /// generated, rasterized or read back — their region of the final
  /// texture retains the previous frame's pixels, which is bit-identical
  /// to re-rendering them because their spot set did not change. A dirty
  /// tile whose share of the plan's delta is shorter than its full spot
  /// list renders only the delta and adds it onto its retained pixels —
  /// bit-identical too (see FramePlan). On a planned frame the tile grid is
  /// kept frozen (no kCostBalanced reshape): the plan was derived against
  /// the current grid.
  FrameStats synthesize(const field::VectorField& f,
                        std::span<const SpotInstance> spots,
                        const FramePlan* plan = nullptr);

  [[nodiscard]] const render::Framebuffer& texture() const { return final_; }
  [[nodiscard]] const SynthesisConfig& config() const { return synthesis_; }
  [[nodiscard]] const DncConfig& dnc_config() const { return dnc_; }
  [[nodiscard]] const std::vector<Tile>& tiles() const { return tiles_; }
  [[nodiscard]] render::PipeStats pipe_stats(int pipe) const;
  [[nodiscard]] Runtime& runtime() const { return *runtime_; }

  /// Bumped at the start of every synthesize() call (failed frames
  /// included). SynthesisCache uses it to detect frames it did not commit.
  [[nodiscard]] std::int64_t frame_serial() const { return frame_serial_; }

  /// Binds a per-job control block checked at chunk granularity during the
  /// frame: a cancel flag aborts with JobCanceled, a timed_out flag or an
  /// exhausted delay-penalty budget aborts with JobTimedOut — both through
  /// the failure protocol, leaving the engine armed for the next job. The
  /// block also carries the job's fault key and receives injected-delay
  /// penalties and chunk progress. Pass nullptr to unbind. Call between
  /// frames only (the service binds one per dispatch attempt).
  void bind_frame_control(FrameControl* control) { control_ = control; }

 private:
  struct Group {
    PipeLease pipe;
    std::unique_ptr<util::StealableWorkCounter> work;  ///< over the group's local indices
    /// Tiled mode: the global indices of the spots this group traces (its
    /// home spots, see prepare_fan_out); local index i names home[i].
    std::vector<std::int64_t> home;
    std::int64_t begin = 0;  ///< contiguous mode: global range [begin, end)
    std::int64_t end = 0;
    /// Cleared for a clean tile of an incremental frame: the group renders
    /// nothing (participants still steal for dirty groups) and the gather
    /// retains its texture region.
    bool active = true;
    /// This frame's tile was served from the shared TileStore: like a clean
    /// tile the group renders nothing, but the gather composes the pinned
    /// cache pixels instead of retaining final_'s region.
    bool cache_hit = false;
    /// The group renders its tile's share of the plan's delta (job_delta_)
    /// and the gather adds the readback onto final_.
    bool delta = false;
    /// A pool worker with this group as its affinity joined the frame. With
    /// steal off the caller serves the groups where this stays clear, so a
    /// frame completes when other sessions have absorbed the pool.
    std::atomic<bool> joined{false};
  };

  /// Per-participant accounting and identity for one frame. Slots are a
  /// fixed pool of `processors` entries: a participant occupies the lowest
  /// free slot and its index is its producer affinity (index mod pipes) —
  /// stable across leave/rejoin churn, which matters twice over: with
  /// steal=false a worker that drains its group and rejoins lands back on
  /// the *same* starved partition (the static-baseline semantics the
  /// balance ablation measures), and per-slot stats keep genP attribution
  /// per virtual processor, not per join.
  struct Slot {
    double genP_seconds = 0.0;
    double steal_seconds = 0.0;
    std::int64_t stolen_chunks = 0;
    std::int64_t stolen_spots = 0;
    std::int64_t cross_session_chunks = 0;
    std::int64_t cross_session_spots = 0;
    std::int64_t geometry_reused = 0;
  };
  /// One destination pipe's share of a chunk: the meshes it renders and
  /// the kPipeSubmit decisions pre-drawn for them.
  struct ChunkOutput {
    render::CommandBuffer buffer;
    FaultInjector::Batch submit_faults;
    std::int64_t spots = 0;  ///< meshes the chunk sends this pipe
  };

  struct FrameHandle;  // Runtime::SharedJob adapter (defined in the .cpp)

  /// One participant serving the current frame: joins (subject to the
  /// processor budget; the caller always fits) and produces until no work
  /// remains. The caller additionally waits for every other participant to
  /// leave before it returns. Returns whether any work was done.
  bool serve_frame(bool is_caller);
  bool participant_loop(Slot& slot, int ordinal, bool is_caller);
  /// One chunk of work, submitted before returning: claim from the
  /// affinity group, else steal from the most loaded group (steal on) or,
  /// for the caller, claim from a group nobody joined for (steal off).
  /// Returns false when nothing is claimable right now.
  bool producer_once(Slot& slot, int ordinal, bool is_caller);
  /// Generates one chunk of group `g`'s spots, bent spots traced in lane
  /// groups of SpotGeometryGenerator::kGroupSpots, into `out[g]`. A tiled
  /// frame also copies each mesh into `out[d]` for every other destination
  /// `d` of its spot (`out` has one entry per group). Per (spot,
  /// destination) it checks the kFieldSample fault site and pre-draws the
  /// kPipeSubmit decision into that destination's batch (applied later by
  /// submit_to_pipe): per-*spot* keys, not per-chunk, because chunk
  /// boundaries are not replay-stable — StealableWorkCounter claims from
  /// the front and steals from the back, so where the crossover chunk
  /// splits depends on the interleaving, and a `range.begin` key would draw
  /// a different fault set every run.
  void generate_chunk(int g, util::StealableWorkCounter::Range range, Slot& slot,
                      bool is_caller, std::span<ChunkOutput> out);
  /// Largest-remaining victim group, excluding `self`; -1 when every other
  /// counter is drained.
  [[nodiscard]] int pick_victim(int self) const;
  /// Records the first failure and marks the frame failed; participants
  /// leave at their next chunk boundary.
  void fail_frame(std::exception_ptr error);
  void check_canceled() const {
    if (control_ == nullptr) return;
    if (control_->cancel.load(std::memory_order_relaxed)) throw JobCanceled();
    if (control_->timed_out.load(std::memory_order_relaxed) ||
        control_->delay_penalty_ns.load(std::memory_order_relaxed) >
            control_->deadline_penalty_ns) {
      throw JobTimedOut();
    }
    if (control_->yield.load(std::memory_order_relaxed)) throw JobYielded();
  }
  /// Decorrelates the job's per-attempt fault key from the low-entropy
  /// spot/tile subkeys before they are XORed together. Raw attempt keys are
  /// often small consecutive integers, and `attempt ^ spot` collides across
  /// attempts (1^0 == 0^1 == 1): retry N+1 would redraw almost exactly the
  /// set of decisions that just failed retry N, so a doomed attempt stays
  /// doomed forever. The splitmix64 finalizer pushes attempt identity into
  /// the high bits first; mix(0) == 0, so an unbound control degenerates to
  /// the bare subkey.
  [[nodiscard]] static std::uint64_t mix_fault_key(std::uint64_t x) {
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
  }
  /// Outcome-site fault check: keys the bound job's fault_key with a stable
  /// per-spot/per-tile subkey and charges delay penalties to the job. A
  /// no-op (one pointer test) when the runtime has no injector.
  void fault_point(FaultSite site, std::uint64_t subkey) const {
    if (faults_ == nullptr) return;
    faults_->check(
        site,
        mix_fault_key(control_ != nullptr ? control_->fault_key : 0) ^ subkey,
        control_ != nullptr ? &control_->delay_penalty_ns : nullptr);
  }
  /// Contained variant for sites where an injected throw degrades the
  /// operation instead of failing the frame (a faulted probe is a miss, a
  /// faulted publish is skipped): returns false on a throw-hit.
  [[nodiscard]] bool fault_point_contained(FaultSite site,
                                           std::uint64_t subkey) const {
    try {
      fault_point(site, subkey);
      return true;
    } catch (const FaultInjected&) {
      return false;
    }
  }
  /// Pre-draws one outcome-site decision for a stable subkey into `batch`
  /// (pure; counters and effects deferred to the apply at the effect site).
  /// A no-op when the runtime has no injector.
  void fault_predraw(FaultSite site, std::uint64_t subkey,
                     FaultInjector::Batch* batch) const {
    if (faults_ == nullptr) return;
    faults_->predraw(
        site,
        mix_fault_key(control_ != nullptr ? control_->fault_key : 0) ^ subkey,
        batch);
  }
  /// All pipe submissions funnel here: applies the buffer's pre-drawn
  /// per-spot kPipeSubmit batch, then submits and beats the chunk-progress
  /// heartbeat.
  void submit_to_pipe(Group& group, render::CommandBuffer&& buffer,
                      const FaultInjector::Batch& submit_faults) const;
  /// Relative per-spot cost weights for the kd-cut; empty means uniform.
  [[nodiscard]] std::vector<double> estimate_spot_costs(
      std::span<const SpotInstance> spots) const;
  void prepare_tiles(std::span<const SpotInstance> spots);
  /// Incremental frames: assigns the plan's delta (removed instances, then
  /// added spots) to tiles into job_delta_, in global indices. Every list
  /// is empty when there is no plan or the plan carries no delta.
  void assign_delta(const FramePlan* plan);
  /// Tiled frame setup, after the groups' active flags are set: gives each
  /// spot its destinations (the active groups whose list holds it) and a
  /// home among them, which traces it; fills every Group::home and resets
  /// the work counters over them.
  void prepare_fan_out(std::size_t spot_count);
  /// Tiled frames: the active groups listing global spot `k`, in group
  /// order.
  [[nodiscard]] std::span<const std::int32_t> destinations(std::int64_t k) const {
    const auto at = static_cast<std::size_t>(k);
    return std::span(dest_groups_).subspan(
        static_cast<std::size_t>(dest_begin_[at]),
        static_cast<std::size_t>(dest_begin_[at + 1] - dest_begin_[at]));
  }
  [[nodiscard]] std::int64_t global_index(const Group& group, std::int64_t local) const;
  /// Global index `k` names this frame's spot k, or for k >= spot count the
  /// plan's removed instance k - spot count.
  [[nodiscard]] const SpotInstance& spot_at(std::int64_t k) const {
    const auto n = static_cast<std::int64_t>(job_spots_.size());
    return k < n ? job_spots_[static_cast<std::size_t>(k)]
                 : job_removed_[static_cast<std::size_t>(k - n)];
  }

  SynthesisConfig synthesis_;  // lock-lint: unguarded(immutable after construction)
  DncConfig dnc_;              // lock-lint: unguarded(immutable after construction)
  Runtime* runtime_;           // lock-lint: unguarded(immutable after construction)
  /// Hash of every pixel-affecting synthesis/raster parameter — the
  /// config component of this engine's TileStore keys (computed once;
  /// excludes inputs like the spot seed that enter through the spot list).
  std::uint64_t tile_key_config_hash_ = 0;  // lock-lint: unguarded(immutable after construction)

  std::shared_ptr<render::Bus> bus_;  // lock-lint: unguarded(immutable after construction)
  /// One per group in tiled mode.
  std::vector<Tile> tiles_;   // lock-lint: unguarded(caller thread, between frames)
  // Group is immovable (holds an atomic).
  std::vector<std::unique_ptr<Group>> groups_;  // lock-lint: unguarded(sized at construction)
  render::Framebuffer final_;       // lock-lint: unguarded(caller thread, between frames)
  std::int64_t frame_serial_ = 0;   // lock-lint: unguarded(caller thread, between frames)
  FrameControl* control_ = nullptr;  // lock-lint: unguarded(caller thread, between frames; pointee internally synchronized)
  /// Cached runtime_->faults(); null disables every injection site.
  FaultInjector* faults_ = nullptr;  // lock-lint: unguarded(immutable after construction)

  // Per-frame job state, written by synthesize() before the job opens and
  // read-only while participants run — publication happens-before via the
  // frame_open_ transition under job_mutex_.
  const field::VectorField* job_field_ = nullptr;  // lock-lint: unguarded(frame-setup, see above)
  std::span<const SpotInstance> job_spots_;        // lock-lint: unguarded(frame-setup, see above)
  std::unique_ptr<SpotGeometryGenerator> job_generator_;  // lock-lint: unguarded(frame-setup, see above)
  TileAssignment job_assignment_;                  // lock-lint: unguarded(frame-setup, see above)
  /// Incremental frames: the plan's removed instances and the delta's
  /// per-tile lists, in global indices (see spot_at).
  std::span<const SpotInstance> job_removed_;      // lock-lint: unguarded(frame-setup, see above)
  TileAssignment job_delta_;                       // lock-lint: unguarded(frame-setup, see above)
  /// Tiled frames: spot k's destinations are
  /// dest_groups_[dest_begin_[k], dest_begin_[k + 1]) (see destinations).
  std::vector<std::int64_t> dest_begin_;   // lock-lint: unguarded(frame-setup, see above)
  std::vector<std::int32_t> dest_groups_;  // lock-lint: unguarded(frame-setup, see above)

  // Participation state for the frame in flight.
  std::shared_ptr<FrameHandle> frame_handle_;  // lock-lint: unguarded(caller thread, between frames)
  /// Guards the participation fields below + slots_ growth.
  util::Mutex job_mutex_;
  util::CondVar job_cv_;  ///< participant transitions
  /// Accepting participants.
  bool frame_open_ DCSN_GUARDED_BY(job_mutex_) = false;
  /// Includes the caller's reserved seat.
  int active_participants_ DCSN_GUARDED_BY(job_mutex_) = 0;
  // Start gate: early participants line up until `gate_expected_` have
  // joined or the deadline passes (see synthesize for why).
  bool gate_open_ DCSN_GUARDED_BY(job_mutex_) = true;
  int gate_expected_ DCSN_GUARDED_BY(job_mutex_) = 1;
  // determinism: the gate deadline bounds how long participants line up —
  // scheduling only, never pixels (the lattice makes join order invisible).
  std::chrono::steady_clock::time_point gate_deadline_ DCSN_GUARDED_BY(job_mutex_){};
  /// Fixed: one per processor. Grown under job_mutex_; each occupied slot is
  /// then written by its one participant only.
  std::vector<Slot> slots_ DCSN_GUARDED_BY(job_mutex_);
  /// Slot 0 is the caller's.
  std::vector<std::uint8_t> slot_taken_ DCSN_GUARDED_BY(job_mutex_);

  // Frame failure protocol: the first participant to throw stores its
  // exception and flips the flag; everyone else drains out and synthesize()
  // rethrows on the caller thread.
  std::atomic<bool> frame_failed_{false};
  util::Mutex error_mutex_;
  std::exception_ptr frame_error_ DCSN_GUARDED_BY(error_mutex_);
};

}  // namespace dcsn::core
