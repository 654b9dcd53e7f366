#include "core/dnc_synthesizer.hpp"

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <numeric>
#include <string>
#include <thread>
#include <utility>

#include "core/tile_store.hpp"
#include "field/fingerprint.hpp"
#include "util/hash.hpp"

namespace dcsn::core {

using namespace std::chrono_literals;

namespace {

std::uint64_t fold_pod(const auto& value, std::uint64_t h) {
  return util::fnv1a(&value, sizeof(value), h);
}

/// The config component of a TileStore key: every parameter that changes
/// rendered pixels. Deliberately excluded: spot_count and seed (spots are an
/// explicit key input), scheduling knobs (processors, pipes, chunking,
/// stealing, bus/pipe timing models — the lattice makes pixels independent
/// of all of them), and the tile layout (the key carries the rect itself).
std::uint64_t hash_pixel_config(const SynthesisConfig& sc,
                                render::RasterAlgorithm algorithm) {
  std::uint64_t h = util::kFnv1aOffset;
  h = fold_pod(sc.texture_width, h);
  h = fold_pod(sc.texture_height, h);
  h = fold_pod(sc.spot_radius_px, h);
  h = fold_pod(static_cast<int>(sc.kind), h);
  h = fold_pod(sc.ellipse.max_stretch, h);
  h = fold_pod(sc.bent.mesh_cols, h);
  h = fold_pod(sc.bent.mesh_rows, h);
  h = fold_pod(sc.bent.length_px, h);
  h = fold_pod(sc.bent.trace_substeps, h);
  h = fold_pod(static_cast<int>(sc.profile_shape), h);
  h = fold_pod(sc.profile_resolution, h);
  h = fold_pod(sc.intensity_scale, h);
  const bool windowed = sc.window.has_value();
  h = fold_pod(windowed, h);
  if (windowed) {
    h = fold_pod(sc.window->x0, h);
    h = fold_pod(sc.window->y0, h);
    h = fold_pod(sc.window->x1, h);
    h = fold_pod(sc.window->y1, h);
  }
  // The two raster algorithms are coverage-identical but not bit-identical
  // (see test_rasterizer.cpp), so they must never share tiles.
  h = fold_pod(static_cast<int>(algorithm), h);
  return h;
}

}  // namespace

// Adapter handed to the Runtime registry. Pool workers may hold a snapshot
// of the registry from before a frame ended (or before the synthesizer was
// destroyed), so serve() takes a shared lock that detach() — called from
// the synthesizer's destructor — upgrades against. A post-frame serve()
// finds the frame closed and returns immediately; a post-destruction one
// finds the owner detached.
struct DncSynthesizer::FrameHandle : Runtime::SharedJob {
  explicit FrameHandle(DncSynthesizer* o) : owner(o) {}

  bool serve() override {
    util::ReaderLock lock(mutex);
    return owner != nullptr && owner->serve_frame(/*is_caller=*/false);
  }

  void detach() {
    util::WriterLock lock(mutex);
    owner = nullptr;
  }

  util::SharedMutex mutex;
  DncSynthesizer* owner DCSN_GUARDED_BY(mutex);
};

DncSynthesizer::DncSynthesizer(SynthesisConfig synthesis, DncConfig dnc)
    : DncSynthesizer(synthesis, dnc, Runtime::global()) {}

DncSynthesizer::DncSynthesizer(SynthesisConfig synthesis, DncConfig dnc,
                               Runtime& runtime)
    : synthesis_(synthesis),
      dnc_(dnc),
      runtime_(&runtime),
      final_(synthesis.texture_width, synthesis.texture_height),
      faults_(runtime.faults()),
      memo_stride_(static_cast<std::size_t>(synthesis.vertices_per_spot())),
      memo_per_block_(std::max<std::size_t>(
          1, kMemoBlockBytes / (memo_stride_ * sizeof(render::MeshVertex)))) {
  DCSN_CHECK(dnc_.pipes >= 1, "need at least one graphics pipe");
  DCSN_CHECK(dnc_.processors >= dnc_.pipes,
             "each pipe needs at least one processor (its master)");
  DCSN_CHECK(dnc_.chunk_spots >= 1, "chunk size must be positive");

  bus_ = std::make_shared<render::Bus>(dnc_.bus_bytes_per_second);
  tile_key_config_hash_ = hash_pixel_config(synthesis_, dnc_.raster_algorithm);

  // Tiled mode: each pipe renders one region; otherwise each pipe renders
  // the full texture and the partials are blended. The cost-balanced
  // strategy re-derives the regions from each frame's spots; the grid is
  // its spot-independent starting point.
  if (dnc_.tiled) {
    tiles_ = make_tile_grid(synthesis_.texture_width, synthesis_.texture_height,
                            dnc_.pipes);
  }

  groups_.reserve(static_cast<std::size_t>(dnc_.pipes));
  for (int g = 0; g < dnc_.pipes; ++g) groups_.push_back(std::make_unique<Group>());
  auto profile = render::SpotProfile::make_shared(synthesis_.profile_shape,
                                                  synthesis_.profile_resolution);
  for (int g = 0; g < dnc_.pipes; ++g) {
    Group& group = *groups_[static_cast<std::size_t>(g)];
    render::PipeConfig pc;
    if (dnc_.tiled) {
      const Tile& tile = tiles_[static_cast<std::size_t>(g)];
      pc.width = tile.width;
      pc.height = tile.height;
    } else {
      pc.width = synthesis_.texture_width;
      pc.height = synthesis_.texture_height;
    }
    pc.state_change_seconds = dnc_.state_change_seconds;
    pc.queue_capacity = dnc_.pipe_queue_capacity;
    pc.raster_algorithm = dnc_.raster_algorithm;
    // Borrowed, not owned: an idle pipe with a matching behavioral config
    // is reshaped (resize_target) instead of constructing a fresh server
    // thread; the lease hands it back when this session ends.
    group.pipe = runtime_->acquire_pipe(pc, bus_, g);
    group.work = std::make_unique<util::StealableWorkCounter>(0, dnc_.chunk_spots);
    // Initial pipe state: the spot profile texture and additive blending.
    // Set once; per-spot state changes are exactly what the design avoids.
    group.pipe->bind_profile(profile);
    group.pipe->set_blend_mode(render::BlendMode::kAdditive);
    if (dnc_.tiled) {
      const Tile& tile = tiles_[static_cast<std::size_t>(g)];
      group.pipe->set_viewport_origin(tile.x0, tile.y0);
    }
    // Drain setup commands now so their state-change cost never bleeds into
    // the first frame's measurements.
    group.pipe->finish();
  }

  // The shared pool must be able to field this session's processor budget
  // even if this is the largest session the process has seen.
  runtime_->ensure_workers(dnc_.processors);
  frame_handle_ = std::make_shared<FrameHandle>(this);
}

DncSynthesizer::~DncSynthesizer() {
  // After detach, no pool worker can re-enter this object even if it still
  // holds the handle from an old registry snapshot; the unique lock inside
  // waits out any serve() in flight. Pipes return to the runtime pool via
  // their leases.
  frame_handle_->detach();
}

render::PipeStats DncSynthesizer::pipe_stats(int pipe) const {
  DCSN_CHECK(pipe >= 0 && pipe < dnc_.pipes, "pipe index out of range");
  return groups_[static_cast<std::size_t>(pipe)]->pipe->stats();
}

std::int64_t DncSynthesizer::global_index(const Group& group,
                                          std::int64_t local) const {
  if (group.tile_indices == nullptr) return group.begin + local;
  const auto n = static_cast<std::int64_t>(group.tile_indices->size());
  const std::int64_t at = group.start + local;
  return (*group.tile_indices)[static_cast<std::size_t>(at < n ? at : at - n)];
}

void DncSynthesizer::submit_to_pipe(Group& group, render::CommandBuffer&& buffer,
                                    const FaultInjector::Batch& submit_faults) const {
  // The batch holds one pre-drawn decision per spot in the buffer, keyed by
  // the spot's global index (see generate_chunk): whichever participant
  // submits the buffer, on whichever pipe, after whatever stealing split
  // the range, the decisions are the same — so a frame attempt fails under
  // a given seed iff one of *its* spots is a throw-hit, independent of
  // scheduling (the replay-determinism invariant).
  if (faults_ != nullptr) {
    faults_->apply(FaultSite::kPipeSubmit, submit_faults,
                   control_ != nullptr ? &control_->delay_penalty_ns : nullptr);
  }
  group.pipe->submit(std::move(buffer));
  if (control_ != nullptr) {
    control_->progress.fetch_add(1, std::memory_order_relaxed);
  }
}

std::vector<double> DncSynthesizer::estimate_spot_costs(
    std::span<const SpotInstance> spots) const {
  // Relative weights only: the kd-cut is scale-invariant, so the absolute
  // per-spot seconds (PerfModel::per_spot_seconds) never move a cut — what
  // matters is how cost *varies* across spots. For bent spots that variation
  // is trace length: in stagnant flow the streamline tracer stops at the
  // seed and the ribbon degrades to a cheap point quad. Local speed over the
  // field max is the one-sample predictor of that, with a floor for the
  // degraded quad's fixed cost. Point/ellipse spots cost the same
  // everywhere, so they keep uniform weights (empty result).
  if (synthesis_.kind != SpotKind::kBent) return {};
  const double max_mag = job_field_->max_magnitude();
  if (!(max_mag > 0.0)) return {};
  constexpr double kDegradedQuadCost = 0.15;  // point quad vs full ribbon
  std::vector<double> costs(spots.size());
  for (std::size_t k = 0; k < spots.size(); ++k) {
    const field::Vec2 v = job_field_->sample(spots[k].position);
    const double speed = std::sqrt(v.x * v.x + v.y * v.y);
    costs[k] = kDegradedQuadCost + std::min(speed / max_mag, 1.0);
  }
  return costs;
}

void DncSynthesizer::prepare_geometry_memo(std::size_t spot_count) {
  memo_slot_.clear();  // off unless this frame has duplicates to share
  memo_blocks_.clear();
  for (auto& group : groups_) group->start = 0;
  if (synthesis_.kind != SpotKind::kBent) return;
  const auto active = std::count_if(groups_.begin(), groups_.end(),
                                    [](const auto& g) { return g->active; });
  if (active < 2) return;
  // Count each spot's active tiles, then number the spots with two or more.
  memo_slot_.assign(spot_count, 0);
  for (const auto& group : groups_) {
    if (!group->active) continue;
    for (const std::int64_t k : *group->tile_indices) {
      ++memo_slot_[static_cast<std::size_t>(k)];
    }
  }
  std::int32_t slots = 0;
  for (std::int32_t& slot : memo_slot_) slot = slot >= 2 ? slots++ : -1;
  if (slots == 0) {
    memo_slot_.clear();
    return;
  }
  // Every tile lists its spots in global order, so producers of two tiles
  // that start together reach their shared spots together and keep finding
  // each other's claims; a claim deferred to the end of a chunk then often
  // ends in a private trace. Active tile i of n starts i/n of the way into
  // its list (wrapping), so overlapping tiles walk their shared spots at
  // different times and the later one finds the mesh ready.
  std::int64_t rank = 0;
  for (auto& group : groups_) {
    if (!group->active) continue;
    group->start = group->total_items * rank++ / active;
  }
  // Blocks sized to this frame's duplicates, freed when its parallel phase
  // ends; fresh entries start kMemoEmpty. Participants see them through the
  // frame-open transition.
  const std::size_t per_block = memo_per_block_;
  const std::size_t blocks = (static_cast<std::size_t>(slots) + per_block - 1) / per_block;
  memo_blocks_.reserve(blocks);
  for (std::size_t b = 0; b < blocks; ++b) {
    memo_blocks_.push_back({std::make_unique<MemoEntry[]>(per_block),
                            std::make_unique<render::MeshVertex[]>(per_block * memo_stride_)});
  }
}

bool DncSynthesizer::generate_memoized(std::int64_t k, render::CommandBuffer& out,
                                       Slot& slot, bool may_defer) const {
  const SpotInstance& spot = spot_at(k);
  const auto index = static_cast<std::size_t>(memo_slot_[static_cast<std::size_t>(k)]);
  const MemoBlock& block = memo_blocks_[index / memo_per_block_];
  const std::size_t at = index % memo_per_block_;
  MemoEntry& entry = block.entries[at];
  render::MeshVertex* stored = block.vertices.get() + at * memo_stride_;

  std::uint8_t state = entry.state.load(std::memory_order_acquire);
  if (state == kMemoEmpty &&
      entry.state.compare_exchange_strong(state, kMemoClaimed,
                                          std::memory_order_acquire)) {
    job_generator_->generate(spot, out);
    const render::MeshHeader& mesh = out.meshes().back();
    const auto vertices = out.vertices_of(mesh);
    std::copy(vertices.begin(), vertices.end(), stored);
    entry.intensity = mesh.intensity;
    entry.cols = mesh.cols;
    entry.rows = mesh.rows;
    entry.state.store(kMemoReady, std::memory_order_release);
    return true;
  }
  if (state == kMemoReady) {
    const auto vertices = out.add_mesh(entry.intensity, entry.cols, entry.rows);
    std::copy_n(stored, vertices.size(), vertices.begin());
    slot.geometry_reused += 1;
    return true;
  }
  // Claimed and still being traced by another producer: never wait.
  if (may_defer) return false;
  job_generator_->generate(spot, out);
  return true;
}

void DncSynthesizer::assign_delta(const FramePlan* plan) {
  if (plan == nullptr || (plan->removed.empty() && plan->added.empty())) {
    job_delta_ = {.per_tile = std::vector<std::vector<std::int64_t>>(tiles_.size())};
    return;
  }
  const auto n = static_cast<std::int64_t>(job_spots_.size());
  const auto removed = static_cast<std::int64_t>(plan->removed.size());
  std::vector<SpotInstance> delta(plan->removed.begin(), plan->removed.end());
  delta.reserve(plan->removed.size() + plan->added.size());
  for (const std::int64_t k : plan->added) {
    DCSN_CHECK(k >= 0 && k < n, "plan adds a spot index outside this frame");
    delta.push_back(job_spots_[static_cast<std::size_t>(k)]);
  }
  // The overlap predicate of the full assignment (and of dirty_tiles): an
  // old instance lands in exactly the tiles whose last list held it.
  job_delta_ = assign_spots_to_tiles(delta, job_generator_->mapping(),
                                     job_generator_->max_extent_px(), tiles_);
  for (auto& list : job_delta_.per_tile) {
    for (std::int64_t& i : list) {
      i = i < removed ? n + i : plan->added[static_cast<std::size_t>(i - removed)];
    }
  }
}

void DncSynthesizer::prepare_tiles(std::span<const SpotInstance> spots) {
  if (dnc_.tile_strategy != TileStrategy::kCostBalanced || spots.empty()) return;
  const std::vector<double> costs = estimate_spot_costs(spots);
  std::vector<Tile> tiles =
      make_balanced_tiles(synthesis_.texture_width, synthesis_.texture_height,
                          dnc_.pipes, spots, job_generator_->mapping(), costs);
  // Reshape only the pipes whose region actually moved; for a static spot
  // set this settles after the first frame.
  for (int g = 0; g < dnc_.pipes; ++g) {
    Group& group = *groups_[static_cast<std::size_t>(g)];
    const Tile& old_tile = tiles_[static_cast<std::size_t>(g)];
    const Tile& new_tile = tiles[static_cast<std::size_t>(g)];
    if (new_tile.width != old_tile.width || new_tile.height != old_tile.height) {
      group.pipe->resize_target(new_tile.width, new_tile.height);
    }
    if (new_tile.x0 != old_tile.x0 || new_tile.y0 != old_tile.y0) {
      group.pipe->set_viewport_origin(new_tile.x0, new_tile.y0);
    }
  }
  tiles_ = std::move(tiles);
}

FrameStats DncSynthesizer::synthesize(const field::VectorField& f,
                                      std::span<const SpotInstance> spots,
                                      const FramePlan* plan) {
  const util::Stopwatch frame_watch;
  ++frame_serial_;
  FrameStats stats;
  stats.spots = static_cast<std::int64_t>(spots.size());
  DCSN_CHECK(plan == nullptr || dnc_.tiled,
             "an incremental plan requires tiled mode (per-tile retention)");
  DCSN_CHECK(plan == nullptr || plan->tile_dirty.size() == tiles_.size(),
             "incremental plan must flag exactly one entry per tile");
  check_canceled();  // a pre-start cancel abandons the frame before any work

  job_field_ = &f;
  job_spots_ = spots;
  job_removed_ = plan != nullptr ? std::span<const SpotInstance>(plan->removed)
                                 : std::span<const SpotInstance>();
  job_generator_ = std::make_unique<SpotGeometryGenerator>(synthesis_, f);

  // --- preprocessing: partition the spot collection ---
  // Probe/fingerprint costs are charged to assign_seconds on purpose: they
  // are real per-frame preprocessing, and modeled_frame_seconds must not
  // get them for free.
  const util::Stopwatch assign_watch;
  std::vector<std::int64_t> assigned(static_cast<std::size_t>(dnc_.pipes), 0);
  // Content-addressed sharing (DncConfig::tile_cache): each tile's key is
  // derived from the inputs its pixels are a pure function of. A
  // NaN-poisoned field is uncacheable content — render this frame without
  // the store rather than share tiles keyed on unstable identity.
  TileStore* store = nullptr;
  std::uint64_t field_fp = 0;
  if (dnc_.tiled && dnc_.tile_cache) {
    const field::FieldFingerprint fp = field::fingerprint_field(f);
    if (fp.finite) {
      store = &runtime_->tile_store();
      field_fp = fp.hash;
    }
  }
  std::vector<TileKey> tile_keys;
  std::vector<TileStore::Checkout> checkouts;  // pins released on any exit
  if (dnc_.tiled) {
    // A planned frame keeps the tile grid frozen: the dirty flags were
    // derived against it, and reshaping would invalidate the retained
    // regions. kCostBalanced therefore re-balances only on full frames.
    if (plan == nullptr) prepare_tiles(spots);
    job_assignment_ = assign_spots_to_tiles(spots, job_generator_->mapping(),
                                            job_generator_->max_extent_px(), tiles_);
    assign_delta(plan);
    tile_keys.resize(static_cast<std::size_t>(dnc_.pipes));
    checkouts.resize(static_cast<std::size_t>(dnc_.pipes));
    for (int g = 0; g < dnc_.pipes; ++g) {
      Group& group = *groups_[static_cast<std::size_t>(g)];
      const auto& full = job_assignment_.per_tile[static_cast<std::size_t>(g)];
      const bool dirty =
          plan == nullptr || plan->tile_dirty[static_cast<std::size_t>(g)] != 0;
      // The delta renders when it is the shorter list; an empty one means
      // the plan carries no delta for this tile.
      const auto& delta = job_delta_.per_tile[static_cast<std::size_t>(g)];
      group.delta = dirty && !delta.empty() && delta.size() < full.size();
      group.tile_indices = group.delta ? &delta : &full;
      const auto n = static_cast<std::int64_t>(group.tile_indices->size());
      group.cache_hit = false;
      if (store != nullptr) {
        // Keys name the tile's content, so they hash the full list.
        const Tile& tile = tiles_[static_cast<std::size_t>(g)];
        tile_keys[static_cast<std::size_t>(g)] =
            TileKey{hash_spot_subset(spots, full), field_fp,
                    tile_key_config_hash_, tile.x0, tile.y0, tile.width,
                    tile.height};
        if (dirty) {
          auto& checkout = checkouts[static_cast<std::size_t>(g)];
          // Fault site kStoreProbe is contained: a throw-hit is a failed
          // lookup, and a failed lookup is a miss — render the tile.
          if (fault_point_contained(FaultSite::kStoreProbe,
                                    0x70726f6265ULL ^
                                        static_cast<std::uint64_t>(g))) {
            checkout = store->probe(tile_keys[static_cast<std::size_t>(g)]);
          }
          group.cache_hit = static_cast<bool>(checkout);
          if (group.cache_hit) {
            stats.cache_tile_hits += 1;
            stats.cache_spots_skipped += static_cast<std::int64_t>(full.size());
          } else {
            stats.cache_tile_misses += 1;
          }
        }
      }
      group.active = dirty && !group.cache_hit;
      if (group.active) {
        group.total_items = n;
        group.work->reset(n);
        assigned[static_cast<std::size_t>(g)] = n;
        stats.spots_submitted += n;
        if (group.delta) {
          stats.delta_tiles += 1;
          stats.delta_spots += n;
        }
      } else {
        // Clean tile (identical spot set as last frame) or cache hit
        // (identical content already rendered, possibly by another
        // session): nothing to generate or rasterize. The group's
        // participants still act as thieves for dirty groups.
        group.total_items = 0;
        group.work->reset(0);
        if (!group.cache_hit) {
          stats.tiles_reused += 1;
          stats.spots_skipped += static_cast<std::int64_t>(full.size());
        }
      }
    }
    stats.duplicated_spots = job_assignment_.duplicates;
    prepare_geometry_memo(spots.size() + job_removed_.size());
  } else {
    const auto n = static_cast<std::int64_t>(spots.size());
    std::int64_t begin = 0;
    for (int g = 0; g < dnc_.pipes; ++g) {
      Group& group = *groups_[static_cast<std::size_t>(g)];
      const std::int64_t share = n / dnc_.pipes + (g < n % dnc_.pipes ? 1 : 0);
      group.tile_indices = nullptr;
      group.delta = false;
      group.begin = begin;
      group.end = begin + share;
      begin += share;
      group.total_items = share;
      group.work->reset(share);
      group.active = true;
      group.cache_hit = false;
      assigned[static_cast<std::size_t>(g)] = share;
    }
    stats.spots_submitted = n;
  }
  stats.assign_seconds = assign_watch.seconds();

  const std::int64_t assigned_total =
      std::accumulate(assigned.begin(), assigned.end(), std::int64_t{0});
  const std::int64_t assigned_max =
      *std::max_element(assigned.begin(), assigned.end());
  stats.imbalance = assigned_total > 0
                        ? static_cast<double>(assigned_max) * dnc_.pipes /
                              static_cast<double>(assigned_total)
                        : 1.0;

  for (auto& group : groups_) {
    group->pipe->reset_stats();
    group->master_running.store(false, std::memory_order_relaxed);
    group->master_exited.store(false, std::memory_order_relaxed);
    group->inflight.store(0, std::memory_order_relaxed);
  }
  bus_->reset_stats();
  // Rendering groups take the first master roles, so the first participant
  // (often the caller, alone until pool workers wake) starts the pipes that
  // have work at once; the roles of groups that render nothing come last.
  master_order_.resize(static_cast<std::size_t>(dnc_.pipes));
  std::iota(master_order_.begin(), master_order_.end(), 0);
  std::ranges::stable_partition(master_order_, [this](int g) {
    return groups_[static_cast<std::size_t>(g)]->active;
  });
  next_master_.store(0, std::memory_order_relaxed);
  masters_done_.store(0, std::memory_order_relaxed);
  {
    util::MutexLock lock(job_mutex_);
    slots_.assign(static_cast<std::size_t>(dnc_.processors), Slot{});
    slot_taken_.assign(static_cast<std::size_t>(dnc_.processors), 0);
    slot_taken_[0] = 1;        // the caller's reserved seat
    active_participants_ = 1;
    frame_open_ = true;
    // Start gate (the elastic replacement for the old start barrier): when
    // the frame has enough work to share, early participants line up until
    // a quorum joins or the deadline passes. Without it, on a loaded host a
    // small frame is over before a newly woken pool worker gets its first
    // timeslice — whichever participant runs first silently serializes the
    // whole frame, so masters never coexist and stealing never happens. The
    // deadline keeps the old barrier's failure mode out: a pool absorbed by
    // other sessions costs at most the gate window, never a stall.
    //
    // The quorum shrinks with the share of groups that render: an
    // incremental frame with one dirty tile of four has one master worth
    // lining up for, so it starts at once (pool workers that wake later
    // still join it as producers); a frame where every group renders waits
    // for the full quorum.
    const auto rendering = static_cast<int>(
        std::ranges::count_if(groups_, [](const auto& g) { return g->active; }));
    const int quorum = std::min(dnc_.processors, 1 + runtime_->worker_count());
    gate_expected_ = assigned_total >= dnc_.chunk_spots
                         ? std::max(1, (quorum * rendering + dnc_.pipes - 1) / dnc_.pipes)
                         : 1;
    gate_open_ = gate_expected_ <= 1;
    // determinism: scheduling gate only — join order never affects pixels.
    gate_deadline_ = std::chrono::steady_clock::now() + 1500us;
  }

  // --- parallel phase: register the frame with the runtime and serve it.
  // The caller always participates; pool workers join up to the processor
  // budget (and serve other sessions' frames when this one is saturated).
  runtime_->register_job(frame_handle_);
  serve_frame(/*is_caller=*/true);
  runtime_->deregister_job(frame_handle_.get());
  // The memo lives for the parallel phase only; between frames it holds no
  // memory (see prepare_geometry_memo).
  memo_slot_.clear();
  memo_blocks_.clear();

  if (frame_failed_.load(std::memory_order_acquire)) {
    // Abandon the frame: discard whatever buffers were in flight, rearm the
    // inboxes for the next frame and hand the first failure to the caller.
    // No participant is active anymore (the caller waited them out), so
    // this cleanup runs single-threaded.
    for (auto& group : groups_) {
      while (group->inbox.try_pop()) {
      }
      group->inbox.reopen();
      group->inflight.store(0, std::memory_order_relaxed);
    }
    std::exception_ptr error;
    {
      util::MutexLock lock(error_mutex_);
      error = std::exchange(frame_error_, nullptr);
    }
    frame_failed_.store(false, std::memory_order_release);
    job_generator_.reset();
    std::rethrow_exception(error);
  }

  // --- sequential gather: the overhead term c of eq. 3.2 ---
  // Readback textures come from the runtime's framebuffer pool: zeroed on
  // checkout, fully overwritten by read_back_into, returned right after —
  // allocation-free in steady state.
  const util::Stopwatch gather_watch;
  render::FramebufferPool& buffers = runtime_->framebuffers();
  double delta_peak = 0.0;
  if (dnc_.tiled) {
    // The retention compose, streamed: only active pipes cross the bus and
    // are composed into place, one at a time (no staging of all partials);
    // clean tiles of an incremental frame keep their retained region of
    // final_ untouched, delta tiles add their readback onto it, and
    // cache-hit tiles compose the store's pinned pixels directly (no
    // readback, no staging copy).
    //
    // Fault site kFramebufferCheckout, mandatory path: every readback needs
    // its buffer, so a throw-hit fails the frame. All of them are drawn
    // before the first compose, so a frame failing here leaves final_
    // holding the previous frame (the gather runs single-threaded on the
    // caller — the exception propagates directly, no buffer is held, and
    // the store saw nothing partial).
    for (int g = 0; g < dnc_.pipes; ++g) {
      if (groups_[static_cast<std::size_t>(g)]->active) {
        fault_point(FaultSite::kFramebufferCheckout,
                    0x6662636fULL ^ static_cast<std::uint64_t>(g));
      }
    }
    // Publishes happen here and only here — after the frame-failure check
    // above — and each insert is atomic under its shard lock, so a failed
    // or canceled frame contributes nothing to the store: other sessions
    // can never observe a partial tile.
    for (int g = 0; g < dnc_.pipes; ++g) {
      Group& group = *groups_[static_cast<std::size_t>(g)];
      const Tile& tile = tiles_[static_cast<std::size_t>(g)];
      const TileKey* key =
          store != nullptr ? &tile_keys[static_cast<std::size_t>(g)] : nullptr;
      auto account_publish = [&](TileStore::PublishOutcome outcome) {
        if (outcome.inserted) stats.cache_tiles_published += 1;
        stats.cache_evictions += outcome.evicted;
      };
      if (group.cache_hit) {
        auto& checkout = checkouts[static_cast<std::size_t>(g)];
        final_.copy_rect_from(checkout.pixels(), tile.x0, tile.y0);
        stats.cache_hit_bytes += checkout.pixels().byte_size();
        checkout.reset();  // unpin as soon as the pixels are composed
        continue;
      }
      if (!group.active) {
        // Retained clean tile. Its pixels already sit in final_; publish
        // them on a miss so a long-lived incremental session still seeds
        // the store for other sessions ("a clean miss publishes after
        // commit"). The publish is best-effort: an injected fault at
        // either the publish or the checkout for its staging copy skips
        // it — the frame's own pixels are already complete.
        if (key != nullptr && !store->contains(*key) &&
            fault_point_contained(FaultSite::kStorePublish,
                                  0x7075626cULL ^
                                      static_cast<std::uint64_t>(g)) &&
            fault_point_contained(FaultSite::kFramebufferCheckout,
                                  0x6662636fULL ^
                                      static_cast<std::uint64_t>(g))) {
          render::Framebuffer copy = buffers.acquire(tile.width, tile.height);
          final_.extract_rect_into(copy, tile.x0, tile.y0);
          account_publish(store->publish(*key, std::move(copy)));
        }
        continue;
      }
      render::Framebuffer part = buffers.acquire(tile.width, tile.height);
      group.pipe->read_back_into(part);
      stats.readback_bytes += part.byte_size();
      if (group.delta) {
        // The readback is Σnew − Σold over the tile: add it onto the
        // retained pixels. The sum is the tile's full render, bit for bit,
        // so a store publish takes the composed pixels, as a retained tile
        // does.
        const auto [lo, hi] = part.min_max();
        delta_peak = std::max({delta_peak, std::abs(static_cast<double>(lo)),
                               std::abs(static_cast<double>(hi))});
        final_.add_rect_from(part, tile.x0, tile.y0);
        if (key != nullptr) final_.extract_rect_into(part, tile.x0, tile.y0);
      } else {
        final_.copy_rect_from(part, tile.x0, tile.y0);
      }
      if (key != nullptr &&
          fault_point_contained(FaultSite::kStorePublish,
                                0x7075626cULL ^ static_cast<std::uint64_t>(g))) {
        // Zero-copy publish: the store takes the readback buffer itself
        // (and recycles it into the same pool on duplicate/reject). A
        // faulted publish is contained — the buffer goes straight back to
        // the pool instead, so no census leak either way.
        account_publish(store->publish(*key, std::move(part)));
      } else {
        buffers.release(std::move(part));
      }
    }
  } else {
    // The checkout fault precedes the clear on purpose: a throw-hit must
    // leave final_ holding the previous completed frame (stale but intact),
    // which is what a degraded serve hands out.
    fault_point(FaultSite::kFramebufferCheckout, 0x6662636fULL);
    final_.clear();
    render::Framebuffer part =
        buffers.acquire(final_.width(), final_.height());
    for (auto& group : groups_) {
      group->pipe->read_back_into(part);
      final_.accumulate(part);
      stats.readback_bytes += part.byte_size();
    }
    buffers.release(std::move(part));
  }
  stats.gather_seconds = gather_watch.seconds();

  // Authoritative deadline verdict. Every injected delay of this frame has
  // been charged by now and this thread is the only one still running, so
  // this check is a pure function of the workload and the fault seed: a
  // frame whose total virtual penalty blew the budget times out on every
  // replay, whether or not any mid-frame check happened to notice first
  // (mid-frame observations depend on thread interleaving; the total does
  // not). A throw here leaves final_ fully composed — the texture a
  // degraded serve hands out is still a complete frame.
  check_canceled();

  // Lattice-budget canary (see FrameStats::peak_pixel_magnitude): one pass
  // over the final texture, outside the modeled critical path.
  const auto [px_lo, px_hi] = final_.min_max();
  stats.peak_pixel_magnitude =
      std::max({std::abs(static_cast<double>(px_lo)),
                std::abs(static_cast<double>(px_hi)), delta_peak});

  // --- bookkeeping ---
  // slots_ is quiescent: the caller observed itself as the last active
  // participant before closing the frame.
  for (const Slot& slot : slots_) {
    stats.genP_seconds += slot.genP_seconds;
    stats.genP_critical_seconds =
        std::max(stats.genP_critical_seconds, slot.genP_seconds);
    stats.steal_seconds += slot.steal_seconds;
    stats.stolen_chunks += slot.stolen_chunks;
    stats.stolen_spots += slot.stolen_spots;
    stats.cross_session_chunks += slot.cross_session_chunks;
    stats.cross_session_spots += slot.cross_session_spots;
    stats.geometry_reused += slot.geometry_reused;
  }
  for (auto& group : groups_) {
    const render::PipeStats ps = group->pipe->stats();
    stats.genT_seconds += ps.busy_seconds;
    stats.genT_critical_seconds =
        std::max(stats.genT_critical_seconds, ps.busy_seconds);
    stats.vertices += ps.vertices;
    stats.geometry_bytes += ps.bytes_received;
    stats.pipe_stall_seconds += ps.stall_seconds;
    stats.pipe_state_seconds += ps.state_seconds;
    stats.raster += ps.raster;
  }
  stats.modeled_frame_seconds =
      stats.assign_seconds +
      std::max(stats.genP_critical_seconds, stats.genT_critical_seconds) +
      stats.gather_seconds;
  stats.frame_seconds = frame_watch.seconds();
  job_generator_.reset();
  return stats;
}

bool DncSynthesizer::serve_frame(bool is_caller) {
  Slot* slot = nullptr;
  int ordinal = 0;
  {
    util::MutexLock lock(job_mutex_);
    if (!frame_open_) return false;
    if (is_caller) {
      ordinal = 0;  // reserved at frame open
    } else {
      ordinal = -1;
      for (int k = 1; k < dnc_.processors; ++k) {
        if (!slot_taken_[static_cast<std::size_t>(k)]) {
          ordinal = k;
          break;
        }
      }
      if (ordinal < 0) return false;  // the processor budget is occupied
      slot_taken_[static_cast<std::size_t>(ordinal)] = 1;
      ++active_participants_;
    }
    slot = &slots_[static_cast<std::size_t>(ordinal)];
  }
  {
    // Line up at the start gate: quorum or deadline opens it for everyone.
    util::MutexLock lock(job_mutex_);
    if (!gate_open_) {
      if (active_participants_ >= gate_expected_) {
        gate_open_ = true;
        job_cv_.notify_all();
      } else {
        job_cv_.wait_until(lock, gate_deadline_,
                           [&]() DCSN_REQUIRES(job_mutex_) { return gate_open_; });
        if (!gate_open_) {
          gate_open_ = true;  // deadline: open for every later participant
          job_cv_.notify_all();
        }
      }
    }
  }
  const bool worked = participant_loop(*slot, ordinal, is_caller);
  if (is_caller) {
    // participant_loop only returns to the caller at completion, where it
    // already closed the frame under job_mutex_.
    return worked;
  }
  {
    util::MutexLock lock(job_mutex_);
    slot_taken_[static_cast<std::size_t>(ordinal)] = 0;
    --active_participants_;
  }
  job_cv_.notify_all();
  return worked;
}

bool DncSynthesizer::participant_loop(Slot& slot, int ordinal, bool is_caller) {
  const int pipe_count = dnc_.pipes;
  bool worked = false;
  for (;;) {
    // Unclaimed master roles come first: a group's counter only becomes
    // claimable once its master runs, so starting masters is what unlocks
    // parallelism for everyone else.
    int m = next_master_.load(std::memory_order_relaxed);
    bool claimed = false;
    while (m < pipe_count && !claimed) {
      claimed = next_master_.compare_exchange_weak(m, m + 1,
                                                   std::memory_order_acq_rel);
    }
    if (claimed) {
      worked = true;
      try {
        run_master(*groups_[static_cast<std::size_t>(
                       master_order_[static_cast<std::size_t>(m)])],
                   slot, is_caller);
      } catch (...) {
        // A master must never leave the frame protocol by exception: record
        // it, unblock everyone, and still retire the role so the caller's
        // completion count reaches pipe_count.
        fail_frame(std::current_exception());
      }
      masters_done_.fetch_add(1, std::memory_order_acq_rel);
      job_cv_.notify_all();
      continue;
    }
    bool produced = false;
    try {
      produced = producer_once(slot, ordinal, is_caller);
    } catch (...) {
      fail_frame(std::current_exception());
    }
    if (produced) {
      worked = true;
      continue;
    }
    if (!is_caller) return worked;  // pool worker: hand capacity elsewhere
    // The caller stays to the end: masters may still be running on pool
    // workers, late masters may still need claiming after a failure, and a
    // straggler participant may still be mid-chunk. The timed wait bounds
    // the recheck latency; completion transitions signal job_cv_.
    util::MutexLock lock(job_mutex_);
    if (masters_done_.load(std::memory_order_acquire) == pipe_count &&
        active_participants_ == 1) {
      // Close under the same lock that observed quiescence so no straggler
      // can join (and touch slots_) after the caller walks away.
      frame_open_ = false;
      return worked;
    }
    job_cv_.wait_for(lock, 1ms);
  }
}

void DncSynthesizer::run_master(Group& group, Slot& slot, bool is_caller) {
  group.master_running.store(true, std::memory_order_release);
  // A group that renders nothing this frame (a clean or store-hit tile) has
  // an empty counter and receives no buffers — no producer claims from it
  // and no thief routes loot to it — so its master wakes no pool workers,
  // issues no clear (the retained pixels live in final_, not in the pipe
  // target) and fences nothing at exit. It still steals for the others.
  if (group.active) {
    runtime_->notify_workers();  // this group's counter just became claimable
    group.pipe->clear();
  }

  auto submit = [&](Message& msg) {
    // A throw-hit inside submit_to_pipe leaves the in-flight registration
    // standing; that is fine — the frame fails, and the failed-frame
    // cleanup in synthesize() resets every group's inflight to zero.
    submit_to_pipe(group, std::move(msg.buffer), msg.submit_faults);
    group.inflight.fetch_sub(1, std::memory_order_seq_cst);
  };

  for (;;) {
    if (frame_failed_.load(std::memory_order_relaxed)) return;
    check_canceled();
    // Forwarding buffers has priority: a starved pipe is worse than a
    // delayed chunk of master-side generation.
    if (auto msg = group.inbox.try_pop()) {
      submit(*msg);
      continue;
    }
    if (const auto range = group.work->claim(); !range.empty()) {
      FaultInjector::Batch submit_faults;
      render::CommandBuffer buffer =
          generate_chunk(group, range, slot, is_caller, &submit_faults);
      submit_to_pipe(group, std::move(buffer), submit_faults);
      continue;
    }
    if (dnc_.steal && master_steal_once(group, slot, is_caller)) continue;
    // Exit condition, item-counted: own counter drained and no registered
    // delivery is still on its way to this pipe. Two guarantees close the
    // races. (1) Same-counter claims: the seq_cst fence pairs with the
    // producers' increment-fence-claim sequence — if a producer's
    // successful claim is visible here (the counter reads drained), its
    // inflight increment is visible too. (2) Cross-counter deliveries
    // (contiguous mode routes stolen chunks to the thief's affinity pipe):
    // the exited flag is stored *before* re-reading inflight, while the
    // producer increments inflight *before* reading the flag — one side
    // must see the other, so the master either stays for the registrant or
    // the registrant reroutes. A phantom (an increment whose claim comes
    // back empty) only delays exit by one timed wait, never loses work.
    std::atomic_thread_fence(std::memory_order_seq_cst);
    if (group.work->drained() &&
        group.inflight.load(std::memory_order_seq_cst) == 0) {
      group.master_exited.store(true, std::memory_order_seq_cst);
      if (group.inflight.load(std::memory_order_seq_cst) == 0) break;
      group.master_exited.store(false, std::memory_order_seq_cst);
      continue;  // a delivery registered in the window; stay for it
    }
    // Fault site kQueuePop (scheduling class): a drop models a spurious
    // timeout — skip the wait and rescan, which is exactly the path a real
    // spurious CV wakeup takes; the exit handshake must terminate through
    // it. A delay models preemption before the wait.
    if (faults_ != nullptr &&
        faults_->check_scheduling(FaultSite::kQueuePop) ==
            FaultInjector::Action::kDrop) {
      std::this_thread::yield();
      continue;
    }
    if (auto msg = group.inbox.pop_for(500us)) submit(*msg);
    // On timeout (or closed inbox) just rescan: the loop head re-checks
    // failure, new work and the exit condition.
  }
  if (group.active) group.pipe->finish();
}

DncSynthesizer::Group* DncSynthesizer::pick_victim(const Group* self,
                                                   bool for_master) {
  Group* best = nullptr;
  std::int64_t best_remaining = 0;
  for (auto& candidate : groups_) {
    if (candidate.get() == self) continue;
    if (!candidate->master_running.load(std::memory_order_acquire)) {
      // Producers deliver with a blocking push, so they need a live
      // consumer. Masters may raid a group whose master has not started:
      // in contiguous mode the loot renders on the thief's own pipe, and
      // in tiled mode it is buffered in the victim's inbox — but only
      // while there is headroom for every potential master-held message,
      // so the non-blocking delivery below can never wedge on an inbox
      // nobody drains yet.
      if (!for_master) continue;
      if (dnc_.tiled &&
          candidate->inbox.size() + static_cast<std::size_t>(dnc_.pipes) >=
              candidate->inbox.capacity()) {
        continue;
      }
    }
    const std::int64_t r = candidate->work->remaining();
    if (r > best_remaining) {
      best_remaining = r;
      best = candidate.get();
    }
  }
  return best;
}

bool DncSynthesizer::master_steal_once(Group& me, Slot& slot, bool is_caller) {
  Group* victim = pick_victim(&me, /*for_master=*/true);
  if (victim == nullptr) return false;
  // Register against the victim before the claim (the same-counter Dekker
  // pattern the exit condition relies on); if the loot ends up on this
  // master's own pipe the registration is retired right after the submit.
  victim->inflight.fetch_add(1, std::memory_order_seq_cst);
  std::atomic_thread_fence(std::memory_order_seq_cst);
  const auto range = victim->work->steal(dnc_.chunk_spots);
  if (range.empty()) {
    victim->inflight.fetch_sub(1, std::memory_order_seq_cst);
    return true;  // raced with the owner; rescan
  }
  const util::ThreadCpuStopwatch watch;
  Message msg;
  msg.buffer = generate_chunk(*victim, range, slot, is_caller,
                              &msg.submit_faults);
  slot.steal_seconds += watch.seconds();
  slot.stolen_chunks += 1;
  slot.stolen_spots += range.size();
  if (!dnc_.tiled &&
      (!victim->master_running.load(std::memory_order_acquire) ||
       me.pipe->stats().bytes_received <=
           victim->pipe->stats().bytes_received)) {
    // Contiguous: every pipe renders the full texture and the gather
    // blends by addition, so the loot may go through the thief's own pipe
    // — but only when that pipe is the less loaded of the two (submitted
    // geometry bytes count queued work): unconditional re-routing would
    // *create* raster imbalance on the tail of an already balanced frame.
    // A not-yet-running victim always renders on the thief (nobody drains
    // its inbox yet).
    submit_to_pipe(me, std::move(msg.buffer), msg.submit_faults);
    victim->inflight.fetch_sub(1, std::memory_order_seq_cst);
    return true;
  }
  // Tiled (always), or a contiguous victim whose pipe is the lighter one:
  // the buffer is routed back through the owner's inbox. A master must
  // never block on a foreign inbox — two masters blocked on each other's
  // full inbox would deadlock — so alternate try_push with draining its
  // own. Termination: a running victim drains its inbox until its
  // in-flight count (which includes this message) is zero, and a
  // not-yet-started tiled victim had `pipes` slots of headroom at
  // selection, at most one undelivered message per master-thief.
  while (!victim->inbox.try_push_or_keep(msg)) {
    if (frame_failed_.load(std::memory_order_relaxed)) return true;
    if (auto own = me.inbox.try_pop()) {
      submit_to_pipe(me, std::move(own->buffer), own->submit_faults);
      me.inflight.fetch_sub(1, std::memory_order_seq_cst);
    } else {
      std::this_thread::yield();
    }
  }
  return true;
}

bool DncSynthesizer::producer_once(Slot& slot, int ordinal, bool is_caller) {
  if (frame_failed_.load(std::memory_order_relaxed)) return false;
  check_canceled();
  // Affinity first (the front of the counter, like the old in-group
  // slaves); with stealing enabled, the most loaded running group after.
  Group& own = *groups_[static_cast<std::size_t>(ordinal % dnc_.pipes)];
  if (own.master_running.load(std::memory_order_acquire)) {
    own.inflight.fetch_add(1, std::memory_order_seq_cst);
    std::atomic_thread_fence(std::memory_order_seq_cst);
    const auto range = own.work->claim();
    if (!range.empty()) {
      Message msg;
      msg.buffer = generate_chunk(own, range, slot, is_caller,
                                  &msg.submit_faults);
      (void)own.inbox.push(std::move(msg));  // false = closed = frame failed
      return true;
    }
    own.inflight.fetch_sub(1, std::memory_order_seq_cst);
  }
  if (!dnc_.steal) return false;
  Group* victim = pick_victim(&own, /*for_master=*/false);
  if (victim == nullptr) return false;
  // Delivery target. Tiled mode has no choice: only the owning group's
  // pipe renders the stolen region. Contiguous mode routes the loot to the
  // thief's *affinity* pipe when that pipe carries less submitted geometry
  // (addition commutes across pipes, so sending work to the lighter pipe
  // balances rasterization the way stealing balances generation — while
  // the load comparison keeps tail-end steals from unbalancing an already
  // even frame). Cross-counter routing needs the two-phase handshake
  // against the destination master's exit (see run_master); when the
  // destination is unavailable the owner's inbox is always valid.
  Group* dest = victim;
  if (!dnc_.tiled && &own != victim &&
      own.master_running.load(std::memory_order_acquire) &&
      own.pipe->stats().bytes_received <
          victim->pipe->stats().bytes_received) {
    own.inflight.fetch_add(1, std::memory_order_seq_cst);
    if (own.master_exited.load(std::memory_order_seq_cst)) {
      own.inflight.fetch_sub(1, std::memory_order_seq_cst);
    } else {
      dest = &own;
    }
  }
  if (dest == victim) {
    victim->inflight.fetch_add(1, std::memory_order_seq_cst);
  }
  std::atomic_thread_fence(std::memory_order_seq_cst);
  const auto range = victim->work->steal(dnc_.chunk_spots);
  if (range.empty()) {
    dest->inflight.fetch_sub(1, std::memory_order_seq_cst);
    return true;  // raced; rescan
  }
  const util::ThreadCpuStopwatch watch;
  Message msg;
  msg.buffer = generate_chunk(*victim, range, slot, is_caller,
                              &msg.submit_faults);
  slot.steal_seconds += watch.seconds();
  slot.stolen_chunks += 1;
  slot.stolen_spots += range.size();
  // Producers may block here: the destination's master is running, has the
  // delivery registered in its in-flight count, and drains its inbox until
  // that count reaches zero. close() wakes us on frame failure.
  (void)dest->inbox.push(std::move(msg));
  return true;
}

void DncSynthesizer::fail_frame(std::exception_ptr error) {
  {
    util::MutexLock lock(error_mutex_);
    if (!frame_error_) frame_error_ = error;
  }
  frame_failed_.store(true, std::memory_order_release);
  // Closing wakes blocked pops (masters) and makes blocked pushes
  // (producers, thieves) fail instead of waiting on a consumer that
  // already bailed.
  for (auto& group : groups_) group->inbox.close();
  job_cv_.notify_all();
}

render::CommandBuffer DncSynthesizer::generate_chunk(
    const Group& group, util::StealableWorkCounter::Range range, Slot& slot,
    bool is_caller, FaultInjector::Batch* submit_faults) {
  check_canceled();
  const util::ThreadCpuStopwatch watch;
  render::CommandBuffer buffer;
  buffer.reserve(static_cast<std::size_t>(range.size()),
                 static_cast<std::size_t>(synthesis_.vertices_per_spot()));
  // Memoized spots another producer is still tracing, revisited after the
  // rest of the chunk. Mesh order within a buffer never shows in a pixel:
  // lattice-snapped contributions sum exactly in any order.
  std::array<std::int64_t, 64> deferred;
  std::size_t n_deferred = 0;
  const auto spot_count = static_cast<std::int64_t>(job_spots_.size());
  for (std::int64_t local = range.begin; local < range.end; ++local) {
    const std::int64_t k = global_index(group, local);
    // Both outcome sites key on the spot's *global* index, not the chunk:
    // every spot is generated exactly once per attempt no matter how
    // stealing partitioned the counter, so the union of draws — and with
    // it the attempt's verdict — is a pure function of workload and seed.
    // kFieldSample strikes here (a poisoned field callback, or virtual
    // delay charged against the deadline); the spot's kPipeSubmit decision
    // is pre-drawn into the buffer's batch and strikes at submit time.
    // A removed (negated old) instance keys on its place in the plan with
    // bit 62 set, so it never shares a key with a spot of this frame.
    const auto subkey = static_cast<std::uint64_t>(
        k < spot_count ? k : (k - spot_count) | (std::int64_t{1} << 62));
    fault_point(FaultSite::kFieldSample, 0x6669656c64ULL ^ subkey);
    fault_predraw(FaultSite::kPipeSubmit, 0x7069706573ULL ^ subkey, submit_faults);
    if (memo_slot_.empty() || memo_slot_[static_cast<std::size_t>(k)] < 0) {
      job_generator_->generate(spot_at(k), buffer);
    } else if (!generate_memoized(k, buffer, slot, n_deferred < deferred.size())) {
      deferred[n_deferred++] = k;
    }
  }
  for (std::size_t i = 0; i < n_deferred; ++i) {
    (void)generate_memoized(deferred[i], buffer, slot, /*may_defer=*/false);
  }
  slot.genP_seconds += watch.seconds();
  if (!is_caller && runtime_->active_job_count() > 1) {
    // A pool worker generated this chunk while another session's frame was
    // registered: capacity multiplexed across sessions.
    slot.cross_session_chunks += 1;
    slot.cross_session_spots += range.size();
  }
  // Chunk heartbeat for the no-progress watchdog.
  if (control_ != nullptr) {
    control_->progress.fetch_add(1, std::memory_order_relaxed);
  }
  return buffer;
}

}  // namespace dcsn::core
