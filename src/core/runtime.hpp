// The shared engine runtime: one worker pool, one graphics-pipe pool, one
// framebuffer pool for every synthesizer, animator, service session and
// data-parallel loop in the process.
//
// The paper's machine model assumes a single synthesis job owning the whole
// Onyx2 — processors, pipes and the bus. That assumption breaks the moment
// two animations (or a service full of client sessions) run concurrently:
// each DncSynthesizer used to spawn its own worker threads and GraphicsPipes
// privately, so N sessions meant N oversubscribed thread pools fighting for
// the same cores. The Runtime inverts the ownership: the *engine* owns the
// workers and device pools, and sessions borrow.
//
//   Runtime
//    ├─ worker pool        N pool threads serving registered SharedJobs
//    │                     (frame jobs and fork-join loops) in FIFO order
//    ├─ GraphicsPipe pool  released pipes keyed by behavioral config; a
//    │                     checkout reshapes via resize_target instead of
//    │                     constructing a new server thread + target
//    └─ FramebufferPool    recycled readback / partial / scratch textures
//
// Scheduling model. A frame job (one DncSynthesizer::synthesize call)
// registers itself, and *participants* join it: always the calling thread,
// plus pool workers up to the session's processor budget. Each participant
// claims chunks of spot geometry, generates them and submits the command
// buffers straight to the destination GraphicsPipe, stealing across groups
// — and, because pool workers serve whichever registered job has work,
// across *sessions*: util::StealableWorkCounter never cared which thread
// claims a chunk, and the contribution lattice guarantees the pixels
// cannot depend on which session's worker generated what. The calling
// thread always participates, so every frame makes progress even when the
// pool is empty or absorbed by other sessions.
//
// Loops fan out the same way. fork_join() registers a short job over an
// index range: the caller and up to a cap of pool workers claim ranges,
// each from its own block first. The serial synthesizer's partial
// framebuffers, the DNS and smog solvers, particle advection, the texture
// filters and LIC all run on it, so one scheduler serves every thread of
// the process.
//
// A process-global Runtime (Runtime::global()) backs every constructor that
// does not name one, which is what keeps the entire pre-runtime API — and
// its test suite — working unchanged.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "core/fault_injector.hpp"
#include "core/tile_store.hpp"
#include "render/framebuffer_pool.hpp"
#include "render/pipe.hpp"
#include "util/thread_annotations.hpp"

namespace dcsn::core {

struct RuntimeConfig {
  /// Initial worker-pool size. The pool also grows on demand: sessions call
  /// ensure_workers() with their processor budget, so the default Runtime
  /// starts empty and sizes itself to the largest request seen.
  int workers = 0;
  /// Byte budget of the shared content-addressed tile cache (see
  /// core::TileStore). Sessions opt in per engine via DncConfig::tile_cache;
  /// the store itself is process-wide so sessions share rendered tiles.
  std::size_t tile_cache_bytes = 256u << 20;
  /// Lock shards of the tile cache.
  std::size_t tile_cache_shards = 8;
  /// Deterministic fault injection (tests/torture only; see
  /// core/fault_injector.hpp). Null — the default — disables every site at
  /// the cost of one pointer check. Shared so torture harnesses can hold the
  /// injector and read its counters after the runtime is gone.
  std::shared_ptr<FaultInjector> fault_injector = nullptr;
};

class Runtime;

/// RAII checkout of a pooled GraphicsPipe: returns the pipe to the Runtime's
/// pool on destruction (with its session state — bus, profile, viewport —
/// reset), instead of joining its server thread.
class PipeLease {
 public:
  PipeLease() = default;
  PipeLease(Runtime* runtime, std::unique_ptr<render::GraphicsPipe> pipe)
      : runtime_(runtime), pipe_(std::move(pipe)) {}
  PipeLease(PipeLease&&) noexcept = default;
  PipeLease& operator=(PipeLease&& other) noexcept;
  PipeLease(const PipeLease&) = delete;
  PipeLease& operator=(const PipeLease&) = delete;
  ~PipeLease();

  [[nodiscard]] render::GraphicsPipe* get() const { return pipe_.get(); }
  render::GraphicsPipe* operator->() const { return pipe_.get(); }
  render::GraphicsPipe& operator*() const { return *pipe_; }
  explicit operator bool() const { return pipe_ != nullptr; }

 private:
  Runtime* runtime_ = nullptr;
  std::unique_ptr<render::GraphicsPipe> pipe_;
};

class Runtime {
 public:
  /// A cooperative multi-worker computation (a synthesis frame). Pool
  /// workers offer capacity by calling serve(); the implementation joins the
  /// job if it wants the help, works until nothing is immediately
  /// available, and returns whether any work was done. serve() must be safe
  /// to call at any time, including after the job's frame completed — a
  /// worker may hold a snapshot of the registry from before deregistration.
  class SharedJob {
   public:
    virtual ~SharedJob() = default;
    virtual bool serve() = 0;
    /// A short loop (fork_join): once serve() returns it has nothing left
    /// for this worker, and the next loop likely follows within
    /// microseconds (a solver's sweeps), so the worker spins briefly for the
    /// next registration instead of parking — a futex wake per loop would
    /// cost more than the loop.
    [[nodiscard]] virtual bool keep_warm() const { return false; }
  };

  explicit Runtime(RuntimeConfig config = {});
  ~Runtime();

  Runtime(const Runtime&) = delete;
  Runtime& operator=(const Runtime&) = delete;

  /// The process-global runtime every session borrows from by default.
  /// Constructed on first use with an empty pool (sessions grow it).
  [[nodiscard]] static Runtime& global();

  // --- worker pool ---

  /// Grows the pool to at least `count` workers (never shrinks). Sessions
  /// call this with their processor budget so the shared pool can serve the
  /// largest session even when it arrives late.
  void ensure_workers(int count);

  [[nodiscard]] int worker_count() const;  // lock-free

  /// Registers a job for pool service. Jobs are served in registration
  /// (FIFO) order: the oldest frame in flight drains first, which is what
  /// bounds per-job latency under cross-session load.
  void register_job(std::shared_ptr<SharedJob> job);
  void deregister_job(const SharedJob* job);

  /// Registered frame jobs right now (a lock-free snapshot). Sessions use
  /// this to classify work as cross-session: a chunk generated by a pool
  /// worker while >= 2 jobs are registered was capacity another session
  /// could have claimed. Read once per generated chunk, so it must not
  /// touch the pool mutex.
  [[nodiscard]] int active_job_count() const {
    return job_count_.load(std::memory_order_relaxed);
  }

  // --- fork-join loops ---

  /// One claimed range of a fork_join: the participant's slot, unique among
  /// the call's participants and below its cap, and the half-open item
  /// range [begin, end).
  using LoopBody = std::function<void(int slot, std::int64_t begin, std::int64_t end)>;

  /// Runs `body` over [0, n) in ranges of at most `chunk` items. The calling
  /// thread always takes part (as slot 0); pool workers join until
  /// `max_participants` have. Returns once every range ran and every
  /// participant left, then rethrows the first exception a participant
  /// threw (after it, no further ranges are claimed). Callable from any
  /// thread, pool workers included: it completes even if no worker joins.
  /// Does not grow the pool.
  void fork_join(std::int64_t n, std::int64_t chunk, int max_participants,
                 const LoopBody& body);

  // --- device pools ---

  /// Checks out a pipe matching `config`'s behavioral parameters (state
  /// latency, raster algorithm, queue capacity), reshaping a pooled
  /// pipe via resize_target when only the dimensions differ, or constructing
  /// a fresh one. The lease returns the pipe on destruction. `bus` is the
  /// borrowing session's bus model (rebound per checkout).
  [[nodiscard]] PipeLease acquire_pipe(const render::PipeConfig& config,
                                       std::shared_ptr<render::Bus> bus,
                                       int pipe_id);

  [[nodiscard]] render::FramebufferPool& framebuffers() { return framebuffers_; }

  /// The process-wide content-addressed tile cache. Engines with
  /// DncConfig::tile_cache probe it before rendering a dirty tile and
  /// publish freshly rendered tiles back; because every session of this
  /// runtime shares the one store, a tile rendered by any session serves
  /// them all (bit-identically — see core/tile_store.hpp).
  [[nodiscard]] TileStore& tile_store() { return tile_store_; }

  /// The runtime's fault injector, or null when none was configured.
  /// Engines cache this pointer and consult it at their injection sites.
  [[nodiscard]] FaultInjector* faults() const {
    return config_.fault_injector.get();
  }

  /// Pipes constructed because no pooled pipe matched (pool telemetry).
  [[nodiscard]] std::int64_t pipes_created() const;
  /// Checkouts served by reusing a pooled pipe.
  [[nodiscard]] std::int64_t pipes_reused() const;

 private:
  friend class PipeLease;

  // Behavioral pipe identity: everything except the (resizable) dimensions.
  using PipeKey = std::tuple<double, std::size_t>;
  static PipeKey key_of(const render::PipeConfig& config) {
    return {config.state_change_seconds, config.queue_capacity};
  }

  void release_pipe(std::unique_ptr<render::GraphicsPipe> pipe);
  void worker_loop(int worker_id);

  RuntimeConfig config_;  // lock-lint: unguarded(immutable after construction)

  mutable util::Mutex mutex_;
  util::CondVar cv_;
  /// Bumped per wake event, under mutex_ so parked workers cannot miss it;
  /// read without it by workers spinning before they park.
  std::atomic<std::uint64_t> epoch_{0};
  bool stop_ DCSN_GUARDED_BY(mutex_) = false;
  /// FIFO service order.
  std::vector<std::shared_ptr<SharedJob>> jobs_ DCSN_GUARDED_BY(mutex_);
  std::atomic<int> job_count_{0};  ///< jobs_.size(), readable without mutex_

  mutable util::Mutex pipes_mutex_;
  std::map<PipeKey, std::vector<std::unique_ptr<render::GraphicsPipe>>>
      idle_pipes_ DCSN_GUARDED_BY(pipes_mutex_);
  std::int64_t pipes_created_ DCSN_GUARDED_BY(pipes_mutex_) = 0;
  std::int64_t pipes_reused_ DCSN_GUARDED_BY(pipes_mutex_) = 0;

  render::FramebufferPool framebuffers_;  // lock-lint: unguarded(internally synchronized)
  // Recycles into framebuffers_: declared after it.
  TileStore tile_store_;  // lock-lint: unguarded(internally synchronized)

  /// Grown under mutex_ (ensure_workers) but deliberately unannotated: the
  /// destructor joins the pool via workers_.clear() *without* mutex_ held —
  /// a worker being joined may itself need mutex_ to observe stop_, so
  /// holding it there would deadlock. Safe because by then no other thread
  /// can call ensure_workers (destruction implies exclusive access).
  std::vector<std::jthread> workers_;  // lock-lint: unguarded(joined unlocked in dtor)
  std::atomic<int> worker_count_{0};  ///< workers_.size(), readable without mutex_
};

/// Runs `body(begin, end)` over [0, n) on the process-global runtime, with
/// up to `max_participants` participants (0: one per hardware thread),
/// growing the global pool to serve them. For loops whose every item is
/// computed on its own, so that neither the partition nor the participant
/// count can change a result.
void parallel_for(std::int64_t n,
                  const std::function<void(std::int64_t begin, std::int64_t end)>& body,
                  int max_participants = 0);

}  // namespace dcsn::core
